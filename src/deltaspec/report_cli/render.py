"""Final report assembly: one JSON document plus a readable markdown view.

This is the only artifact allowed to carry wall-clock values; everything the
verification stages write is reproducible byte for byte.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass
from pathlib import Path

from ..code_ingest import ExtractionStats
from ..diff_verifier import IMPLEMENTED, NOT_IMPLEMENTED
from ..errors import SerializationError
from ..fsio import Record, read_json, read_jsonl, write_json
from ..llm_gateway import schema_error
from .config import PipelineConfig
from .metrics import Confusion

REPORT_SCHEMA = {
    "type": "object",
    "required": ["manifest", "matrix", "findings", "extraction_stats",
                 "costs"],
    "properties": {
        "manifest": {"type": "array", "items": {"type": "string"}},
        "matrix": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "additionalProperties": {
                    "enum": ["True", "False", "Unknown"],
                },
            },
        },
        "findings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["system", "rfc", "description",
                             "vulnerability_class", "evidence"],
            },
        },
        "extraction_stats": {"type": "object"},
        "costs": {"type": "object"},
        "metrics": {"type": "object"},
        "timing": {"type": "object"},
    },
}

_DISPLAY = {IMPLEMENTED: "True", NOT_IMPLEMENTED: "False"}


@dataclass(frozen=True)
class _ModelCost(Record):
    """A model's line of the cost ledger, as the report renders it."""
    prompt_tokens: int
    completion_tokens: int
    cost: float


def build_report(cfg: PipelineConfig) -> dict:
    workdir = cfg.workdir
    manifest = sorted(
        p.relative_to(workdir).as_posix()
        for p in workdir.rglob("*")
        if p.is_file() and p.relative_to(workdir).parts[0] != "report")

    matrix = read_json(workdir / "verify" / "matrix.json", lambda raw: {
        version: {rfc: _DISPLAY.get(cell["value"], "Unknown")
                  for rfc, cell in cells.items()}
        for version, cells in raw["versions"].items()
    })
    findings = read_jsonl(workdir / "verify" / "findings.jsonl")
    costs = read_json(workdir / "verify" / "ledger.json", _costs)
    stats = {}
    for version in cfg.versions:
        p = workdir / "verify" / f"stats-{version}.json"
        if p.is_file():
            stats[version] = read_json(
                p, lambda d: ExtractionStats.from_dict(d).to_dict())

    report: dict = {
        "manifest": manifest,
        "matrix": matrix,
        "findings": findings,
        "extraction_stats": stats,
        "costs": costs,
        "timing": {
            "generated_at": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
        },
    }
    eval_path = workdir / "eval" / "metrics.json"
    if eval_path.is_file():
        report.update(read_json(eval_path, _evaluation))
    return report


def _costs(raw: dict) -> dict:
    """The ledger as written, once each figure the report renders has its
    type."""
    for totals in raw.get("models", {}).values():
        _ModelCost.from_dict(totals)
    for tokens in [*raw.get("phases", {}).values(), raw.get("token_total", 0)]:
        if type(tokens) is not int:
            raise TypeError(f"token count {tokens!r} is not an int")
    return raw


def _evaluation(raw: dict) -> dict:
    Confusion.from_dict(raw["confusion"])
    mismatches = {(f["system"], str(f["rfc"])) for f in raw["findings"]
                  if "ground-truth-mismatch" in f.get("flags", ())}
    return {"metrics": {"confusion": raw["confusion"], **raw["metrics"]},
            "mismatched_cells": sorted(f"{system}/{rfc}"
                                       for system, rfc in mismatches)}


def render_report(report: dict, out_dir: str | Path) -> Path:
    error = schema_error(report, REPORT_SCHEMA)
    if error is not None:
        raise SerializationError(f"report fails its schema: {error}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", report)
    (out / "report.md").write_text(_to_markdown(report), encoding="utf-8")
    return out / "report.md"


def _to_markdown(report: dict) -> str:
    lines: list[str] = ["# Differential verification report", ""]
    mismatched = set(report.get("mismatched_cells", ()))

    lines += ["## Verdict matrix", ""]
    matrix = report["matrix"]
    rfcs = sorted({rfc for cells in matrix.values() for rfc in cells},
                  key=int)
    lines.append("| system | " + " | ".join(f"RFC {r}" for r in rfcs) + " |")
    lines.append("|" + " --- |" * (len(rfcs) + 1))
    for version in sorted(matrix):
        row = [version]
        for rfc in rfcs:
            value = matrix[version].get(rfc, "-")
            if f"{version}/{rfc}" in mismatched:
                value += " (!)"
            row.append(value)
        lines.append("| " + " | ".join(row) + " |")
    if mismatched:
        lines += ["", "(!) marks cells that disagree with ground truth."]
    lines.append("")

    lines += ["## Findings", ""]
    if report["findings"]:
        for f in report["findings"]:
            lines.append(f"- **{f['system']} / RFC {f['rfc']}** "
                         f"[{f['vulnerability_class']}]: {f['description']}")
            if f["evidence"]:
                for fid in f["evidence"]:
                    lines.append(f"  - evidence: `{fid}`")
    else:
        lines.append("No findings.")
    lines.append("")

    if report["extraction_stats"]:
        lines += ["## Extraction statistics", ""]
        lines.append("| system | functions | lines | selected fn (mean) | "
                     "selected lines (mean) | FER % | LER % |")
        lines.append("|" + " --- |" * 7)
        for version, s in sorted(report["extraction_stats"].items()):
            lines.append(
                f"| {version} | {s['total_functions']} | {s['total_lines']} "
                f"| {s['selected_functions']} | {s['selected_lines']} "
                f"| {s['function_extraction_rate']} "
                f"| {s['line_extraction_rate']} |")
        lines.append("")

    if "metrics" in report:
        m = report["metrics"]
        lines += ["## Evaluation", ""]
        lines.append(f"- accuracy: {m['accuracy_pct']}%")
        lines.append(f"- recall: {m['recall_pct']}%")
        lines.append(f"- precision: {m['precision_pct']}%")
        lines.append(f"- F1: {m['f1']}")
        c = m["confusion"]
        lines.append(f"- confusion (TP, FP, TN, FN): "
                     f"({c['tp']}, {c['fp']}, {c['tn']}, {c['fn']})")
        lines.append("")

    lines += ["## Cost and token usage", ""]
    costs = report["costs"]
    for model, totals in sorted(costs.get("models", {}).items()):
        lines.append(f"- {model}: {totals['prompt_tokens']} prompt + "
                     f"{totals['completion_tokens']} completion tokens, "
                     f"${totals['cost']}")
    phases = costs.get("phases", {})
    for phase in sorted(phases):
        lines.append(f"- {phase} phase tokens: {phases[phase]}")
    lines.append(f"- total tokens: {costs.get('token_total', 0)}")
    lines.append("")

    if "timing" in report:
        lines += ["## Timing", "",
                  f"- generated at: {report['timing']['generated_at']}", ""]

    lines += ["## Manifest", ""]
    for path in report["manifest"]:
        lines.append(f"- `{path}`")
    lines.append("")
    return "\n".join(lines)
