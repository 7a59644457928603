"""Final report assembly: one JSON document plus a readable markdown view.

This is the only artifact allowed to carry wall-clock values; everything the
verification stages write is reproducible byte for byte.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path

from ..code_ingest import ExtractionStats
from ..diff_verifier import IMPLEMENTED, NOT_IMPLEMENTED, Finding, read_matrix
from ..errors import SerializationError
from ..fsio import (Record, invalid, read_json, read_jsonl, violation,
                    write_json, write_whole)
from ..llm_gateway import LedgerSnapshot
from .config import PipelineConfig
from .metrics import Evaluation

_DISPLAY = {IMPLEMENTED: "True", NOT_IMPLEMENTED: "False"}
_CELLS = ("True", "False", "Unknown")


@dataclass(frozen=True)
class _Report(Record):
    """The parts of a report that render_report checks before writing it;
    its other keys are written unchecked."""
    manifest: tuple[str, ...]
    matrix: dict[str, dict[str, str]]
    findings: tuple[Finding, ...]
    extraction_stats: dict[str, ExtractionStats]
    costs: LedgerSnapshot

    def __post_init__(self):
        for version, row in self.matrix.items():
            for rfc, cell in row.items():
                if cell not in _CELLS:
                    raise invalid(f"matrix.{version}.{rfc}", f"{cell!r} is "
                                  f"not one of {list(_CELLS)!r}")


def build_report(cfg: PipelineConfig) -> dict:
    workdir = cfg.workdir
    manifest = sorted(
        p.relative_to(workdir).as_posix()
        for p in workdir.rglob("*")
        if p.is_file() and p.relative_to(workdir).parts[0] != "report")

    matrix = {version: {str(rfc): _DISPLAY.get(verdict.value, "Unknown")
                        for rfc, verdict in row.items()}
              for version, row in read_matrix(
                  workdir / "verify" / "matrix.json").items()}
    findings = read_jsonl(workdir / "verify" / "findings.jsonl",
                          Finding.from_dict)
    costs = read_json(workdir / "verify" / "ledger.json",
                      LedgerSnapshot.from_dict)
    stats = {}
    for version in cfg.versions:
        p = workdir / "verify" / f"stats-{version}.json"
        if p.exists():  # a directory there fails, it is not skipped
            stats[version] = read_json(p, ExtractionStats.from_dict).to_dict()

    report: dict = {
        "manifest": manifest,
        "matrix": matrix,
        "findings": [f.to_dict() for f in findings],
        "extraction_stats": stats,
        "costs": costs.to_dict(),
        "timing": {
            "generated_at": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
        },
    }
    eval_path = workdir / "eval" / "metrics.json"
    if eval_path.exists():
        evaluation = read_json(eval_path, Evaluation.from_dict)
        mismatches = {(f.system, str(f.rfc)) for f in evaluation.findings
                      if "ground-truth-mismatch" in f.flags}
        report["metrics"] = {"confusion": evaluation.confusion.to_dict(),
                             **evaluation.metrics.to_dict()}
        report["mismatched_cells"] = sorted(f"{system}/{rfc}"
                                            for system, rfc in mismatches)
    return report


def render_report(report: dict, out_dir: str | Path) -> Path:
    try:
        _Report.from_dict(report)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"report fails its schema: {violation(exc)}") from exc
    out = Path(out_dir)
    write_json(out / "report.json", report)
    write_whole(out / "report.md", _to_markdown(report))
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
    for model, totals in sorted(costs["models"].items()):
        lines.append(f"- {model}: {totals['prompt_tokens']} prompt + "
                     f"{totals['completion_tokens']} completion tokens, "
                     f"${totals['cost']}")
    phases = costs["phases"]
    for phase in sorted(phases):
        lines.append(f"- {phase} phase tokens: {phases[phase]}")
    lines.append(f"- total tokens: {costs['token_total']}")
    lines.append("")

    if "timing" in report:
        lines += ["## Timing", "",
                  f"- generated at: {report['timing']['generated_at']}", ""]

    lines += ["## Manifest", ""]
    for path in report["manifest"]:
        lines.append(f"- `{path}`")
    lines.append("")
    return "\n".join(lines)
