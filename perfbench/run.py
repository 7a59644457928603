"""Benchmark for the full eight-stage deltaspec pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Run from the root of a checkout. Every pipeline run is a fresh Python
process (``child.py``) that drives ingest-rfc, ingest-code, build-graph,
build-chains, synth-triplets, verify, eval and report through
``deltaspec.report_cli.cli.main``, one stage after the other: one closed-loop
client. This harness starts no threads.

Per invocation:

1. smoke: the bundled mini corpus once, untimed; its verdicts must be the
   ones acceptance 7 pins;
2. set-up, three times: generate the workload's corpus from the seed and
   make one untimed pipeline run from an empty cache, with the workload's
   provider delay. Warm workloads keep the cache it fills; for the cold
   workload it is the reference run. ``setup_s`` is the median;
3. timed runs until ``--seconds`` have passed (at least three; the default
   is ``run_seconds`` from BENCHMARK.json). Cold runs start from an empty
   cache; every run starts from an empty workdir;
4. with ``--trace 1``, one more run with spans around each module's public
   functions, for the per-layer metrics and the tracing overhead.

Every run is checked: each stage exits 0, every matrix cell matches the
generator's ground truth, warm runs make no provider call, no run sends the
provider a request it has already answered (retries aside), every run from
an empty cache makes the same number of provider calls, and the workdir
(minus ``report/``) hashes to the same digest in every run of the
invocation, set-up runs included. The last line of standard output is one
JSON object: ``correct``, ``attempted`` (timed runs), ``failed`` (runs that
failed a check) and ``metrics`` (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import layers  # noqa: E402
from layers import STAGES  # noqa: E402

SETUPS = 3
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150

# The text table shows provider_calls and cell_error_rate as well: they are
# 0 on a correct warm run, so the JSON result carries them as checks, not
# metrics. The JSON metrics and their units come from BENCHMARK.json.
SUMMARY = (("wall_s", "s"), ("setup_s", "s"), ("provider_calls", "count"),
           ("tokens_total", "tokens"), ("peak_rss_mb", "MB"),
           ("cell_error_rate", "ratio"))


class HarnessError(Exception):
    """The checkout cannot be benchmarked, or a run failed outright."""


def load_spec() -> dict:
    needed = [ROOT / "src" / "deltaspec" / "report_cli" / "cli.py",
              ROOT / "fixtures" / "mini_corpus" / "config.json",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise HarnessError(f"not a deltaspec checkout; missing {missing}")
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(config: Path, delay: float, trace: bool) -> dict:
    """One pipeline run in a fresh interpreter; returns its result file."""
    result_path = config.parent / "result.json"
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(config),
         str(result_path), repr(delay), "1" if trace else "0"],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.is_file():
        raise HarnessError(f"pipeline process failed ({proc.returncode}):\n"
                           + proc.stderr[-3000:])
    return json.loads(result_path.read_text())


def workdir_digest(workdir: Path) -> str:
    """sha256 over every artifact path and its bytes, minus report/."""
    h = hashlib.sha256()
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir).as_posix()
        if not path.is_file() or rel.split("/", 1)[0] == "report":
            continue
        h.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_run(result: dict, corpus_dir: Path, truth: dict,
              expect_no_provider: bool) -> dict:
    """Score one run against the generator's truth; returns its record."""
    stages_ok = (len(result["stages"]) == len(STAGES)
                 and all(s["exit"] == 0 for s in result["stages"]))
    cells = sum(len(row) for row in truth.values())
    errors = cells
    workdir = corpus_dir / "work"
    if stages_ok:
        matrix = json.loads(
            (workdir / "verify" / "matrix.json").read_text())["versions"]
        errors = 0
        for version, row in truth.items():
            for rfc, label in row.items():
                want = "implemented" if label == "consistent" else \
                    "not-implemented"
                got = matrix.get(version, {}).get(rfc, {}).get("value")
                errors += got != want
    problems = []
    if not stages_ok:
        failed = [s["stage"] for s in result["stages"] if s["exit"] != 0]
        problems.append(f"stage {failed} exited non-zero:\n{result['log']}")
    if errors:
        problems.append(f"{errors} of {cells} cells disagree with the truth")
    if expect_no_provider and result["provider_calls"]:
        problems.append(f"warm run made {result['provider_calls']} "
                        "provider calls")
    # A request the run has already answered must come from the cache;
    # only a retry may reach the provider again with the same request.
    retries = result["gateway"]["provider_retries"] \
        + result["gateway"]["contract_retries"]
    if result["provider_repeats"] > retries:
        problems.append(f"{result['provider_repeats']} provider calls "
                        f"repeated an answered request ({retries} retries)")
    ledger = workdir / "verify" / "ledger.json"
    tokens = json.loads(ledger.read_text()) if stages_ok else {}
    return {
        "ok": not problems,
        "problems": problems,
        "wall_s": result["wall_s"],
        "provider_calls": result["provider_calls"],
        "gateway_requests": result["gateway"]["requests"],
        "tokens_total": tokens.get("token_total", 0),
        "tokens": tokens.get("phases", {}),
        "peak_rss_mb": result["peak_rss_mb"],
        "cells": cells,
        "cell_errors": errors,
        "digest": workdir_digest(workdir) if stages_ok else None,
    }


def smoke(scratch: Path) -> None:
    """The bundled mini corpus, once, against the verdicts acceptance 7
    pins: toy-b/6528 not-implemented, every other cell implemented."""
    src = ROOT / "fixtures" / "mini_corpus"
    raw = json.loads((src / "config.json").read_text())
    base = src.resolve()

    def absolute(rel):
        return str((base / rel).resolve())

    raw["workdir"], raw["cache_dir"] = "work", "cache"
    raw["rfc_sources"] = [absolute(p) for p in raw["rfc_sources"]]
    raw["code_trees"] = {v: absolute(p) for v, p in raw["code_trees"].items()}
    for key in ("rfc_metadata", "stub_headers", "ground_truth"):
        raw[key] = absolute(raw[key])
    for key in ("descriptions", "patches"):
        raw["triplets"][key] = absolute(raw["triplets"][key])
    scratch.mkdir(parents=True)
    config = scratch / "config.json"
    config.write_text(json.dumps(raw))
    truth = {"toy-a": {r: "consistent" for r in ("793", "1948", "5961",
                                                 "6528")},
             "toy-b": {r: "consistent" for r in ("793", "1948", "5961")}}
    truth["toy-b"]["6528"] = "inconsistent"
    record = check_run(run_child(config, 0.0, False), scratch, truth, False)
    if not record["ok"]:
        raise HarnessError("smoke run on the mini corpus failed: "
                           + "; ".join(record["problems"]))
    shutil.rmtree(scratch)


def setup(scratch: Path, workload: str, seed: int):
    """Generate the corpus and make one run from an empty cache.

    Returns the set-up time, the ground truth and the record of the run."""
    t0 = time.perf_counter()
    corpus.generate(scratch, workload, seed)
    result = run_child(scratch / "config.json",
                       corpus.WORKLOADS[workload].delay_s, False)
    elapsed = time.perf_counter() - t0
    truth = json.loads((scratch / "truth.json").read_text())
    return elapsed, truth, check_run(result, scratch, truth, False)


def timed_run(corpus_dir: Path, truth: dict, workload: str,
              trace: bool) -> tuple[dict, dict]:
    """One run from an empty workdir (and, when cold, an empty cache)."""
    wl = corpus.WORKLOADS[workload]
    shutil.rmtree(corpus_dir / "work", ignore_errors=True)
    if not wl.warm:
        shutil.rmtree(corpus_dir / "cache", ignore_errors=True)
    result = run_child(corpus_dir / "config.json", wl.delay_s, trace)
    return result, check_run(result, corpus_dir, truth, wl.warm)


def bench(workload: str, seed: int, seconds: float, trace: bool,
          scratch: Path, spec: dict) -> dict:
    warm = corpus.WORKLOADS[workload].warm
    setup_times = []
    setup_records = []
    for i in range(SETUPS):
        elapsed, truth, record = setup(scratch / f"setup{i}", workload, seed)
        setup_times.append(elapsed)
        setup_records.append(record)
        if i:
            shutil.rmtree(scratch / f"setup{i}")
    corpus_dir = scratch / "setup0"

    records = []
    started = time.perf_counter()
    while True:
        records.append(timed_run(corpus_dir, truth, workload, False)[1])
        elapsed = time.perf_counter() - started
        if len(records) >= MIN_RUNS and elapsed + records[-1]["wall_s"] > \
                seconds:
            break

    traced = None
    if trace:
        result, traced = timed_run(corpus_dir, truth, workload, True)
        result["tokens"] = traced["tokens"]
        untraced = statistics.median(r["wall_s"] for r in records)
        traced["layers"] = layers.derive(
            result, traced["cells"], untraced,
            [m["name"] for m in spec["per_layer"]])

    every = setup_records + records + ([traced] if traced else [])
    digests = {r["digest"] for r in every}
    problems = [p for r in every for p in r["problems"]]
    if len(digests) != 1:
        problems.append(f"workdir digest differs between runs: "
                        f"{sorted(map(str, digests))}")
    # Runs from an empty cache (every set-up run, and every cold run) must
    # make the same number of provider calls; check_run requires warm timed
    # runs to make none.
    calls = {r["provider_calls"] for r in (setup_records if warm else every)}
    if len(calls) != 1:
        problems.append(f"provider calls differ between runs: "
                        f"{sorted(calls)}")
    return {"setup_times": setup_times, "records": records,
            "traced": traced, "digest": digests.pop() if len(digests) == 1
            else None, "problems": problems}


def summarize(workload: str, seed: int, out: dict, trace: bool,
              spec: dict) -> dict:
    records = out["records"]

    def med(key):
        return statistics.median(r[key] for r in records)

    cells = sum(r["cells"] for r in records)
    errors = sum(r["cell_errors"] for r in records)
    values = {
        "wall_s": med("wall_s"),
        "setup_s": statistics.median(out["setup_times"]),
        "provider_calls": med("provider_calls"),
        "tokens_total": med("tokens_total"),
        "gateway_requests": med("gateway_requests"),
        "peak_rss_mb": med("peak_rss_mb"),
        "cell_error_rate": errors / cells,
        "cell_accuracy": 1.0 - errors / cells,
    }
    walls = sorted(r["wall_s"] for r in records)
    print(f"workload {workload}, seed {seed}: {len(records)} timed runs, "
          f"{records[0]['cells']} cells per run, "
          f"{len(out['setup_times'])} set-ups")
    for name, unit in SUMMARY:
        print(f"  {name:<16} {values[name]:>14.6g} {unit}")
    print(f"  wall_s per run: {', '.join(f'{w:.3f}' for w in walls)}")
    print(f"  workdir digest (minus report/): {out['digest']}")
    for problem in out["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if trace:
        metrics = {m["name"]: {"value": out["traced"]["layers"][m["name"]],
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": not out["problems"],
            "attempted": len(records),
            "failed": sum(not r["ok"] for r in records),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Benchmark the eight-stage deltaspec pipeline.")
    ap.add_argument("--workload", choices=sorted(corpus.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="timed seconds per workload (default: run_seconds "
                    "from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="only run the mini corpus check")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("give --workload or --smoke")

    scratch = HERE / ".work" / f"{os.getpid()}"
    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        smoke(scratch / "smoke")
        if args.smoke:
            print("smoke: mini corpus verdicts match acceptance 7")
            return 0
        names = sorted(corpus.WORKLOADS) if args.workload == "all" \
            else [args.workload]
        results = {}
        for name in names:
            out = bench(name, args.seed, seconds, bool(args.trace),
                        scratch / name, spec)
            results[name] = summarize(name, args.seed, out, bool(args.trace),
                                      spec)
        final = results[names[0]] if len(names) == 1 else results
    except (HarnessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
