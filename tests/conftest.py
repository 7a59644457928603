import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

_PATH_KEYS = ("rfc_metadata", "stub_headers", "ground_truth")


def _materialize(base: Path, target: Path, overrides: dict | None = None) -> Path:
    """Write a copy of the bundled mini-corpus config with absolute input
    paths and workdir/cache relocated under ``target``."""
    raw = json.loads((FIXTURES / "mini_corpus" / "config.json").read_text())

    def absolutize(rel: str) -> str:
        return str((base / rel).resolve())

    raw["workdir"] = str(target / "work")
    raw["cache_dir"] = str(target / "cache")
    raw["rfc_sources"] = [absolutize(s) for s in raw["rfc_sources"]]
    raw["code_trees"] = {k: absolutize(v) for k, v in raw["code_trees"].items()}
    for key in _PATH_KEYS:
        if raw.get(key):
            raw[key] = absolutize(raw[key])
    trip = raw.get("triplets", {})
    for key in ("descriptions", "patches"):
        if trip.get(key):
            trip[key] = absolutize(trip[key])
    if overrides:
        raw.update(overrides)
    target.mkdir(parents=True, exist_ok=True)
    path = target / "config.json"
    path.write_text(json.dumps(raw, indent=1))
    return path


@pytest.fixture
def mini_config(tmp_path):
    """Factory: mini_config("run1") -> config path with its own work/cache."""

    def factory(dirname: str = "run", **overrides) -> Path:
        return _materialize(FIXTURES / "mini_corpus", tmp_path / dirname,
                            overrides or None)

    return factory


def run_stages(cfg_path: Path, *, through: str = "eval"):
    """Drive the in-process pipeline in stage order, stopping after
    ``through``. Returns the loaded config."""
    from deltaspec.report_cli import pipeline
    from deltaspec.report_cli.config import load_config

    cfg = load_config(cfg_path)
    order = ["ingest-rfc", "ingest-code", "build-graph", "build-chains",
             "synth-triplets", "verify", "eval"]
    for stage in order[:order.index(through) + 1]:
        if stage == "ingest-rfc":
            pipeline.ingest_rfcs(cfg)
        elif stage == "ingest-code":
            for version in cfg.versions:
                pipeline.ingest_code(cfg, version)
        elif stage == "build-graph":
            pipeline.build_graph_stage(cfg, cfg.versions)
        elif stage == "build-chains":
            pipeline.build_chains_stage(cfg)
        elif stage == "synth-triplets":
            pipeline.synth_triplets_stage(cfg)
        elif stage == "verify":
            pipeline.verify_stage(cfg)
        elif stage == "eval":
            pipeline.eval_stage(cfg)
    return cfg


# --- acceptance summary -----------------------------------------------------

_acceptance: dict[int, tuple[bool, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, text): acceptance criterion check")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    mark = item.get_closest_marker("acceptance")
    if mark is not None:
        num, text = mark.args
        _acceptance[num] = (report.passed, text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_acceptance):
        passed, text = _acceptance[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num:2d} {status}: {text}")
