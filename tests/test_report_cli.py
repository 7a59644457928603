"""Tests for metrics, the cost model, config loading, the CLI, and reports."""

import errno
import hashlib
import json
import re
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import (FIXTURES, REPO, EntryLogs, chat_reply, http_reply,
                      run_stages)
from deltaspec import fsio, llm_gateway, spec_evolution
from deltaspec.chunk_mapper import (build_map, reconstruct_function,
                                    spans_for_functions)
from deltaspec.code_ingest import DEFAULT_GLOBS, DEFAULT_KEYWORDS
from deltaspec.diff_verifier import JUDGMENT_CONTRACT
from deltaspec.errors import (
    EmptyEval,
    InvalidConfig,
    InvalidInputs,
    MissingArtifact,
    SerializationError,
    ShapeMismatch,
)
from deltaspec.knowledge_graph import ENTITY_CONTRACT
from deltaspec.llm_gateway import LlmRequest, request
from deltaspec.report_cli import cli, pipeline, render
from deltaspec.report_cli.cli import main
from deltaspec.report_cli.config import load_config
from deltaspec.report_cli.cost import CostModelInputs, cost_model
from deltaspec.report_cli.metrics import Confusion, compute_metrics
from deltaspec.report_cli.render import build_report, render_report
from deltaspec.report_cli.scripted import scripted_responder
from deltaspec.spec_evolution import UpdateChainGraph, build_update_chain
from deltaspec.tokenizer import token_offsets

STAGES = tuple(stage.name for stage in pipeline.STAGES)


# ------------------------------------------------------------------- metrics

def test_metrics_on_a_realistic_confusion():
    m = compute_metrics(Confusion(tp=15, fp=2, tn=36, fn=3))
    d = m.to_dict()
    assert d["accuracy_pct"] == 91.1
    assert d["precision_pct"] == 88.2
    assert d["recall_pct"] == 83.3
    assert d["f1"] == 0.857
    assert d["flags"] == []


def test_metrics_flag_degenerate_denominators():
    m = compute_metrics(Confusion(tp=0, fp=0, tn=5, fn=0))
    assert m.precision == m.recall == m.f1 == 0.0
    assert m.accuracy == 1.0
    assert set(m.flags) == {"no-predicted-positives", "no-actual-positives"}

    m2 = compute_metrics(Confusion(tp=0, fp=3, tn=5, fn=0))
    assert m2.flags == ("no-actual-positives",)


def test_metrics_reject_empty_or_negative_confusions():
    with pytest.raises(EmptyEval):
        compute_metrics(Confusion(0, 0, 0, 0))
    with pytest.raises(InvalidInputs):
        Confusion(tp=-1, fp=0, tn=0, fn=0)


# ---------------------------------------------------------------- cost model

def test_cost_model_spot_values():
    result = cost_model(CostModelInputs(
        n_updates=3, len_spec=1000, m_code=500, delta_len=100, delta_m=50))
    assert result.to_dict() == {
        "naive": 4500, "reasoning": 450, "graph": 3500,
        "total": 3950, "delta": 550,
    }


def test_cost_model_rejects_bad_inputs():
    with pytest.raises(InvalidInputs):
        CostModelInputs(n_updates=0, len_spec=1, m_code=1, delta_len=1,
                        delta_m=1)
    with pytest.raises(InvalidInputs):
        CostModelInputs(n_updates=1, len_spec=1, m_code=1, delta_len=-1,
                        delta_m=1)


# -------------------------------------------------------------------- config

def test_config_resolves_paths_against_its_directory(mini_config):
    cfg = load_config(mini_config())
    assert cfg.model == "judge-1"
    assert cfg.versions == ("toy-a", "toy-b")
    assert cfg.chunk_size == 160
    assert cfg.trials == 5
    assert cfg.max_in_flight == 16
    assert cfg.prices == {"judge-1": (0.005, 0.015)}
    for src in cfg.rfc_sources:
        assert src.is_absolute() and src.is_file()
    for root in cfg.code_trees.values():
        assert root.is_dir()
    assert cfg.ground_truth.is_file()


def test_config_paths_join_lexically(tmp_path):
    base = tmp_path / "cfg"
    (base / "elsewhere" / "deep").mkdir(parents=True)
    (base / "link").symlink_to(base / "elsewhere" / "deep")
    absolute = str(tmp_path / "x" / ".." / "cache")
    path = base / "config.json"
    path.write_text(json.dumps({
        "workdir": "../work/./run", "cache_dir": absolute, "model": "m",
        "rfc_sources": ["sub/../rfc.txt", "link/../kept.txt"]}))
    cfg = load_config(path)
    root = base.resolve()
    # A relative value with ".." lands where Path.resolve() puts it ...
    assert cfg.workdir == (root / "../work/./run").resolve()
    assert cfg.rfc_sources[0] == (root / "sub/../rfc.txt").resolve()
    # ... except through a symlink, which keeps the link as written.
    assert cfg.rfc_sources[1] == root / "kept.txt"
    # An absolute value is unchanged.
    assert str(cfg.cache_dir) == absolute


def test_config_validation(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("not json")
    with pytest.raises(InvalidConfig, match="valid JSON"):
        load_config(p)

    p.write_text(json.dumps({"cache_dir": "c", "model": "m"}))
    with pytest.raises(InvalidConfig, match="workdir"):
        load_config(p)

    p.write_text(json.dumps({"workdir": "w", "cache_dir": "c", "model": "m",
                             "provider": "carrier-pigeon"}))
    with pytest.raises(InvalidConfig, match="provider"):
        load_config(p)

    p.write_text(json.dumps({"workdir": "w", "cache_dir": "c", "model": "m",
                             "prices": {"m": [1]}}))
    with pytest.raises(InvalidConfig, match="price"):
        load_config(p)

    with pytest.raises(InvalidConfig, match="cannot read"):
        load_config(tmp_path / "missing.json")

    p.write_bytes(b'{"workdir": "\xff"}')  # not UTF-8
    with pytest.raises(InvalidConfig, match="cannot read"):
        load_config(p)

    # A version tag is one path component; dots and dashes inside it are fine.
    p.write_text(json.dumps({"workdir": "w", "cache_dir": "c", "model": "m",
                             "code_trees": {"v1.3-big": "t", "toy-a": "u",
                                            "...": "v"}}))
    assert load_config(p).versions == ("...", "toy-a", "v1.3-big")


_BASE_CONFIG = {"workdir": "w", "cache_dir": "c", "model": "m"}


@pytest.mark.parametrize("value, globs, keywords", [
    ("absent", DEFAULT_GLOBS, DEFAULT_KEYWORDS),
    (None, DEFAULT_GLOBS, DEFAULT_KEYWORDS),
    ([], (), ()),
    (["a/*.c"], ("a/*.c",), ("a/*.c",)),
], ids=["absent", "null", "empty", "given"])
def test_code_selection_defaults_fill_in_only_when_absent(tmp_path, value,
                                                          globs, keywords):
    raw = dict(_BASE_CONFIG)
    if value != "absent":
        raw["code_globs"] = raw["code_keywords"] = value
    p = tmp_path / "c.json"
    p.write_text(json.dumps(raw))
    cfg = load_config(p)
    assert (cfg.code_globs, cfg.code_keywords) == (globs, keywords)


@pytest.mark.parametrize("extra, key", [
    ({"rfc_sources": [5]}, "rfc_sources"),
    ({"code_trees": {"v1": ["a"]}}, "code_trees.v1"),
    ({"chunking": {"chunk_size": "big"}}, "chunking.chunk_size"),
    ({"triplets": ["x"]}, "triplets"),
    ({"prices": {"m": ["a", "b"]}}, "prices.m"),
    ({"workdir": ["w"]}, "workdir"),
    ({"vulnerability_classes": {"tcp": "x"}}, "vulnerability_classes"),
    ({"price_unit": 0}, "price_unit"),
    ({"triplets": {"paired_positive": "false"}}, "triplets.paired_positive"),
    ({"retrieval": {"budget": -1}}, "retrieval.budget"),
    ({"retrieval": {"k": -1}}, "retrieval.k"),
    ({"verification": {"trials": True}}, "verification.trials"),
    ({"chunking": {"chunk_size": 160.9}}, "chunking.chunk_size"),
    ({"chunking": {"redundancy_ratio": False}}, "chunking.redundancy_ratio"),
    ({"retrieval": {"k": 2.5}}, "retrieval.k"),
    ({"retrieval": {"budget": True}}, "retrieval.budget"),
    ({"retrieval": {"fusion_alpha": True}}, "retrieval.fusion_alpha"),
    ({"retrieval": {"damping": False}}, "retrieval.damping"),
    ({"price_unit": 1000.5}, "price_unit"),
    ({"price_unit": True}, "price_unit"),
    ({"prices": {"m": [True, 0.015]}}, "prices.m"),
    ({"prices": {"m": [0.005, False]}}, "prices.m"),
    ({"code_trees": {"../../escaped": "t"}}, "code_trees.../../escaped"),
    ({"code_trees": {"a/b": "t"}}, "code_trees.a/b"),
    ({"code_trees": {"a\\b": "t"}}, "code_trees.a\\b"),
    ({"code_trees": {"a\0b": "t"}}, "code_trees.a\0b"),
    ({"code_trees": {"": "t"}}, "code_trees."),
    ({"code_trees": {".": "t"}}, "code_trees.."),
    ({"code_trees": {"..": "t"}}, "code_trees..."),
    ({"code_trees": {"ledger": "t"}}, "code_trees.ledger"),
    ({"model": None}, "model"),
    ({"model": 7}, "model"),
    ({"vulnerability_classes": {"6528": None}}, "vulnerability_classes.6528"),
    ({"vulnerability_classes": {"6528": ["x"]}},
     "vulnerability_classes.6528"),
    ({"code_globs": ["/etc/*.c"]}, "code_globs"),
    ({"code_globs": ["../toy-b/net/ipv4/*.c"]}, "code_globs"),
    ({"code_globs": ["net/**/../../x.c"]}, "code_globs"),
    ({"code_globs": [""]}, "code_globs"),
    # A value takes only its JSON type: a numeric string is no number, and
    # a falsy non-string is no path.
    ({"chunking": {"chunk_size": "160"}}, "chunking.chunk_size"),
    ({"retrieval": {"fusion_alpha": "inf"}}, "retrieval.fusion_alpha"),
    ({"price_unit": "1000"}, "price_unit"),
    ({"prices": {"m": ["1", "2"]}}, "prices.m"),
    ({"transcript": 0}, "transcript"),
    ({"verification": {"trials": 0}}, "verification.trials"),
    ({"verification": {"trials": -1}}, "verification.trials"),
    ({"verification": {"trials": 4}}, "verification.trials"),
    ({"max_in_flight": 0}, "max_in_flight"),
    ({"max_in_flight": -2}, "max_in_flight"),
    ({"max_in_flight": 2.5}, "max_in_flight"),
    ({"max_in_flight": "16"}, "max_in_flight"),
], ids=["rfc_sources", "code_trees", "chunk_size", "triplets", "prices",
        "workdir", "vulnerability_classes", "price_unit", "paired_positive",
        "budget", "k", "trials-bool", "chunk_size-fraction",
        "redundancy_ratio-bool", "k-fraction", "budget-bool",
        "fusion_alpha-bool", "damping-bool", "price_unit-fraction",
        "price_unit-bool", "price-in-bool", "price-out-bool",
        "tag-escapes", "tag-slash", "tag-backslash", "tag-nul", "tag-empty",
        "tag-dot", "tag-dotdot", "tag-ledger", "model-null", "model-number",
        "class-null", "class-list", "glob-absolute", "glob-parent",
        "glob-inner-parent", "glob-empty", "chunk_size-string",
        "fusion_alpha-string", "price_unit-string", "price-strings",
        "transcript-zero", "trials-zero", "trials-negative", "trials-even",
        "max_in_flight-zero", "max_in_flight-negative",
        "max_in_flight-fraction", "max_in_flight-string"])
def test_wrong_typed_config_value_names_its_key(tmp_path, capsys, extra, key):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({**_BASE_CONFIG, **extra}))
    with pytest.raises(InvalidConfig,
                       match=re.escape(f"config key {key!r} must be")):
        load_config(p)
    assert main(["ingest-rfc", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key") and repr(key) in err


def test_whole_float_counts_and_numbers_still_load(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({**_BASE_CONFIG,
                             "chunking": {"chunk_size": 160.0,
                                          "redundancy_ratio": 1},
                             "verification": {"trials": 5.0},
                             "max_in_flight": 16.0,
                             "prices": {"m": [0, 0.015]}}))
    cfg = load_config(p)
    assert (cfg.chunk_size, cfg.redundancy_ratio, cfg.trials,
            cfg.max_in_flight) == (160, 1.0, 5, 16)
    assert type(cfg.chunk_size) is type(cfg.trials) is \
        type(cfg.max_in_flight) is int
    assert cfg.prices == {"m": (0.0, 0.015)}


class GatedProvider:
    """Each call holds until ``target`` calls are in flight at once (or a
    timeout passes), then sleeps briefly, so a pool wider than ``target``
    would show in the peak."""

    def __init__(self, target):
        self.target = target
        self.inflight = self.peak = 0
        self.full = threading.Event()
        self._lock = threading.Lock()

    def complete(self, req):
        with self._lock:
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
            if self.inflight >= self.target:
                self.full.set()
        try:
            self.full.wait(timeout=5)
            time.sleep(0.005)
            return "[]", None
        finally:
            with self._lock:
                self.inflight -= 1


@pytest.mark.parametrize("in_flight, distinct", [
    (1, 6), (4, 3), (4, 10), (16, 40), (32, 20),
])
def test_make_gateway_keeps_max_in_flight_calls_in_flight(
        mini_config, monkeypatch, in_flight, distinct):
    cfg = load_config(mini_config(max_in_flight=in_flight))
    provider = GatedProvider(min(in_flight, distinct))
    monkeypatch.setattr(pipeline, "MockProvider", lambda rules: provider)
    gateway = pipeline.make_gateway(cfg)
    reqs = [request("m", None, f"q{i % distinct}") for i in range(2 * distinct)]
    results = []
    worker = threading.Thread(
        target=lambda: results.extend(gateway.complete_all(reqs, "graph")),
        daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert len(results) == 2 * distinct
    assert provider.peak == min(in_flight, distinct)
    assert gateway.stats.provider_calls == distinct


# ----------------------------------------------------------------------- cli

def test_cli_cost_model_prints_json(capsys):
    code = main(["cost-model", "--updates", "3", "--spec-tokens", "1000",
                 "--code-tokens", "500", "--delta-spec-tokens", "100",
                 "--delta-code-tokens", "50"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta"] == 550


def test_cli_pipeline_errors_exit_one(mini_config, capsys):
    code = main(["eval", "--config", str(mini_config())])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("api_base, error", [
    (None, "error: provider returned 401: bad key"),
    ("localhost:8000", "error: API base 'localhost:8000' is not an http:// "
                       "or https:// URL with a host"),
], ids=["http-401", "bad-api-base"])
def test_cli_http_provider_failure_exits_one(mini_config, fault_server,
                                            monkeypatch, capsys, api_base,
                                            error):
    server = fault_server(http_reply(401, "bad key"))
    monkeypatch.setenv("DELTASPEC_API_BASE", api_base or server.url)
    cfg_path = mini_config(provider="http")
    for stage in ("ingest-rfc", "ingest-code"):
        assert main([stage, "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["build-graph", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(error)
    assert "Traceback" not in err
    # A 401 is not retried: each question was posted at most once. A bad
    # base URL fails before anything is posted.
    bodies = [json.dumps(post.body, sort_keys=True) for post in server.posts]
    assert len(bodies) == len(set(bodies))
    assert bool(bodies) == (api_base is None)


def test_cli_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["ingest-rfc"])  # --config is required
    assert err.value.code == 2


def test_cli_reuses_one_parser_across_calls(mini_config, capsys,
                                           monkeypatch):
    builds = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or real_build())
    cli._parser.cache_clear()
    cfg_path = str(mini_config())

    def cost(updates):
        assert main(["cost-model", "--updates", str(updates),
                     "--spec-tokens", "1000", "--code-tokens", "500",
                     "--delta-spec-tokens", "100",
                     "--delta-code-tokens", "50"]) == 0
        return json.loads(capsys.readouterr().out)

    first = cost(3)
    with pytest.raises(SystemExit) as err:
        main(["cost-model", "--updates", "3"])
    assert err.value.code == 2
    capsys.readouterr()
    assert cost(7) != first and cost(3) == first
    assert main(["ingest-rfc", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert main(["ingest-code", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("toy-a:") and "toy-b:" in out
    assert len(builds) == 1


_NO_REQUIREMENT_RFC = """\
Network Working Group                                          A. Author
Request for Comments: 9999                                 Example Corp.
Category: Informational                                        June 2001

                       A Memo Without Requirements

1.  Introduction

   This memo describes the history of the protocol and names no
   behavior that an implementation must provide.
"""


def test_cli_verify_without_root_entries_exits_one(mini_config, tmp_path,
                                                   capsys):
    rfc = tmp_path / "rfc9999.txt"
    rfc.write_text(_NO_REQUIREMENT_RFC)
    cfg_path = mini_config(rfc_sources=[str(rfc)])
    for stage in STAGES[:STAGES.index("verify")]:
        assert main([stage, "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "9999" in err
    assert err.count("\n") == 1


_MERGE_RFC = """\
Network Working Group                                          A. Author
Request for Comments: 9998                                 Example Corp.
Updates: 5961, 6528
Category: Standards Track                                     March 2020

                     Challenge ACKs for Keyed Sequences

1.  Introduction

   This memo updates two documents at once, so it is reached over two
   update paths.
"""


def test_cli_verify_checks_increments_of_non_tree_edges(mini_config,
                                                        tmp_path, capsys):
    rfc = tmp_path / "rfc9998.txt"
    rfc.write_text(_MERGE_RFC)
    sources = json.loads(mini_config().read_text())["rfc_sources"]
    cfg_path = mini_config("merge", rfc_sources=sources + [str(rfc)])
    for stage in STAGES[:STAGES.index("verify")]:
        assert main([stage, "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    cfg = load_config(cfg_path)
    walk = build_update_chain(pipeline.load_docs(cfg)).walk()
    assert (6528, 9998) in walk and (5961, 9998) not in walk
    path = cfg.workdir / "chains" / "increments.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    kept = [line for line in lines
            if (json.loads(line)["rfc_from"], json.loads(line)["rfc_to"])
            != (5961, 9998)]
    assert len(kept) == len(lines) - 1
    path.write_text("".join(kept))
    assert main(["verify", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: no stored increment for edge 5961->9998\n"


@pytest.mark.parametrize("key, row", [
    ("descriptions", ["not", "an", "object"]),
    ("patches", 7),
    ("patches", "text"),
], ids=["list", "number", "string"])
def test_cli_synth_triplets_rejects_a_line_that_is_not_an_object(
        mini_config, tmp_path, capsys, key, row):
    cfg_path = mini_config()
    raw = json.loads(cfg_path.read_text())
    good = Path(raw["triplets"][key]).read_text().splitlines()
    bad = tmp_path / f"{key}.jsonl"
    bad.write_text("\n".join(good[:1] + [""] + [json.dumps(row)] + good[1:]))
    raw["triplets"][key] = str(bad)
    cfg_path.write_text(json.dumps(raw))
    assert main(["synth-triplets", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == \
        f"error: cannot read {bad}: line 3 is not a JSON object\n"


@pytest.mark.parametrize("command, key, data", [
    ("ingest-rfc", "rfc_sources", None),
    ("ingest-rfc", "rfc_sources", b"Request for Comments: 9999\n\xff\n"),
    ("ingest-code", "stub_headers", b"typedef unsigned int u32;\n\xff\n"),
], ids=["missing-rfc-source", "non-utf8-rfc-source", "non-utf8-stub-header"])
def test_cli_unreadable_input_file_exits_one(mini_config, tmp_path, capsys,
                                             command, key, data):
    bad = tmp_path / "inputs" / ("stub.h" if key == "stub_headers"
                                 else "rfc9999.txt")
    bad.parent.mkdir()
    if data is not None:
        bad.write_bytes(data)
    value = str(bad.parent) if key == "stub_headers" else [str(bad)]
    cfg_path = mini_config(**{key: value})
    assert main([command, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: ")
    # The file is named by the config, not made by an earlier stage.
    assert "earlier stages" not in err and "Traceback" not in err


def test_cli_duplicate_rfc_number_exits_one(mini_config, tmp_path, capsys):
    cfg_path = mini_config()
    sources = json.loads(cfg_path.read_text())["rfc_sources"]
    copy = tmp_path / "copy-of-793.txt"
    shutil.copyfile(sources[0], copy)
    cfg_path = mini_config(rfc_sources=[*sources, str(copy)])
    assert main(["ingest-rfc", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == \
        f"error: rfc_sources {sources[0]} and {copy} are both RFC 793\n"
    assert not (load_config(cfg_path).workdir / "rfc").exists()


def copied_trees_config(mini_config, tmp_path):
    """A mini-corpus config whose code trees are a copy under ``tmp_path``;
    returns the config path and the copy's root."""
    trees = tmp_path / "code"
    shutil.copytree(FIXTURES / "code", trees)
    return mini_config(code_trees={v: str(trees / v)
                                   for v in ("toy-a", "toy-b")}), trees


def test_cli_build_graph_reads_no_source_tree(mini_config, tmp_path, capsys):
    # The ingest stages write the chunks and functions; build-graph reads
    # only the workdir, so the trees may be gone by then.
    cfg_path, trees = copied_trees_config(mini_config, tmp_path)
    workdir = load_config(cfg_path).workdir
    for stage in ("ingest-rfc", "ingest-code"):
        assert main([stage, "--config", str(cfg_path)]) == 0
    trees.rename(tmp_path / "moved")
    assert main(["build-graph", "--config", str(cfg_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    digests = {
        path.relative_to(workdir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for sub in ("chunks",)
        for path in sorted((workdir / sub).iterdir())}
    assert digests == BUILD_GRAPH_DIGESTS


def test_source_edit_after_ingest_code_leaves_the_indexed_text(
        mini_config, tmp_path):
    # A source edited after a whole run, then build-graph and verify only:
    # each function still rebuilds to its span of the text ingest-code read,
    # not to the old span's offsets in the edited file.
    cfg_path, trees = copied_trees_config(mini_config, tmp_path)
    cfg = run_stages(cfg_path, through="eval")
    edited = trees / "toy-a" / "net" / "ipv4" / "tcp_isn.c"
    indexed = edited.read_text()
    edited.write_text("/* edited */\n" + indexed)
    for stage in ("build-graph", "verify"):
        assert main([stage, "--config", str(cfg_path)]) == 0
    functions, fmap, chunks = pipeline.load_code_chunks(cfg, "toy-a")
    isn = [f for f in functions if f.file == "net/ipv4/tcp_isn.c"]
    assert len(isn) == 4
    for f in isn:
        assert reconstruct_function(f.fid, fmap, chunks) == \
            indexed[f.span.char_start:f.span.char_end], f.fid


def test_cli_verify_on_a_stale_function_index_exits_one(mini_config, tmp_path,
                                                       capsys):
    # A source edit and a second ingest-code shift a function's fid; the
    # graph and map built before still name the old one.
    trees = tmp_path / "code"
    shutil.copytree(FIXTURES / "code", trees)
    cfg_path = mini_config(code_trees={v: str(trees / v)
                                       for v in ("toy-a", "toy-b")})
    run_stages(cfg_path, through="synth-triplets")
    edited = trees / "toy-a" / "net" / "ipv4" / "tcp_isn.c"
    edited.write_text("/* edited */\n" + edited.read_text())
    assert main(["ingest-code", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: net/ipv4/tcp_isn.c:23:net_secret_init is "
                          "not in the function index of toy-a")
    assert "Traceback" not in err


@pytest.mark.parametrize("misspell", [
    lambda cell: cell.update(value="implemnted"),
    lambda cell: cell["trials"][0].update(verdict="implemnted"),
], ids=["value", "trial"])
def test_cli_eval_on_a_misspelt_verdict_exits_one(mini_config, capsys,
                                                  misspell):
    cfg_path = mini_config()
    work = load_config(cfg_path).workdir
    shutil.copytree(FIXTURES / "mini_corpus" / "work", work)
    matrix = work / "verify" / "matrix.json"
    data = json.loads(matrix.read_text())
    misspell(data["versions"]["toy-a"]["793"])
    matrix.write_text(json.dumps(data))
    assert main(["eval", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {matrix}: unknown verdict "
                          "value 'implemnted'")
    assert "Traceback" not in err


# What each stage prints on the mini corpus, in stage order.
STAGE_STDOUT = {
    "ingest-rfc": ["parsed 4 RFC documents"],
    "ingest-code": ["toy-a: 6 functions, 49 function lines",
                    "toy-b: 6 functions, 44 function lines"],
    "build-graph": ["toy-a: 7 entities, 3 communities",
                    "toy-b: 7 entities, 3 communities"],
    "build-chains": ["4 RFCs, 2 chains"],
    "synth-triplets": ["14 triplets"],
    "verify": ["toy-a: 793=implemented, 1948=implemented, 5961=implemented, "
               "6528=implemented",
               "toy-b: 793=implemented, 1948=implemented, 5961=implemented, "
               "6528=not-implemented"],
    "eval": ["accuracy 100.0% recall 100.0% precision 100.0% f1 1.0"],
    "report": ["report written to {workdir}/report/report.md"],
}


def test_cli_stdout_of_every_stage_is_pinned(mini_config, capsys):
    cfg_path = mini_config()
    workdir = load_config(cfg_path).workdir
    assert tuple(STAGE_STDOUT) == STAGES
    printed = []
    for stage, lines in STAGE_STDOUT.items():
        assert main([stage, "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert out == "".join(f"{line.format(workdir=workdir)}\n"
                              for line in lines), stage
        printed += out.splitlines()
    # The README's quick start runs the stages in this order, and its
    # expected highlights are lines they print.
    readme = (REPO / "README.md").read_text()
    quick_start = re.search(r"## Quick start.*?```sh\n(.*?)```", readme,
                            re.S).group(1)
    assert tuple(line.split()[1] for line in quick_start.splitlines()) == \
        STAGES
    highlights = re.search(r"Expected highlights:\n\n```\n(.*?)```", readme,
                           re.S).group(1).splitlines()
    assert highlights and set(highlights) <= set(printed)


def test_cli_stage_that_fails_part_way_prints_no_summary(mini_config,
                                                        tmp_path, capsys):
    # ingest-code indexes toy-a, then cannot read toy-b's tree: a stage
    # prints its summary only once all its work is done, so stdout stays
    # empty.
    trees = json.loads(mini_config().read_text())["code_trees"]
    gone = tmp_path / "gone"
    cfg_path = mini_config("part-way", code_trees={**trees, "toy-b": str(gone)})
    assert main(["ingest-code", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: source tree root not readable: {gone}\n"
    assert (load_config(cfg_path).workdir / "code" / "toy-a" /
            "functions.jsonl").is_file()


def test_ingest_code_artifacts_do_not_depend_on_the_ingest_cache(
        mini_config, capsys):
    cfg_path = mini_config()
    cfg = load_config(cfg_path)

    def ingest():
        assert main(["ingest-code", "--config", str(cfg_path)]) == 0
        return {(v, name): (cfg.workdir / "code" / v / name).read_bytes()
                for v in cfg.versions
                for name in ("index.json", "functions.jsonl")}

    cold = ingest()
    assert EntryLogs(cfg.cache_dir / "ingest").keys()
    warm = ingest()
    shutil.rmtree(cfg.cache_dir)
    emptied = ingest()
    assert cold == warm == emptied
    assert capsys.readouterr().out.count("toy-a: 6 functions") == 3


def test_cli_build_chains_counts_chains_without_listing_them_again(
        mini_config, capsys, monkeypatch):
    cfg_path = mini_config()
    assert main(["ingest-rfc", "--config", str(cfg_path)]) == 0
    listed = []
    chains = UpdateChainGraph.chains
    monkeypatch.setattr(UpdateChainGraph, "chains",
                        lambda self: listed.append(1) or chains(self))
    capsys.readouterr()
    assert main(["build-chains", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == "4 RFCs, 2 chains\n"
    assert len(listed) == 0


# sha256 of the chunk artifacts build-graph reads on the mini corpus. A
# change to tokenizing or chunking that moves any offset shows here.
BUILD_GRAPH_DIGESTS = {
    "chunks/code-toy-a.jsonl":
        "0e3f73d88da0631d5bd19fc790ace94ed7a55bb44a63cbd033bdd09385ec355e",
    "chunks/code-toy-b.jsonl":
        "c3976819da543fab85bebd144087a19d1b69ade6a265147e385bdc406ff2043b",
    "chunks/text.jsonl":
        "6443516a2f1cde33004712169f4535fdc16ec9dcab364c38b0903008225a9361",
}


def test_build_graph_chunk_and_map_bytes_are_pinned(mini_config, capsys,
                                                    monkeypatch):
    cfg_path = mini_config()
    cfg = load_config(cfg_path)
    text_chunkings = []
    text_chunks = pipeline._text_chunks
    monkeypatch.setattr(pipeline, "_text_chunks", lambda *a: (
        text_chunkings.append(1) or text_chunks(*a)))
    for stage in STAGES[:STAGES.index("build-chains")]:
        assert main([stage, "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "toy-a: 7 entities, 3 communities",
        "toy-b: 7 entities, 3 communities"]
    assert len(text_chunkings) == 1  # once per invocation, not per version
    digests = {
        path.relative_to(cfg.workdir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for sub in ("chunks",)
        for path in sorted((cfg.workdir / sub).iterdir())}
    assert digests == BUILD_GRAPH_DIGESTS


def test_derived_map_equals_build_map_on_the_mini_corpus(mini_config):
    # The links load_code_chunks derives from the stored chunks and
    # functions are the ones build_map finds on the chunks in memory.
    cfg = load_config(mini_config())
    for version in cfg.versions:
        index = pipeline.ingest_code(cfg, version)
        functions, derived, stored = pipeline.load_code_chunks(cfg, version)
        assert functions == index.functions
        chunks = pipeline._code_chunks(index)
        assert {c.id: c for c in chunks} == stored
        expected = {}
        for source in index.files:
            funcs = [f for f in index.functions if f.file == source.path]
            origin = f"code:{version}:{source.path}"
            spans = spans_for_functions(funcs, token_offsets(source.content))
            expected.update(build_map(
                [c for c in chunks if c.origin == origin],
                spans).function_to_chunks)
        assert list(derived.function_to_chunks) == list(expected)
        for fid, links in expected.items():
            assert [l.chunk_id for l in derived.function_to_chunks[fid]] == \
                [l.chunk_id for l in links]
            span = next(f.span for f in functions if f.fid == fid)
            assert (derived.spans[fid].char_start,
                    derived.spans[fid].char_end) == \
                (span.char_start, span.char_end)


# ------------------------------------------------ bundled corpus, warm cache

BUNDLED = FIXTURES / "mini_corpus"


def run_bundled_warm(mini_config, monkeypatch):
    """All eight stages on a copy of the mini corpus that starts from its
    bundled response cache. Returns the config and the gateways built."""
    cfg_path = mini_config("bundled")
    cfg = load_config(cfg_path)
    shutil.copytree(BUNDLED / "cache", cfg.cache_dir)
    built = []
    make_gateway = pipeline.make_gateway
    monkeypatch.setattr(pipeline, "make_gateway", lambda *a: (
        built.append(make_gateway(*a)) or built[-1]))
    for stage in STAGES:
        assert main([stage, "--config", str(cfg_path)]) == 0
    return cfg, built


def tree(root):
    """The bytes of every file under ``root``, by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_bundled_work_regenerates_byte_for_byte(mini_config, monkeypatch):
    cfg, built = run_bundled_warm(mini_config, monkeypatch)
    requests = sum(g.stats.requests for g in built)
    assert requests > 0
    assert sum(g.stats.provider_calls for g in built) == 0
    assert sum(g.stats.cache_hits for g in built) == requests

    def scrub(rel, data):
        # The report's timestamp: "generated_at" in JSON, "generated at"
        # in markdown.
        if not rel.startswith("report/"):
            return data
        return b"\n".join(line for line in data.split(b"\n")
                          if b'"generated_at": ' not in line
                          and not line.startswith(b"- generated at: "))

    expected, got = tree(BUNDLED / "work"), tree(cfg.workdir)
    assert sorted(got) == sorted(expected)
    assert len(expected) >= 20
    for rel in expected:
        assert scrub(rel, got[rel]) == scrub(rel, expected[rel]), rel
    # The warm run created no response-cache log and changed no cache byte.
    # (Ingest entries carry the pycparser version in their key, so another
    # version appends a log under ingest/.)
    def logs(root):
        return {rel: data for rel, data in tree(root).items() if "/" not in rel}

    assert logs(cfg.cache_dir) == logs(BUNDLED / "cache")


def _scripted_chat(post):
    """A chat endpoint that answers like the mock provider's rules and
    reports no usage, so the gateway counts tokens as on the mock path."""
    req = LlmRequest(model=post.body["model"],
                     messages=tuple((m["role"], m["content"])
                                    for m in post.body["messages"]),
                     temperature=post.body["temperature"])
    text = scripted_responder(req)
    return http_reply(404, "no rule") if text is None else chat_reply(text)


def test_http_run_writes_the_mock_runs_artifacts(mini_config, fault_server,
                                                 monkeypatch):
    server = fault_server(_scripted_chat)
    monkeypatch.setenv("DELTASPEC_API_BASE", server.url)
    cfg_path = mini_config(provider="http")  # empty work/ and cache/
    for stage in STAGES:
        assert main([stage, "--config", str(cfg_path)]) == 0
    assert server.posts

    def work(root):
        return {rel: data for rel, data in tree(root).items()
                if not rel.startswith("report/")}

    expected = work(BUNDLED / "work")
    assert len(expected) >= 20
    assert work(load_config(cfg_path).workdir) == expected


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(),
                    reason="needs /proc/self/fd")
def test_pipeline_run_leaves_no_cache_log_open(mini_config, monkeypatch):
    # Every gateway is kept alive, as a caller that reads their stats after
    # the run does, so only closing them releases their logs.
    built = []
    make_gateway = pipeline.make_gateway
    monkeypatch.setattr(pipeline, "make_gateway", lambda *a: (
        built.append(make_gateway(*a)) or built[-1]))

    def open_fds():
        fds = {}
        for fd in Path("/proc/self/fd").iterdir():
            try:
                fds[fd.name] = str(fd.readlink())
            except OSError:  # the directory's own fd, closed by now
                pass
        return fds

    before = open_fds()
    cfg = run_stages(mini_config(), through="eval")
    after = open_fds()
    assert len(built) == 4
    assert EntryLogs(cfg.cache_dir).keys()
    assert EntryLogs(cfg.cache_dir / "ingest").keys()
    # A log the process held before the run (say, redirected output) aside.
    assert [path for path in after.values()
            if path.endswith(".log") and path not in before.values()] == []
    assert len(after) <= len(before)


def test_cold_run_ledger_equals_the_fetched_tokens(mini_config, monkeypatch):
    cfg_path = mini_config("cold")
    built = []
    make_gateway = pipeline.make_gateway
    monkeypatch.setattr(pipeline, "make_gateway", lambda *a: (
        built.append(make_gateway(*a)) or built[-1]))

    def run():
        built.clear()
        for stage in STAGES:
            assert main([stage, "--config", str(cfg_path)]) == 0
        return {k: sum(getattr(g.stats, k) for g in built)
                for k in ("requests", "provider_calls", "cache_hits")}

    assert run() == {"requests": 103, "provider_calls": 103, "cache_hits": 0}
    cfg = load_config(cfg_path)
    fetched = sum(e["usage"]["prompt_tokens"] + e["usage"]["completion_tokens"]
                  for _, e in EntryLogs(cfg.cache_dir).entries())
    ledgers = {p.relative_to(cfg.workdir).as_posix(): p.read_bytes()
               for p in sorted(cfg.workdir.rglob("ledger*.json"))}
    assert sorted(ledgers) == ["chains/ledger.json", "graph/ledger.json",
                               "triplets/ledger.json", "verify/ledger.json"]
    total = json.loads(ledgers["verify/ledger.json"])["token_total"]
    assert total == fetched == 48_344

    assert run() == {"requests": 103, "provider_calls": 0, "cache_hits": 103}
    assert {rel: (cfg.workdir / rel).read_bytes() for rel in ledgers} == ledgers


def verified_config(mini_config, **overrides):
    """A mini-corpus config run through verify from the bundled cache."""
    cfg_path = mini_config(**overrides)
    shutil.copytree(BUNDLED / "cache", load_config(cfg_path).cache_dir)
    return cfg_path, run_stages(cfg_path, through="verify")


def test_retrieval_budget_limits_the_candidates(mini_config):
    _, cfg = verified_config(mini_config, retrieval={
        "k": 5, "fusion_alpha": 0.5, "damping": 0.5, "budget": 1})
    stats = sorted((cfg.workdir / "verify").glob("stats-*.json"))
    assert len(stats) == len(cfg.versions)
    for path in stats:
        assert json.loads(path.read_text())["selected_functions"] <= 1
    matrix = json.loads((cfg.workdir / "verify" / "matrix.json").read_text())
    cited = [trial["cited"] for row in matrix["versions"].values()
             for cell in row.values() for trial in cell["trials"]]
    assert cited and all(len(c) <= 1 for c in cited)
    # The default budget of the bundled config cites more.
    bundled = json.loads((BUNDLED / "work" / "verify" / "matrix.json")
                         .read_text())
    assert any(len(trial["cited"]) > 1 for row in bundled["versions"].values()
               for cell in row.values() for trial in cell["trials"])


@pytest.mark.parametrize("truth", [
    {"toy-a": {"r793": "consistent"}},
    [{"toy-a": {"793": "consistent"}}],
], ids=["rfc-key-not-a-number", "root-is-a-list"])
def test_cli_eval_rejects_a_malformed_ground_truth(mini_config, tmp_path,
                                                   capsys, truth):
    bad = tmp_path / "truth.json"
    bad.write_text(json.dumps(truth))
    cfg_path, cfg = verified_config(mini_config, ground_truth=str(bad))
    with pytest.raises(ShapeMismatch, match="truth.json"):
        pipeline.eval_stage(cfg)
    assert main(["eval", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ground truth")


def test_cli_eval_rejects_a_truncated_matrix(mini_config, capsys):
    cfg_path, cfg = verified_config(mini_config)
    matrix = cfg.workdir / "verify" / "matrix.json"
    matrix.write_bytes(matrix.read_bytes()[:40])
    with pytest.raises(MissingArtifact, match="matrix.json"):
        pipeline.eval_stage(cfg)
    assert main(["eval", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "matrix.json" in err


def _replace_on_line(number, old, new):
    """Damage: replace ``old`` with ``new`` on line ``number`` (from 1)."""
    def damage(path):
        lines = path.read_text().splitlines(keepends=True)
        assert old in lines[number - 1]
        lines[number - 1] = lines[number - 1].replace(old, new)
        path.write_text("".join(lines))
    return damage


def _delete_line(number):
    """Damage: delete line ``number`` (from 1)."""
    def damage(path):
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:number - 1] + lines[number:]))
    return damage


def _set_on_line(number, key, value):
    """Damage: set ``key`` to ``value`` in the object on line ``number``."""
    return _edit_line(number, lambda row: row.update({key: value}))


def _edit_line(number, change):
    """Damage: apply ``change`` to the object on line ``number``."""
    def damage(path):
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[number - 1])
        change(row)
        lines[number - 1] = json.dumps(row) + "\n"
        path.write_text("".join(lines))
    return damage


def _edit_lines(change):
    """Damage: apply ``change`` to the object on every line."""
    def damage(path):
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows:
            change(row)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return damage


def _edit_json(change):
    """Damage: apply ``change`` to the JSON document in the file."""
    def damage(path):
        data = json.loads(path.read_text())
        change(data)
        path.write_text(json.dumps(data))
    return damage


# Line 3 of toy-a's code chunks holds the end of net_secret_init.
_NOT_COVERED = ("net/ipv4/tcp_isn.c:23:net_secret_init: its chunks do not "
                "cover characters [551, 678); rerun ingest-code\n")


@pytest.mark.parametrize("stage, rel, damage, reason", [
    ("verify", "chunks/code-toy-a.jsonl", _delete_line(3), _NOT_COVERED),
    ("build-graph", "chunks/code-toy-a.jsonl", _delete_line(3),
     _NOT_COVERED),
    ("build-graph", "chunks/code-toy-a.jsonl", _set_on_line(1, "text", 7),
     "line 1: unexpected shape (TypeError: text: expected str, got int)\n"),
    ("verify", "code/toy-a/functions.jsonl",
     _set_on_line(1, "span", [239, "521", 12, 21]),
     "line 1: unexpected shape (TypeError: span[1]: expected int, got str)\n"),
    ("verify", "chains/ledger.json",
     _edit_json(lambda d: d["records"][0].update(model=7)),
     "unexpected shape (TypeError: records[0].model: expected str, got int)\n"),
    ("verify", "chains/ledger.json",
     _edit_json(lambda d: d.update(records={})),
     "unexpected shape (TypeError: records: expected an array, got dict)\n"),
    ("report", "verify/stats-toy-a.json",
     _edit_json(lambda d: d.pop("selected_lines")),
     "unexpected shape (KeyError: 'selected_lines')\n"),
    ("verify", "chains/increments.jsonl",
     lambda p: p.write_text(p.read_text() + '{"rfc_from": 1}\n'), ""),
    ("build-chains", "rfc/docs.json",
     lambda p: p.write_text('{"rfcs": [{}]}'), ""),
    ("build-chains", "rfc/docs.json",
     lambda p: p.write_text(p.read_text().replace(
         '"standards-track"', '"standard"', 1)),
     "unknown status 'standard'\n"),
    ("verify", "triplets/store.jsonl",
     _replace_on_line(2, '"label": "consistent"', '"label": "consistnet"'),
     "line 2: unknown label 'consistnet'\n"),
    ("verify", "graph/toy-a.json", lambda p: p.unlink(), ""),
    ("verify", "graph/toy-a.json",
     lambda p: p.write_bytes(p.read_bytes()[:40]), ""),
    ("report", "eval/metrics.json", lambda p: p.write_text("{}"), ""),
    ("report", "verify/ledger.json",
     _edit_json(lambda d: d["models"]["judge-1"].pop("completion_tokens")),
     "unexpected shape (KeyError: 'models.judge-1.completion_tokens')\n"),
    ("report", "eval/metrics.json", _edit_json(lambda d: d.update(confusion=4)),
     "unexpected shape (TypeError: confusion: expected an object, got int)\n"),
    ("verify", "chains/entries.jsonl", _set_on_line(1, "entries", {}),
     "line 1: unexpected shape (TypeError: entries: expected an array, "
     "got dict)\n"),
    ("verify", "graph/toy-a.json",
     _edit_json(lambda d: d["edges"][0].update(src="nope")),
     "edge end 'nope' is not an entity\n"),
    ("verify", "graph/toy-a.json",
     _edit_json(lambda d: next(e for e in d["edges"]
                               if e["relation"] == "relates-to").update(
                                   dst="nope")),
     "edge end 'nope' is not an entity\n"),
    ("verify", "graph/toy-a.json",
     _edit_json(lambda d: d["communities"][0]["members"].append("nope")),
     "community member 'nope' is not an entity\n"),
    ("build-chains", "rfc/docs.json",
     _edit_json(lambda d: d["rfcs"][1].update(updates=["793"])),
     "unexpected shape (TypeError: rfcs[1].updates[0]: expected int, "
     "got str)\n"),
    ("build-chains", "rfc/docs.json",
     _edit_json(lambda d: d["rfcs"][0]["sections"][1].update(body=[5])),
     "unexpected shape (TypeError: rfcs[0].sections[1].body[0]: expected "
     "str, got int)\n"),
    ("verify", "chains/entries.jsonl",
     _edit_line(1, lambda row: row["entries"][0].update(concepts=[7])),
     "line 1: unexpected shape (TypeError: entries[0].concepts[0]: "
     "expected str, got int)\n"),
    ("eval", "verify/matrix.json",
     _edit_json(lambda d: d["versions"]["toy-a"]["793"]["trials"][0].update(
         cited=[3])),
     "unexpected shape (TypeError: versions.toy-a.793.trials[0].cited[0]: "
     "expected str, got int)\n"),
    ("verify", "graph/toy-a.json",
     _edit_json(lambda d: d["edges"][32].update(weight="1.0")),
     "unexpected shape (TypeError: edges[32].weight: expected float, "
     "got str)\n"),
    ("verify", "graph/toy-a.json", _edit_json(lambda d: d.update(damping="x")),
     "unexpected shape (TypeError: damping: expected float, got str)\n"),
    ("report", "verify/matrix.json",
     _edit_json(lambda d: d["versions"]["toy-b"]["6528"].update(
         value="not-implemnted")),
     "unknown verdict value 'not-implemnted'\n"),
    ("report", "eval/metrics.json",
     _edit_json(lambda d: d["findings"][0].update(evidence="x")),
     "unexpected shape (TypeError: findings[0].evidence: expected an array, "
     "got str)\n"),
    ("verify", "triplets/store.jsonl", _edit_lines(lambda row: row.update(
        code="")), "line 1: triplet desc-isn-clock has empty spec text or "
     "code\n"),
    ("verify", "code/toy-a/functions.jsonl",
     _set_on_line(1, "fid", "net/ipv4/tcp_input.c:13:tcp_validate_reset"),
     "line 1: fid 'net/ipv4/tcp_input.c:13:tcp_validate_reset' is not "
     "'net/ipv4/tcp_input.c:12:tcp_validate_reset'\n"),
    ("verify", "chains/increments.jsonl",
     _edit_line(1, lambda row: row["delta"].pop("added")),
     "line 1: unexpected shape (KeyError: 'delta.added')\n"),
], ids=["chunk-deleted", "chunk-deleted-build-graph",
        "chunk-with-numeric-text", "function-with-string-char-end",
        "ledger-with-numeric-model", "ledger-records-not-an-array",
        "stats-without-selected-lines", "increment-without-rfc-to",
        "doc-without-number", "doc-with-unknown-status",
        "triplet-with-unknown-label", "graph-missing", "graph-truncated",
        "metrics-without-findings", "ledger-model-without-completion-tokens",
        "metrics-with-numeric-confusion", "entries-not-an-array",
        "edge-from-unknown-entity", "relates-to-unknown-entity",
        "community-with-unknown-member", "doc-updating-a-string",
        "section-with-numeric-body", "entry-with-numeric-concept",
        "trial-citing-a-number", "edge-with-string-weight",
        "graph-with-string-damping", "report-matrix-with-misspelt-verdict",
        "metrics-finding-with-string-evidence", "triplets-with-empty-code",
        "function-with-another-fid", "increment-without-added-bucket"])
def test_cli_malformed_artifact_exits_one(mini_config, capsys, stage, rel,
                                          damage, reason):
    cfg_path = mini_config()
    workdir = load_config(cfg_path).workdir
    shutil.copytree(BUNDLED / "work", workdir)
    damage(workdir / rel)
    assert main([stage, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {workdir / rel}: {reason}")
    assert "Traceback" not in err


@pytest.mark.parametrize("damage", [
    _edit_json(lambda d: d["metrics"].pop("accuracy_pct")),
    _edit_json(lambda d: d["metrics"].update(f1="x")),
], ids=["accuracy-pct-deleted", "f1-a-string"])
def test_report_renders_the_eval_figures_from_the_confusion(mini_config,
                                                           damage):
    cfg_path = mini_config()
    workdir = load_config(cfg_path).workdir
    shutil.copytree(BUNDLED / "work", workdir)
    damage(workdir / "eval" / "metrics.json")
    assert main(["report", "--config", str(cfg_path)]) == 0
    for name in ("report.json", "report.md"):
        got, expected = ((root / "report" / name).read_text().splitlines()
                         for root in (workdir, BUNDLED / "work"))
        assert [line for line in got if "generated" not in line] == \
            [line for line in expected if "generated" not in line]


def test_warm_run_checks_every_contract_without_jsonschema(mini_config,
                                                           monkeypatch):
    # Each of the five contracts decodes the replies it is set on, and the
    # report is decoded before it is written, with jsonschema unimportable.
    monkeypatch.setitem(sys.modules, "jsonschema", None)
    decoded = []
    validate = llm_gateway.LlmGateway._validate_contract

    def counting_validate(gateway, req, text):
        decoded.append(req.response_contract)
        return validate(gateway, req, text)

    decode_report = render._Report.from_dict
    monkeypatch.setattr(llm_gateway.LlmGateway, "_validate_contract",
                        counting_validate)
    monkeypatch.setattr(render._Report, "from_dict", lambda report: (
        decoded.append("report") or decode_report(report)))
    run_bundled_warm(mini_config, monkeypatch)
    for contract in (ENTITY_CONTRACT, spec_evolution.ENTRY_CONTRACT,
                     spec_evolution._PAIR_CONTRACT,
                     spec_evolution._REMOVED_CONTRACT, JUDGMENT_CONTRACT):
        assert sum(d is contract for d in decoded) > 0
    assert decoded.count("report") == 1


def test_cli_cache_entry_that_cannot_be_written_exits_one(mini_config,
                                                          capsys):
    cfg_path = mini_config()
    cfg = load_config(cfg_path)
    for stage in STAGES[:STAGES.index("verify")]:
        assert main([stage, "--config", str(cfg_path)]) == 0
    before = set(EntryLogs(cfg.cache_dir).keys())
    assert main(["verify", "--config", str(cfg_path)]) == 0
    entries = set(EntryLogs(cfg.cache_dir).keys()) - before
    # A file at the cache root: read as no entries, and no log can be made
    # under it, so verify's first reply cannot be written.
    shutil.rmtree(cfg.cache_dir)
    cfg.cache_dir.write_text("")
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: gateway failed on trial")
    named = [key for key in entries
             if f"cannot write response cache entry {key}: " in err]
    assert len(named) == 1


def test_cli_artifact_write_that_fails_at_any_point_exits_one(
        mini_config, monkeypatch, capsys):
    # A clean warm run counts each stage's artifact writes. Then each stage
    # runs again with its k-th write failing, for every k: each run ends as
    # "error: cannot write <path>: ...", exit 1, with no traceback, and
    # leaves every artifact as the clean run wrote it.
    cfg_path = mini_config("bundled")
    cfg = load_config(cfg_path)
    shutil.copytree(BUNDLED / "cache", cfg.cache_dir)
    write_whole = fsio.write_whole
    written, fail_at = [], [0]

    def no_space(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    def failing_write(path, text):
        written.append(path)
        if len(written) != fail_at[0]:
            return write_whole(path, text)
        with monkeypatch.context() as m:  # the file is written, not renamed
            m.setattr(fsio.os, "replace", no_space)
            return write_whole(path, text)

    for module in list(sys.modules.values()):
        if getattr(module, "write_whole", None) is write_whole:
            monkeypatch.setattr(module, "write_whole", failing_write)
    counts = {}
    for stage in STAGES:
        written.clear()
        assert main([stage, "--config", str(cfg_path)]) == 0
        counts[stage] = len(written)
    assert all(counts.values())
    clean = {rel: data for rel, data in tree(cfg.workdir).items()
             if not rel.startswith("report/")}
    capsys.readouterr()
    for stage, count in counts.items():
        for k in range(1, count + 1):
            written.clear()
            fail_at[0] = k
            assert main([stage, "--config", str(cfg_path)]) == 1, (stage, k)
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write {written[-1]}: "), err
            assert "Traceback" not in err
    assert {rel: data for rel, data in tree(cfg.workdir).items()
            if not rel.startswith("report/")} == clean


@pytest.mark.parametrize("stage, rel", [
    ("eval", "verify/matrix.json"),
    # report reads these only when they are there, but a directory is.
    ("report", "eval/metrics.json"),
    ("report", "verify/stats-toy-a.json"),
], ids=["matrix", "metrics", "stats"])
def test_cli_directory_where_an_artifact_should_be_is_named(mini_config,
                                                            capsys, stage,
                                                            rel):
    cfg_path = mini_config()
    cfg = load_config(cfg_path)
    shutil.copytree(BUNDLED / "work", cfg.workdir)
    matrix = cfg.workdir / rel
    matrix.unlink()
    matrix.mkdir()
    assert main([stage, "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == \
        f"error: cannot read {matrix}: is a directory\n"


# ---------------------------------------------------------- scripted backend

def judge_prompt(terms, functions):
    lines = ["TASK: judge-increment", "TRIAL: 1", "RFC: 793",
             "CODE VERSION: x", "IR:", "ir text",
             "KEY TERMS: " + "; ".join(terms), "CANDIDATES:"]
    for fid, body in functions:
        lines.append(f"FUNCTION {fid}:")
        lines.append(body)
    return request("m", None, "\n".join(lines))


def test_scripted_judge_checks_key_terms_in_candidates():
    present = scripted_responder(judge_prompt(
        ["secret key", "reseed"],
        [("a.c:1:f", "u32 secret_key = read_key();"),
         ("a.c:9:g", "void reseed_timer(void) { }")]))
    payload = json.loads(present)
    assert payload["verdict"] == "implemented"
    assert payload["cited_functions"] == ["a.c:1:f", "a.c:9:g"]

    absent = scripted_responder(judge_prompt(
        ["challenge ack"],
        [("a.c:1:f", "u32 secret_key;")]))
    payload = json.loads(absent)
    assert payload["verdict"] == "not-implemented"
    assert payload["rationale"] == "missing key terms: challenge ack"
    assert payload["cited_functions"] == []


def test_scripted_entities_respect_word_boundaries():
    req = request("m", None,
                  "TASK: extract-entities\nCHUNK: c1\nTEXT:\n"
                  "A burst of traffic, then an RST segment arrives.")
    names = [e["name"] for e in json.loads(scripted_responder(req))]
    assert names == ["rst segment"]  # "burst" must not trigger the rst rule


def test_scripted_entries_require_all_trigger_phrases():
    both = request("m", None,
                   "TASK: extract-entries\nRFC: 6528\nSECTION: 3 x\nTEXT:\n"
                   "Compute the hash with a secret key.")
    titles = [e["title"] for e in json.loads(scripted_responder(both))]
    assert titles == ["keyed hash isn computation"]

    one = request("m", None,
                  "TASK: extract-entries\nRFC: 6528\nSECTION: 3 x\nTEXT:\n"
                  "The secret key must stay secret.")
    assert json.loads(scripted_responder(one)) == []


def test_scripted_responder_ignores_foreign_prompts():
    assert scripted_responder(request("m", None, "TASK: make-coffee\nnow")) \
        is None
    assert scripted_responder(request("m", None, "no marker here")) is None


def test_transcript_entry_replaces_the_scripted_reply(mini_config, tmp_path):
    canned = judge_prompt(["secret key"], [("a.c:1:f", "u32 secret_key;")])
    other = judge_prompt(["challenge ack"], [("a.c:1:f", "u32 secret_key;")])
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text(json.dumps(
        {"fingerprint": canned.fingerprint, "response": "canned"}) + "\n")
    gateway = pipeline.make_gateway(
        load_config(mini_config(transcript=str(transcript))))
    assert scripted_responder(canned) != "canned"
    assert gateway.complete(canned, "reasoning").text == "canned"
    assert gateway.complete(other, "reasoning").text == \
        scripted_responder(other)


def test_cli_malformed_transcript_exits_one(mini_config, tmp_path, capsys):
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text('{"fingerprint": "00"}\n')
    cfg_path = mini_config(transcript=str(transcript))
    assert main(["ingest-rfc", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["build-chains", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: cannot read {transcript}: line 1: ")


@pytest.mark.parametrize("fingerprint, kind", [
    (["00"], "list"), (0, "int"),
], ids=["list", "number"])
def test_cli_transcript_fingerprint_must_be_a_string(mini_config, tmp_path,
                                                    capsys, fingerprint, kind):
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text(json.dumps(
        {"fingerprint": fingerprint, "response": "[]"}) + "\n")
    cfg_path = mini_config(transcript=str(transcript))
    assert main(["ingest-rfc", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["build-chains", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {transcript}: line 1: ")
    assert f"fingerprint: expected str, got {kind}" in err
    assert "Traceback" not in err


def test_cli_malformed_transcript_entry_exits_one(mini_config, tmp_path,
                                                  capsys):
    # The fingerprints build-chains asks for, as its cache entries name them.
    scout = mini_config("scout")
    assert main(["ingest-rfc", "--config", str(scout)]) == 0
    assert main(["build-chains", "--config", str(scout)]) == 0
    fingerprint = sorted(EntryLogs(load_config(scout).cache_dir).keys())[0]
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text(json.dumps({
        "fingerprint": fingerprint,
        "response": {"response": "[]",
                     "usage": {"prompt_tokens": -5, "completion_tokens": 1}},
    }) + "\n")
    cfg_path = mini_config(transcript=str(transcript))
    assert main(["ingest-rfc", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["build-chains", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "malformed transcript entry" in err
    assert fingerprint not in EntryLogs(load_config(cfg_path).cache_dir).keys()


# ------------------------------------------------------------------- reports

def test_report_assembly_after_a_full_run(mini_config):
    cfg = run_stages(mini_config("full"), through="eval")

    findings = [json.loads(l) for l in
                (cfg.workdir / "verify" / "findings.jsonl")
                .read_text().splitlines()]
    assert len(findings) == 1
    assert findings[0]["system"] == "toy-b"
    assert findings[0]["rfc"] == 6528
    assert findings[0]["vulnerability_class"] == \
        "TCP sequence number prediction"
    assert findings[0]["evidence"] == [
        "net/ipv4/tcp_isn.c:11:tcp_isn_hash",
        "net/ipv4/tcp_isn.c:22:net_secret_init",
        "net/ipv4/tcp_isn.c:36:tcp_init_sequence",
    ]

    report = build_report(cfg)
    md_path = render_report(report, cfg.workdir / "report")

    assert report["matrix"]["toy-a"] == {
        "793": "True", "1948": "True", "5961": "True", "6528": "True"}
    assert report["matrix"]["toy-b"]["6528"] == "False"
    assert report["mismatched_cells"] == []
    assert all(not p.startswith("report/") for p in report["manifest"])
    assert "verify/matrix.json" in report["manifest"]
    assert report["costs"]["phases"]["graph"] > 0
    assert report["costs"]["phases"]["reasoning"] > 0
    assert report["metrics"]["accuracy_pct"] == 100.0

    stats = json.loads(
        (cfg.workdir / "verify" / "stats-toy-a.json").read_text())
    assert stats["total_functions"] == 6
    assert stats["total_lines"] == 49

    md = md_path.read_text()
    assert "## Verdict matrix" in md
    assert "- confusion (TP, FP, TN, FN): (1, 0, 7, 0)" in md
    assert (cfg.workdir / "report" / "report.json").is_file()

    report["matrix"]["toy-a"]["793"] = "Yes"
    with pytest.raises(SerializationError):
        render_report(report, cfg.workdir / "report")


def test_report_needs_verify_artifacts(mini_config):
    cfg = load_config(mini_config("empty"))
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    with pytest.raises(MissingArtifact):
        build_report(cfg)
