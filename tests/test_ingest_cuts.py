"""The ingest cache's cut entries: each file's token count and chunk cuts,
kept next to its functions, so a warm ingest-code parses, tokenizes and
chunks nothing and writes the same bytes."""

import dataclasses
import json

import pytest

from conftest import FIXTURES, EntryLogs
from deltaspec import chunk_mapper, code_ingest, tokenizer
from deltaspec.code_ingest import build_index
from deltaspec.report_cli import pipeline
from deltaspec.report_cli.config import load_config

# Every function that parses, tokenizes or cuts, where its callers look it
# up.
_WORK = [(chunk_mapper, "token_offsets"),
         (chunk_mapper, "statement_boundaries"),
         (chunk_mapper, "spans_for_functions"), (chunk_mapper, "chunk_stream"),
         (code_ingest, "file_cuts"), (code_ingest, "count_tokens"),
         (code_ingest, "_extract"), (code_ingest, "_prelude_parser"),
         (pipeline, "chunk_stream"), (tokenizer, "token_offsets"),
         (tokenizer, "count_tokens")]


def _spy(monkeypatch, targets):
    """Record the name of each call to ``targets``, then make it."""
    calls = []
    for owner, name in targets:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name, **k:
                            calls.append(name) or real(*a, **k))
    return calls


def _ingest(cfg):
    """ingest-code on every version; the bytes it wrote, by path."""
    for version in cfg.versions:
        pipeline.ingest_code(cfg, version)
    return {p.relative_to(cfg.workdir).as_posix(): p.read_bytes()
            for sub in ("code", "chunks")
            for p in sorted((cfg.workdir / sub).rglob("*")) if p.is_file()}


def _log_bytes(logs):
    return {p.name: p.read_bytes() for p in logs.logs()}


def test_warm_ingest_code_cuts_nothing_and_writes_the_same_bytes(
        mini_config, monkeypatch):
    cfg = load_config(mini_config())
    uncached = _ingest(dataclasses.replace(cfg, cache_dir=None))
    assert not cfg.cache_dir.exists()
    cold = _ingest(cfg)
    logs = EntryLogs(cfg.cache_dir / "ingest")
    assert len(logs.logs()) == len(cfg.versions)  # one log per version
    # A function and a cut entry per distinct file: tcp_input.c is
    # byte-identical in both trees, so it is parsed and cut once.
    entries = [json.loads(body) for _, body in logs.lines()]
    assert sum("functions" in e for e in entries) == 3
    assert sum("cuts" in e for e in entries) == 3
    before = _log_bytes(logs)

    calls = _spy(monkeypatch, _WORK)
    warm = _ingest(cfg)
    assert calls == []
    assert warm == cold == uncached
    assert _log_bytes(logs) == before  # a warm run writes no cache byte
    bundled = FIXTURES / "mini_corpus" / "work"
    assert cold == {rel: (bundled / rel).read_bytes() for rel in cold}


@pytest.mark.parametrize("change", [{"chunk_size": 100},
                                    {"redundancy_ratio": 0.25}],
                         ids=["chunk-size", "redundancy-ratio"])
def test_a_chunking_change_cuts_again_but_parses_nothing(
        mini_config, monkeypatch, change):
    cfg = load_config(mini_config())
    _ingest(cfg)
    logs = EntryLogs(cfg.cache_dir / "ingest")
    keys = logs.keys()
    changed = dataclasses.replace(cfg, **change)
    expected = _ingest(dataclasses.replace(changed, cache_dir=None))
    assert expected != _ingest(cfg)

    parses = _spy(monkeypatch, [(code_ingest, "_extract"),
                                (code_ingest, "_prelude_parser")])
    cuts = _spy(monkeypatch, [(chunk_mapper, "chunk_stream")])
    assert _ingest(changed) == expected
    assert parses == []  # every function entry hit
    assert len(cuts) == 3  # every cut entry missed, once per distinct file
    new = [(key, body) for key, body in logs.lines() if key not in keys]
    assert len(logs.keys()) == len(keys) + len(new)
    assert len(new) == 3 and all(b'"cuts"' in body for _, body in new)


def test_a_file_without_functions_has_a_cut_entry_with_no_cuts(
        tmp_path, monkeypatch):
    texts = {"net/tcp_a.c": "int f(int x)\n{\n    return x;\n}\n",
             "net/tcp_b.h": "struct tcp_b { int seq; };\n"}
    for path, text in texts.items():
        (tmp_path / "tree" / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "tree" / path).write_text(text)
    tokens = [tokenizer.count_tokens(text) for text in texts.values()]
    cold = build_index(tmp_path / "tree", "v", cache_dir=tmp_path / "cache")
    assert [f.token_count for f in cold.files] == tokens
    assert cold.cuts == {
        "net/tcp_a.c": [[0, tokens[0], 0, len(texts["net/tcp_a.c"])]],
        "net/tcp_b.h": []}
    entries = [json.loads(body) for _, body in
               EntryLogs(tmp_path / "cache" / "ingest").lines()]
    assert [e["tokens"] for e in entries if "cuts" in e] == tokens

    calls = _spy(monkeypatch, _WORK)
    warm = build_index(tmp_path / "tree", "v", cache_dir=tmp_path / "cache")
    assert calls == []
    assert warm == cold

    # A token count larger than the text is not served, cuts or none.
    logs = EntryLogs(tmp_path / "cache" / "ingest")
    key = next(key for key, body in logs.lines()
               if json.loads(body).get("cuts") == [])
    logs.edit(key, lambda e: e.update(tokens=len(texts["net/tcp_b.h"]) + 1))
    assert build_index(tmp_path / "tree", "v",
                       cache_dir=tmp_path / "cache") == cold
    assert calls == ["file_cuts", "token_offsets"]


def _cut_entry(logs):
    """The key of toy-a's tcp_isn.c cut entry (two cuts); no other file
    has as many tokens."""
    text = (FIXTURES / "code" / "toy-a" / "net" / "ipv4" / "tcp_isn.c"
            ).read_text()
    return next(key for key, body in logs.lines()
                if json.loads(body).get("tokens") == tokenizer.count_tokens(text))


def _edit(change):
    return lambda logs, key: logs.edit(key, change)


def _set_cut(i, j, value):
    def change(entry):
        entry["cuts"][i][j] = value(entry) if callable(value) else value
    return _edit(change)


@pytest.mark.parametrize("corrupt", [
    lambda logs, key: logs.tamper(key, lambda body: body[:40]),
    _edit(lambda e: e.update(cuts={"0": e["cuts"][0]})),
    _edit(lambda e: e.update(tokens=str(e["tokens"]))),
    _set_cut(0, 0, False),
    _edit(lambda e: e.update(cuts=[])),
    _set_cut(0, 0, 1),
    _edit(lambda e: e["cuts"].append(e["cuts"][-1])),
    _set_cut(1, 2, lambda e: e["cuts"][0][3] + 1),
    _set_cut(-1, 3, lambda e: e["cuts"][-1][3] - 1),
    _set_cut(-1, 3, lambda e: e["cuts"][-1][3] + 1),
    _edit(lambda e: e.update(tokens=e["tokens"] + 1)),
    # In order, but off a token start: inside "isn_key_age", on a space.
    _set_cut(0, 3, lambda e: e["cuts"][0][3] + 1),
    _set_cut(1, 2, lambda e: e["cuts"][1][2] - 1),
], ids=["torn", "cuts-not-a-list", "tokens-not-an-int", "bool", "no-cuts",
        "first-not-at-zero", "non-monotone", "gap", "short-of-the-text",
        "past-the-text", "wrong-token-count", "end-inside-a-token",
        "start-on-a-space"])
def test_corrupt_cut_entry_is_cut_again_not_served(mini_config, monkeypatch,
                                                   caplog, corrupt):
    cfg = load_config(mini_config())
    expected = _ingest(cfg)
    logs = EntryLogs(cfg.cache_dir / "ingest")
    good = logs.lines()
    key = _cut_entry(logs)
    corrupted = corrupt(logs, key)

    parses = _spy(monkeypatch, [(code_ingest, "_extract")])
    cuts = _spy(monkeypatch, [(chunk_mapper, "chunk_stream")])
    with caplog.at_level("WARNING", logger="deltaspec.code_ingest"):
        assert _ingest(cfg) == expected
    assert parses == []
    assert len(cuts) == 1  # the damaged file was cut again
    assert [r.getMessage() for r in caplog.records
            if r.levelname == "WARNING"] == [
        f"re-cutting net/ipv4/tcp_isn.c: corrupt ingest cache entry {key}"]
    # The entry was written again, the same as the good one; the damaged
    # line stays, never served.
    assert sorted(logs.lines()) == sorted(good + [(key, corrupted)])
