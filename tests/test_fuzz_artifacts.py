"""Seeded corruption fuzz of the workdir artifacts a later stage reads.

Each case damages one field of one artifact in a fresh copy of the bundled
mini corpus work/, then runs every stage after the one that wrote it, in
process, through cli.main. A case passes when the first stage that reads
the damage exits 1 with "error: " first on stderr and no traceback, or when
every stage exits 0 and every downstream file is byte-identical to the
bundled one (the report timestamp aside). The one exception is deleting a
key that has a default, which may load as that default (DEFAULTED).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil

import pytest

from conftest import FIXTURES
from deltaspec.report_cli import pipeline
from deltaspec.report_cli.cli import main

BUNDLED = FIXTURES / "mini_corpus"
STAGES = [stage.name for stage in pipeline.STAGES]
SEED = 30
PER_ARTIFACT = 30

# Each artifact a later stage reads, by the stage that writes it.
WRITERS = {
    "rfc/docs.json": "ingest-rfc",
    "chunks/text.jsonl": "ingest-rfc",
    "code/toy-a/functions.jsonl": "ingest-code",
    "chunks/code-toy-b.jsonl": "ingest-code",
    "graph/toy-a.json": "build-graph",
    "graph/ledger.json": "build-graph",
    "chains/entries.jsonl": "build-chains",
    "chains/increments.jsonl": "build-chains",
    "chains/ledger.json": "build-chains",
    "triplets/store.jsonl": "synth-triplets",
    "triplets/ledger.json": "synth-triplets",
    "verify/matrix.json": "verify",
    "verify/findings.jsonl": "verify",
    "verify/ledger.json": "verify",
    "verify/stats-toy-b.json": "verify",
    "eval/metrics.json": "eval",
}

# Record fields with a default: deleted, they load as it.
DEFAULTED = {"communities", "damping", "description", "is_appendix",
             "sections", "concepts", "status", "flags"}


def _is_map(parent: tuple) -> bool:
    """Whether the object at ``parent`` is keyed by data rather than by
    field name (a version, an RFC number, a model, a phase, a verdict
    value): deleting one of its keys edits content, not shape, so no
    deletion is made there."""
    named = [step for step in parent if not isinstance(step, int)]
    if named[:1] == ["versions"]:
        return len(named) < 3 or named[3:] == ["counts"]
    return named in (["models"], ["phases"])


def _swap(value):
    """The value of another JSON type: string and number, array and
    object; None for a value neither."""
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, str):
        return 7
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, list):
        return {}
    return []


def _sites(doc, path=()):
    """(path, value) of every value in ``doc``, the document itself aside."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for step, value in items:
        yield path + (step,), value
        yield from _sites(value, path + (step,))


def _corruptions(rng: random.Random, rel: str, doc) -> list:
    """Up to PER_ARTIFACT (path, kind) corruptions of ``doc``: "swap" or
    "delete"."""
    options = []
    for path, value in _sites(doc):
        if _swap(value) is not None:
            options.append((path, "swap"))
        if isinstance(path[-1], str) and not _is_map(path[:-1]):
            options.append((path, "delete"))
    return rng.sample(options, min(PER_ARTIFACT, len(options)))


def _apply(doc, path, kind):
    *parents, last = path
    for step in parents:
        doc = doc[step]
    if kind == "delete":
        del doc[last]
    else:
        doc[last] = _swap(doc[last])


def _edit(root, rel, change):
    """Apply ``change`` to the document of a .json file, or to the list of
    line objects of a .jsonl file, path[0] being the line index."""
    p = root / rel
    if rel.endswith(".jsonl"):
        rows = [json.loads(line) for line in p.read_text().splitlines()]
        change(rows)
        p.write_text("".join(json.dumps(row) + "\n" for row in rows))
    else:
        doc = json.loads(p.read_text())
        change(doc)
        p.write_text(json.dumps(doc))


def _load(rel):
    text = (BUNDLED / "work" / rel).read_text()
    if rel.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def _cases():
    rng = random.Random(SEED)
    cases = []
    for rel in sorted(WRITERS):
        for path, kind in _corruptions(rng, rel, _load(rel)):
            cases.append((rel, path, kind))
    return cases


# The cases a reader of the artifact mistook for valid data, or ended in a
# traceback, before the codec checked nested values: (artifact, reading
# stage, path, value).
MOTIVATION = [
    ("rfc/docs.json", "build-chains", ("rfcs", 1, "updates", 0), "793"),
    ("rfc/docs.json", "build-chains", ("rfcs", 0, "sections", 1, "body"),
     [5]),
    ("chains/entries.jsonl", "verify", (0, "entries", 0, "concepts"), [7]),
    ("verify/matrix.json", "eval",
     ("versions", "toy-a", "793", "trials", 0, "cited"), [3]),
    ("graph/toy-a.json", "verify", ("edges", 32, "weight"), "1.0"),
    ("graph/toy-a.json", "verify", ("damping",), "0.5"),
    ("verify/matrix.json", "report", ("versions", "toy-b", "6528", "value"),
     "not-implemnted"),
]


def _scrub(rel, data):
    if not rel.startswith("report/"):
        return data
    return b"\n".join(line for line in data.split(b"\n")
                      if b'"generated_at": ' not in line
                      and not line.startswith(b"- generated at: "))


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """A config over the mini corpus whose cache starts as the bundled one."""
    from conftest import _materialize

    root = tmp_path_factory.mktemp("fuzz")
    cfg_path = _materialize(BUNDLED, root / "run")
    shutil.copytree(BUNDLED / "cache", root / "run" / "cache")
    return cfg_path, root / "run" / "work", _tree(BUNDLED / "work")


def _run_damaged(fuzz_root, rel, change):
    """The outcome of the stages after ``rel``'s writer on a fresh work/
    whose ``rel`` ``change`` damaged: None when it is allowed, else what
    went wrong."""
    cfg_path, work, expected = fuzz_root
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(BUNDLED / "work", work)
    _edit(work, rel, change)
    err = io.StringIO()
    for stage in STAGES[STAGES.index(WRITERS[rel]) + 1:]:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([stage, "--config", str(cfg_path)])
        if code != 0:
            text = err.getvalue()
            if code == 1 and text.startswith("error: ") \
                    and "Traceback" not in text:
                return None
            return f"{stage} exited {code}: {text}"
    got = _tree(work)
    changed = sorted(p for p in set(got) | set(expected) if p != rel and
                     _scrub(p, got.get(p, b"")) !=
                     _scrub(p, expected.get(p, b"")))
    return f"exit 0 and changed {changed}" if changed else None


def test_every_single_field_corruption_fails_cleanly_or_changes_nothing(
        fuzz_root):
    cases = _cases()
    assert len(cases) >= 300
    failures = []
    for rel, path, kind in cases:
        outcome = _run_damaged(fuzz_root, rel,
                               lambda doc: _apply(doc, path, kind))
        if outcome is not None and not (kind == "delete"
                                        and path[-1] in DEFAULTED
                                        and outcome.startswith("exit 0")):
            failures.append(f"{rel} {kind} {path}: {outcome}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("rel, stage, path, value", MOTIVATION)
def test_nested_value_of_the_wrong_type_is_an_error(fuzz_root, rel, stage,
                                                    path, value):
    def change(doc):
        *parents, last = path
        for step in parents:
            doc = doc[step]
        doc[last] = value

    cfg_path, work, _ = fuzz_root
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(BUNDLED / "work", work)
    _edit(work, rel, change)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        assert main([stage, "--config", str(cfg_path)]) == 1
    assert err.getvalue().startswith(f"error: cannot read {work / rel}: ")
    assert "Traceback" not in err.getvalue()
