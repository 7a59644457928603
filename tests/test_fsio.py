"""Tests for the artifact readers and the cache entry store."""

import dataclasses
import json
import logging
import signal
import sys
import threading

import pytest

from deltaspec.chunk_mapper import Chunk
from deltaspec.code_ingest import CodeFunction, ExtractionStats, Span
from deltaspec.diff_verifier import Finding, Trial, Verdict
from deltaspec.errors import MissingArtifact
from deltaspec.fsio import EntryStore, read_jsonl, write_jsonl
from deltaspec.knowledge_graph import Community, GraphEdge
from deltaspec.report_cli.cost import CostModelInputs, cost_model
from deltaspec.report_cli.metrics import Confusion
from deltaspec.rfc_ingest import AsciiFigure, RfcDocument, RfcSection
from deltaspec.spec_evolution import FunctionalDelta, FunctionalEntry, Increment
from deltaspec.triplet_store import DifferentialTriplet

LOG = logging.getLogger("deltaspec.test_fsio")


def test_jsonl_decode_error_names_the_file_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n{"b": ')
    with pytest.raises(MissingArtifact) as err:
        read_jsonl(path)
    assert str(err.value) == (f"cannot read {path}: line 3: Expecting value: "
                              "line 1 column 7 (char 6)")


def test_jsonl_record_of_the_wrong_shape_names_the_file_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n{"b": 2}\n')
    with pytest.raises(MissingArtifact) as err:
        read_jsonl(path, lambda row: row["a"])
    assert str(err.value) == \
        f"cannot read {path}: line 2: unexpected shape (KeyError: 'a')"



def test_write_that_fails_part_way_leaves_the_old_bytes_and_no_other_file(
        tmp_path):
    """A file-size limit stops the write after its first 64 KiB reach the
    disk (EFBIG): the target keeps its old bytes, and no other file is
    left in its directory."""
    resource = pytest.importorskip("resource")
    path = tmp_path / "rows.jsonl"
    path.write_text('{"old": 1}\n')
    rows = [{"text": "x" * 1000}] * 200  # about 200 kB
    limit = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, limit[1]))
    try:
        with pytest.raises(OSError):
            write_jsonl(path, rows)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, limit)
        signal.signal(signal.SIGXFSZ, handler)
    assert path.read_bytes() == b'{"old": 1}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]

# ------------------------------------------------------------- record codec

_CHUNK = Chunk(id="c0", origin="code:v:net/a.c", index=0, span=(0, 3),
               text="int x;", overlap_prev=0, char_start=0)
_TRIAL = Trial(1, "implemented", "seeded", ("net/a.c:1:f",), "ir")
_FIGURE = AsciiFigure(lines=("+--+", "|  |", "+--+"), caption=None,
                      section_id="3.1", line_start=4, line_end=6)
_SECTION = RfcSection(id="3.1", heading="Header Format",
                      body=("One.", "Two."), figures=(_FIGURE,),
                      token_count=12)
_ENTRIES = [FunctionalEntry(rfc=793, section="3.3", title=f"entry {i}",
                            summary="s", concepts=("isn",)) for i in range(4)]
_DELTA = FunctionalDelta(added=[_ENTRIES[0]],
                         modified=[(_ENTRIES[1], _ENTRIES[2])],
                         deprecated=[], inherited=[_ENTRIES[3]])
_FUNCTION = CodeFunction(name="f", signature="int f(int a)",
                         params=(("a", "int"),), span=Span(0, 20, 1, 3),
                         doc_comment=None, file="net/a.c", token_count=9,
                         extraction_tier="syntax-tree")

RECORDS = [
    _CHUNK,
    ExtractionStats.from_raw("v", 10, 100, 2, 20),
    _TRIAL,
    Verdict(value="implemented", trials=(_TRIAL,),
            counts={"implemented": 1, "not-implemented": 0, "unknown": 0},
            subject="isn", flags=("whole-rfc",)),
    Finding(system="v", rfc=793, description="d", vulnerability_class="c",
            evidence=("net/a.c:1:f",)),
    _FIGURE,
    _SECTION,
    RfcDocument(number=6528, title="t", status="standards-track",
                updates=(793,), obsoletes=(1948,), published="2012-02",
                sections=(_SECTION,)),
    _ENTRIES[0],
    _DELTA,
    Increment(rfc_from=793, rfc_to=6528, delta=_DELTA),
    DifferentialTriplet(id="t0", spec_text="s", intermediate_repr="ir",
                        code="int f(void);", label="consistent",
                        source="description", complexity=4),
    cost_model(CostModelInputs(3, 1000, 500, 100, 50)),
    Confusion(tp=1, fp=2, tn=3, fn=4),
    _FUNCTION,
    GraphEdge(src="e1", dst="c0", relation="mentions", weight=1.0),
    Community(id=0, members=frozenset({"e2", "e1"}), summary="s"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_codec_round_trips_and_reads_keys_by_field(record):
    cls = type(record)
    d = json.loads(json.dumps(record.to_dict()))
    assert cls.from_dict(d) == record
    assert cls.from_dict({**d, "unknown": [1]}) == record
    for f in dataclasses.fields(cls):
        rest = {k: v for k, v in d.items() if k != f.name}
        if f.default is not dataclasses.MISSING:
            assert getattr(cls.from_dict(rest), f.name) == f.default
        elif f.default_factory is not dataclasses.MISSING:
            assert getattr(cls.from_dict(rest), f.name) == f.default_factory()
        else:
            with pytest.raises(KeyError, match=f.name):
                cls.from_dict(rest)


@pytest.mark.parametrize("span", [[0], [0, 3, 5]])
def test_bad_record_line_names_the_file_line(tmp_path, span):
    path = tmp_path / "chunks.jsonl"
    write_jsonl(path, [_CHUNK.to_dict(), {**_CHUNK.to_dict(), "span": span}])
    with pytest.raises(MissingArtifact) as err:
        read_jsonl(path, Chunk.from_dict)
    assert str(err.value) == (f"cannot read {path}: line 2: span: expected "
                              f"an array of 2, got {len(span)}")


@pytest.mark.parametrize("record, field, value, error", [
    (_CHUNK, "text", 7, "text: expected str, got int"),
    (_CHUNK, "char_start", True, "char_start: expected int, got bool"),
    (_CHUNK, "char_start", 1.5, "char_start: expected int, got float"),
    (_SECTION, "is_appendix", 1, "is_appendix: expected bool, got int"),
    (_FIGURE, "caption", 3, "caption: expected str | None, got int"),
    (_FIGURE, "caption", "Figure 1", None),
    (RECORDS[1], "selected_lines", 20, None),  # an int is a float
    (RECORDS[7], "updates", ["793"], "updates[0]: expected int, got str"),
    (_SECTION, "figures", [{**_FIGURE.to_dict(), "lines": [1]}],
     "figures[0].lines[0]: expected str, got int"),
    (RECORDS[3], "counts", {"implemented": "1"},
     "counts.implemented: expected int, got str"),
    (_FUNCTION, "span", [0, "20", 1, 3], "span[1]: expected int, got str"),
    (_FUNCTION, "params", [["a", 1]], "params[0][1]: expected str, got int"),
    (RECORDS[-2], "weight", "1.0", "weight: expected float, got str"),
    (RECORDS[-1], "members", ["e1", 2], "members[1]: expected str, got int"),
])
def test_record_scalar_fields_take_only_their_json_types(record, field,
                                                         value, error):
    d = {**record.to_dict(), field: value}
    if error is None:
        assert getattr(type(record).from_dict(d), field) == value
    else:
        with pytest.raises(TypeError) as err:
            type(record).from_dict(d)
        assert str(err.value) == error


def _positions(doc, value, steps=(), path=""):
    """(steps, path, required) of every value that a decode of ``value``'s
    JSON form ``doc`` reads, nested ones included: a record's fields, a
    map's keys and an array's items. ``steps`` lead from ``doc`` to it, and
    ``required`` is whether its key must be there."""
    if dataclasses.is_dataclass(value):
        items = [(f.name, getattr(value, f.name),
                  f.default is dataclasses.MISSING
                  and f.default_factory is dataclasses.MISSING)
                 for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        items = [(k, v, False) for k, v in value.items()]
    elif isinstance(value, (tuple, list, frozenset)):
        items = [(i, v, False) for i, v in enumerate(
            sorted(value) if isinstance(value, frozenset) else value)]
    else:
        return
    for step, item, required in items:
        at = f"{path}[{step}]" if isinstance(step, int) else \
            f"{path}.{step}" if path else step
        yield steps + (step,), at, required
        yield from _positions(doc[step], item, steps + (step,), at)


def _damaged(doc, steps, change):
    """A copy of ``doc`` whose value at ``steps`` ``change`` damaged, given
    its parent and its key."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in steps[:-1]:
        parent = parent[step]
    change(parent, steps[-1])
    return doc


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_every_position_a_decode_reads_names_its_path(record):
    decode, doc = type(record).from_dict, record.to_dict()
    for steps, at, required in _positions(doc, record):
        value = doc
        for step in steps:
            value = value[step]
        wrong = [] if isinstance(value, dict) else \
            {} if isinstance(value, list) else {"x": []}
        with pytest.raises((TypeError, ValueError)) as err:
            decode(_damaged(doc, steps, lambda parent, step:
                            parent.__setitem__(step, wrong)))
        assert str(err.value).startswith(f"{at}: ")
        if required:
            with pytest.raises(KeyError) as err:
                decode(_damaged(doc, steps, lambda parent, step:
                                parent.pop(step)))
            assert err.value.args == (at,)


# ------------------------------------------------------------- entry store

def _key(n):
    return f"{n:064x}"


def _line(key, entry):
    return f"{key} {json.dumps({**entry, 'key': key})}\n"


def _get(store, key):
    return store.get(key, lambda entry: entry, "dropping")


def test_line_whose_prefix_and_body_keys_disagree_is_corrupt(tmp_path, caplog):
    body = json.dumps({"key": _key(2), "v": 1})
    (tmp_path / "a.log").write_text(f"{_key(1)} {body}\n")
    store = EntryStore(tmp_path, LOG, "test entry")
    with caplog.at_level("WARNING", logger=LOG.name):
        assert _get(store, _key(1)) is None
        assert _get(store, _key(2)) is None  # no line is filed under it
    assert [r.getMessage() for r in caplog.records] == \
        [f"dropping corrupt test entry {_key(1)}"]


@pytest.mark.parametrize("corrupt_first", [True, False])
@pytest.mark.parametrize("damage", [
    lambda line: line[:-20] + "\n",  # cut short
    lambda line: line.replace('"v": 1', '"v": 2'),  # fails the decode check
    lambda line: line[:64] + "x" + line[65:],  # no separator
], ids=["truncated", "rejected", "separator"])
def test_corrupt_line_is_superseded_by_a_valid_one_in_any_log_order(
        tmp_path, caplog, corrupt_first, damage):
    good = _line(_key(1), {"v": 1})
    names = ["a.log", "b.log"] if corrupt_first else ["b.log", "a.log"]
    (tmp_path / names[0]).write_text(damage(good))
    (tmp_path / names[1]).write_text(good)
    store = EntryStore(tmp_path, LOG, "test entry")
    with caplog.at_level("WARNING", logger=LOG.name):
        found = store.get(_key(1), lambda e: e if e["v"] == 1 else None,
                          "dropping")
    assert found == {"key": _key(1), "v": 1}
    assert caplog.records == []


def test_torn_last_line_is_not_served_and_a_later_put_is(tmp_path, caplog):
    first = EntryStore(tmp_path, LOG, "test entry")
    first.put(_key(1), {"v": 1})
    first.put(_key(2), {"v": 2})
    first.close()
    [log] = tmp_path.iterdir()
    log.write_bytes(log.read_bytes()[:-1])  # only the newline is lost

    second = EntryStore(tmp_path, LOG, "test entry")
    with caplog.at_level("WARNING", logger=LOG.name):
        assert _get(second, _key(1)) == {"key": _key(1), "v": 1}
        assert _get(second, _key(2)) is None
    assert [r.getMessage() for r in caplog.records] == \
        [f"dropping corrupt test entry {_key(2)}"]
    second.put(_key(2), {"v": 2})
    assert _get(second, _key(2)) == {"key": _key(2), "v": 2}
    second.close()
    assert _get(EntryStore(tmp_path, LOG, "test entry"), _key(2)) == \
        {"key": _key(2), "v": 2}


def test_concurrent_writers_each_append_whole_lines(tmp_path):
    stores = [EntryStore(tmp_path, LOG, "test entry") for _ in range(2)]
    start = threading.Barrier(len(stores))
    errors = []

    def write(w, store):
        start.wait()
        try:
            for i in range(200):
                store.put(_key(1000 * w + i), {"w": w, "text": "x" * i})
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(w, store))
                   for w, store in enumerate(stores)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
        for store in stores:
            store.close()
    assert errors == []
    logs = sorted(tmp_path.iterdir())
    assert len(logs) == 2
    for log in logs:
        data = log.read_bytes()
        assert data.endswith(b"\n") and data.count(b"\n") == 200
    reader = EntryStore(tmp_path, LOG, "test entry")
    for w in range(2):
        for i in range(200):
            assert _get(reader, _key(1000 * w + i)) == \
                {"key": _key(1000 * w + i), "w": w, "text": "x" * i}
