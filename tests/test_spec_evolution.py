"""Tests for update chains, functional entries, and increment enumeration."""

import json

import pytest

from conftest import FIXTURES
from deltaspec.errors import CycleDetected, MissingDelta
from deltaspec.llm_gateway import LlmGateway, MockProvider
from deltaspec.spec_evolution import (
    ChainEdge,
    FunctionalDelta,
    FunctionalEntry,
    Increment,
    RfcMeta,
    UpdateChainGraph,
    build_update_chain,
    diff_functional_entries,
    enumerate_increments,
    load_rfc_metadata,
    title_overlap,
)

METADATA = FIXTURES / "chains" / "rfc_metadata.json"


def entry(title, summary="", rfc=793, section="2", status="new"):
    return FunctionalEntry(rfc=rfc, section=section, title=title,
                           summary=summary, status=status)


# ------------------------------------------------------------------- chains

def test_bundled_metadata_yields_four_chains():
    graph = build_update_chain(load_rfc_metadata(METADATA))
    assert graph.chains() == [
        [793, 1323, 7323],
        [793, 1948, 6528],
        [793, 2385, 5925],
        [793, 5961],
    ]
    assert graph.roots() == [793]
    assert [e.dst for e in graph.edges if e.src == 793] == \
        [1323, 1948, 2385, 5961]
    assert [e.src for e in graph.edges if e.dst == 6528] == [1948]


def test_update_and_obsolete_both_create_forward_edges():
    graph = build_update_chain([
        RfcMeta(1, published="2000-01"),
        RfcMeta(2, updates=(1,), published="2001-01"),
        RfcMeta(3, obsoletes=(2,), published="2002-01"),
    ])
    assert [(e.src, e.dst, e.kind) for e in graph.edges] == \
        [(1, 2, "updates"), (2, 3, "obsoletes")]


def test_references_outside_corpus_are_dropped():
    graph = build_update_chain([RfcMeta(5961, updates=(793,),
                                        published="2010-08")])
    assert graph.edges == []
    assert graph.chains() == [[5961]]


def test_cyclic_metadata_is_rejected():
    with pytest.raises(CycleDetected):
        build_update_chain([
            RfcMeta(1, updates=(2,), published="2000-01"),
            RfcMeta(2, updates=(1,), published="2000-01"),
        ])


def test_backward_dates_are_rejected():
    with pytest.raises(ValueError, match="backward in time"):
        build_update_chain([
            RfcMeta(793, published="1990-01"),
            RfcMeta(800, updates=(793,), published="1980-01"),
        ])


def test_chain_graph_serializes_chains():
    graph = build_update_chain(load_rfc_metadata(METADATA))
    d = graph.to_dict()
    assert set(d) == {"nodes", "dates", "edges"}
    assert d["nodes"] == graph.nodes
    assert {e["kind"] for e in d["edges"]} == {"updates", "obsoletes"}
    json.dumps(d)  # must be plain data


def test_ladder_serializes_without_listing_its_paths(monkeypatch):
    # RFC i updates i-1 and i-2, so the paths from 1 to 30 number F(30).
    graph = build_update_chain([
        RfcMeta(i, updates=tuple(j for j in (i - 1, i - 2) if j >= 1),
                published=f"{1970 + i}-01")
        for i in range(1, 31)])
    assert graph.chain_count() == 832040
    listed = []
    monkeypatch.setattr(UpdateChainGraph, "chains",
                        lambda self: listed.append(1) or [])
    d = graph.to_dict()
    assert set(d) == {"nodes", "dates", "edges"}
    assert len(d["nodes"]) == 30 and len(d["edges"]) == 57
    assert listed == []


# ------------------------------------------------------------------ entries

def test_entry_status_is_validated():
    with pytest.raises(ValueError, match="status"):
        entry("x", status="renamed")


def test_entry_id_ignores_title_case():
    a = entry("Initial Sequence Number Generation")
    b = entry("initial sequence number generation")
    assert a.id == b.id
    assert a.id != entry("x").id


def test_entry_roundtrips_through_dict():
    e = FunctionalEntry(rfc=5961, section="3.2", title="rst validation",
                        summary="in-window check", concepts=("rst",),
                        status="modified")
    assert FunctionalEntry.from_dict(e.to_dict()) == e


def test_title_overlap_is_token_set_based():
    assert title_overlap("Initial Sequence Number Generation",
                         "initial sequence number selection") == 0.75
    assert title_overlap("same", "same") == 1.0
    assert title_overlap("", "anything") == 0.0


def test_delta_buckets_must_be_disjoint():
    e = entry("isn")
    delta = FunctionalDelta(added=[e], modified=[], deprecated=[],
                            inherited=[e])
    with pytest.raises(ValueError, match="overlap"):
        delta.validate()


def test_delta_targets_are_added_plus_new_sides():
    old, new = entry("a", status="modified"), entry("a v2", status="modified")
    add = entry("b")
    delta = FunctionalDelta(added=[add], modified=[(old, new)],
                            deprecated=[], inherited=[])
    assert delta.targets() == [add, new]


# ------------------------------------------------------------------ diffing

def classify_rule(req):
    user = req.messages[-1][1]
    if "TASK: classify-entry-pair" in user:
        lines = dict(l.split(": ", 1) for l in user.splitlines() if ": " in l)
        same = lines["OLD SUMMARY"] == lines["NEW SUMMARY"]
        return json.dumps({"classification": "inherited" if same else "modified"})
    if "TASK: classify-removed-entry" in user:
        gone = "obsolete" in user
        return json.dumps({"classification": "deprecated" if gone else "inherited"})
    return None


def scripted_gateway():
    return LlmGateway(provider=MockProvider(rules=classify_rule))


def test_diff_buckets_pairs_additions_and_removals():
    old = [
        entry("initial sequence number generation", "clock driven isn"),
        entry("urgent pointer semantics", "obsolete mechanism"),
        entry("window update rule", "same text"),
    ]
    new = [
        entry("Initial Sequence Number Generation", "hashed isn", rfc=6528),
        entry("window update rule", "same text", rfc=6528),
        entry("challenge ack rate limit", "throttle acks", rfc=6528),
    ]
    delta = diff_functional_entries(old, new, scripted_gateway(), "judge-1")

    assert [(o.title, n.title) for o, n in delta.modified] == \
        [("initial sequence number generation",
          "Initial Sequence Number Generation")]
    assert [e.title for e in delta.added] == ["challenge ack rate limit"]
    assert [e.title for e in delta.deprecated] == ["urgent pointer semantics"]
    assert [e.title for e in delta.inherited] == ["window update rule"]
    assert all(e.status == "new" for e in delta.added)
    assert all(e.status == "deprecated" for e in delta.deprecated)
    assert all(o.status == n.status == "modified" for o, n in delta.modified)


def test_diff_respects_overlap_threshold():
    old = [entry("urgent pointer semantics", "x")]
    new = [entry("challenge ack throttle", "y", rfc=5961)]
    delta = diff_functional_entries(old, new, scripted_gateway(), "judge-1")
    assert delta.modified == []
    assert [e.title for e in delta.added] == ["challenge ack throttle"]


def test_diff_pairs_greedily_by_overlap():
    old = [entry("tcp window scale option", "a")]
    new = [
        entry("tcp window scale option", "b", rfc=7323),  # overlap 1.0
        entry("window scale option limits", "c", rfc=7323),  # overlap 0.6
    ]
    delta = diff_functional_entries(old, new, scripted_gateway(), "judge-1")
    assert [(o.title, n.title) for o, n in delta.modified] == \
        [("tcp window scale option", "tcp window scale option")]
    assert [e.title for e in delta.added] == ["window scale option limits"]


# --------------------------------------------------------------- increments

def test_increments_need_every_edge_delta():
    graph = build_update_chain(load_rfc_metadata(METADATA))
    chain = [793, 1948, 6528]
    with pytest.raises(MissingDelta):
        enumerate_increments(graph, chain)

    d1 = FunctionalDelta(added=[entry("isn randomization", rfc=1948)],
                         modified=[], deprecated=[], inherited=[])
    d2 = FunctionalDelta(added=[entry("keyed isn hash", rfc=6528)],
                         modified=[], deprecated=[], inherited=[])
    graph.set_delta(793, 1948, d1)
    graph.set_delta(1948, 6528, d2)
    increments = enumerate_increments(graph, chain)
    assert [(i.rfc_from, i.rfc_to) for i in increments] == \
        [(793, 1948), (1948, 6528)]
    assert increments[0].targets == tuple(d1.targets())


def test_set_delta_validates():
    graph = build_update_chain(load_rfc_metadata(METADATA))
    e = entry("dup")
    with pytest.raises(ValueError):
        graph.set_delta(793, 1948, FunctionalDelta(
            added=[e], modified=[], deprecated=[e], inherited=[]))


def test_increment_roundtrips_through_dict():
    delta = FunctionalDelta(added=[entry("a", "s")], modified=[],
                            deprecated=[], inherited=[])
    inc = Increment(rfc_from=793, rfc_to=1948, delta=delta)
    clone = Increment.from_dict(json.loads(json.dumps(inc.to_dict())))
    assert clone == inc
    assert clone.targets == tuple(delta.targets())
