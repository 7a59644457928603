"""Tests for the entity graph, community detection, and dual-path retrieval."""

import json

import pytest

from conftest import FIXTURES
from deltaspec import fsio
from deltaspec.chunk_mapper import ChunkFunctionMap, FunctionSpan, MapLink, chunk_stream
from deltaspec.errors import EmptyGraph, MissingArtifact
from deltaspec.knowledge_graph import (
    Community,
    Entity,
    GraphEdge,
    KnowledgeGraph,
    build_graph,
    detect_communities,
    entity_id,
    extract_entities_all,
    normalize_name,
    retrieve_code_for_spec,
)
from deltaspec.llm_gateway import LlmGateway, MockProvider


def ent(name, kind="state"):
    return Entity(kind=kind, name=name)


def one_chunk(text, origin):
    (chunk,) = chunk_stream(text.split(), origin=origin, chunk_size=100)
    return chunk


# ----------------------------------------------------------------- entities

def test_entity_ids_are_kind_and_name_keyed():
    assert ent("RST  Validation").id == entity_id("state", "rst validation")
    assert ent("rst validation").id == ent("RST Validation").id
    assert ent("x", kind="event").id != ent("x", kind="state").id


def test_unknown_kind_falls_back():
    assert Entity(kind="protocol", name="x").kind == "mechanism"


def test_add_entity_merges_description():
    g = KnowledgeGraph()
    g.add_entity(Entity("state", "isn"))
    merged = g.add_entity(Entity("state", "ISN", description="initial seq"))
    assert len(g.entities) == 1
    assert merged.description == "initial seq"


def test_name_lookup_normalizes():
    g = KnowledgeGraph()
    e = g.add_entity(ent("Challenge  ACK"))
    assert g.entities_by_name("challenge ack") == [e]
    assert g.entities_by_name("nothing") == []


# -------------------------------------------------------------------- edges

def test_mentions_accumulate():
    g = KnowledgeGraph()
    chunk = one_chunk("some prose", "rfc")
    e = g.add_entity(ent("window"))
    g.add_mention(e.id, chunk.id)
    g.add_mention(e.id, chunk.id, weight=2.0)
    (edge,) = [x for x in g.edges if x.relation == "mentions"]
    assert edge.weight == 3.0


def test_relates_edges_are_undirected_and_loop_free():
    g = KnowledgeGraph()
    a, b = ent("a").id, ent("b").id
    g.add_relates(b, a, weight=0.5)
    g.add_relates(a, b, weight=0.25)
    g.add_relates(a, a)
    relates = [x for x in g.edges if x.relation == "relates-to"]
    assert relates == [GraphEdge(min(a, b), max(a, b), "relates-to", 0.75)]
    adj = g.relates_adjacency()
    assert adj[a][b] == adj[b][a] == 0.75


# -------------------------------------------------------------- communities

def triangle_graph():
    g = KnowledgeGraph()
    names = ["a1", "a2", "a3", "b1", "b2", "b3", "lone"]
    ids = {n: g.add_entity(ent(n)).id for n in names}
    for x, y in [("a1", "a2"), ("a2", "a3"), ("a1", "a3"),
                 ("b1", "b2"), ("b2", "b3"), ("b1", "b3")]:
        g.add_relates(ids[x], ids[y], weight=1.0)
    g.add_relates(ids["a3"], ids["b1"], weight=0.2)  # weak bridge
    return g, ids


def test_weakly_bridged_triangles_stay_separate():
    g, ids = triangle_graph()
    communities = detect_communities(g)
    members = {frozenset(c.members) for c in communities}
    assert len(communities) == 3
    assert members == {
        frozenset({ids["a1"], ids["a2"], ids["a3"]}),
        frozenset({ids["b1"], ids["b2"], ids["b3"]}),
        frozenset({ids["lone"]}),
    }
    assert [c.id for c in sorted(communities, key=lambda c: min(c.members))] \
        == [0, 1, 2]
    lone = next(c for c in communities if len(c.members) == 1)
    assert lone.summary == "community of 1 entities: lone"


def test_community_detection_is_deterministic():
    g, _ = triangle_graph()
    first = detect_communities(g, seed=0)
    second = detect_communities(g, seed=0)
    assert first == second


# ---------------------------------------------------------------- retrieval

def retrieval_graph():
    g = KnowledgeGraph(damping=0.5)
    q = g.add_entity(ent("query mech"))
    sib = g.add_entity(ent("sibling mech"))
    far = g.add_entity(ent("far mech"))
    g.add_implements(q.id, "net/a.c:1:direct_fn", weight=1.0)
    g.add_implements(sib.id, "net/a.c:9:sibling_fn", weight=1.0)
    g.add_implements(far.id, "net/b.c:3:far_fn", weight=1.0)
    g.communities = [
        Community(0, frozenset({q.id, sib.id}), ""),
        Community(1, frozenset({far.id}), ""),
    ]
    return g


def test_direct_edges_outrank_damped_sibling_edges():
    results = retrieve_code_for_spec(["query mech"], retrieval_graph())
    assert results == [("net/a.c:1:direct_fn", 1.0),
                       ("net/a.c:9:sibling_fn", 0.5)]


def test_retrieval_honors_k():
    results = retrieve_code_for_spec(["query mech"], retrieval_graph(), k=1)
    assert results == [("net/a.c:1:direct_fn", 1.0)]


def test_score_ties_break_on_function_name_not_fid():
    g = KnowledgeGraph()
    e = g.add_entity(ent("m"))
    g.add_implements(e.id, "z.c:9:aaa", weight=1.0)
    g.add_implements(e.id, "a.c:1:bbb", weight=1.0)
    results = retrieve_code_for_spec([e.name], g)
    assert [fid for fid, _ in results] == ["z.c:9:aaa", "a.c:1:bbb"]


def test_empty_graph_refuses_retrieval():
    with pytest.raises(EmptyGraph):
        retrieve_code_for_spec(["anything"], KnowledgeGraph())


# ------------------------------------------------------- scripted extraction

def entity_rule(req):
    user = req.messages[-1][1]
    if "TASK: extract-entities" not in user:
        return None
    if "alpha" in user:
        return json.dumps([
            {"kind": "state", "name": "Seq State", "description": "d1"},
            {"kind": "event", "name": "RST Event"},
            {"kind": "event", "name": "rst event"},  # dedup within a chunk
        ])
    return json.dumps([
        {"kind": "event", "name": "RST Event"},
        {"kind": "action", "name": "Send Ack"},
    ])


def test_extract_entities_dedups():
    gateway = LlmGateway(provider=MockProvider(rules=entity_rule))
    chunk = one_chunk("alpha text", "rfc0793")
    (found,) = extract_entities_all([chunk], gateway, "judge-1")
    assert [(e.kind, e.name) for e in found] == \
        [("state", "Seq State"), ("event", "RST Event")]


def test_empty_chunk_costs_nothing():
    gateway = LlmGateway(provider=MockProvider(rules=entity_rule))
    chunk = one_chunk("alpha", "x")
    blank = type(chunk)(id="blank", origin="x", index=1, span=(0, 0), text="  ",
                        overlap_prev=0, char_start=0)
    assert extract_entities_all([blank], gateway, "judge-1") == [[]]
    assert gateway.stats.requests == 0


def test_build_graph_connects_cooccurring_entities():
    gateway = LlmGateway(provider=MockProvider(rules=entity_rule))
    c1 = one_chunk("alpha prose", "rfc:1")
    c2 = one_chunk("beta prose", "rfc:2")
    fmap = ChunkFunctionMap(
        function_to_chunks={"x.c:1:fa": [MapLink(c1.id, "x.c:1:fa", 0, 2)]},
        spans={"x.c:1:fa": FunctionSpan("x.c:1:fa", 0, 2)},
    )
    g = build_graph([c1, c2], gateway, "judge-1", fmap=fmap)
    assert len(g.entities) == 3
    rst = entity_id("event", "rst event")
    adj = g.relates_adjacency()
    # RST Event co-occurs once with each chunk-mate.
    assert set(adj[rst]) == {entity_id("state", "seq state"),
                             entity_id("action", "send ack")}
    # Each entity links to the chunks that mention it, once per chunk.
    mentions = {(e.src, e.dst): e.weight for e in g.edges
                if e.relation == "mentions"}
    assert mentions == {
        (entity_id("state", "seq state"), c1.id): 1.0,
        (rst, c1.id): 1.0,
        (rst, c2.id): 1.0,
        (entity_id("action", "send ack"), c2.id): 1.0,
    }
    impl = g.implements_by_entity()
    assert impl[entity_id("state", "seq state")] == [("x.c:1:fa", 1.0)]
    assert impl[rst] == [("x.c:1:fa", 1.0)]
    assert g.communities, "communities are attached at build time"


# ------------------------------------------------------------- serialization

def test_graph_roundtrips_and_saves_into_new_directories(tmp_path):
    g, _ = triangle_graph()
    g.communities = detect_communities(g)
    chunk = one_chunk("prose", "rfc")
    g.add_mention(next(iter(g.entities)), chunk.id)

    target = tmp_path / "deep" / "nested" / "graph.json"
    fsio.write_json(target, g.to_dict())
    loaded = fsio.read_json(target, KnowledgeGraph.from_dict)
    assert loaded.damping == g.damping
    assert loaded.entities.keys() == g.entities.keys()
    assert loaded.edges == g.edges
    assert loaded.communities == g.communities


def test_graph_file_holds_only_the_graph():
    paths = sorted((FIXTURES / "mini_corpus" / "work" / "graph").glob("toy-*"))
    assert len(paths) == 2
    for path in paths:
        d = json.loads(path.read_text())
        assert sorted(d) == ["communities", "damping", "edges", "entities"]
        assert all(sorted(e) == ["description", "id", "kind", "name"]
                   for e in d["entities"])


def test_parent_format_graph_loads_to_the_same_graph():
    """A graph file that also carries function_names, chunk_origins and
    per-entity provenance, as files written before those copies were
    dropped do, loads to the same graph and ranks the same functions."""
    g = retrieval_graph()
    chunk = one_chunk("query mech prose", "rfc:1")
    for eid in sorted(g.entities):
        g.add_mention(eid, chunk.id)
    old = g.to_dict()
    old["chunk_origins"] = {chunk.id: chunk.origin}
    old["function_names"] = {"net/a.c:1:direct_fn": "direct_fn",
                             "net/a.c:9:sibling_fn": "sibling_fn",
                             "net/b.c:3:far_fn": "far_fn"}
    for e in old["entities"]:
        e["provenance"] = [chunk.id]
    loaded = KnowledgeGraph.from_dict(old)
    assert loaded.to_dict() == g.to_dict()
    for query in (["query mech"], ["sibling mech"], ["far mech"]):
        assert retrieve_code_for_spec(query, loaded) == \
            retrieve_code_for_spec(query, g)


@pytest.mark.parametrize("kind, reason", [
    ("stat", "unknown entity kind 'stat'"),
    ("event", "entity id '[0-9a-f]{16}' is not the id of event "),
], ids=["misspelt", "another"])
def test_graph_entity_of_another_kind_is_not_loaded(tmp_path, kind, reason):
    """A stored entity whose kind is misspelt, or is not the kind its id
    was made from, would load under an id that no edge names."""
    text = (FIXTURES / "mini_corpus" / "work" / "graph" / "toy-b.json") \
        .read_text()
    assert text.count('"kind": "state"') == 1
    target = tmp_path / "toy-b.json"
    target.write_text(text.replace('"kind": "state"', f'"kind": "{kind}"'))
    with pytest.raises(MissingArtifact,
                       match=rf"cannot read .*toy-b\.json: {reason}"):
        fsio.read_json(target, KnowledgeGraph.from_dict)


def test_unknown_edge_relation_is_not_read_as_another(tmp_path):
    g = retrieval_graph()
    d = g.to_dict()
    d["edges"].append({"src": "a", "dst": "b", "relation": "mention",
                       "weight": 1.0})
    with pytest.raises(ValueError, match="unknown edge relation 'mention'"):
        KnowledgeGraph.from_dict(d)
    target = tmp_path / "graph.json"
    fsio.write_json(target, d)
    with pytest.raises(MissingArtifact,
                       match=r"cannot read .*graph\.json: .*'mention'"):
        fsio.read_json(target, KnowledgeGraph.from_dict)
