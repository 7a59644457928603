"""Knowledge graph over spec and code chunks, with dual-path retrieval.

Entities (states, events, actions, mechanisms) are extracted per chunk by the
gateway, deduplicated by kind and normalized name, and linked three ways:
mentions (entity -> chunk), relates-to (entity <-> entity co-occurrence) and
implements-candidate (entity -> function, via the chunk/function map).
Communities come from deterministic label propagation over relates-to edges.

Retrieval walks two paths and sums their contributions: direct
implements-candidate edges from the query entities at full weight, and edges
from community siblings damped by a configurable factor. Scores only ever
accumulate, so adding an edge never demotes an already-reachable function.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .chunk_mapper import Chunk, ChunkFunctionMap
from .errors import ContractViolation, EmptyGraph, SchemaViolation
from .fsio import Record
from .llm_gateway import PHASE_GRAPH, LlmGateway, request

ENTITY_KINDS = ("state", "event", "action", "mechanism")
FALLBACK_KIND = "mechanism"
DEFAULT_DAMPING = 0.5
MAX_ROUNDS = 100  # label-propagation rounds before giving up on convergence
RELATIONS = ("mentions", "relates-to", "implements-candidate")

ENTITY_CONTRACT = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["kind", "name"],
        "properties": {
            "kind": {"type": "string"},
            "name": {"type": "string", "minLength": 1},
            "description": {"type": "string"},
        },
    },
}

_EXTRACT_SYSTEM = (
    "You identify protocol entities in RFC prose or kernel source. "
    "Classify each as state, event, action, or mechanism. "
    "Respond with a JSON array of objects {kind, name, description}."
)


def normalize_name(name: str) -> str:
    return " ".join(name.lower().split())


def entity_id(kind: str, name: str) -> str:
    return hashlib.sha256(f"{kind}|{normalize_name(name)}".encode()).hexdigest()[:16]


@dataclass
class Entity(Record):
    """Its JSON form also holds its ``id``; a decode checks both the id and
    the kind, which construction would otherwise replace."""
    kind: str
    name: str
    description: str = ""

    def __post_init__(self):
        if self.kind not in ENTITY_KINDS:
            self.kind = FALLBACK_KIND

    @property
    def id(self) -> str:
        return entity_id(self.kind, self.name)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "id": self.id}

    @classmethod
    def from_dict(cls, d: dict) -> "Entity":
        ent = super().from_dict(d)
        if d["kind"] != ent.kind:
            raise ValueError(f"unknown entity kind {d['kind']!r}")
        if d.get("id") != ent.id:
            raise ValueError(f"entity id {d.get('id')!r} is not the id of "
                             f"{ent.kind} {ent.name!r}")
        return ent


@dataclass(frozen=True)
class GraphEdge(Record):
    src: str
    dst: str
    relation: str  # one of RELATIONS
    weight: float

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown edge relation {self.relation!r}")


@dataclass(frozen=True)
class Community(Record):
    id: int
    members: frozenset[str]
    summary: str


@dataclass(frozen=True)
class _GraphFile(Record):
    """A graph's JSON form, before its edge ends are checked."""
    entities: tuple[Entity, ...]
    edges: tuple[GraphEdge, ...]
    damping: float = DEFAULT_DAMPING
    communities: tuple[Community, ...] = ()


class KnowledgeGraph:
    def __init__(self, damping: float = DEFAULT_DAMPING):
        self.damping = damping
        self.entities: dict[str, Entity] = {}
        self._mentions: dict[tuple[str, str], float] = {}
        self._relates: dict[tuple[str, str], float] = {}
        self._implements: dict[tuple[str, str], float] = {}
        self.communities: list[Community] = []

    # -- construction --------------------------------------------------------

    def add_entity(self, entity: Entity) -> Entity:
        existing = self.entities.get(entity.id)
        if existing is None:
            self.entities[entity.id] = entity
            return entity
        if not existing.description and entity.description:
            existing.description = entity.description
        return existing

    def add_mention(self, eid: str, chunk_id: str, weight: float = 1.0) -> None:
        key = (eid, chunk_id)
        self._mentions[key] = self._mentions.get(key, 0.0) + weight

    def add_relates(self, a: str, b: str, weight: float = 1.0) -> None:
        if a == b:
            return
        key = (min(a, b), max(a, b))
        self._relates[key] = self._relates.get(key, 0.0) + weight

    def add_implements(self, eid: str, fid: str, weight: float = 1.0) -> None:
        key = (eid, fid)
        self._implements[key] = self._implements.get(key, 0.0) + weight

    # -- views ----------------------------------------------------------------

    @property
    def edges(self) -> list[GraphEdge]:
        out = [GraphEdge(e, c, "mentions", w)
               for (e, c), w in sorted(self._mentions.items())]
        out += [GraphEdge(a, b, "relates-to", w)
                for (a, b), w in sorted(self._relates.items())]
        out += [GraphEdge(e, f, "implements-candidate", w)
                for (e, f), w in sorted(self._implements.items())]
        return out

    def relates_adjacency(self) -> dict[str, dict[str, float]]:
        adj: dict[str, dict[str, float]] = {}
        for (a, b), w in self._relates.items():  # keys are canonical (a < b)
            adj.setdefault(a, {})[b] = w
            adj.setdefault(b, {})[a] = w
        return adj

    def implements_by_entity(self) -> dict[str, list[tuple[str, float]]]:
        out: dict[str, list[tuple[str, float]]] = {}
        for (e, f), w in sorted(self._implements.items()):
            out.setdefault(e, []).append((f, w))
        return out

    def entities_by_name(self, name: str) -> list[Entity]:
        norm = normalize_name(name)
        return [e for _, e in sorted(self.entities.items())
                if normalize_name(e.name) == norm]

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return _GraphFile(
            entities=tuple(e for _, e in sorted(self.entities.items())),
            edges=tuple(self.edges), damping=self.damping,
            communities=tuple(self.communities)).to_dict()

    @classmethod
    def from_dict(cls, d: dict) -> "KnowledgeGraph":
        stored = _GraphFile.from_dict(d)
        g = cls(damping=stored.damping)
        g.entities = {e.id: e for e in stored.entities}
        by_relation = {"mentions": g._mentions, "relates-to": g._relates,
                       "implements-candidate": g._implements}
        for e in stored.edges:
            # A mentions edge ends at a chunk, an implements-candidate edge
            # at a function; only a relates-to edge ends at an entity.
            _check_entities(g, [e.src, e.dst] if e.relation == "relates-to"
                            else [e.src], "edge end")
            by_relation[e.relation][(e.src, e.dst)] = e.weight
        g.communities = list(stored.communities)
        for c in g.communities:
            _check_entities(g, sorted(c.members), "community member")
        return g


def _check_entities(graph: KnowledgeGraph, ids: Sequence[str],
                    role: str) -> None:
    for eid in ids:
        if eid not in graph.entities:
            raise ValueError(f"{role} {eid!r} is not an entity")


def extract_entities_all(chunks: Sequence[Chunk], gateway: LlmGateway,
                         model: str) -> list[list[Entity]]:
    """The entities mentioned in each chunk, in order, as one gateway batch;
    empty chunks cost zero calls."""
    live = [c for c in chunks if c.text.strip()]
    reqs = [request(
        model,
        _EXTRACT_SYSTEM,
        f"TASK: extract-entities\nCHUNK: {c.id}\nTEXT:\n{c.text}",
        contract=ENTITY_CONTRACT,
    ) for c in live]
    try:
        results = iter(gateway.complete_all(reqs, PHASE_GRAPH))
    except ContractViolation as exc:
        raise SchemaViolation(f"entity extraction failed contract: {exc}") from exc
    out: list[list[Entity]] = []
    for chunk in chunks:
        seen: dict[str, Entity] = {}
        if chunk.text.strip():
            for item in next(results).parsed:
                ent = Entity(kind=item["kind"], name=item["name"],
                             description=item.get("description", ""))
                seen.setdefault(ent.id, ent)
        out.append(list(seen.values()))
    return out


def build_graph(
    chunks: Sequence[Chunk],
    gateway: LlmGateway,
    model: str,
    *,
    fmap: ChunkFunctionMap | None = None,
    damping: float = DEFAULT_DAMPING,
) -> KnowledgeGraph:
    """Assemble the graph from a chunk corpus (text and code together)."""
    graph = KnowledgeGraph(damping=damping)
    ordered = sorted(chunks, key=lambda c: (c.origin, c.index))
    chunk_links = fmap.links_by_chunk() if fmap is not None else {}
    for chunk, found in zip(ordered,
                            extract_entities_all(ordered, gateway, model)):
        merged = [graph.add_entity(e) for e in found]
        ids = sorted({e.id for e in merged})
        for eid in ids:
            graph.add_mention(eid, chunk.id)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                graph.add_relates(a, b)
        fids = sorted({l.fid for l in chunk_links.get(chunk.id, ())})
        for eid in ids:
            for fid in fids:
                graph.add_implements(eid, fid)
    graph.communities = detect_communities(graph)
    return graph


def detect_communities(graph: KnowledgeGraph, *,
                       seed: int = 0) -> list[Community]:
    """Label propagation over relates-to edges, fully deterministic.

    Each round visits nodes in an order shuffled by a seeded RNG; a node
    adopts the neighbor label with the largest total edge weight, breaking
    ties toward the smallest (label ids are entity ids, so "ascending id").
    Stops at convergence or after ``MAX_ROUNDS`` rounds. Entities with no
    relates-to edges stay in singleton communities.
    """
    ids = sorted(graph.entities)
    adj = graph.relates_adjacency()
    labels = {eid: eid for eid in ids}
    rng = random.Random(seed)
    for _ in range(MAX_ROUNDS):
        order = list(ids)
        rng.shuffle(order)
        changed = False
        for node in order:
            neighbors = adj.get(node)
            if not neighbors:
                continue
            by_label: dict[str, float] = {}
            for other, w in neighbors.items():
                lbl = labels[other]
                by_label[lbl] = by_label.get(lbl, 0.0) + w
            best = max(by_label.values())
            winner = min(l for l, w in by_label.items() if w == best)
            if winner != labels[node]:
                labels[node] = winner
                changed = True
        if not changed:
            break
    groups: dict[str, list[str]] = {}
    for eid in ids:
        groups.setdefault(labels[eid], []).append(eid)
    communities = []
    for idx, members in enumerate(sorted(groups.values(), key=min)):
        names = sorted(graph.entities[m].name for m in members)
        preview = ", ".join(names[:6])
        summary = f"community of {len(members)} entities: {preview}"
        communities.append(Community(id=idx, members=frozenset(members),
                                     summary=summary))
    return communities


def retrieve_code_for_spec(
    query: Iterable[str],
    graph: KnowledgeGraph,
    k: int = 20,
) -> list[tuple[str, float]]:
    """Rank candidate functions for a set of entity (concept) names.

    Path A follows implements-candidate edges from the query entities at
    weight 1.0. Path B adds the same edges from community siblings of the
    query entities, damped by the graph's damping factor. Ties break
    lexicographically by function name (the last ``:`` field of the fid),
    then fid.
    """
    if not graph.entities:
        raise EmptyGraph("cannot retrieve from a graph with no entities")
    query_ids = {e.id for name in query for e in graph.entities_by_name(name)}
    implements = graph.implements_by_entity()
    scores: dict[str, float] = {}
    for eid in sorted(query_ids):
        for fid, w in implements.get(eid, ()):
            scores[fid] = scores.get(fid, 0.0) + w
    sibling_pool: set[str] = set()
    for community in graph.communities:
        if community.members & query_ids:
            sibling_pool.update(community.members - query_ids)
    for eid in sorted(sibling_pool):
        for fid, w in implements.get(eid, ()):
            scores[fid] = scores.get(fid, 0.0) + w * graph.damping
    ranked = sorted(scores.items(),
                    key=lambda kv: (-kv[1], kv[0].rsplit(":", 1)[-1], kv[0]))
    return ranked[:k]
