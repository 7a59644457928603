"""Functional entries, RFC update chains, and differential deltas.

An RFC's protocol content is distilled into functional entries, one per
described behavior. The updates/obsoletes metadata of a corpus forms a DAG
whose root-to-leaf paths are the update chains; for each edge, diffing the
two entry sets yields a delta (added / modified / deprecated / inherited)
and the added-or-modified entries become the verification targets for that
increment. Entry pairing is cheap lexical prefiltering; only the surviving
pairs are classified by the model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CycleDetected, MissingDelta
from .fsio import Record
from .llm_gateway import (PHASE_GRAPH, CompletionResult, LlmGateway,
                          LlmRequest, request)
from .rfc_ingest import RfcDocument, section_sort_key
from .tokenizer import token_texts

ENTRY_STATUSES = ("new", "modified", "inherited", "deprecated")
DEFAULT_TITLE_OVERLAP = 0.5

ENTRY_CONTRACT = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["title", "summary"],
        "properties": {
            "title": {"type": "string", "minLength": 1},
            "summary": {"type": "string"},
            "concepts": {"type": "array", "items": {"type": "string"}},
        },
    },
}

_PAIR_CONTRACT = {
    "type": "object",
    "required": ["classification"],
    "properties": {"classification": {"enum": ["modified", "inherited"]}},
}

_REMOVED_CONTRACT = {
    "type": "object",
    "required": ["classification"],
    "properties": {"classification": {"enum": ["deprecated", "inherited"]}},
}

_ENTRY_SYSTEM = (
    "You distill RFC sections into functional entries: discrete protocol "
    "behaviors an implementation must provide. Respond with a JSON array of "
    "objects {title, summary, concepts} where concepts names the protocol "
    "entities involved."
)

_PAIR_SYSTEM = (
    "You compare two functional entries from consecutive spec revisions and "
    "answer whether the behavior was modified or inherited unchanged. "
    'Respond with JSON {"classification": "modified"|"inherited"}.'
)

_REMOVED_SYSTEM = (
    "An entry from the older spec has no counterpart in the newer one. "
    "Decide whether the newer spec deprecates the behavior or inherits it "
    'by reference. Respond with JSON {"classification": "deprecated"|"inherited"}.'
)


@dataclass(frozen=True)
class FunctionalEntry(Record):
    rfc: int
    section: str
    title: str
    summary: str
    concepts: tuple[str, ...] = ()
    status: str = "new"

    def __post_init__(self):
        if self.status not in ENTRY_STATUSES:
            raise ValueError(f"unknown entry status {self.status!r}")

    @property
    def id(self) -> str:
        key = f"{self.rfc}|{self.section}|{self.title.lower()}"
        return hashlib.sha256(key.encode()).hexdigest()[:16]


@dataclass
class FunctionalDelta(Record):
    added: list[FunctionalEntry]
    modified: list[tuple[FunctionalEntry, FunctionalEntry]]
    deprecated: list[FunctionalEntry]
    inherited: list[FunctionalEntry]

    def validate(self) -> None:
        """Each entry id may appear in exactly one bucket (pairs use both sides)."""
        buckets = [
            [e.id for e in self.added],
            [old.id for old, _ in self.modified] + [new.id for _, new in self.modified],
            [e.id for e in self.deprecated],
            [e.id for e in self.inherited],
        ]
        flat = [i for b in buckets for i in b]
        if len(flat) != len(set(flat)):
            raise ValueError("delta buckets overlap")

    def targets(self) -> list[FunctionalEntry]:
        """Entries an implementation of the newer spec must newly satisfy."""
        return list(self.added) + [new for _, new in self.modified]


@dataclass(frozen=True)
class RfcMeta(Record):
    """Chain-relevant metadata when full document text is not needed."""

    number: int
    updates: tuple[int, ...] = ()
    obsoletes: tuple[int, ...] = ()
    published: str = "0000-00"


def load_rfc_metadata(path: str | Path) -> list[RfcMeta]:
    data = json.loads(Path(path).read_text())
    rows = data["rfcs"] if isinstance(data, dict) else data
    return [RfcMeta.from_dict(r) for r in rows]


@dataclass(frozen=True)
class ChainEdge:
    src: int
    dst: int
    kind: str  # "updates" | "obsoletes"


class UpdateChainGraph:
    def __init__(self, nodes: Iterable[int], edges: Iterable[ChainEdge],
                 dates: dict[int, str]):
        self.nodes = sorted(set(nodes))
        self.edges = sorted(set(edges), key=lambda e: (e.src, e.dst, e.kind))
        self.dates = dict(dates)
        self.deltas: dict[tuple[int, int], FunctionalDelta] = {}
        # Each node's distinct successors, ascending as the edges are sorted.
        self._succ: dict[int, list[int]] = {n: [] for n in self.nodes}
        for e in self.edges:
            if e.dst not in self._succ[e.src][-1:]:
                self._succ[e.src].append(e.dst)
        self._topological_order()
        self._check_dates()

    def _topological_order(self) -> list[int]:
        """Every node after all of its predecessors; raises CycleDetected
        when there is no such order."""
        indeg = {n: 0 for n in self.nodes}
        for targets in self._succ.values():
            for m in targets:
                indeg[m] += 1
        queue = [n for n in self.nodes if indeg[n] == 0]
        order: list[int] = []
        while queue:
            n = queue.pop()
            order.append(n)
            for m in self._succ[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    queue.append(m)
        if len(order) != len(self.nodes):
            cyclic = sorted(n for n in self.nodes if indeg[n] > 0)
            raise CycleDetected(f"update metadata is cyclic around {cyclic}")
        return order

    def _check_dates(self) -> None:
        for e in self.edges:
            if self.dates.get(e.src, "") > self.dates.get(e.dst, ""):
                raise ValueError(
                    f"edge {e.src}->{e.dst} goes backward in time "
                    f"({self.dates.get(e.src)} > {self.dates.get(e.dst)})")

    def roots(self) -> list[int]:
        have_incoming = {e.dst for e in self.edges}
        return [n for n in self.nodes if n not in have_incoming]

    def chains(self) -> list[list[int]]:
        """All maximal root-to-leaf paths; a node with no edges is its own chain."""
        out: list[list[int]] = []

        def walk(path: list[int]) -> None:
            nxt = self._succ[path[-1]]
            if not nxt:
                out.append(list(path))
                return
            for n in nxt:
                walk(path + [n])

        for root in self.roots():
            walk([root])
        return out

    def chain_count(self) -> int:
        """len(self.chains()), in O(V+E) without listing the paths: the
        number of root-to-leaf paths summed over the roots, counting paths
        from each node to a leaf in reverse topological order."""
        to_leaf: dict[int, int] = {}
        for n in reversed(self._topological_order()):
            to_leaf[n] = sum(to_leaf[m] for m in self._succ[n]) or 1
        return sum(to_leaf[r] for r in self.roots())

    def walk(self) -> list[tuple[int | None, int]]:
        """Every node once, as (parent, node), depth first from the roots in
        ascending order with successors in ascending order; a root's parent
        is None. A node's parent is its predecessor on its lowest
        root-to-node path, which is the first chain that reaches it."""
        out: list[tuple[int | None, int]] = []
        seen: set[int] = set()
        stack: list[tuple[int | None, int]] = \
            [(None, root) for root in reversed(self.roots())]
        while stack:
            parent, node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            out.append((parent, node))
            stack.extend((node, n) for n in reversed(self._succ[node]))
        return out

    def set_delta(self, src: int, dst: int, delta: FunctionalDelta) -> None:
        delta.validate()
        self.deltas[(src, dst)] = delta

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "dates": {str(k): v for k, v in sorted(self.dates.items())},
            "edges": [{"src": e.src, "dst": e.dst, "kind": e.kind}
                      for e in self.edges],
        }


def build_update_chain(docs: Sequence[RfcDocument | RfcMeta]) -> UpdateChainGraph:
    """Edges point old -> new: an RFC that updates or obsoletes X hangs off X."""
    numbers = {d.number for d in docs}
    edges: list[ChainEdge] = []
    for d in docs:
        for target in d.updates:
            if target in numbers:
                edges.append(ChainEdge(src=target, dst=d.number, kind="updates"))
        for target in d.obsoletes:
            if target in numbers:
                edges.append(ChainEdge(src=target, dst=d.number, kind="obsoletes"))
    return UpdateChainGraph(nodes=numbers, edges=edges,
                            dates={d.number: d.published for d in docs})


def extract_functional_entries_all(docs: Sequence[RfcDocument],
                                   gateway: LlmGateway,
                                   model: str) -> list[list[FunctionalEntry]]:
    """The functional entries of each document, in order: one request per
    non-empty section, in section order, with every section of every
    document in one gateway batch."""
    sections: list[tuple[int, str]] = []  # (document index, section id)
    reqs: list[LlmRequest] = []
    for k, doc in enumerate(docs):
        for section in sorted(doc.sections, key=lambda s: section_sort_key(s.id)):
            prose = section.prose()
            if not prose.strip():
                continue
            sections.append((k, section.id))
            reqs.append(request(
                model,
                _ENTRY_SYSTEM,
                (f"TASK: extract-entries\nRFC: {doc.number}\n"
                 f"SECTION: {section.id} {section.heading}\nTEXT:\n{prose}"),
                contract=ENTRY_CONTRACT,
            ))
    entries: list[list[FunctionalEntry]] = [[] for _ in docs]
    for (k, section_id), result in zip(sections,
                                       gateway.complete_all(reqs, PHASE_GRAPH)):
        for item in result.parsed:
            entries[k].append(FunctionalEntry(
                rfc=docs[k].number,
                section=section_id,
                title=item["title"],
                summary=item.get("summary", ""),
                concepts=tuple(item.get("concepts", ())),
            ))
    # Dedupe identical behaviors restated across sections: keep the first.
    out: list[list[FunctionalEntry]] = []
    for found in entries:
        seen: dict[str, FunctionalEntry] = {}
        for e in found:
            seen.setdefault(e.title.lower(), e)
        out.append(list(seen.values()))
    return out


def title_overlap(a: str, b: str) -> float:
    """Symmetric token-set overlap of two titles, in [0, 1]."""
    ta = {t.lower() for t in token_texts(a)}
    tb = {t.lower() for t in token_texts(b)}
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / max(len(ta), len(tb))


@dataclass(frozen=True)
class EntryPairing:
    """How two entry sets line up before any model call: title-matched
    (old, new) pairs, unpaired old entries, unpaired new entries."""

    pairs: tuple[tuple[FunctionalEntry, FunctionalEntry], ...]
    removed: tuple[FunctionalEntry, ...]
    added: tuple[FunctionalEntry, ...]

    def requests(self, model: str) -> list[LlmRequest]:
        """The classification requests: one per pair, then one per removed
        entry."""
        reqs = [request(
            model,
            _PAIR_SYSTEM,
            (f"TASK: classify-entry-pair\nOLD TITLE: {o.title}\n"
             f"OLD SUMMARY: {o.summary}\nNEW TITLE: {n.title}\n"
             f"NEW SUMMARY: {n.summary}"),
            contract=_PAIR_CONTRACT,
        ) for o, n in self.pairs]
        reqs += [request(
            model,
            _REMOVED_SYSTEM,
            (f"TASK: classify-removed-entry\nTITLE: {o.title}\n"
             f"SUMMARY: {o.summary}"),
            contract=_REMOVED_CONTRACT,
        ) for o in self.removed]
        return reqs

    def delta(self, results: Sequence[CompletionResult]) -> FunctionalDelta:
        """Assemble the delta from the answers to requests(), in order."""
        answers = [r.parsed["classification"] for r in results]
        delta = FunctionalDelta([], [], [], [])
        for (o, n), answer in zip(self.pairs, answers):
            if answer == "modified":
                delta.modified.append((replace(o, status="modified"),
                                       replace(n, status="modified")))
            else:
                delta.inherited.append(replace(n, status="inherited"))
        delta.added.extend(replace(n, status="new") for n in self.added)
        for o, answer in zip(self.removed, answers[len(self.pairs):]):
            if answer == "deprecated":
                delta.deprecated.append(replace(o, status="deprecated"))
            else:
                delta.inherited.append(replace(o, status="inherited"))
        delta.validate()
        return delta


def pair_entries(
    old: Sequence[FunctionalEntry],
    new: Sequence[FunctionalEntry],
    *,
    overlap_threshold: float = DEFAULT_TITLE_OVERLAP,
) -> EntryPairing:
    """Pairs form greedily from the highest title overlap down, one partner
    each, and only pairs at or above the threshold exist at all."""
    candidates: list[tuple[float, FunctionalEntry, FunctionalEntry]] = []
    for o in old:
        for n in new:
            sim = title_overlap(o.title, n.title)
            if sim >= overlap_threshold:
                candidates.append((sim, o, n))
    candidates.sort(key=lambda t: (-t[0], t[1].id, t[2].id))
    paired_old: set[str] = set()
    paired_new: set[str] = set()
    pairs: list[tuple[FunctionalEntry, FunctionalEntry]] = []
    for _, o, n in candidates:
        if o.id in paired_old or n.id in paired_new:
            continue
        paired_old.add(o.id)
        paired_new.add(n.id)
        pairs.append((o, n))
    return EntryPairing(
        pairs=tuple(pairs),
        removed=tuple(o for o in old if o.id not in paired_old),
        added=tuple(n for n in new if n.id not in paired_new))


def diff_functional_entries(
    old: Sequence[FunctionalEntry],
    new: Sequence[FunctionalEntry],
    gateway: LlmGateway,
    model: str,
    *,
    overlap_threshold: float = DEFAULT_TITLE_OVERLAP,
) -> FunctionalDelta:
    """Diff two entry sets into a delta.

    The model classifies each title-matched pair (modified vs inherited)
    and each unpaired old entry (deprecated vs inherited by reference).
    Unpaired new entries are additions, no model call needed.
    """
    pairing = pair_entries(old, new, overlap_threshold=overlap_threshold)
    return diff_pairings([pairing], gateway, model)[0]


def diff_pairings(pairings: Sequence[EntryPairing], gateway: LlmGateway,
             model: str) -> list[FunctionalDelta]:
    """The delta of each pairing, with every classification of every
    pairing in one gateway batch."""
    per_pairing = [p.requests(model) for p in pairings]
    results = gateway.complete_all(
        [r for reqs in per_pairing for r in reqs], PHASE_GRAPH)
    deltas: list[FunctionalDelta] = []
    start = 0
    for pairing, reqs in zip(pairings, per_pairing):
        deltas.append(pairing.delta(results[start:start + len(reqs)]))
        start += len(reqs)
    return deltas


@dataclass(frozen=True)
class Increment(Record):
    rfc_from: int
    rfc_to: int
    delta: FunctionalDelta

    @property
    def targets(self) -> tuple[FunctionalEntry, ...]:
        return tuple(self.delta.targets())

    def to_dict(self) -> dict:
        return {**super().to_dict(),
                "targets": [e.to_dict() for e in self.targets]}


def enumerate_increments(graph: UpdateChainGraph,
                         chain: Sequence[int]) -> list[Increment]:
    """Increments along one chain, in order; every edge needs its delta."""
    out: list[Increment] = []
    for src, dst in zip(chain, chain[1:]):
        delta = graph.deltas.get((src, dst))
        if delta is None:
            raise MissingDelta(f"no delta computed for edge {src}->{dst}")
        out.append(Increment(rfc_from=src, rfc_to=dst, delta=delta))
    return out
