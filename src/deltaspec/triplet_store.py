"""Differential triplets and exemplar retrieval for few-shot prompting.

A triplet is (spec text, intermediate representation, code, label), where the
label says whether the code satisfies the spec text. Positives come from
description/solution records; negatives from real patches, whose before-image
is inconsistent by construction. Retrieval fuses lexical BM25 with embedding
cosine, takes the top k per label class, and returns the union ordered by
ascending complexity so prompts grow from easy to hard.

BM25 here is Okapi with the nonnegative idf variant
``ln(1 + (N - df + 0.5) / (df + 0.5))``; query tokens are iterated with
multiplicity and both sides are casefolded before matching.
"""

from __future__ import annotations

import difflib
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .errors import EmptyStore, InvalidRecord
from .fsio import Record, decoder, violation
from .llm_gateway import PHASE_GRAPH, LlmGateway, LlmRequest, request
from .tokenizer import count_tokens, token_texts

LABELS = ("consistent", "inconsistent")

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_IR_SYSTEM = (
    "You turn a behavior description into a terse intermediate representation: "
    "an imperative statement of what a correct implementation must do."
)


@dataclass(frozen=True)
class RetrievalConfig:
    k: int = 5
    fusion_alpha: float = 0.5


@dataclass(frozen=True)
class DifferentialTriplet(Record):
    id: str
    spec_text: str
    intermediate_repr: str
    code: str
    label: str
    source: str  # "description" | "patch"
    complexity: int  # code token count

    def __post_init__(self):
        if self.label not in LABELS:
            raise InvalidRecord(f"unknown label {self.label!r}")
        if not self.spec_text.strip() or not self.code.strip():
            raise InvalidRecord(f"triplet {self.id} has empty spec text or code")

    def document(self) -> str:
        return f"{self.spec_text}\n{self.code}"


@dataclass
class CorpusStats:
    doc_count: int
    avg_len: float
    doc_freqs: dict[str, int]

    @classmethod
    def from_docs(cls, token_lists: Sequence[Sequence[str]]) -> "CorpusStats":
        n = len(token_lists)
        total = sum(len(toks) for toks in token_lists)
        freqs: dict[str, int] = {}
        for toks in token_lists:
            for term in set(toks):
                freqs[term] = freqs.get(term, 0) + 1
        return cls(doc_count=n, avg_len=(total / n if n else 0.0), doc_freqs=freqs)


def term_freqs(tokens: Sequence[str]) -> dict[str, int]:
    tf: dict[str, int] = {}
    for t in tokens:
        tf[t] = tf.get(t, 0) + 1
    return tf


def bm25_score(query_tokens: Sequence[str], doc_tokens: Sequence[str],
               stats: CorpusStats, k1: float = DEFAULT_K1,
               b: float = DEFAULT_B) -> float:
    """Okapi BM25 of one document against a query, given corpus stats."""
    dl = len(doc_tokens)
    if not dl or stats.doc_count == 0:
        return 0.0
    tf = term_freqs(doc_tokens)
    norm = k1 * (1.0 - b + b * dl / stats.avg_len) if stats.avg_len > 0 else k1
    score = 0.0
    for term in query_tokens:
        f = tf.get(term, 0)
        if f == 0:
            continue
        df = stats.doc_freqs.get(term, 0)
        idf = math.log(1.0 + (stats.doc_count - df + 0.5) / (df + 0.5))
        score += idf * f * (k1 + 1.0) / (f + norm)
    return score


def cosine(a: Sequence[float], b: Sequence[float],
           norm_a: float | None = None, norm_b: float | None = None) -> float:
    """Cosine similarity; precomputed norms may be passed in."""
    dot = sum(map(operator.mul, a, b))
    na = vector_norm(a) if norm_a is None else norm_a
    nb = vector_norm(b) if norm_b is None else norm_b
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def vector_norm(v: Sequence[float]) -> float:
    return math.sqrt(sum(map(operator.mul, v, v)))


@dataclass(frozen=True)
class _Index:
    """What BM25 reads of the store's documents, computed once."""

    lengths: list[int]  # each document's token count
    postings: dict[str, list[tuple[int, int]]]  # term -> [(doc index, tf)]
    stats: CorpusStats

    @classmethod
    def of(cls, triplets: Sequence[DifferentialTriplet]) -> "_Index":
        token_lists = [_doc_tokens(t) for t in triplets]
        postings: dict[str, list[tuple[int, int]]] = {}
        for i, tokens in enumerate(token_lists):
            for term, tf in term_freqs(tokens).items():
                postings.setdefault(term, []).append((i, tf))
        return cls([len(tokens) for tokens in token_lists], postings,
                   CorpusStats.from_docs(token_lists))


class TripletStore:
    """Labeled exemplars plus the retrieval features of each document.

    The features (BM25 index, embeddings) are computed on first use and
    dropped by ``add()``. Embeddings, and the rankings retrieval memoizes,
    are kept only while retrieval asks the same embedder.
    """

    def __init__(self, triplets: Sequence[DifferentialTriplet] = ()):
        self.triplets: list[DifferentialTriplet] = list(triplets)
        self._index: _Index | None = None
        self._embedded: tuple[object, list[tuple[list[float], float]]] | None = None
        self._ranked: tuple[object, dict[tuple[str, RetrievalConfig],
                                         tuple[DifferentialTriplet, ...]]] | None = None

    def __len__(self) -> int:
        return len(self.triplets)

    def add(self, triplet: DifferentialTriplet) -> None:
        self.triplets.append(triplet)
        self._index = None
        self._embedded = None
        self._ranked = None

    def index(self) -> _Index:
        if self._index is None:
            self._index = _Index.of(self.triplets)
        return self._index

    def corpus_stats(self) -> CorpusStats:
        return self.index().stats

    def embeddings(self, gateway: LlmGateway) -> list[tuple[list[float], float]]:
        """Each document's embedding under the gateway's embedder, with its
        norm."""
        embedder = gateway.embedder
        if self._embedded is None or self._embedded[0] is not embedder:
            vecs = [gateway.embed(t.document()) for t in self.triplets]
            self._embedded = (embedder, [(v, vector_norm(v)) for v in vecs])
        return self._embedded[1]

    def rankings(self, gateway: LlmGateway) -> dict[
            tuple[str, RetrievalConfig], tuple[DifferentialTriplet, ...]]:
        """The memo of ``retrieve_exemplars`` results under the gateway's
        embedder, keyed by (query text, config)."""
        embedder = gateway.embedder
        if self._ranked is None or self._ranked[0] is not embedder:
            self._ranked = (embedder, {})
        return self._ranked[1]


def _doc_tokens(triplet: DifferentialTriplet) -> list[str]:
    return [t.lower() for t in token_texts(triplet.document())]


def _ir_request(model: str, task: str, body: str) -> LlmRequest:
    return request(model, _IR_SYSTEM, f"TASK: {task}\n{body}")


_Plan = tuple[LlmRequest, Callable[[str], list[DifferentialTriplet]]]


def _triplet(id: str, spec_text: str, ir: str, code: str, label: str,
             source: str) -> DifferentialTriplet:
    return DifferentialTriplet(id, spec_text, ir, code, label, source,
                               complexity=count_tokens(code))


@dataclass(frozen=True)
class _Description(Record):
    id: str
    description: str
    solution: str


@dataclass(frozen=True)
class _Patch(Record):
    id: str
    summary: str
    before: str
    after: str


def _decoded(kind: type[Record], records: Sequence[Mapping],
             what: str) -> Any:
    """``records`` decoded as ``kind``; InvalidRecord naming the first that
    fails by its index."""
    try:
        return decoder(tuple[kind, ...])(records)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidRecord(
            f"malformed {what} record: {violation(exc)}") from exc


def _positive_plan(record: _Description, model: str) -> _Plan:
    """A description record's IR request, and the consistent triplet its IR
    makes."""
    description, solution = record.description.strip(), record.solution.strip()
    if not description or not solution:
        raise InvalidRecord(
            f"record {record.id!r} needs both description and solution")

    def build(ir: str) -> list[DifferentialTriplet]:
        return [_triplet(record.id, description, ir, solution,
                         "consistent", "description")]
    return _ir_request(model, "synth-ir", f"DESCRIPTION:\n{description}"), build


def _negative_plan(record: _Patch, model: str, paired_positive: bool) -> _Plan:
    """A patch record's IR request, and the triplets its IR makes: the
    before-image is inconsistent with the patched behavior; with
    ``paired_positive`` the after-image joins as its consistent twin."""
    summary = record.summary.strip()
    before, after = record.before.strip(), record.after.strip()
    if not summary or not before or not after:
        raise InvalidRecord(
            f"record {record.id!r} needs summary, before and after")
    if before == after:
        raise InvalidRecord(
            f"record {record.id!r} has identical before and after")
    diff = "\n".join(difflib.unified_diff(
        before.splitlines(), after.splitlines(),
        fromfile="before", tofile="after", lineterm=""))

    def build(ir: str) -> list[DifferentialTriplet]:
        out = [_triplet(f"{record.id}:before", summary, ir, before,
                        "inconsistent", "patch")]
        if paired_positive:
            out.append(_triplet(f"{record.id}:after", summary, ir, after,
                                "consistent", "patch"))
        return out
    return (_ir_request(model, "synth-ir-negative",
                        f"SUMMARY:\n{summary}\nDIFF:\n{diff}"), build)


def synth_triplets(descriptions: Sequence[Mapping], patches: Sequence[Mapping],
                   gateway: LlmGateway, model: str, *,
                   paired_positive: bool = False) -> list[DifferentialTriplet]:
    """Triplets from description records, then patch records, in record
    order. Every record is checked before any request is sent; the IR
    requests then go out as one batch."""
    plans = [_positive_plan(r, model)
             for r in _decoded(_Description, descriptions, "description")]
    plans += [_negative_plan(r, model, paired_positive)
              for r in _decoded(_Patch, patches, "patch")]
    results = gateway.complete_all([req for req, _ in plans], PHASE_GRAPH)
    return [t for (_, build), result in zip(plans, results)
            for t in build(result.text.strip())]


def bm25_scores(q_tokens: Sequence[str], store: TripletStore) -> list[float]:
    """``bm25_score`` of every store document at the default k1 and b,
    read off the postings.

    Each query term's idf is computed once, and each document adds its
    contributions in query-token order, so every score is bit-equal to
    ``bm25_score`` of that document.
    """
    index = store.index()
    stats = index.stats
    avg_len = stats.avg_len
    k1, b = DEFAULT_K1, DEFAULT_B
    norms = [k1 * (1.0 - b + b * dl / avg_len) if avg_len > 0 else k1
             for dl in index.lengths]
    scores = [0.0] * len(norms)
    idfs: dict[str, float] = {}
    for term in q_tokens:
        hits = index.postings.get(term)
        if hits is None:
            continue
        idf = idfs.get(term)
        if idf is None:
            df = len(hits)
            idf = idfs[term] = math.log(
                1.0 + (stats.doc_count - df + 0.5) / (df + 0.5))
        for i, f in hits:
            scores[i] += idf * f * (k1 + 1.0) / (f + norms[i])
    return scores


def _rank(query_text: str, store: TripletStore, gateway: LlmGateway,
          cfg: RetrievalConfig) -> tuple[DifferentialTriplet, ...]:
    q_tokens = [t.lower() for t in token_texts(query_text)]
    q_vec = gateway.embed(query_text)
    raw_bm25 = bm25_scores(q_tokens, store)
    q_norm = vector_norm(q_vec)
    cosines = [cosine(q_vec, d_vec, q_norm, d_norm)
               for d_vec, d_norm in store.embeddings(gateway)]
    lo, hi = min(raw_bm25), max(raw_bm25)
    spread = hi - lo
    fused: list[float] = []
    for bm, cs in zip(raw_bm25, cosines):
        norm_bm = (bm - lo) / spread if spread > 0 else 0.0
        fused.append(cfg.fusion_alpha * cs + (1.0 - cfg.fusion_alpha) * norm_bm)
    chosen: list[DifferentialTriplet] = []
    for label in LABELS:
        pool = [(f, t) for f, t in zip(fused, store.triplets) if t.label == label]
        pool.sort(key=lambda ft: (-ft[0], ft[1].id))
        chosen.extend(t for _, t in pool[:cfg.k])
    chosen.sort(key=lambda t: (t.complexity, t.id))
    return tuple(chosen)


def retrieve_exemplars(
    query_text: str,
    store: TripletStore,
    gateway: LlmGateway,
    cfg: RetrievalConfig = RetrievalConfig(),
) -> list[DifferentialTriplet]:
    """Top-k exemplars per label class under the fused score.

    fused = alpha * cosine(embeddings) + (1 - alpha) * minmax(BM25), with
    BM25 min-max normalized over the store (degenerate spread maps to 0).
    The union of the per-label winners comes back sorted by ascending
    complexity, ties by id. Each distinct (query, config) is ranked once
    per store and embedder; every call gets a fresh list.
    """
    if len(store) == 0:
        raise EmptyStore("exemplar retrieval over an empty store")
    memo = store.rankings(gateway)
    key = (query_text, cfg)
    ranked = memo.get(key)
    if ranked is None:
        ranked = memo[key] = _rank(query_text, store, gateway, cfg)
    return list(ranked)
