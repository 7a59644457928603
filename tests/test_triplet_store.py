"""Tests for differential triplets, BM25/fused retrieval, and synthesis."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, EntryLogs
from deltaspec import fsio, triplet_store
from deltaspec.errors import EmptyStore, InvalidRecord
from deltaspec.llm_gateway import HashEmbedder, LlmGateway, MockProvider
from deltaspec.tokenizer import token_texts
from deltaspec.triplet_store import (
    CorpusStats,
    DifferentialTriplet,
    RetrievalConfig,
    TripletStore,
    bm25_score,
    bm25_scores,
    cosine,
    retrieve_exemplars,
    synth_triplets,
)


def triplet(id, spec, code, label="consistent", complexity=None):
    return DifferentialTriplet(
        id=id, spec_text=spec, intermediate_repr="ir", code=code, label=label,
        source="description",
        complexity=len(code.split()) if complexity is None else complexity)


def embed_gateway():
    return LlmGateway(provider=MockProvider(rules=lambda req: None),
                      embedder=HashEmbedder())


# ------------------------------------------------------------------ records

def test_labels_are_validated():
    with pytest.raises(InvalidRecord):
        triplet("t1", "spec", "code", label="maybe")


def test_store_rejects_blank_fields():
    store = TripletStore()
    with pytest.raises(InvalidRecord):
        store.add(triplet("t1", "  ", "code"))
    with pytest.raises(InvalidRecord):
        store.add(triplet("t2", "spec", ""))


def test_document_joins_spec_and_code():
    t = triplet("t1", "drop old segments", "if (x) return;")
    assert t.document() == "drop old segments\nif (x) return;"


def test_triplet_roundtrips_through_dict():
    t = triplet("t1", "spec", "code", label="inconsistent")
    assert DifferentialTriplet.from_dict(t.to_dict()) == t


# --------------------------------------------------------------------- bm25

def oracle_bm25(query, doc, docs, k1=1.2, b=0.75):
    """Straight transcription of the Okapi formula, independent of the
    implementation under test."""
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    score = 0.0
    for term in query:
        f = doc.count(term)
        if not f:
            continue
        df = sum(1 for d in docs if term in d)
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        score += idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len(doc) / avgdl))
    return score


def test_bm25_matches_closed_form():
    docs = [
        "the quick brown fox".split(),
        "pack my box with five dozen jugs".split(),
        "the lazy dog sleeps in the box".split(),
    ]
    stats = CorpusStats.from_docs(docs)
    for query in (["the", "box"], ["quick"], ["box", "box"], ["missing"]):
        for doc in docs:
            assert bm25_score(query, doc, stats) == \
                pytest.approx(oracle_bm25(query, doc, docs), abs=1e-12)


def test_bm25_counts_repeated_query_terms():
    docs = [["alpha", "beta"], ["gamma"]]
    stats = CorpusStats.from_docs(docs)
    single = bm25_score(["alpha"], docs[0], stats)
    assert bm25_score(["alpha", "alpha"], docs[0], stats) == \
        pytest.approx(2 * single)


def test_bm25_degenerate_inputs_score_zero():
    stats = CorpusStats.from_docs([["a"]])
    assert bm25_score(["a"], [], stats) == 0.0
    assert bm25_score([], ["a"], stats) == 0.0
    assert bm25_score(["a"], ["a"], CorpusStats.from_docs([])) == 0.0


def test_cosine_basics():
    assert cosine([1, 0], [0, 1]) == 0.0
    assert cosine([2, 0], [7, 0]) == pytest.approx(1.0)
    assert cosine([0, 0], [1, 1]) == 0.0


# ---------------------------------------------------------------- retrieval

def demo_store():
    store = TripletStore()
    store.add(triplet("t1", "validate rst sequence number", "if (seq != rcv_nxt) drop();", label="inconsistent", complexity=30))
    store.add(triplet("t2", "validate rst in window", "if (!in_window(seq)) drop();", label="inconsistent", complexity=10))
    store.add(triplet("t3", "send challenge ack", "send_ack(sk);", label="consistent", complexity=20))
    store.add(triplet("t4", "update send window", "tp->snd_wnd = nwin;", label="consistent", complexity=40))
    return store


def brute_force_bm25_ranking(query, store, label):
    stats = store.corpus_stats()
    q = [t.lower() for t in token_texts(query)]
    scored = []
    for t in store.triplets:
        if t.label != label:
            continue
        doc = [x.lower() for x in token_texts(t.document())]
        scored.append((-bm25_score(q, doc, stats), t.id))
    return [id for _, id in sorted(scored)]


def test_alpha_zero_reduces_to_bm25_ranking():
    store = demo_store()
    query = "rst sequence validation in window"
    cfg = RetrievalConfig(k=1, fusion_alpha=0.0)
    picked = retrieve_exemplars(query, store, embed_gateway(), cfg)
    expected_ids = {brute_force_bm25_ranking(query, store, "consistent")[0],
                    brute_force_bm25_ranking(query, store, "inconsistent")[0]}
    assert {t.id for t in picked} == expected_ids


def test_alpha_one_reduces_to_embedding_ranking():
    store = demo_store()
    gateway = embed_gateway()
    query = "send challenge ack"
    cfg = RetrievalConfig(k=1, fusion_alpha=1.0)
    picked = retrieve_exemplars(query, store, gateway, cfg)
    q_vec = gateway.embed(query)
    for label in ("consistent", "inconsistent"):
        pool = [t for t in store.triplets if t.label == label]
        best = min(pool, key=lambda t: (-cosine(q_vec, gateway.embed(t.document())), t.id))
        assert best.id in {t.id for t in picked}


def test_results_come_back_in_ascending_complexity():
    store = demo_store()
    picked = retrieve_exemplars("anything at all", store, embed_gateway(),
                                RetrievalConfig(k=5, fusion_alpha=0.5))
    assert [t.complexity for t in picked] == \
        sorted(t.complexity for t in picked)
    assert len(picked) == 4  # k exceeds both class sizes


def test_k_limits_per_label_selection():
    picked = retrieve_exemplars("window", demo_store(), embed_gateway(),
                                RetrievalConfig(k=1))
    assert len(picked) == 2
    assert {t.label for t in picked} == {"consistent", "inconsistent"}


def test_empty_store_refuses_retrieval():
    with pytest.raises(EmptyStore):
        retrieve_exemplars("q", TripletStore(), embed_gateway())


# ---------------------------------------------------------------- synthesis

def ir_rule(req):
    user = req.messages[-1][1]
    if user.startswith("TASK: synth-ir"):
        return "IR: " + user.splitlines()[1]
    return None


def synth_gateway():
    return LlmGateway(provider=MockProvider(rules=ir_rule))


def synth_positive(record, gateway, model):
    """The one triplet of a description record, through the batch API."""
    (t,) = synth_triplets([record], (), gateway, model)
    return t


def synth_negative(record, gateway, model, *, paired_positive=False):
    """The triplets of one patch record, through the batch API."""
    return synth_triplets((), [record], gateway, model,
                          paired_positive=paired_positive)


def test_synth_positive_builds_consistent_triplet():
    record = {"id": "d1", "description": "seed the isn hash",
              "solution": "key = get_random();"}
    t = synth_positive(record, synth_gateway(), "judge-1")
    assert t.id == "d1"
    assert t.label == "consistent"
    assert t.source == "description"
    assert t.spec_text == "seed the isn hash"
    assert t.code == "key = get_random();"
    assert t.intermediate_repr.startswith("IR:")
    assert t.complexity > 0


def test_synth_positive_requires_description_and_solution():
    with pytest.raises(InvalidRecord):
        synth_positive({"id": "d2", "description": "x"}, synth_gateway(), "m")
    with pytest.raises(InvalidRecord):
        synth_positive({"id": "d3", "solution": "y"}, synth_gateway(), "m")
    with pytest.raises(InvalidRecord):
        synth_positive({"description": "x", "solution": "y"}, synth_gateway(),
                       "m")
    with pytest.raises(InvalidRecord):
        synth_positive({"id": "d4", "description": ["a", "list"],
                        "solution": "y"}, synth_gateway(), "m")


def test_synth_negative_emits_before_and_optional_after():
    record = {"id": "p1", "summary": "reseed the key periodically",
              "before": "use_static_key();", "after": "use_rotating_key();"}
    only_neg = synth_negative(record, synth_gateway(), "judge-1")
    assert [t.id for t in only_neg] == ["p1:before"]
    assert only_neg[0].label == "inconsistent"
    assert only_neg[0].source == "patch"
    assert only_neg[0].code == "use_static_key();"

    both = synth_negative(record, synth_gateway(), "judge-1",
                          paired_positive=True)
    assert [(t.id, t.label) for t in both] == \
        [("p1:before", "inconsistent"), ("p1:after", "consistent")]
    assert both[0].intermediate_repr == both[1].intermediate_repr
    assert both[1].code == "use_rotating_key();"


def test_synth_negative_rejects_unusable_patches():
    base = {"id": "p2", "summary": "s", "before": "same;", "after": "same;"}
    with pytest.raises(InvalidRecord):
        synth_negative(base, synth_gateway(), "m")
    with pytest.raises(InvalidRecord):
        synth_negative({"id": "p3", "summary": "", "before": "a", "after": "b"},
                       synth_gateway(), "m")
    with pytest.raises(InvalidRecord):
        synth_negative({"id": "p4", "summary": 7, "before": "a", "after": "b"},
                       synth_gateway(), "m")


def _jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def _cache_entries(cache_dir):
    return EntryLogs(cache_dir).entries()


def test_batched_synthesis_matches_the_serial_loop(tmp_path):
    descriptions = _jsonl(FIXTURES / "triplets" / "descriptions.jsonl")
    patches = _jsonl(FIXTURES / "triplets" / "patches.jsonl")
    # A repeated record is a cache hit on its second request.
    descriptions.append(descriptions[0])

    def serial(gateway):
        out = [synth_positive(r, gateway, "judge-1") for r in descriptions]
        for r in patches:
            out += synth_negative(r, gateway, "judge-1", paired_positive=True)
        return out

    def batched(gateway):
        return synth_triplets(descriptions, patches, gateway, "judge-1",
                              paired_positive=True)

    runs = {}
    for name, synth in (("serial", serial), ("batched", batched)):
        cache = tmp_path / name / "cache"
        runs[name] = []
        # The warm round is a rerun: a second gateway over the same cache.
        for round_ in ("cold", "warm"):
            gateway = LlmGateway(provider=MockProvider(rules=ir_rule),
                                 cache_dir=cache)
            fsio.write_jsonl(tmp_path / name / f"{round_}.jsonl",
                             [t.to_dict() for t in synth(gateway)])
            runs[name].append((
                (tmp_path / name / f"{round_}.jsonl").read_bytes(),
                gateway.ledger.as_dict(), gateway.stats.cache_hits,
                gateway.stats.provider_calls))
        runs[name].append(_cache_entries(cache))
    assert runs["batched"] == runs["serial"]
    cold, warm, _ = runs["batched"]
    # The repeated record's request is answered once per gateway.
    distinct = len(descriptions) + len(patches) - 1
    assert cold[2:] == (0, distinct)
    assert warm[2:] == (distinct, 0)
    assert warm[:2] == cold[:2]


def test_invalid_record_is_rejected_before_any_request():
    gateway = synth_gateway()
    good = {"id": "d1", "description": "seed the isn hash", "solution": "k;"}
    bad = {"id": "p9", "summary": "s", "before": "same;", "after": "same;"}
    with pytest.raises(InvalidRecord):
        synth_triplets([good], [bad], gateway, "judge-1")
    assert gateway.stats.requests == 0
    no_id = {"description": "seed the isn hash", "solution": "k;"}
    with pytest.raises(InvalidRecord):
        synth_triplets([good, no_id], [], gateway, "judge-1")
    assert gateway.stats.requests == 0


# ------------------------------------------------------------- serialization

def test_store_roundtrips_and_saves_into_new_directories(tmp_path):
    store = demo_store()
    target = tmp_path / "deep" / "triplets.jsonl"
    fsio.write_jsonl(target, [t.to_dict() for t in store.triplets])
    loaded = TripletStore(fsio.read_jsonl(target, DifferentialTriplet.from_dict))
    assert loaded.triplets == store.triplets


def reference_ranking(query, store, gateway, cfg):
    """Retrieval recomputed from scratch with bm25_score and cosine."""
    stats = store.corpus_stats()
    q_tokens = [t.lower() for t in token_texts(query)]
    q_vec = gateway.embed(query)
    raw = [bm25_score(q_tokens, [w.lower() for w in token_texts(t.document())],
                      stats) for t in store.triplets]
    lo, hi = min(raw), max(raw)
    chosen = []
    for label in ("consistent", "inconsistent"):
        pool = []
        for bm, t in zip(raw, store.triplets):
            if t.label != label:
                continue
            norm_bm = (bm - lo) / (hi - lo) if hi > lo else 0.0
            fused = (cfg.fusion_alpha * cosine(q_vec, gateway.embed(t.document()))
                     + (1.0 - cfg.fusion_alpha) * norm_bm)
            pool.append((-fused, t.id, t))
        chosen.extend(t for _, _, t in sorted(pool, key=lambda p: p[:2])[:cfg.k])
    return sorted(chosen, key=lambda t: (t.complexity, t.id))


def test_cached_retrieval_matches_uncached_reference():
    store = demo_store()
    gateway = embed_gateway()
    for query in ("rst sequence validation in window", "send challenge ack",
                  "window", "nothing in common"):
        for alpha in (0.0, 0.3, 1.0):
            cfg = RetrievalConfig(k=1, fusion_alpha=alpha)
            assert retrieve_exemplars(query, store, gateway, cfg) == \
                reference_ranking(query, store, gateway, cfg)


def test_retrieval_after_add_sees_the_new_triplet():
    store = demo_store()
    gateway = embed_gateway()
    cfg = RetrievalConfig(k=1, fusion_alpha=0.5)
    query = "reseed the secret key"
    before = retrieve_exemplars(query, store, gateway, cfg)
    assert "t5" not in {t.id for t in before}
    store.add(triplet("t5", "reseed the secret key periodically",
                      "reseed_secret(key);", complexity=5))
    after = retrieve_exemplars(query, store, gateway, cfg)
    assert "t5" in {t.id for t in after}
    assert after == reference_ranking(query, store, gateway, cfg)


class KeywordEmbedder:
    """Two-dimensional embedding: does the text mention the keyword?"""

    def __init__(self, word):
        self.word = word

    def embed(self, text):
        return [1.0, 0.0] if self.word in text else [0.0, 1.0]


def test_cached_embeddings_follow_the_embedder():
    store = demo_store()
    gateway = LlmGateway(provider=MockProvider(), embedder=KeywordEmbedder("ack"))
    cfg = RetrievalConfig(k=1, fusion_alpha=1.0)
    picked = retrieve_exemplars("ack window", store, gateway, cfg)
    assert {t.id for t in picked} == {"t1", "t3"}
    gateway.embedder = KeywordEmbedder("window")
    picked = retrieve_exemplars("ack window", store, gateway, cfg)
    assert {t.id for t in picked} == {"t2", "t4"}


# ------------------------------------------- postings, memo and embedder

_WORDS = st.sampled_from(["rst", "ack", "window", "seq", "Seq", "drop",
                          "send", "syn", "the", "(", ");", "==", "x1"])
_TEXT = st.lists(_WORDS, min_size=1, max_size=12).map(" ".join)


@st.composite
def stores(draw):
    docs = draw(st.lists(st.tuples(_TEXT, _TEXT, st.sampled_from(
        ("consistent", "inconsistent")), st.integers(0, 3)),
        min_size=1, max_size=8))
    store = TripletStore()
    for i, (spec, code, label, complexity) in enumerate(docs):
        store.add(triplet(f"t{i}", spec, code, label=label,
                          complexity=complexity))
    return store


@given(stores(), st.lists(_WORDS, max_size=10))
@settings(max_examples=150)
def test_postings_bm25_is_bit_equal_to_bm25_score(store, query):
    q_tokens = [t.lower() for t in query]
    stats = store.corpus_stats()
    got = bm25_scores(q_tokens, store)
    assert got == [bm25_score(q_tokens, [w.lower() for w in
                                         token_texts(t.document())],
                              stats) for t in store.triplets]


@given(stores(), _TEXT, st.integers(1, 4), st.floats(0.0, 1.0))
@settings(max_examples=150)
def test_retrieval_matches_the_reference_ranking(store, query, k, alpha):
    gateway = embed_gateway()
    cfg = RetrievalConfig(k=k, fusion_alpha=alpha)
    expected = reference_ranking(query, store, gateway, cfg)
    assert retrieve_exemplars(query, store, gateway, cfg) == expected
    # The second call is served from the store's memo.
    assert retrieve_exemplars(query, store, gateway, cfg) == expected


def unmemoized_embed(text, dim):
    vec = [0.0] * dim
    for tok in token_texts(text.lower()):
        h = hashlib.sha256(tok.encode("utf-8")).digest()
        vec[int.from_bytes(h[:4], "big") % dim] += \
            1.0 if h[4] % 2 == 0 else -1.0
    norm = math.sqrt(sum(v * v for v in vec))
    return [v / norm for v in vec] if norm > 0.0 else vec


@given(st.lists(_TEXT | st.text(max_size=40), min_size=1, max_size=6),
       st.integers(1, 300))
@settings(max_examples=150)
def test_memoized_embedder_is_float_for_float_the_unmemoized_one(texts, dim):
    embedder = HashEmbedder(dim)
    for text in texts + texts:
        assert embedder.embed(text) == unmemoized_embed(text, dim)


@pytest.fixture
def rank_calls(monkeypatch):
    """The queries ranked anew, in order."""
    calls = []
    real = triplet_store._rank

    def spy(query_text, *args):
        calls.append(query_text)
        return real(query_text, *args)

    monkeypatch.setattr(triplet_store, "_rank", spy)
    return calls


def test_each_distinct_query_and_config_is_ranked_once(rank_calls):
    store = demo_store()
    gateway = embed_gateway()
    one, two = RetrievalConfig(k=1), RetrievalConfig(k=2)
    for _ in range(3):
        retrieve_exemplars("rst window", store, gateway, one)
        retrieve_exemplars("send ack", store, gateway, one)
        retrieve_exemplars("rst window", store, gateway, two)
    assert rank_calls == ["rst window", "send ack", "rst window"]


def test_ranking_memo_is_dropped_by_add(rank_calls):
    store = demo_store()
    gateway = embed_gateway()
    cfg = RetrievalConfig(k=1)
    query = "reseed the secret key"
    before = retrieve_exemplars(query, store, gateway, cfg)
    store.add(triplet("t5", "reseed the secret key periodically",
                      "reseed_secret(key);", complexity=5))
    after = retrieve_exemplars(query, store, gateway, cfg)
    assert rank_calls == [query, query]
    assert "t5" not in {t.id for t in before}
    assert after == reference_ranking(query, store, gateway, cfg)


def test_ranking_memo_follows_the_embedder(rank_calls):
    store = demo_store()
    gateway = LlmGateway(provider=MockProvider(), embedder=KeywordEmbedder("ack"))
    cfg = RetrievalConfig(k=1, fusion_alpha=1.0)
    retrieve_exemplars("ack window", store, gateway, cfg)
    gateway.embedder = KeywordEmbedder("window")
    picked = retrieve_exemplars("ack window", store, gateway, cfg)
    assert {t.id for t in picked} == {"t2", "t4"}
    retrieve_exemplars("ack window", store, gateway, cfg)
    assert rank_calls == ["ack window", "ack window"]


def test_mutating_a_result_does_not_change_the_next(rank_calls):
    store = demo_store()
    gateway = embed_gateway()
    cfg = RetrievalConfig(k=2)
    first = retrieve_exemplars("rst window", store, gateway, cfg)
    expected = list(first)
    first.reverse()
    first.append(first[0])
    second = retrieve_exemplars("rst window", store, gateway, cfg)
    assert second == expected
    assert second is not first
    assert rank_calls == ["rst window"]
