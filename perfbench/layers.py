"""Per-layer metrics: their catalog and their derivation from one traced run.

Each layer is a deltaspec module. ``child.py`` records a span around each
module's public functions; a span's self time is its duration minus the
durations of its child spans (the run is single-threaded, so children never
overlap). ``MOVES`` says which end-to-end metric each layer metric should
move, and on which workload, so that a change claimed for one layer can be
checked against the end-to-end figures it predicts. Names and units of the
metrics are in BENCHMARK.json.
"""

from __future__ import annotations

STAGES = ("ingest-rfc", "ingest-code", "build-graph", "build-chains",
          "synth-triplets", "verify", "eval", "report")

# (metrics, what they should move)
MOVES = [
    ([f"stage.{s}.wall_s" for s in STAGES], "wall_s, all workloads"),
    (["llm_gateway.provider_wait_s", "llm_gateway.inflight_max"],
     "wall_s on cold-provider; no change on the warm workloads"),
    (["llm_gateway.requests", "llm_gateway.provider_calls",
      "llm_gateway.tokens.graph", "llm_gateway.tokens.reasoning"],
     "tokens_total and provider_calls on cold-provider"),
    (["llm_gateway.miss_self_us_p50"], "wall_s on cold-provider"),
    (["llm_gateway.cache_hits", "llm_gateway.hit_ratio",
      "llm_gateway.hit_us_p50", "llm_gateway.hit_us_p90",
      "llm_gateway.self_s"], "wall_s on warm-replay and big-tree"),
    (["llm_gateway.provider_retries", "llm_gateway.contract_retries"],
     "cell_error_rate and wall_s, all workloads"),
    (["code_ingest.build_index_s", "code_ingest.functions",
      "code_ingest.us_per_function", "code_ingest.fallback_share"],
     "wall_s on big-tree; about no change elsewhere"),
    (["chunk_mapper.chunk_s", "chunk_mapper.chunks",
      "chunk_mapper.reconstruct_s", "chunk_mapper.reconstruct_calls",
      "knowledge_graph.build_self_s", "knowledge_graph.entities"],
     "wall_s on big-tree"),
    (["knowledge_graph.retrieve_calls", "knowledge_graph.retrieve_us_p50",
      "triplet_store.store_size", "triplet_store.retrieve_calls",
      "triplet_store.retrieve_us_p50"], "wall_s on warm-replay"),
    (["spec_evolution.chains_calls", "spec_evolution.paths",
      "spec_evolution.chains_s", "spec_evolution.increments_enumerated",
      "spec_evolution.diff_self_s"],
     "wall_s and peak_rss_mb on warm-replay; about zero on the tree-shaped "
     "workloads"),
    (["diff_verifier.cells", "diff_verifier.cells_judged",
      "diff_verifier.judged_share", "diff_verifier.trials"],
     "tokens_total and provider_calls on cold-provider"),
    (["diff_verifier.verdict_ms_p50", "diff_verifier.verdict_ms_p90",
      "diff_verifier.self_s"], "wall_s on cold-provider and warm-replay"),
    (["rfc_ingest.parse_s", "rfc_ingest.sections"],
     "wall_s; a small share everywhere"),
    (["trace.overhead_s"], "nothing; traced wall_s minus the untraced median"),
]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def derive(result: dict, cells: int, untraced_wall: float,
           names: list[str]) -> dict[str, float]:
    """Per-layer values from one traced child result; ``names`` are the
    metrics that must be derived."""
    spans = result["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def select(name):
        return [(i, s) for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(s[2] - s[1] for _, s in select(name))

    def self_total(*names):
        return sum(s[2] - s[1] - child_time[i]
                   for name in names for i, s in select(name))

    def durations(name, scale):
        return [(s[2] - s[1]) * scale for _, s in select(name)]

    def attr_sum(name, key):
        return sum(s[4][key] for _, s in select(name))

    out: dict[str, float] = {}
    for stage in result["stages"]:
        out[f"stage.{stage['stage']}.wall_s"] = stage["end"] - stage["start"]

    gw = result["gateway"]
    completes = select("llm_gateway.complete")
    hits = [(s[2] - s[1]) * 1e6 for _, s in completes if s[4]["cached"]]
    misses = [(s[2] - s[1] - child_time[i]) * 1e6
              for i, s in completes if not s[4]["cached"]]
    out.update({
        "llm_gateway.provider_wait_s": total("llm_gateway.provider"),
        "llm_gateway.inflight_max": result["inflight_max"],
        "llm_gateway.requests": gw["requests"],
        "llm_gateway.provider_calls": gw["provider_calls"],
        "llm_gateway.tokens.graph": result["tokens"]["graph"],
        "llm_gateway.tokens.reasoning": result["tokens"]["reasoning"],
        "llm_gateway.miss_self_us_p50": percentile(misses, 50),
        "llm_gateway.cache_hits": gw["cache_hits"],
        "llm_gateway.hit_ratio": gw["cache_hits"] / max(gw["requests"], 1),
        "llm_gateway.hit_us_p50": percentile(hits, 50),
        "llm_gateway.hit_us_p90": percentile(hits, 90),
        "llm_gateway.self_s": self_total("llm_gateway.complete"),
        "llm_gateway.provider_retries": gw["provider_retries"],
        "llm_gateway.contract_retries": gw["contract_retries"],
    })

    functions = attr_sum("code_ingest.build_index", "functions")
    build_index_s = total("code_ingest.build_index")
    out.update({
        "code_ingest.build_index_s": build_index_s,
        "code_ingest.functions": functions,
        "code_ingest.us_per_function": build_index_s * 1e6 / max(functions, 1),
        "code_ingest.fallback_share":
            attr_sum("code_ingest.build_index", "fallback")
            / max(functions, 1),
        "chunk_mapper.chunk_s": total("chunk_mapper.chunk_stream"),
        "chunk_mapper.chunks": attr_sum("chunk_mapper.chunk_stream", "chunks"),
        "chunk_mapper.reconstruct_s":
            total("chunk_mapper.reconstruct_function"),
        "chunk_mapper.reconstruct_calls":
            len(select("chunk_mapper.reconstruct_function")),
        "knowledge_graph.build_self_s":
            self_total("knowledge_graph.build_graph"),
        "knowledge_graph.entities":
            attr_sum("knowledge_graph.build_graph", "entities"),
        "knowledge_graph.retrieve_calls":
            len(select("knowledge_graph.retrieve_code_for_spec")),
        "knowledge_graph.retrieve_us_p50": percentile(
            durations("knowledge_graph.retrieve_code_for_spec", 1e6), 50),
    })

    chains = select("spec_evolution.chains")
    out.update({
        "spec_evolution.chains_calls": len(chains),
        "spec_evolution.paths": max((s[4]["paths"] for _, s in chains),
                                    default=0),
        "spec_evolution.chains_s": total("spec_evolution.chains"),
        "spec_evolution.increments_enumerated":
            attr_sum("spec_evolution.enumerate_increments", "increments"),
        "spec_evolution.diff_self_s":
            self_total("spec_evolution.diff_functional_entries"),
    })

    retrievals = select("triplet_store.retrieve_exemplars")
    out.update({
        "triplet_store.store_size": max((s[4]["store"] for _, s in retrievals),
                                        default=0),
        "triplet_store.retrieve_calls": len(retrievals),
        "triplet_store.retrieve_us_p50": percentile(
            durations("triplet_store.retrieve_exemplars", 1e6), 50),
    })

    judged = len(select("diff_verifier.verify_increment"))
    verdict_ms = durations("diff_verifier.verify_increment", 1e3)
    out.update({
        "diff_verifier.cells": cells,
        "diff_verifier.cells_judged": judged,
        "diff_verifier.judged_share": judged / max(cells, 1),
        "diff_verifier.trials":
            attr_sum("diff_verifier.verify_increment", "trials"),
        "diff_verifier.verdict_ms_p50": percentile(verdict_ms, 50),
        "diff_verifier.verdict_ms_p90": percentile(verdict_ms, 90),
        "diff_verifier.self_s": self_total("diff_verifier.verify_chain",
                                           "diff_verifier.verify_increment"),
        "rfc_ingest.parse_s": total("rfc_ingest.parse_rfc"),
        "rfc_ingest.sections": attr_sum("rfc_ingest.parse_rfc", "sections"),
        "trace.overhead_s": result["wall_s"] - untraced_wall,
    })
    missing = set(names) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not derived: {sorted(missing)}")
    return out
