"""Stage functions that turn a config into artifacts on disk.

Each stage reads its inputs from the workdir (or the fixture tree named in
the config), does its work through the library modules, and writes JSON
artifacts. Artifacts carry no timestamps and no absolute paths, so two runs
over the same inputs are byte-for-byte identical; only the response
and code-ingest caches (kept outside the workdir) differ between cold and
warm runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple

from ..chunk_mapper import (
    Chunk,
    ChunkFunctionMap,
    FunctionSpan,
    chunk_stream,
    chunks_from_cuts,
    map_by_chars,
    reconstruct_function,
    sentence_boundaries,
)
from ..code_ingest import (
    CodebaseIndex,
    CodeFunction,
    build_index,
    compute_extraction_stats,
    stale_fid,
)
from ..diff_verifier import (
    Verdict,
    VerifyPlan,
    compile_findings,
    plan_version,
    read_matrix,
    verify_chain,  # noqa: F401  (kept importable from this module)
    write_matrix,
)
from ..errors import (InvalidConfig, MissingArtifact, ShapeMismatch,
                      SpanMismatch, UnknownFunction)
from ..fsio import (Record, read_json, read_jsonl, read_text, write_json,
                    write_jsonl)
from ..knowledge_graph import (KnowledgeGraph, build_graph,
                               extract_entities_all)
from ..llm_gateway import (
    CostLedger,
    HashEmbedder,
    HttpProvider,
    LlmGateway,
    MockProvider,
)
from ..rfc_ingest import RfcDocument, parse_rfc
from ..spec_evolution import (
    FunctionalEntry,
    Increment,
    UpdateChainGraph,
    build_update_chain,
    diff_functional_entries,  # noqa: F401  (kept importable from this module)
    diff_pairings,
    enumerate_increments,  # noqa: F401  (kept importable from this module)
    extract_functional_entries_all,
    pair_entries,
)
from ..tokenizer import token_offsets
from ..triplet_store import (
    DifferentialTriplet,
    RetrievalConfig,
    TripletStore,
    synth_triplets,
)
from .config import PipelineConfig
from .metrics import Confusion, Evaluation, Metrics
from .render import build_report, render_report
from .scripted import scripted_responder


def make_gateway(cfg: PipelineConfig) -> LlmGateway:
    ledger = CostLedger(prices=cfg.prices, unit=cfg.price_unit)
    if cfg.provider == "mock":
        if cfg.transcript is not None:
            provider = MockProvider.from_jsonl(cfg.transcript,
                                               rules=scripted_responder)
        else:
            provider = MockProvider(rules=scripted_responder)
        backoff = 0.0
    else:
        provider = HttpProvider()
        backoff = 0.5
    return LlmGateway(provider,
                      cache_dir=cfg.cache_dir,
                      ledger=ledger,
                      embedder=HashEmbedder(),
                      backoff_base=backoff,
                      max_in_flight=cfg.max_in_flight)


# -- stage: ingest-rfc -------------------------------------------------------

def ingest_rfcs(cfg: PipelineConfig) -> list[RfcDocument]:
    if not cfg.rfc_sources:
        raise InvalidConfig("config lists no rfc_sources")
    parsed = sorted(((parse_rfc(read_text(src)), src)
                     for src in cfg.rfc_sources), key=lambda ds: ds[0].number)
    for (a, a_src), (b, b_src) in zip(parsed, parsed[1:]):
        if a.number == b.number:
            raise InvalidConfig(f"rfc_sources {a_src} and {b_src} are both "
                                f"RFC {a.number}")
    docs = [doc for doc, _ in parsed]
    write_json(cfg.workdir / "rfc" / "docs.json",
               _RfcDocs(tuple(docs)).to_dict())
    write_jsonl(cfg.workdir / "chunks" / "text.jsonl",
                [c.to_dict() for c in _text_chunks(cfg, docs)])
    return docs


def _text_chunks(cfg: PipelineConfig,
                 docs: list[RfcDocument]) -> list[Chunk]:
    chunks: list[Chunk] = []
    for doc in docs:
        text = "\n\n".join(s.prose() for s in doc.sections if s.prose().strip())
        offsets = token_offsets(text)
        chunks.extend(chunk_stream(
            offsets,
            origin=f"rfc:{doc.number}",
            source_text=text,
            chunk_size=cfg.chunk_size,
            redundancy_ratio=cfg.redundancy_ratio,
            boundaries=sentence_boundaries(text, offsets[0]),
        ))
    return chunks


@dataclass(frozen=True)
class _RfcDocs(Record):
    """rfc/docs.json."""
    rfcs: tuple[RfcDocument, ...]


def load_docs(cfg: PipelineConfig) -> list[RfcDocument]:
    return list(read_json(cfg.workdir / "rfc" / "docs.json",
                          _RfcDocs.from_dict).rfcs)


# -- stage: ingest-code ------------------------------------------------------

def ingest_code(cfg: PipelineConfig, version: str) -> CodebaseIndex:
    index = build_index(cfg.code_trees[version], version, globs=cfg.code_globs,
                        keywords=cfg.code_keywords,
                        stub_headers=cfg.stub_headers, cache_dir=cfg.cache_dir,
                        chunk_size=cfg.chunk_size,
                        redundancy_ratio=cfg.redundancy_ratio)
    out = cfg.workdir / "code" / version
    write_json(out / "index.json", {
        "version": version,
        "files": [{"path": f.path, "line_count": f.line_count,
                   "token_count": f.token_count} for f in index.files],
        "total_functions": index.total_functions,
        "total_lines": index.total_lines,
    })
    write_jsonl(out / "functions.jsonl",
                [f.to_dict() for f in index.functions])
    write_jsonl(cfg.workdir / "chunks" / f"code-{version}.jsonl",
                [c.to_dict() for c in _code_chunks(index)])
    return index


def _code_origin(version: str, path: str) -> str:
    return f"code:{version}:{path}"


def _code_chunks(index: CodebaseIndex) -> list[Chunk]:
    """The chunks of each indexed file, rebuilt from the cuts build_index
    made or served from the ingest cache."""
    return [chunk for source in index.files
            for chunk in chunks_from_cuts(
                _code_origin(index.version, source.path), source.content,
                index.cuts[source.path])]


def load_code_chunks(cfg: PipelineConfig, version: str) -> tuple[
        list[CodeFunction], ChunkFunctionMap, dict[str, Chunk]]:
    """A version's functions, the map linking them to its code chunks,
    derived from both, and those chunks by id."""
    functions = read_jsonl(cfg.workdir / "code" / version / "functions.jsonl",
                           CodeFunction.from_dict)
    path = cfg.workdir / "chunks" / f"code-{version}.jsonl"
    chunks = read_jsonl(path, Chunk.from_dict)
    try:
        fmap = map_by_chars(chunks, [(_code_origin(version, f.file), FunctionSpan(
            f.fid, char_start=f.span.char_start, char_end=f.span.char_end))
            for f in functions])
    except SpanMismatch as exc:
        raise MissingArtifact(f"cannot read {path}: {exc}; "
                              "rerun ingest-code") from None
    return functions, fmap, {c.id: c for c in chunks}


# -- stage: build-graph ------------------------------------------------------

def build_graph_stage(cfg: PipelineConfig) -> dict[str, KnowledgeGraph]:
    """One graph per version, from the chunks and functions the ingest
    stages wrote. The entities of every version's chunks are asked for as
    one gateway batch, so no version waits for the last calls of another
    and the RFC text chunks they share are asked for once."""
    text_chunks = read_jsonl(cfg.workdir / "chunks" / "text.jsonl",
                             Chunk.from_dict)
    corpora = {}
    for version in cfg.versions:
        _, fmap, code_chunks = load_code_chunks(cfg, version)
        corpora[version] = (list(code_chunks.values()) + text_chunks, fmap)
    with make_gateway(cfg) as gateway:
        found = iter(extract_entities_all(
            [chunk for chunks, _ in corpora.values() for chunk in chunks],
            gateway, cfg.model))
    graphs = {}
    for version, (chunks, fmap) in corpora.items():
        graph = build_graph(chunks, [next(found) for _ in chunks], fmap=fmap,
                            damping=cfg.damping)
        write_json(cfg.workdir / "graph" / f"{version}.json", graph.to_dict())
        graphs[version] = graph
    write_json(cfg.workdir / "graph" / "ledger.json", gateway.ledger.as_dict())
    return graphs


# -- stage: build-chains -----------------------------------------------------

@dataclass(frozen=True)
class _RfcEntries(Record):
    """A line of chains/entries.jsonl: one RFC's functional entries."""
    rfc: int
    entries: list[FunctionalEntry]


def build_chains_stage(cfg: PipelineConfig) -> UpdateChainGraph:
    docs = load_docs(cfg)
    chain_graph = build_update_chain(docs)
    with make_gateway(cfg) as gateway:
        entries = dict(zip(
            (doc.number for doc in docs),
            extract_functional_entries_all(docs, gateway, cfg.model)))
        pairings = [pair_entries(entries[e.src], entries[e.dst])
                    for e in chain_graph.edges]
        for edge, delta in zip(chain_graph.edges,
                               diff_pairings(pairings, gateway, cfg.model)):
            chain_graph.set_delta(edge.src, edge.dst, delta)

    out = cfg.workdir / "chains"
    write_json(out / "chains.json", chain_graph.to_dict())
    write_jsonl(out / "entries.jsonl",
                [_RfcEntries(rfc, items).to_dict()
                 for rfc, items in sorted(entries.items())])
    write_jsonl(out / "increments.jsonl", [
        Increment(src, dst, delta).to_dict()
        for (src, dst), delta in sorted(chain_graph.deltas.items())])
    write_json(out / "ledger.json", gateway.ledger.as_dict())
    return chain_graph


# -- stage: synth-triplets ---------------------------------------------------

def synth_triplets_stage(cfg: PipelineConfig) -> TripletStore:
    descriptions = [] if cfg.triplet_descriptions is None \
        else read_jsonl(cfg.triplet_descriptions)
    patches = [] if cfg.triplet_patches is None \
        else read_jsonl(cfg.triplet_patches)
    store = TripletStore()
    with make_gateway(cfg) as gateway:
        for t in synth_triplets(descriptions, patches, gateway, cfg.model,
                                paired_positive=cfg.paired_positive):
            store.add(t)
    write_jsonl(cfg.workdir / "triplets" / "store.jsonl",
                [t.to_dict() for t in store.triplets])
    write_json(cfg.workdir / "triplets" / "ledger.json",
               gateway.ledger.as_dict())
    return store


# -- stage: verify -----------------------------------------------------------

def verify_stage(cfg: PipelineConfig) -> dict[str, dict[int, Verdict]]:
    docs = load_docs(cfg)
    chain_graph = build_update_chain(docs)
    entries = {row.rfc: row.entries for row in read_jsonl(
        cfg.workdir / "chains" / "entries.jsonl", _RfcEntries.from_dict)}
    increments = dict(read_jsonl(
        cfg.workdir / "chains" / "increments.jsonl", lambda row: (
            (row["rfc_from"], row["rfc_to"]), Increment.from_dict(row))))
    for edge in chain_graph.edges:
        if (edge.src, edge.dst) not in increments:
            raise MissingArtifact(
                f"no stored increment for edge {edge.src}->{edge.dst}")
    walk = chain_graph.walk()

    store_path = cfg.workdir / "triplets" / "store.jsonl"
    store = TripletStore(read_jsonl(store_path, DifferentialTriplet.from_dict)) \
        if store_path.is_file() else None
    retrieval = RetrievalConfig(k=cfg.retrieval_k,
                                fusion_alpha=cfg.fusion_alpha)
    # Lay out every cell of every version first, then judge all tasks in
    # one plan, so provider calls overlap across cells and versions.
    plan = VerifyPlan(cfg.trials)
    version_stats: dict[str, dict] = {}
    with make_gateway(cfg) as gateway:
        for version in cfg.versions:
            functions, fmap, chunks = load_code_chunks(cfg, version)
            graph = read_json(cfg.workdir / "graph" / f"{version}.json",
                              KnowledgeGraph.from_dict)

            def resolver(fids, fmap=fmap, chunks=chunks, version=version):
                # A fid the map lacks comes from a stale graph.
                try:
                    return {fid: reconstruct_function(fid, fmap, chunks)
                            for fid in fids}
                except UnknownFunction as exc:
                    raise stale_fid(exc.args[0], version) from None

            judged = plan_version(plan, walk, increments, entries, version,
                                  graph, store, gateway, resolver,
                                  retrieval=retrieval, budget=cfg.budget)

            index = CodebaseIndex(version=version, files=[],
                                  functions=functions)
            selected = {rfc: fids for rfc, fids in judged.items() if fids}
            if selected:
                version_stats[version] = compute_extraction_stats(
                    index, selected).to_dict()
        matrix = plan.run(gateway, cfg.model)
    # Written once every version is judged, so an aborted run leaves none.
    for version, stats in version_stats.items():
        write_json(cfg.workdir / "verify" / f"stats-{version}.json", stats)

    write_matrix(cfg.workdir / "verify" / "matrix.json", matrix)
    findings, _ = compile_findings(
        matrix, vulnerability_classes=cfg.vulnerability_classes)
    write_jsonl(cfg.workdir / "verify" / "findings.jsonl",
                [f.to_dict() for f in findings])
    # Earlier stages ran in their own processes; fold their ledgers in so
    # this artifact accounts for the whole run, not just the judge trials.
    for snap_path in (cfg.workdir / "graph" / "ledger.json",
                      cfg.workdir / "chains" / "ledger.json",
                      cfg.workdir / "triplets" / "ledger.json"):
        if snap_path.is_file():
            read_json(snap_path, gateway.ledger.absorb)
    write_json(cfg.workdir / "verify" / "ledger.json",
               gateway.ledger.as_dict())
    return matrix


# -- stage: eval -------------------------------------------------------------

def eval_stage(cfg: PipelineConfig) -> Metrics:
    if cfg.ground_truth is None:
        raise InvalidConfig("config has no ground_truth path")
    matrix = read_matrix(cfg.workdir / "verify" / "matrix.json")
    truth_raw = read_json(cfg.ground_truth)
    if not (isinstance(truth_raw, dict) and all(
            isinstance(cells, dict) and all(rfc.isdecimal() for rfc in cells)
            for cells in truth_raw.values())):
        raise ShapeMismatch(f"ground truth {cfg.ground_truth} must map each "
                            "version to {RFC number: label}")
    truth = {version: {int(rfc): label for rfc, label in cells.items()}
             for version, cells in truth_raw.items()}
    findings, confusion = compile_findings(
        matrix, ground_truth=truth,
        vulnerability_classes=cfg.vulnerability_classes)
    evaluation = Evaluation(Confusion(*confusion), tuple(findings))
    write_json(cfg.workdir / "eval" / "metrics.json", evaluation.to_dict())
    return evaluation.metrics


# -- the stage table ---------------------------------------------------------

class Stage(NamedTuple):
    """A pipeline stage: its subcommand name and help, ``run``, its work on
    a config, and ``summary``, the lines the CLI prints for run's result."""
    name: str
    help: str
    run: Callable[[PipelineConfig], Any]
    summary: Callable[[Any], Iterable[str]]


# The stages in run order: the CLI and the tests take them from here.
STAGES = (
    Stage("ingest-rfc", "parse and chunk the configured RFC text files",
          ingest_rfcs,
          lambda docs: [f"parsed {len(docs)} RFC documents"]),
    Stage("ingest-code", "index and chunk the configured source trees",
          lambda cfg: [ingest_code(cfg, version) for version in cfg.versions],
          lambda indexes: [f"{index.version}: {index.total_functions} "
                           f"functions, {index.total_lines} function lines"
                           for index in indexes]),
    Stage("build-graph", "build the knowledge graph from the chunks",
          build_graph_stage,
          lambda graphs: [f"{version}: {len(graph.entities)} entities, "
                          f"{len(graph.communities)} communities"
                          for version, graph in graphs.items()]),
    Stage("build-chains", "extract functional entries and chain deltas",
          build_chains_stage,
          lambda chains: [f"{len(chains.nodes)} RFCs, "
                          f"{chains.chain_count()} chains"]),
    Stage("synth-triplets", "synthesize the differential triplet store",
          synth_triplets_stage,
          lambda store: [f"{len(store)} triplets"]),
    Stage("verify", "verify every chain against every code version",
          verify_stage,
          lambda matrix: [f"{version}: " + ", ".join(
              f"{rfc}={verdict.value}" for rfc, verdict in sorted(row.items()))
              for version, row in sorted(matrix.items())]),
    Stage("eval", "score the verdict matrix against ground truth",
          eval_stage,
          lambda metrics: ["accuracy {accuracy_pct}% recall {recall_pct}% "
                           "precision {precision_pct}% f1 {f1}".format(
                               **metrics.to_dict())]),
    Stage("report", "assemble and render the final report",
          lambda cfg: render_report(build_report(cfg), cfg.workdir / "report"),
          lambda path: [f"report written to {path}"]),
)
