"""One pipeline run in a fresh process: the eight stages, in order.

Started by ``run.py``; not meant to be run by hand. It imports deltaspec
from the checkout's ``src/``, wraps ``MockProvider.complete`` to add a fixed
per-call delay and count calls, optionally records spans around the public
functions of each module, runs every stage through
``deltaspec.report_cli.cli.main`` and writes one JSON result file.

Usage: child.py CONFIG RESULT_JSON DELAY_S TRACE(0|1)
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deltaspec import diff_verifier, llm_gateway, spec_evolution  # noqa: E402
from deltaspec.report_cli import cli, pipeline  # noqa: E402
from layers import STAGES  # noqa: E402


class ProviderMeter:
    """Delay and count provider calls, and the distinct requests among them;
    the counters are kept under a lock so they stay right if calls ever
    overlap."""

    def __init__(self, delay: float):
        self.delay = delay
        self.calls = 0
        self.requests: set[str] = set()
        self.inflight = 0
        self.inflight_max = 0
        self._lock = threading.Lock()

    def wrap(self, real):
        def complete(provider, request):
            with self._lock:
                self.calls += 1
                self.requests.add(repr(request))
                self.inflight += 1
                self.inflight_max = max(self.inflight_max, self.inflight)
            try:
                if self.delay > 0:
                    time.sleep(self.delay)
                return real(provider, request)
            finally:
                with self._lock:
                    self.inflight -= 1
        return complete


class Tracer:
    """In-memory spans: [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                rec[4] = attrs(result, args)
            return result
        return traced


def install_tracing(tracer: Tracer) -> None:
    """Wrap each module's public functions where their callers look them
    up: pipeline imports most of them by name, verify_chain calls the
    retrieval and verification helpers through diff_verifier's globals."""
    def patch(owner, attr, name, attrs=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))

    patch(pipeline, "parse_rfc", "rfc_ingest.parse_rfc",
          lambda doc, a: {"sections": len(doc.sections)})
    patch(pipeline, "build_index", "code_ingest.build_index",
          lambda index, a: {
              "functions": index.total_functions,
              "fallback": sum(f.extraction_tier == "brace-fallback"
                              for f in index.functions)})
    patch(pipeline, "chunk_stream", "chunk_mapper.chunk_stream",
          lambda chunks, a: {"chunks": len(chunks)})
    patch(pipeline, "reconstruct_function",
          "chunk_mapper.reconstruct_function")
    patch(pipeline, "build_graph", "knowledge_graph.build_graph",
          lambda graph, a: {"entities": len(graph.entities)})
    patch(diff_verifier, "retrieve_code_for_spec",
          "knowledge_graph.retrieve_code_for_spec")
    patch(spec_evolution.UpdateChainGraph, "chains", "spec_evolution.chains",
          lambda paths, a: {"paths": len(paths)})
    patch(pipeline, "enumerate_increments",
          "spec_evolution.enumerate_increments",
          lambda incs, a: {"increments": len(incs)})
    patch(pipeline, "diff_functional_entries",
          "spec_evolution.diff_functional_entries")
    patch(diff_verifier, "retrieve_exemplars",
          "triplet_store.retrieve_exemplars",
          lambda found, a: {"store": len(a[1])})
    patch(pipeline, "verify_chain", "diff_verifier.verify_chain")
    patch(diff_verifier, "verify_increment", "diff_verifier.verify_increment",
          lambda verdict, a: {"trials": len(verdict.trials)})
    patch(llm_gateway.LlmGateway, "complete", "llm_gateway.complete",
          lambda res, a: {"cached": res.cached})
    patch(llm_gateway.MockProvider, "complete", "llm_gateway.provider")


def main(argv: list[str]) -> int:
    config, result_path, delay, trace = argv[0], Path(argv[1]), \
        float(argv[2]), argv[3] == "1"
    meter = ProviderMeter(delay)
    llm_gateway.MockProvider.complete = meter.wrap(
        llm_gateway.MockProvider.complete)
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_tracing(tracer)

    gateways = []
    real_make_gateway = pipeline.make_gateway

    def make_gateway(*args, **kwargs):
        gateway = real_make_gateway(*args, **kwargs)
        gateways.append(gateway)
        return gateway

    pipeline.make_gateway = make_gateway

    stages = []
    log = io.StringIO()
    started = time.perf_counter()
    for stage in STAGES:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), \
                    contextlib.redirect_stderr(log):
                code = cli.main([stage, "--config", config])
        except Exception:  # a stage that crashes counts as a failed stage
            log.write(traceback.format_exc())
            code = 1
        t1 = time.perf_counter()
        stages.append({"stage": stage, "exit": code, "start": t0, "end": t1})
        if code != 0:
            break
    wall = time.perf_counter() - started

    stats = {k: sum(getattr(g.stats, k) for g in gateways)
             for k in ("requests", "provider_calls", "cache_hits",
                       "provider_retries", "contract_retries")}
    result = {
        "wall_s": wall,
        "stages": stages,
        "log": log.getvalue()[-4000:],
        "provider_calls": meter.calls,
        "provider_repeats": meter.calls - len(meter.requests),
        "inflight_max": meter.inflight_max,
        "gateway": stats,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "spans": tracer.spans if tracer is not None else None,
    }
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
