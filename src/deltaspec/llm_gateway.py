"""Single chokepoint for model calls: caching, retries, contracts, accounting.

Every stage that talks to a model hands its requests to
LlmGateway.complete_all() or settle_all() as one batch with a phase tag, so
token accounting lands in exactly one ledger and a warm cache can replay an
entire pipeline run without any provider traffic. Requests are
content-addressed: the cache key is a digest of (model, messages,
temperature, contract), nothing else, which is what makes reruns byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import re
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from datetime import timezone
from functools import cached_property, partial
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol, Sequence
from urllib.parse import urlsplit

from . import __version__
from .errors import CacheWriteError, ContractViolation, NotSent, ProviderError
from .fsio import EntryStore, Record, read_jsonl
from .tokenizer import count_tokens, token_texts

log = logging.getLogger(__name__)

PHASE_GRAPH = "graph"
PHASE_REASONING = "reasoning"
PHASES = (PHASE_GRAPH, PHASE_REASONING)

_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)

# Longest wait a provider's Retry-After header may impose, in seconds.
MAX_RETRY_AFTER_S = 60.0

# Compiled contract checkers, keyed by a schema's JSON text: schemas are
# unhashable dicts and ids get reused, so the key is the value itself.
_CHECKERS: dict[str, Callable[[Any], str | None]] = {}

# The subset of JSON Schema that the pipeline's contracts use.
_CHECKED_KEYWORDS = frozenset({"type", "properties", "required", "items",
                               "enum", "minLength", "additionalProperties"})
_CHECKED_TYPES = {"object": dict, "array": list, "string": str}


def schema_error(instance: Any, schema: Mapping) -> str | None:
    """The first way ``instance`` breaks ``schema``, as a message naming its
    JSON path (``$.verdict: 'maybe' is not one of ['yes', 'no']``), or
    None. A schema outside the checked subset raises ``ValueError`` on every
    use."""
    key = json.dumps(schema)
    if key not in _CHECKERS:
        _CHECKERS[key] = _compile(schema)
    return _CHECKERS[key](instance)


def _outside(keyword: str, value: Any) -> ValueError:
    return ValueError(f"contract keyword {keyword!r} holds {value!r}, "
                      f"outside the checked subset")


def _compile(schema: Any, keyword: str | None = None) -> Callable[[Any], str | None]:
    """The checker for one contract schema (``keyword`` names the keyword a
    subschema sits under). It returns the first violation as
    ``"$<path>: <message>"``, or None. Keywords are checked in one order,
    whatever the schema's key order: ``type``, ``enum``, ``required`` in
    listed order, object members in instance order, array items by index,
    then ``minLength``.

    Raises ``ValueError`` naming the keyword for a schema outside the
    subset: a keyword outside ``_CHECKED_KEYWORDS``, a ``type`` outside
    ``_CHECKED_TYPES``, a non-string ``enum`` value, a boolean subschema, or
    a value the Draft 2020-12 metaschema rejects, so that a compiled schema
    needs no metaschema check."""
    if type(schema) is not dict:
        if keyword is None:
            raise ValueError(f"contract schema {schema!r} is not an object")
        raise _outside(keyword, schema)
    for name in schema:
        if name not in _CHECKED_KEYWORDS:
            raise _outside(name, schema[name])
    kind: type = object
    type_name = schema.get("type")
    if "type" in schema:
        if type(type_name) is not str or type_name not in _CHECKED_TYPES:
            raise _outside("type", type_name)
        kind = _CHECKED_TYPES[type_name]
    props = schema.get("properties", {})
    if type(props) is not dict or not all(type(n) is str for n in props):
        raise _outside("properties", props)
    props = {name: _compile(sub, "properties") for name, sub in props.items()}
    extra = _compile(schema["additionalProperties"], "additionalProperties") \
        if "additionalProperties" in schema else lambda instance: None
    items = _compile(schema["items"], "items") if "items" in schema else None
    listed = schema.get("enum")
    if "enum" in schema and (type(listed) is not list
                             or not all(type(v) is str for v in listed)):
        raise _outside("enum", listed)
    enum = None if listed is None else frozenset(listed)
    min_length = schema.get("minLength", 0)
    if type(min_length) is not int or min_length < 0:
        raise _outside("minLength", min_length)
    required = schema.get("required", [])
    if type(required) is not list \
            or not all(type(n) is str for n in required) \
            or len(set(required)) != len(required):
        raise _outside("required", required)
    required = tuple(required)
    walk_values = bool(props) or "additionalProperties" in schema

    def check(instance: Any) -> str | None:
        # A nested violation comes back as "$<path>: ..."; each level puts
        # its own step right after the "$".
        if not isinstance(instance, kind):
            return f"$: {instance!r} is not of type {type_name!r}"
        if enum is not None and not (isinstance(instance, str)
                                     and instance in enum):
            return f"$: {instance!r} is not one of {listed!r}"
        if isinstance(instance, dict):
            for name in required:
                if name not in instance:
                    return f"$: {name!r} is a required property"
            if walk_values:
                for name, value in instance.items():
                    error = props.get(name, extra)(value)
                    if error is not None:
                        return f"$.{name}{error[1:]}"
        elif isinstance(instance, list) and items is not None:
            for i, value in enumerate(instance):
                error = items(value)
                if error is not None:
                    return f"$[{i}]{error[1:]}"
        elif isinstance(instance, str) and len(instance) < min_length:
            return f"$: {instance!r} is too short"
        return None

    return check


@dataclass(frozen=True)
class LlmRequest:
    model: str
    messages: tuple[tuple[str, str], ...]  # (role, content) pairs
    temperature: float = 0.0
    response_contract: Any = None  # JSON schema for the parsed response

    @cached_property
    def fingerprint(self) -> str:
        canonical = json.dumps(
            {
                "model": self.model,
                "messages": [[r, c] for r, c in self.messages],
                "temperature": self.temperature,
                "contract": self.response_contract,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def prompt_text(self) -> str:
        return "\n".join(c for _, c in self.messages)


def request(model: str, system: str | None, user: str, *,
            temperature: float = 0.0, contract: Any = None) -> LlmRequest:
    """Convenience constructor for the common system+user shape."""
    messages: list[tuple[str, str]] = []
    if system:
        messages.append(("system", system))
    messages.append(("user", user))
    return LlmRequest(model=model, messages=tuple(messages),
                      temperature=temperature, response_contract=contract)


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int
    completion_tokens: int

    @property
    def total(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True)
class CompletionResult:
    text: str
    usage: Usage
    cached: bool
    parsed: Any = None  # contract-validated payload, when a contract was set


class Provider(Protocol):
    def complete(self, request: LlmRequest) -> tuple[str, Usage | None]:
        ...


class CostLedger:
    """Token and dollar accounting, bucketed by model and by phase.

    Prices map model name to (input, output) dollars per ``unit`` tokens.
    Both bucketings sum the same records, so per-model and per-phase totals
    agree by construction.
    """

    def __init__(self, prices: Mapping[str, tuple[float, float]] | None = None,
                 unit: float = 1000.0):
        self.prices = {k: (float(v[0]), float(v[1])) for k, v in (prices or {}).items()}
        self.unit = float(unit)
        self._totals: dict[tuple[str, str], list[int]] = {}

    def record(self, model: str, phase: str, prompt_tokens: int,
               completion_tokens: int) -> None:
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")
        if prompt_tokens < 0 or completion_tokens < 0:
            raise ValueError("token counts must be nonnegative")
        bucket = self._totals.setdefault((model, phase), [0, 0])
        bucket[0] += prompt_tokens
        bucket[1] += completion_tokens

    def phase_tokens(self, phase: str) -> int:
        return sum(sum(v) for (_, p), v in self._totals.items() if p == phase)

    @property
    def token_total(self) -> int:
        return sum(sum(v) for v in self._totals.values())

    def model_tokens(self) -> dict[str, tuple[int, int]]:
        """Each model's (prompt, completion) token totals."""
        out: dict[str, tuple[int, int]] = {}
        for (model, _), (p, c) in sorted(self._totals.items()):
            prompt, completion = out.get(model, (0, 0))
            out[model] = (prompt + p, completion + c)
        return out

    def cost_for(self, model: str) -> float:
        prompt, completion = self.model_tokens().get(model, (0, 0))
        inp, outp = self.prices.get(model, (0.0, 0.0))
        return prompt / self.unit * inp + completion / self.unit * outp

    def as_dict(self) -> dict:
        models = self.model_tokens()
        return LedgerSnapshot(
            records=tuple(LedgerRecord(m, p, *v)
                          for (m, p), v in sorted(self._totals.items())),
            models={m: ModelCost(*tokens, cost=round(self.cost_for(m), 6))
                    for m, tokens in models.items()},
            phases={p: self.phase_tokens(p) for p in PHASES},
            token_total=self.token_total,
            cost_total=round(sum(self.cost_for(m) for m in models), 6),
            unpriced_models=tuple(sorted(m for m in models
                                         if m not in self.prices)),
        ).to_dict()

    def absorb(self, snapshot: Mapping) -> None:
        """Fold a previously serialized ledger back into this one.

        Pipeline stages run in separate processes, each with its own
        ledger; the verification stage absorbs the earlier snapshots so
        the final accounting covers the whole run.
        """
        for rec in LedgerSnapshot.from_dict(snapshot).records:
            self.record(rec.model, rec.phase, rec.prompt_tokens,
                        rec.completion_tokens)


@dataclass(frozen=True)
class LedgerRecord(Record):
    """One (model, phase) bucket of a ledger snapshot."""
    model: str
    phase: str
    prompt_tokens: int
    completion_tokens: int


@dataclass(frozen=True)
class ModelCost(Record):
    """A model's totals in a ledger snapshot."""
    prompt_tokens: int
    completion_tokens: int
    cost: float


@dataclass(frozen=True)
class LedgerSnapshot(Record):
    """CostLedger.as_dict(): its buckets and the totals the report shows."""
    records: tuple[LedgerRecord, ...]
    models: dict[str, ModelCost]
    phases: dict[str, int]
    token_total: int
    cost_total: float
    unpriced_models: tuple[str, ...]


@dataclass
class GatewayStats:
    """Run-scoped counters; live on the gateway object, never in artifacts.
    Provider fetches run on worker threads, so counters move through add()."""

    requests: int = 0
    provider_calls: int = 0
    cache_hits: int = 0
    provider_retries: int = 0
    contract_retries: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def add(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)


class HashEmbedder:
    """Deterministic offline embedder: hashed bag of tokens, L2-normalized."""

    def __init__(self, dim: int = 256):
        self.dim = dim
        self._slots: dict[str, tuple[int, float]] = {}  # token -> (slot, sign)

    def embed(self, text: str) -> list[float]:
        vec = [0.0] * self.dim
        slots = self._slots
        for tok in token_texts(text.lower()):
            slot = slots.get(tok)
            if slot is None:
                h = hashlib.sha256(tok.encode("utf-8")).digest()
                slot = slots[tok] = (int.from_bytes(h[:4], "big") % self.dim,
                                     1.0 if h[4] % 2 == 0 else -1.0)
            vec[slot[0]] += slot[1]
        norm = math.sqrt(sum(v * v for v in vec))
        if norm > 0.0:
            vec = [v / norm for v in vec]
        return vec


class HttpProvider:
    """OpenAI-style chat endpoint; base URL and key come from the environment
    (DELTASPEC_API_BASE / DELTASPEC_API_KEY) unless given explicitly."""

    def __init__(self, base_url: str | None = None, api_key: str | None = None,
                 timeout: float = 120.0):
        self.base_url = (base_url or os.environ.get("DELTASPEC_API_BASE") or "").rstrip("/")
        self.api_key = api_key or os.environ.get("DELTASPEC_API_KEY") or ""
        self.timeout = timeout
        base = self.base_url
        try:
            url = urlsplit(base)
            url.port  # raises on a port that is not a number in 0-65535
        except ValueError:
            url = None
        if url is None or url.scheme not in ("http", "https") or not url.hostname \
                or not (base.isascii() and base.isprintable()) or " " in base:
            raise ProviderError(
                f"API base {base!r} is not an http:// or https:// URL with a host, in "
                f"printable ASCII without spaces; set DELTASPEC_API_BASE or pass base_url")
        if not (self.api_key.isascii() and self.api_key.isprintable()):
            raise ProviderError("the API key is not printable ASCII")

    def complete(self, request: LlmRequest) -> tuple[str, Usage | None]:
        # Imported here: a run on the mock provider loads no HTTP or TLS code.
        import http.client
        import urllib.request

        payload = {"model": request.model, "temperature": request.temperature,
                   "messages": [{"role": r, "content": c} for r, c in request.messages]}
        headers = {"Content-Type": "application/json",
                   "User-Agent": f"deltaspec/{__version__}"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        post = urllib.request.Request(f"{self.base_url}/chat/completions",
                                      json.dumps(payload).encode("utf-8"), headers)
        # Proxies, HTTP and HTTPS only: with no error or redirect handler every
        # status comes back as a reply, so a 3xx never resends the key elsewhere.
        opener = urllib.request.OpenerDirector()
        for handler in (urllib.request.ProxyHandler(), urllib.request.HTTPHandler(),
                        urllib.request.HTTPSHandler()):
            opener.add_handler(handler)
        try:
            with opener.open(post, timeout=self.timeout) as resp:
                status, raw = resp.status, resp.read().decode("utf-8", "replace")
        except (OSError, http.client.HTTPException) as exc:
            raise ProviderError(f"provider unreachable: {exc}") from exc
        if status != 200:
            # Only overload and server faults can clear up on a retry.
            raise ProviderError(
                f"provider returned {status}: {raw[:200]}",
                retryable=status == 429 or status >= 500,
                retry_after=_retry_after(resp) if status in (429, 503) else None)
        try:
            body = json.loads(raw)
            text, usage = body["choices"][0]["message"]["content"], body.get("usage")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            # The provider answered; sending the request again gets no
            # better-formed reply.
            raise ProviderError(f"malformed provider response: {exc}",
                                retryable=False) from exc
        return _reply(text, usage, "provider response")


class MockProvider:
    """Offline provider: a transcript of fingerprint-keyed responses plus an
    optional rule callback for anything the transcript does not script.

    A transcript value may be a list; calls consume it left to right and the
    last element then repeats, which is how retry behavior is scripted.
    """

    def __init__(self,
                 transcript: Mapping[str, Any] | None = None,
                 rules: Callable[[LlmRequest], str | None] | None = None):
        self._queues: dict[str, deque] = {}
        for fp, value in (transcript or {}).items():
            values = value if isinstance(value, list) else [value]
            self._queues[fp] = deque(values)
        self.rules = rules

    @classmethod
    def from_jsonl(cls, path: str | Path,
                   rules: Callable[[LlmRequest], str | None] | None = None
                   ) -> "MockProvider":
        transcript = dict(read_jsonl(
            Path(path), lambda rec: (rec["fingerprint"], rec["response"])))
        return cls(transcript=transcript, rules=rules)

    def complete(self, request: LlmRequest) -> tuple[str, Usage | None]:
        queue = self._queues.get(request.fingerprint)
        if queue:
            value = queue.popleft() if len(queue) > 1 else queue[0]
            entry = value if isinstance(value, dict) else {"response": value}
            return _reply(entry.get("response"), entry.get("usage"),
                          f"transcript entry for fingerprint "
                          f"{request.fingerprint[:12]}...")
        if self.rules is None:
            raise ProviderError(
                f"mock transcript has no entry for fingerprint "
                f"{request.fingerprint[:12]}... and no rule matched")
        text = self.rules(request)
        if text is None:
            raise ProviderError("mock rules returned no response")
        return text, None


def extract_json_payload(text: str) -> Any:
    """Parse a JSON payload out of model text, tolerating code fences."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    m = _FENCE_RE.search(text)
    if m:
        try:
            return json.loads(m.group(1))
        except ValueError:
            pass
    # Last resort: the JSON value that opens at the first "{", else at the
    # first "[".
    for opener in "{[":
        start = text.find(opener)
        if start >= 0:
            try:
                return json.JSONDecoder().raw_decode(text, start)[0]
            except ValueError:
                pass
    raise ContractViolation(f"response is not parseable JSON: {text[:120]!r}")


class LlmGateway:
    """Caching, retrying, contract-enforcing front door to one provider.
    A gateway lives for one stage and answers each distinct request once
    (see settle_all). Used as a context manager, it closes its cache on
    exit (see close)."""

    def __init__(self,
                 provider: Provider,
                 *,
                 cache_dir: str | Path | None = None,
                 ledger: CostLedger | None = None,
                 embedder: HashEmbedder | None = None,
                 max_retries: int = 3,
                 backoff_base: float = 0.5,
                 contract_retries: int = 2,
                 max_in_flight: int = 4):
        self.provider = provider
        self._cache = EntryStore(cache_dir, log, "cache entry") \
            if cache_dir else None
        self.ledger = ledger if ledger is not None else CostLedger()
        self.embedder = embedder
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.contract_retries = contract_retries
        self.max_in_flight = max_in_flight
        self.stats = GatewayStats()
        # Each fingerprint's first successful answer on this gateway.
        self._answered: dict[str, CompletionResult] = {}

    def __enter__(self) -> "LlmGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the cache's log and drop its index. Answers already given
        stay remembered, and the stats and ledger stay readable."""
        if self._cache is not None:
            self._cache.close()

    # -- public API --------------------------------------------------------

    def complete(self, request: LlmRequest, phase: str) -> CompletionResult:
        return self.complete_all([request], phase)[0]

    def complete_all(self, requests: Sequence[LlmRequest],
                     phase: str) -> list[CompletionResult]:
        """``[complete(r, phase) for r in requests]``, with the distinct cache
        misses fetched concurrently. Results, stats, ledger and cache come
        out as the serial loop leaves them; on failure the error raised is
        the one the serial loop would have raised first."""
        outcomes = self.settle_all(requests, phase)
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        return outcomes

    def settle_all(self, requests: Sequence[LlmRequest],
                   phase: str) -> list[CompletionResult | Exception]:
        """complete_all() that puts each request's error in its slot instead
        of raising it.

        The gateway answers each distinct request once. The first ask of a
        fingerprint is served from the cache or the provider, counted in
        ``stats.requests`` and recorded in the ledger; once it succeeds,
        every later ask on this gateway, in this batch or a later one,
        returns that same CompletionResult and reads no file, checks no
        contract and records nothing. A repeat under another phase is
        therefore not recorded again; no caller sends one. A failed
        request is asked again next time.

        Cache hits are served on the calling thread, in input order. The
        misses are submitted, in input order, to a pool of at most
        ``max_in_flight`` threads (no thread when nothing misses; a lone
        miss runs inline). Workers only fetch; the calling thread caches
        and accounts each reply as its future completes, while the other
        workers keep fetching, so every file write and ledger record happens
        on the caller. The later duplicates of a miss take its answer once
        the fetches are done.

        The batch stops at its first failure in input order, as a serial
        loop does, whether a fetch or a cache write failed: the failure
        cancels every fetch still queued behind it, a failed fetch from a
        done-callback on its worker before that worker takes another.
        Every slot before it holds its outcome; a slot after it holds an
        answer already in hand (a hit or a remembered one), the outcome of
        a fetch that was already under way, or ``NotSent``.
        """
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")
        outcomes: list[Any] = [None] * len(requests)
        fetch: list[int] = []  # indices of the distinct misses
        later: list[int] = []  # indices of their later duplicates
        missed: set[str] = set()
        for i, req in enumerate(requests):
            if req.fingerprint in self._answered:
                outcomes[i] = self._answered[req.fingerprint]
                continue
            if req.fingerprint in missed:
                later.append(i)
                continue
            self.stats.add("requests")
            outcomes[i] = _settle(self._serve_hit, req, phase)
            if outcomes[i] is None:
                fetch.append(i)
                missed.add(req.fingerprint)
            elif isinstance(outcomes[i], Exception):
                break

        if min(self.max_in_flight, len(fetch)) > 1:
            self._fetch_on_pool(requests, phase, fetch, outcomes)
        else:
            for i in fetch:
                outcomes[i] = _settle(self._fetch, requests[i], phase)
                if isinstance(outcomes[i], Exception):
                    break

        failed = next((i for i, outcome in enumerate(outcomes)
                       if isinstance(outcome, Exception)), len(outcomes))
        for i in later:
            if i > failed:
                break
            outcomes[i] = self._answered[requests[i].fingerprint]
        return [NotSent("not sent: an earlier request of the batch failed")
                if outcome is None else outcome for outcome in outcomes]

    def _fetch_on_pool(self, requests: Sequence[LlmRequest], phase: str,
                       fetch: list[int], outcomes: list[Any]) -> None:
        """Fetch ``requests[i]`` for each i in ``fetch`` on a pool and store
        each reply in ``outcomes[i]`` on the calling thread (see
        settle_all)."""
        futures: list[Future] = []  # futures[k] fetches requests[fetch[k]]
        stop = threading.Event()  # a failure is known: submit no more

        def cancel_after(k: int) -> None:
            stop.set()
            for future in futures[k + 1:]:
                future.cancel()

        def on_done(k: int, future: Future) -> None:
            # On the worker as its fetch ends, before it takes another.
            if not future.cancelled() and future.exception() is not None:
                cancel_after(k)

        pool = ThreadPoolExecutor(min(self.max_in_flight, len(fetch)))
        try:
            for k, i in enumerate(fetch):
                if stop.is_set():
                    break
                futures.append(pool.submit(self._ask, requests[i]))
                futures[k].add_done_callback(partial(on_done, k))
            position = {future: k for k, future in enumerate(futures)}
            for future in as_completed(futures):
                if future.cancelled():
                    continue
                k = position[future]
                i = fetch[k]
                reply = _settle(future.result)  # re-raises a BaseException
                outcomes[i] = reply if isinstance(reply, Exception) \
                    else _settle(self._store, requests[i], phase, reply)
                if isinstance(outcomes[i], Exception):
                    cancel_after(k)
        finally:
            # On a BaseException, the fetches in hand finish and no queued
            # one is sent.
            pool.shutdown(cancel_futures=True)

    def embed(self, text: str) -> list[float]:
        if self.embedder is None:
            raise ProviderError("no embedder configured on this gateway")
        return self.embedder.embed(text)

    # -- internals -----------------------------------------------------------

    def _serve_hit(self, request: LlmRequest,
                   phase: str) -> CompletionResult | None:
        entry = self._cache_get(request.fingerprint)
        if entry is None:
            return None
        self.stats.add("cache_hits")
        usage = Usage(entry["usage"]["prompt_tokens"],
                      entry["usage"]["completion_tokens"])
        parsed = None
        if request.response_contract is not None:
            parsed = self._validate_contract(request, entry["response"])
        self.ledger.record(request.model, phase,
                           usage.prompt_tokens, usage.completion_tokens)
        result = self._answered[request.fingerprint] = CompletionResult(
            entry["response"], usage, True, parsed)
        return result

    def _fetch(self, request: LlmRequest, phase: str) -> CompletionResult:
        return self._store(request, phase, self._ask(request))

    def _ask(self, request: LlmRequest) -> tuple[str, Usage | None, Any]:
        """The provider's reply and its contract-checked payload. Runs on a
        pool thread, so it touches no file and no ledger."""
        attempts = 0
        while True:
            text, usage = self._call_provider(request)
            if request.response_contract is None:
                return text, usage, None
            try:
                return text, usage, self._validate_contract(request, text)
            except ContractViolation:
                if attempts >= self.contract_retries:
                    raise
                attempts += 1
                self.stats.add("contract_retries")

    def _store(self, request: LlmRequest, phase: str,
               reply: tuple[str, Usage | None, Any]) -> CompletionResult:
        """Cache and account one fetched reply."""
        text, usage, parsed = reply
        if usage is None:
            usage = Usage(count_tokens(request.prompt_text()), count_tokens(text))
        self._cache_put(request.fingerprint, request.model, text, usage)
        self.ledger.record(request.model, phase,
                           usage.prompt_tokens, usage.completion_tokens)
        result = self._answered[request.fingerprint] = CompletionResult(
            text, usage, False, parsed)
        return result

    def _call_provider(self, request: LlmRequest) -> tuple[str, Usage | None]:
        delay = self.backoff_base
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            try:
                self.stats.add("provider_calls")
                return self.provider.complete(request)
            except ProviderError as exc:
                if not exc.retryable:
                    raise
                last_error = exc
                if attempt == self.max_retries:
                    break
                self.stats.add("provider_retries")
                # Full jitter: workers that failed together do not all
                # retry together.
                wait = random.uniform(0, delay) if exc.retry_after is None \
                    else min(exc.retry_after, MAX_RETRY_AFTER_S)
                if wait > 0:
                    time.sleep(wait)
                delay *= 2
        raise ProviderError(
            f"provider failed after {self.max_retries + 1} attempts: {last_error}")

    def _validate_contract(self, request: LlmRequest, text: str) -> Any:
        payload = extract_json_payload(text)
        error = schema_error(payload, request.response_contract)
        if error is not None:
            raise ContractViolation(f"response violates contract: {error}")
        return payload

    def _cache_get(self, fp: str) -> dict | None:
        if self._cache is None:
            return None
        return self._cache.get(
            fp, lambda entry: entry if _is_cache_entry(entry) else None,
            "dropping")

    def _cache_put(self, fp: str, model: str, text: str, usage: Usage) -> None:
        if self._cache is None:
            return
        try:
            self._cache.put(fp, {
                "model": model,
                "response": text,
                "usage": {"prompt_tokens": usage.prompt_tokens,
                          "completion_tokens": usage.completion_tokens},
                "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            })
        except OSError as exc:
            raise CacheWriteError(
                f"cannot write response cache entry {fp}: {exc}") from exc


def _settle(fn: Callable[..., Any], *args: Any) -> Any:
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _retry_after(resp: Any) -> float | None:
    """The Retry-After header in seconds from now, given as a number or as
    an HTTP date (a past date is 0); None when absent or unreadable."""
    value = resp.headers.get("Retry-After", "")
    try:
        seconds = float(value)
    except ValueError:
        # Imported here, like urllib.request: email.utils is only needed on
        # the live HTTP path and adds about half a megabyte to every run.
        from email.utils import parsedate_to_datetime
        try:
            when = parsedate_to_datetime(value)
        except ValueError:
            return None
        if when.tzinfo is None:  # "-0000": UTC with no zone given
            when = when.replace(tzinfo=timezone.utc)
        seconds = max(0.0, when.timestamp() - time.time())
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


def _reply(text: object, usage: object, source: str) -> tuple[str, Usage | None]:
    """A reply's text must be a string; its usage None or pass _is_usage."""
    if not isinstance(text, str) or not (usage is None or _is_usage(usage)):
        raise ProviderError(f"malformed {source}: it needs a string response "
                            f"and nonnegative int token counts", retryable=False)
    return text, None if usage is None else Usage(
        usage["prompt_tokens"], usage["completion_tokens"])


def _is_usage(usage: object) -> bool:
    """Token counts as a provider reply or a cache entry must hold them:
    nonnegative ints, not bools, under both keys."""
    return isinstance(usage, dict) and all(
        type(usage.get(k)) is int and usage[k] >= 0
        for k in ("prompt_tokens", "completion_tokens"))


def _is_cache_entry(entry: dict) -> bool:
    """A servable entry holds a string response and token counts."""
    return isinstance(entry.get("response"), str) \
        and _is_usage(entry.get("usage"))
