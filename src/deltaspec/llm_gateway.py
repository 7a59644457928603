"""Single chokepoint for model calls: caching, retries, contracts, accounting.

Every stage that talks to a model goes through LlmGateway.complete() with a
phase tag, so token accounting lands in exactly one ledger and a warm cache
can replay an entire pipeline run without any provider traffic. Requests are
content-addressed: the cache key is a digest of (model, messages, temperature,
contract), nothing else, which is what makes reruns byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol

from jsonschema.exceptions import ValidationError, best_match
from jsonschema.validators import validator_for

from .errors import ContractViolation, ProviderError
from .tokenizer import count_tokens, token_texts

log = logging.getLogger(__name__)

PHASE_GRAPH = "graph"
PHASE_REASONING = "reasoning"
PHASES = (PHASE_GRAPH, PHASE_REASONING)

_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)

# Compiled validators keyed by a schema's canonical JSON. Schemas are
# unhashable dicts and ids get reused, so the key is the value itself.
_VALIDATORS: dict[str, Any] = {}


def schema_error(instance: Any, schema: Mapping) -> ValidationError | None:
    """The error ``jsonschema.validate(instance, schema)`` would raise, or
    None. The schema is checked against its metaschema once, when first
    seen, so an invalid schema still raises ``SchemaError`` on first use."""
    key = json.dumps(schema, sort_keys=True)
    validator = _VALIDATORS.get(key)
    if validator is None:
        cls = validator_for(schema)
        cls.check_schema(schema)
        validator = _VALIDATORS[key] = cls(schema)
    return best_match(validator.iter_errors(instance))


@dataclass(frozen=True)
class LlmRequest:
    model: str
    messages: tuple[tuple[str, str], ...]  # (role, content) pairs
    temperature: float = 0.0
    response_contract: Any = None  # JSON schema for the parsed response

    @property
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
        self._lock = threading.Lock()

    def record(self, model: str, phase: str, prompt_tokens: int,
               completion_tokens: int) -> None:
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")
        if prompt_tokens < 0 or completion_tokens < 0:
            raise ValueError("token counts must be nonnegative")
        with self._lock:
            bucket = self._totals.setdefault((model, phase), [0, 0])
            bucket[0] += prompt_tokens
            bucket[1] += completion_tokens

    def phase_tokens(self, phase: str) -> int:
        return sum(sum(v) for (_, p), v in self._totals.items() if p == phase)

    @property
    def token_graph(self) -> int:
        return self.phase_tokens(PHASE_GRAPH)

    @property
    def token_reasoning(self) -> int:
        return self.phase_tokens(PHASE_REASONING)

    @property
    def token_total(self) -> int:
        return sum(sum(v) for v in self._totals.values())

    def model_totals(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (model, _), (p, c) in sorted(self._totals.items()):
            agg = out.setdefault(model, {"prompt_tokens": 0, "completion_tokens": 0})
            agg["prompt_tokens"] += p
            agg["completion_tokens"] += c
        return out

    def cost_for(self, model: str) -> float:
        totals = self.model_totals().get(model)
        if totals is None:
            return 0.0
        inp, outp = self.prices.get(model, (0.0, 0.0))
        return (totals["prompt_tokens"] / self.unit * inp
                + totals["completion_tokens"] / self.unit * outp)

    def as_dict(self) -> dict:
        models = self.model_totals()
        return {
            "models": {
                m: {**totals, "cost": round(self.cost_for(m), 6)}
                for m, totals in models.items()
            },
            "phases": {p: self.phase_tokens(p) for p in PHASES},
            "token_total": self.token_total,
            "cost_total": round(sum(self.cost_for(m) for m in models), 6),
            "unpriced_models": sorted(m for m in models if m not in self.prices),
            "records": [
                {"model": m, "phase": p, "prompt_tokens": v[0],
                 "completion_tokens": v[1]}
                for (m, p), v in sorted(self._totals.items())
            ],
        }

    def absorb(self, snapshot: Mapping) -> None:
        """Fold a previously serialized ledger back into this one.

        Pipeline stages run in separate processes, each with its own
        ledger; the verification stage absorbs the earlier snapshots so
        the final accounting covers the whole run.
        """
        records = snapshot.get("records")
        if records is None:
            raise ValueError("ledger snapshot has no 'records' entry")
        for rec in records:
            self.record(rec["model"], rec["phase"],
                        rec["prompt_tokens"], rec["completion_tokens"])


@dataclass
class GatewayStats:
    """Run-scoped counters; live on the gateway object, never in artifacts."""

    requests: int = 0
    provider_calls: int = 0
    cache_hits: int = 0
    provider_retries: int = 0
    contract_retries: int = 0


class HashEmbedder:
    """Deterministic offline embedder: hashed bag of tokens, L2-normalized."""

    def __init__(self, dim: int = 256):
        self.dim = dim

    def embed(self, text: str) -> list[float]:
        vec = [0.0] * self.dim
        for tok in token_texts(text.lower()):
            h = hashlib.sha256(tok.encode("utf-8")).digest()
            idx = int.from_bytes(h[:4], "big") % self.dim
            vec[idx] += 1.0 if h[4] % 2 == 0 else -1.0
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
        if not self.base_url:
            raise ProviderError(
                "no API base configured; set DELTASPEC_API_BASE or pass base_url")

    def complete(self, request: LlmRequest) -> tuple[str, Usage | None]:
        import requests as _requests

        payload = {
            "model": request.model,
            "messages": [{"role": r, "content": c} for r, c in request.messages],
            "temperature": request.temperature,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = _requests.post(f"{self.base_url}/chat/completions",
                                  json=payload, headers=headers, timeout=self.timeout)
        except _requests.RequestException as exc:
            raise ProviderError(f"provider unreachable: {exc}") from exc
        if resp.status_code != 200:
            raise ProviderError(f"provider returned {resp.status_code}: {resp.text[:200]}")
        try:
            body = resp.json()
            text = body["choices"][0]["message"]["content"]
            usage = None
            if isinstance(body.get("usage"), dict):
                u = body["usage"]
                usage = Usage(int(u.get("prompt_tokens", 0)),
                              int(u.get("completion_tokens", 0)))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed provider response: {exc}") from exc
        return text, usage


class MockProvider:
    """Offline provider: a transcript of fingerprint-keyed responses plus an
    optional rule callback for anything the transcript does not script.

    A transcript value may be a list; calls consume it left to right and the
    last element then repeats, which is how retry behavior is scripted.
    """

    def __init__(self,
                 transcript: Mapping[str, Any] | None = None,
                 rules: Callable[[LlmRequest], str | None] | None = None,
                 strict: bool = False):
        self._queues: dict[str, deque] = {}
        for fp, value in (transcript or {}).items():
            values = value if isinstance(value, list) else [value]
            self._queues[fp] = deque(values)
        self.rules = rules
        self.strict = strict

    @classmethod
    def from_jsonl(cls, path: str | Path,
                   rules: Callable[[LlmRequest], str | None] | None = None,
                   strict: bool = False) -> "MockProvider":
        transcript: dict[str, Any] = {}
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            transcript[rec["fingerprint"]] = rec["response"]
        return cls(transcript=transcript, rules=rules, strict=strict)

    def complete(self, request: LlmRequest) -> tuple[str, Usage | None]:
        queue = self._queues.get(request.fingerprint)
        if queue:
            value = queue.popleft() if len(queue) > 1 else queue[0]
            if isinstance(value, dict):
                usage = None
                if "usage" in value:
                    usage = Usage(int(value["usage"]["prompt_tokens"]),
                                  int(value["usage"]["completion_tokens"]))
                return str(value["response"]), usage
            return str(value), None
        if self.rules is not None:
            text = self.rules(request)
            if text is not None:
                return text, None
        if self.strict or self.rules is None:
            raise ProviderError(
                f"mock transcript has no entry for fingerprint "
                f"{request.fingerprint[:12]}... and no rule matched")
        raise ProviderError("mock rules returned no response")


def extract_json_payload(text: str) -> Any:
    """Parse a JSON payload out of model text, tolerating code fences."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, ValueError):
        pass
    m = _FENCE_RE.search(text)
    if m:
        try:
            return json.loads(m.group(1))
        except (json.JSONDecodeError, ValueError):
            pass
    # Last resort: first balanced object or array.
    for opener, closer in (("{", "}"), ("[", "]")):
        start = text.find(opener)
        if start < 0:
            continue
        depth = 0
        for i in range(start, len(text)):
            if text[i] == opener:
                depth += 1
            elif text[i] == closer:
                depth -= 1
                if depth == 0:
                    try:
                        return json.loads(text[start:i + 1])
                    except (json.JSONDecodeError, ValueError):
                        break
    raise ContractViolation(f"response is not parseable JSON: {text[:120]!r}")


class LlmGateway:
    """Caching, retrying, contract-enforcing front door to one provider."""

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
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.ledger = ledger if ledger is not None else CostLedger()
        self.embedder = embedder
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.contract_retries = contract_retries
        self.stats = GatewayStats()
        self._semaphore = threading.BoundedSemaphore(max_in_flight)
        self._key_locks: dict[str, threading.Lock] = {}
        self._key_locks_guard = threading.Lock()

    # -- public API --------------------------------------------------------

    def complete(self, request: LlmRequest, phase: str) -> CompletionResult:
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")
        self.stats.requests += 1
        fp = request.fingerprint
        with self._lock_for(fp):
            entry = self._cache_get(fp)
            if entry is not None:
                self.stats.cache_hits += 1
                usage = Usage(entry["usage"]["prompt_tokens"],
                              entry["usage"]["completion_tokens"])
                parsed = None
                if request.response_contract is not None:
                    parsed = self._validate_contract(request, entry["response"])
                self.ledger.record(request.model, phase,
                                   usage.prompt_tokens, usage.completion_tokens)
                return CompletionResult(entry["response"], usage, True, parsed)

            attempts = 0
            while True:
                text, usage = self._call_provider(request)
                if request.response_contract is None:
                    parsed = None
                    break
                try:
                    parsed = self._validate_contract(request, text)
                    break
                except ContractViolation:
                    if attempts >= self.contract_retries:
                        raise
                    attempts += 1
                    self.stats.contract_retries += 1
            if usage is None:
                usage = Usage(count_tokens(request.prompt_text()), count_tokens(text))
            self._cache_put(fp, request.model, text, usage)
            self.ledger.record(request.model, phase,
                               usage.prompt_tokens, usage.completion_tokens)
            return CompletionResult(text, usage, False, parsed)

    def embed(self, text: str) -> list[float]:
        if self.embedder is None:
            raise ProviderError("no embedder configured on this gateway")
        return self.embedder.embed(text)

    # -- internals -----------------------------------------------------------

    def _lock_for(self, key: str) -> threading.Lock:
        with self._key_locks_guard:
            return self._key_locks.setdefault(key, threading.Lock())

    def _call_provider(self, request: LlmRequest) -> tuple[str, Usage | None]:
        delay = self.backoff_base
        last_error: Exception | None = None
        with self._semaphore:
            for attempt in range(self.max_retries + 1):
                try:
                    self.stats.provider_calls += 1
                    return self.provider.complete(request)
                except ContractViolation:
                    raise
                except ProviderError as exc:
                    last_error = exc
                    if attempt == self.max_retries:
                        break
                    self.stats.provider_retries += 1
                    if delay > 0:
                        time.sleep(delay)
                    delay *= 2
        raise ProviderError(
            f"provider failed after {self.max_retries + 1} attempts: {last_error}")

    def _validate_contract(self, request: LlmRequest, text: str) -> Any:
        payload = extract_json_payload(text)
        error = schema_error(payload, request.response_contract)
        if error is not None:
            raise ContractViolation(
                f"response violates contract: {error.message}") from error
        return payload

    def _cache_path(self, fp: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / fp[:2] / f"{fp}.json"

    def _cache_get(self, fp: str) -> dict | None:
        path = self._cache_path(fp)
        if path is None or not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            log.warning("dropping unreadable cache entry %s", path.name)
            return None
        if not _is_cache_entry(entry, fp):
            log.warning("dropping corrupt cache entry %s", path.name)
            return None
        return entry

    def _cache_put(self, fp: str, model: str, text: str, usage: Usage) -> None:
        path = self._cache_path(fp)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": fp,
            "model": model,
            "response": text,
            "usage": {"prompt_tokens": usage.prompt_tokens,
                      "completion_tokens": usage.completion_tokens},
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(entry, sort_keys=True, indent=1))
        os.replace(tmp, path)


def _is_cache_entry(entry: Any, fp: str) -> bool:
    """A servable entry is stored under its own fingerprint, holds a string
    response and nonnegative integer token counts."""
    if not isinstance(entry, dict) or entry.get("key") != fp \
            or not isinstance(entry.get("response"), str):
        return False
    usage = entry.get("usage")
    return isinstance(usage, dict) and all(
        type(usage.get(k)) is int and usage[k] >= 0
        for k in ("prompt_tokens", "completion_tokens"))
