"""Tests for the caching gateway, cost ledger, and offline providers."""

import errno
import json
import sys
import tempfile
import threading
import time
from datetime import datetime, timezone
from email.utils import format_datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deltaspec
from conftest import EntryLogs, Fault, chat_reply, http_reply
from deltaspec import llm_gateway
from deltaspec.diff_verifier import JUDGMENT_CONTRACT
from deltaspec.errors import (CacheWriteError, ContractViolation, NotSent,
                              ProviderError)
from deltaspec.llm_gateway import (
    CompletionResult,
    Contract,
    CostLedger,
    HashEmbedder,
    HttpProvider,
    LlmGateway,
    MockProvider,
    Usage,
    extract_json_payload,
    request,
)
from deltaspec.tokenizer import count_tokens


def _decode_ok(payload):
    """The test contract's decode: an object holding "ok", as it is."""
    if not isinstance(payload, dict):
        raise TypeError("expected an object")
    if "ok" not in payload:
        raise KeyError("ok")
    return payload


OK_CONTRACT = Contract({"type": "object", "required": ["ok"]}, _decode_ok)


def _tokens(usage):
    return usage.prompt_tokens + usage.completion_tokens


# ------------------------------------------------------------- fingerprints

def test_fingerprint_is_stable_and_input_sensitive():
    base = request("m", "sys", "user text")
    assert base.fingerprint == request("m", "sys", "user text").fingerprint
    variants = [
        request("m2", "sys", "user text"),
        request("m", "sys", "other text"),
        request("m", None, "user text"),
        request("m", "sys", "user text", temperature=0.7),
        request("m", "sys", "user text", contract=OK_CONTRACT),
    ]
    fps = {v.fingerprint for v in variants}
    assert base.fingerprint not in fps
    assert len(fps) == len(variants)


def test_fingerprint_is_computed_once_per_request(monkeypatch):
    req = request("m", "sys", "user text")
    first = req.fingerprint
    monkeypatch.setattr(llm_gateway.hashlib, "sha256",
                        lambda *a: pytest.fail("fingerprint recomputed"))
    assert req.fingerprint == first


def test_request_builds_messages():
    assert request("m", "sys", "u").messages == (("system", "sys"), ("user", "u"))
    assert request("m", None, "u").messages == (("user", "u"),)
    assert request("m", "sys", "u").prompt_text() == "sys\nu"


# ------------------------------------------------------------------ caching

def _ok_gateway(cache_dir, **kwargs):
    return LlmGateway(provider=MockProvider(rules=lambda r: '{"ok": 1}'),
                      cache_dir=cache_dir, **kwargs)


def test_cache_replays_without_provider_calls(tmp_path):
    gateway = _ok_gateway(tmp_path, ledger=CostLedger())
    req = request("m", "sys", "q", contract=OK_CONTRACT)

    first = gateway.complete(req, "graph")
    assert not first.cached
    assert gateway.stats.provider_calls == 1

    # A rerun is a second gateway over the same cache.
    rerun = _ok_gateway(tmp_path, ledger=CostLedger())
    second = rerun.complete(req, "graph")
    assert second.cached
    assert second.text == first.text
    assert second.parsed == {"ok": 1}  # contract re-validated on replay
    assert rerun.stats.provider_calls == 0
    assert rerun.stats.cache_hits == 1
    # Cached replays still hit the ledger: reruns account tokens identically.
    assert rerun.ledger.token_total == _tokens(first.usage)
    assert rerun.ledger.as_dict() == gateway.ledger.as_dict()


def test_repeats_on_one_gateway_are_answered_from_memory(tmp_path,
                                                        monkeypatch):
    gateway = _ok_gateway(tmp_path, ledger=CostLedger())
    decoded = []
    contract = OK_CONTRACT._replace(
        decode=lambda payload: decoded.append(payload) or payload)
    req = request("m", "sys", "q", contract=contract)
    first = gateway.complete(req, "graph")
    reads = []
    read = gateway._cache_get
    monkeypatch.setattr(gateway, "_cache_get",
                        lambda fp: reads.append(fp) or read(fp))
    assert gateway.complete(req, "graph") is first
    other = request("m", None, "other")
    batch = gateway.complete_all([req, other, req], "graph")
    assert batch[0] is first and batch[2] is first
    assert reads == [other.fingerprint]
    assert decoded == [{"ok": 1}]  # a repeat is not checked again
    assert gateway.stats.provider_calls == 2
    assert gateway.stats.requests == 2
    assert gateway.stats.cache_hits == 0
    assert gateway.ledger.token_total == \
        _tokens(first.usage) + _tokens(batch[1].usage)


def test_failed_request_is_asked_again_next_time(tmp_path):
    sent = []

    def answer(req):
        sent.append(req.messages[-1][1])
        if len(sent) == 1:
            raise ProviderError("down", retryable=False)
        return '{"ok": 1}'

    gateway = LlmGateway(provider=MockProvider(rules=answer),
                         cache_dir=tmp_path, ledger=CostLedger())
    req = request("m", None, "q", contract=OK_CONTRACT)
    with pytest.raises(ProviderError, match="down"):
        gateway.complete(req, "graph")
    assert gateway.ledger.token_total == 0
    result = gateway.complete(req, "graph")
    assert not result.cached and result.parsed == {"ok": 1}
    assert gateway.complete(req, "graph") is result
    assert sent == ["q", "q"]
    assert gateway.stats.requests == 2
    assert gateway.ledger.token_total == _tokens(result.usage)


def test_cache_entries_are_lines_of_one_log(tmp_path):
    with LlmGateway(provider=MockProvider(rules=lambda r: "x"),
                    cache_dir=tmp_path) as gateway:
        reqs = [request("m", None, "q"), request("m", None, "r")]
        gateway.complete_all(reqs, "graph")
    [log] = tmp_path.iterdir()
    assert log.suffix == ".log" and log.stat().st_mode & 0o777 == 0o644
    assert [(key, entry["key"], entry["response"])
            for key, entry in EntryLogs(tmp_path).entries()] == \
        sorted((r.fingerprint, r.fingerprint, "x") for r in reqs)
    # A warm rerun creates no log.
    with LlmGateway(provider=MockProvider(rules=lambda r: "x"),
                    cache_dir=tmp_path) as rerun:
        assert all(r.cached for r in rerun.complete_all(reqs, "graph"))
    assert list(tmp_path.iterdir()) == [log]


def test_unknown_phase_is_rejected(tmp_path):
    gateway = LlmGateway(provider=MockProvider(rules=lambda r: "x"))
    with pytest.raises(ValueError, match="phase"):
        gateway.complete(request("m", None, "q"), "training")


# ---------------------------------------------------------------- contracts

def test_contract_violations_retry_then_succeed():
    answers = iter(["not json", "{\"wrong\": 1}", "{\"ok\": 2}"])
    gateway = LlmGateway(provider=MockProvider(rules=lambda r: next(answers)))
    # The contract requires "ok", so the second answer parses but still
    # violates it.
    result = gateway.complete(request("m", None, "q", contract=OK_CONTRACT),
                              "reasoning")
    assert result.parsed == {"ok": 2}
    assert gateway.stats.contract_retries == 2
    assert gateway.stats.provider_calls == 3


def test_contract_violations_exhaust():
    gateway = LlmGateway(provider=MockProvider(rules=lambda r: "never json"),
                         contract_retries=1)
    with pytest.raises(ContractViolation):
        gateway.complete(request("m", None, "q", contract=OK_CONTRACT),
                         "reasoning")
    assert gateway.stats.contract_retries == 1
    assert gateway.stats.provider_calls == 2


def test_provider_errors_retry_then_exhaust():
    gateway = LlmGateway(provider=MockProvider(rules=lambda r: None),
                         max_retries=2, backoff_base=0.0)
    with pytest.raises(ProviderError, match="3 attempts"):
        gateway.complete(request("m", None, "q"), "graph")
    assert gateway.stats.provider_calls == 3
    assert gateway.stats.provider_retries == 2


# -------------------------------------------------------------------- usage

def test_usage_falls_back_to_token_counts():
    gateway = LlmGateway(provider=MockProvider(rules=lambda r: "four point five"))
    req = request("m", "sys", "q")
    result = gateway.complete(req, "graph")
    assert result.usage.prompt_tokens == count_tokens(req.prompt_text())
    assert result.usage.completion_tokens == count_tokens("four point five")


def test_scripted_usage_is_honored():
    req = request("m", None, "q")
    provider = MockProvider(transcript={
        req.fingerprint: {"response": "text",
                          "usage": {"prompt_tokens": 7,
                                    "completion_tokens": 11}},
    })
    result = LlmGateway(provider=provider).complete(req, "graph")
    assert (result.usage.prompt_tokens, result.usage.completion_tokens) == (7, 11)


def test_mock_transcript_queues_repeat_their_last_entry():
    req = request("m", None, "q")
    provider = MockProvider(transcript={req.fingerprint: ["a", "b"]})
    assert provider.complete(req)[0] == "a"
    assert provider.complete(req)[0] == "b"
    assert provider.complete(req)[0] == "b"


def test_mock_without_match_raises():
    with pytest.raises(ProviderError):
        MockProvider().complete(request("m", None, "q"))


# ------------------------------------------------------------ json recovery

def test_json_payload_recovery():
    assert extract_json_payload('{"a": 1}') == {"a": 1}
    assert extract_json_payload('```json\n{"a": [1, 2]}\n```') == {"a": [1, 2]}
    assert extract_json_payload('Sure! Here it is: {"a": {"b": 2}} done') \
        == {"a": {"b": 2}}
    assert extract_json_payload("prefix [1, 2, 3] suffix") == [1, 2, 3]
    assert extract_json_payload(
        'Verdict: {"verdict": "implemented", "rationale": "ends with }"}') \
        == {"verdict": "implemented", "rationale": "ends with }"}
    assert extract_json_payload('x [1, "]", 2] y') == [1, "]", 2]
    with pytest.raises(ContractViolation):
        extract_json_payload("no structured data at all")


# ------------------------------------------------------------------- ledger

def test_ledger_costs_and_buckets():
    ledger = CostLedger(prices={"judge-1": (0.005, 0.015)}, unit=1000)
    ledger.record("judge-1", "graph", 1000, 2000)
    ledger.record("judge-1", "reasoning", 500, 0)
    ledger.record("mystery", "reasoning", 10, 10)

    assert ledger.phase_tokens("graph") == 3000
    assert ledger.phase_tokens("reasoning") == 520
    assert ledger.token_total == 3520
    assert ledger.cost_for("judge-1") == pytest.approx(
        1500 / 1000 * 0.005 + 2000 / 1000 * 0.015)
    assert ledger.cost_for("mystery") == 0.0

    snapshot = ledger.as_dict()
    assert snapshot["phases"] == {"graph": 3000, "reasoning": 520}
    assert snapshot["unpriced_models"] == ["mystery"]
    assert snapshot["cost_total"] == pytest.approx(ledger.cost_for("judge-1"))


def test_ledger_rejects_bad_records():
    ledger = CostLedger()
    with pytest.raises(ValueError, match="phase"):
        ledger.record("m", "training", 1, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        ledger.record("m", "graph", -1, 0)


def test_ledger_snapshots_are_absorbable():
    ledger = CostLedger(prices={"judge-1": (0.005, 0.015)})
    ledger.record("judge-1", "graph", 100, 200)
    ledger.record("judge-1", "reasoning", 300, 400)

    merged = CostLedger(prices={"judge-1": (0.005, 0.015)})
    merged.record("judge-1", "reasoning", 1, 1)
    merged.absorb(json.loads(json.dumps(ledger.as_dict())))
    assert merged.phase_tokens("graph") == 300
    assert merged.phase_tokens("reasoning") == 702

    with pytest.raises(KeyError, match="records"):
        merged.absorb({"phases": {}})


# ----------------------------------------------------------------- embedder

def test_hash_embedder_is_deterministic_and_normalized():
    emb = HashEmbedder(dim=64)
    a = emb.embed("validate the rst sequence number")
    assert a == emb.embed("validate the rst sequence number")
    assert len(a) == 64
    assert sum(x * x for x in a) == pytest.approx(1.0)
    assert emb.embed("") == [0.0] * 64


def test_gateway_requires_embedder_for_embeddings():
    gateway = LlmGateway(provider=MockProvider(rules=lambda r: "x"))
    with pytest.raises(ProviderError, match="embedder"):
        gateway.embed("text")


# ------------------------------------------------------ contract messages

def test_contract_violation_message_names_the_json_path():
    for payload, message in [
        ({"verdict": "maybe", "cited_functions": [1, "f"]},
         "$.cited_functions[0]: expected str, got int"),
        ({"verdict": "maybe"}, "$.verdict: 'maybe' is not one of "
         "['implemented', 'not-implemented', 'unknown']"),
        ({"rationale": "r"}, "$.verdict: missing"),
        ({"verdict": "unknown", "rationale": None},
         "$.rationale: expected str, got NoneType"),
        (["implemented"], "$: expected an object, got list"),
    ]:
        gateway = LlmGateway(
            provider=MockProvider(rules=lambda r: json.dumps(payload)),
            contract_retries=0)
        with pytest.raises(ContractViolation) as got:
            gateway.complete(request("m", None, "q", contract=JUDGMENT_CONTRACT),
                             "reasoning")
        assert str(got.value) == f"response violates contract: {message}"


# ----------------------------------------------------------- corrupt entries

@pytest.mark.parametrize("tamper", [
    lambda e: e.update(key="0" * 64),
    lambda e: e.update(response=["not", "text"]),
    lambda e: e.pop("usage"),
    lambda e: e["usage"].pop("completion_tokens"),
    lambda e: e["usage"].update(prompt_tokens="7"),
    lambda e: e["usage"].update(prompt_tokens=-1),
], ids=["key", "response", "no-usage", "no-completion", "string-count",
        "negative-count"])
def test_corrupt_cache_entry_is_a_miss_and_is_rewritten(tmp_path, caplog, tamper):
    req = request("m", None, "q", contract=OK_CONTRACT)
    _ok_gateway(tmp_path).complete(req, "graph")
    logs = EntryLogs(tmp_path)
    good = logs.entries()
    damaged = json.loads(logs.edit(req.fingerprint, tamper))
    damaged.pop("created_at")

    rerun = _ok_gateway(tmp_path)
    result = rerun.complete(req, "graph")
    assert not result.cached
    assert rerun.stats.provider_calls == 1
    assert "corrupt cache entry" in caplog.text
    # The reply was cached again, beside the damaged line.
    assert sorted(logs.entries(), key=str) == \
        sorted(good + [(req.fingerprint, damaged)], key=str)
    assert _ok_gateway(tmp_path).complete(req, "graph").cached


# ---------------------------------------------------------------- http path
#
# HttpProvider talks to a FaultServer (conftest) on 127.0.0.1; posts are
# counted on the server side.

_OK_BODY = json.dumps({"choices": [{"message": {"content": "hi"}}]}).encode()
OK_REPLY = http_reply(200, _OK_BODY)


_HEAD_100 = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n"


@pytest.mark.parametrize("answer, raised", [
    (Fault("reset"), "2 attempts"),
    (http_reply(500, "internal error"), "2 attempts"),
    # A malformed 200 reply is not posted again.
    (http_reply(200, "<html>not json</html>"), "malformed provider response"),
    (http_reply(200, json.dumps({"id": "x", "usage": {}})),
     "malformed provider response"),
    (Fault("reset", _HEAD_100 + b'{"choices"'), "2 attempts"),
    (Fault("reset", b"HTTP/1.1 401 No\r\nContent-Length: 100\r\n\r\nbad"),
     "2 attempts"),
    (http_reply(200, _OK_BODY[:10], {"Content-Length": "100"}), "2 attempts"),
    (b"garbage\r\n\r\n", "2 attempts"),
    (Fault("stall", _HEAD_100 + b'{"choices"'), "2 attempts"),
    # Not retried.
    (http_reply(204), "provider returned 204"),
], ids=["transport", "http-500", "non-json", "no-choices",
        "reset-mid-body", "reset-mid-error-body", "short-body",
        "bad-status-line", "slow-body", "http-204"])
def test_http_provider_failures_end_as_provider_errors(fault_server, answer,
                                                       raised):
    server = fault_server(answer)
    stalls = isinstance(answer, Fault) and answer.kind == "stall"
    provider = HttpProvider(base_url=server.url, api_key="k",
                            timeout=0.2 if stalls else 30)
    with pytest.raises(ProviderError):
        provider.complete(request("m", None, "q"))
    gateway = LlmGateway(provider=provider, max_retries=1, backoff_base=0.0)
    with pytest.raises(ProviderError, match=raised):
        gateway.complete(request("m", None, "q"), "graph")
    assert gateway.stats.provider_calls == (2 if raised == "2 attempts" else 1)
    assert len(server.posts) == 1 + gateway.stats.provider_calls


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_http_provider_follows_no_redirect(fault_server, status):
    # Following it would send the key to the host the Location names.
    elsewhere = fault_server(OK_REPLY)
    server = fault_server(http_reply(
        status, "moved", {"Location": f"{elsewhere.url}/chat/completions"}))
    gateway = LlmGateway(provider=HttpProvider(base_url=server.url, api_key="k"),
                         max_retries=3, backoff_base=0.0)
    with pytest.raises(ProviderError, match=f"provider returned {status}: moved"):
        gateway.complete(request("m", None, "q"), "graph")
    assert len(server.posts) == 1
    assert gateway.stats.provider_retries == 0
    assert elsewhere.posts == []


def test_http_provider_reads_text_and_usage(fault_server):
    server = fault_server(
        chat_reply("hi", usage={"prompt_tokens": 3, "completion_tokens": 1}))
    text, usage = HttpProvider(base_url=server.url, api_key="k").complete(
        request("m", "sys", "q", temperature=0.5))
    assert text == "hi"
    assert usage == Usage(3, 1)
    [post] = server.posts
    assert post.path == "/v1/chat/completions"
    assert post.headers["Content-Type"] == "application/json"
    assert post.headers["Authorization"] == "Bearer k"
    assert post.headers["User-Agent"] == f"deltaspec/{deltaspec.__version__}"
    assert post.body == {"model": "m", "temperature": 0.5, "messages": [
        {"role": "system", "content": "sys"}, {"role": "user", "content": "q"}]}


def test_http_provider_reads_a_chunked_reply(fault_server):
    server = fault_server(http_reply(200, b"".join(
        b"%x\r\n%s\r\n" % (len(part), part)
        for part in (_OK_BODY[:9], _OK_BODY[9:], b"")),
        {"Content-Length": None, "Transfer-Encoding": "chunked"}))
    assert HttpProvider(base_url=server.url).complete(request("m", None, "q")) \
        == ("hi", None)


@pytest.mark.parametrize("count", [-5, True, 1.5, "3", None])
def test_http_provider_rejects_bad_usage_counts(fault_server, tmp_path, count):
    server = fault_server(chat_reply(
        "hi", usage={"prompt_tokens": count, "completion_tokens": 1}))
    provider = HttpProvider(base_url=server.url)
    with pytest.raises(ProviderError, match="malformed provider response"):
        provider.complete(request("m", None, "q"))
    # Nothing is cached or recorded, so a rerun does not meet a bad entry.
    gateway = LlmGateway(provider=provider, cache_dir=tmp_path,
                         ledger=CostLedger(), max_retries=1, backoff_base=0.0)
    server.posts.clear()
    with pytest.raises(ProviderError, match="malformed provider response"):
        gateway.complete(request("m", None, "q"), "graph")
    # Not posted again: a resend gets no better-formed reply.
    assert len(server.posts) == 1
    assert list(tmp_path.iterdir()) == []
    assert gateway.ledger.token_total == 0


@pytest.mark.parametrize("response, usage, ok", [
    ("hi", None, True),
    ("hi", {"prompt_tokens": 3, "completion_tokens": 1}, True),
    (None, None, False),
    (7, None, False),
    (["hi"], None, False),
    ("hi", "nope", False),
    ("hi", [3, 1], False),
    ("hi", {"prompt_tokens": 3}, False),
], ids=["null-usage", "usage", "null-text", "number-text", "list-text",
        "usage-string", "usage-list", "usage-missing-count"])
def test_http_and_mock_providers_take_a_reply_by_one_rule(fault_server,
                                                         response, usage, ok):
    req = request("m", None, "q")
    server = fault_server(http_reply(200, json.dumps(
        {"choices": [{"message": {"content": response}}], "usage": usage})))
    providers = [HttpProvider(base_url=server.url), MockProvider(
        transcript={req.fingerprint: {"response": response, "usage": usage}})]
    for provider in providers:
        if ok:
            assert provider.complete(req) == \
                ("hi", None if usage is None else Usage(3, 1))
            continue
        with pytest.raises(ProviderError, match="malformed") as failed:
            provider.complete(req)
        assert not failed.value.retryable


@pytest.mark.parametrize("base_url", [
    "", "localhost:8000", "ftp://example.com/v1", "http://", "http:///v1",
    "http://127.0.0.1:port/v1", "http://127.0.0.1:99999/v1", "http://[::1/v1",
    "http://127.0.0.1/v\u00fc", "http://127.0.0.1/v 1",
])
def test_http_provider_rejects_a_bad_base_url(monkeypatch, base_url):
    message = ("is not an http:// or https:// URL with a host, in printable "
               "ASCII without spaces; set DELTASPEC_API_BASE")
    with pytest.raises(ProviderError, match=message):
        HttpProvider(base_url=base_url)
    monkeypatch.setenv("DELTASPEC_API_BASE", base_url)
    with pytest.raises(ProviderError, match=message):
        HttpProvider()


@pytest.mark.parametrize("api_key", ["k\u20ac", "k\nX-Injected: 1"],
                         ids=["not-latin-1", "newline"])
def test_http_provider_rejects_an_api_key_that_cannot_be_a_header(api_key):
    with pytest.raises(ProviderError, match="not printable ASCII"):
        HttpProvider(base_url="http://127.0.0.1:9/v1", api_key=api_key)


def test_http_completion_does_not_need_requests(fault_server, monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)  # import fails
    server = fault_server(OK_REPLY)
    assert HttpProvider(base_url=server.url).complete(request("m", None, "q")) \
        == ("hi", None)


@pytest.mark.parametrize("entry", [
    {"response": "t", "usage": {"prompt_tokens": -5, "completion_tokens": 1}},
    {"response": "t", "usage": {"prompt_tokens": "x", "completion_tokens": 1}},
    {"response": "t", "usage": {"prompt_tokens": True, "completion_tokens": 1}},
    {"response": "t", "usage": {"prompt_tokens": 1.5, "completion_tokens": 1}},
    {"response": "t", "usage": {"prompt_tokens": 1}},
    {"response": "t", "usage": "nope"},
    {"response": 7},
    {"usage": {"prompt_tokens": 1, "completion_tokens": 1}},
    3,
    None,
], ids=["negative", "string-count", "bool-count", "float-count",
        "missing-count", "usage-not-object", "response-not-string",
        "no-response", "number", "null"])
def test_mock_provider_rejects_malformed_transcript_entries(tmp_path, entry):
    req = request("m", None, "q")
    gateway = LlmGateway(
        provider=MockProvider(transcript={req.fingerprint: [entry]}),
        cache_dir=tmp_path, max_retries=3, backoff_base=0.0)
    with pytest.raises(ProviderError, match="malformed transcript entry"):
        gateway.complete(req, "graph")
    # Not retried, and nothing is cached or recorded.
    assert gateway.stats.provider_calls == 1
    assert list(tmp_path.iterdir()) == []
    assert gateway.ledger.token_total == 0


def test_http_client_errors_fail_on_the_first_post(fault_server):
    server = fault_server(http_reply(401, "bad key"))
    gateway = LlmGateway(provider=HttpProvider(base_url=server.url),
                         max_retries=3, backoff_base=0.0)
    with pytest.raises(ProviderError, match="401"):
        gateway.complete(request("m", None, "q"), "graph")
    assert len(server.posts) == 1
    assert gateway.stats.provider_retries == 0


def test_http_429_honors_retry_after(fault_server, monkeypatch):
    server = fault_server(http_reply(429, "slow down", {"Retry-After": "0"}),
                          OK_REPLY)
    sleeps = []
    monkeypatch.setattr(llm_gateway.time, "sleep", sleeps.append)
    gateway = LlmGateway(provider=HttpProvider(base_url=server.url),
                         backoff_base=0.5)
    assert gateway.complete(request("m", None, "q"), "graph").text == "hi"
    assert len(server.posts) == 2
    assert sleeps == []  # Retry-After: 0 overrides the 0.5 s backoff


def test_http_retry_after_is_capped(fault_server, monkeypatch):
    server = fault_server(
        http_reply(503, "maintenance", {"Retry-After": "86400"}))
    sleeps = []
    monkeypatch.setattr(llm_gateway.time, "sleep", sleeps.append)
    gateway = LlmGateway(provider=HttpProvider(base_url=server.url),
                         max_retries=1)
    with pytest.raises(ProviderError, match="2 attempts"):
        gateway.complete(request("m", None, "q"), "graph")
    assert sleeps == [llm_gateway.MAX_RETRY_AFTER_S]
    assert len(server.posts) == 2


def test_http_retry_after_reads_an_http_date(fault_server, monkeypatch):
    now = 1_700_000_000.0
    in_30s = format_datetime(datetime.fromtimestamp(now + 30, timezone.utc),
                             usegmt=True)
    server = fault_server(*[
        http_reply(503, "maintenance", {"Retry-After": value})
        for value in [in_30s,
                      "Sun, 06 Nov 1994 08:49:37 GMT",  # past: retry at once
                      "Fri, 31 Dec 9999 23:59:59 GMT",  # capped
                      "soon"]],  # unreadable: exponential backoff
        OK_REPLY)
    sleeps = []
    monkeypatch.setattr(llm_gateway.time, "sleep", sleeps.append)
    monkeypatch.setattr(llm_gateway.time, "time", lambda: now)
    # The jittered backoff sleeps its full upper bound.
    monkeypatch.setattr(llm_gateway.random, "uniform", lambda lo, hi: hi)
    gateway = LlmGateway(provider=HttpProvider(base_url=server.url),
                         max_retries=4, backoff_base=0.5)
    assert gateway.complete(request("m", None, "q"), "graph").text == "hi"
    assert len(server.posts) == 5
    assert sleeps == [30.0, llm_gateway.MAX_RETRY_AFTER_S, 4.0]


def test_backoff_without_retry_after_sleeps_a_full_jitter(fault_server,
                                                          monkeypatch):
    server = fault_server(http_reply(503, "busy"), http_reply(429, "slow"),
                          http_reply(503, "busy"), OK_REPLY)
    bounds = []
    sleeps = []

    def uniform(lo, hi):
        bounds.append((lo, hi))
        return hi / 4

    monkeypatch.setattr(llm_gateway.random, "uniform", uniform)
    monkeypatch.setattr(llm_gateway.time, "sleep", sleeps.append)
    gateway = LlmGateway(provider=HttpProvider(base_url=server.url),
                         max_retries=3, backoff_base=0.5)
    assert gateway.complete(request("m", None, "q"), "graph").text == "hi"
    # Each wait is drawn from [0, the exponential delay], not the delay.
    assert bounds == [(0, 0.5), (0, 1.0), (0, 2.0)]
    assert sleeps == [0.125, 0.25, 0.5]
    assert len(server.posts) == 4


def test_http_503_is_retried_max_retries_times(fault_server):
    server = fault_server(http_reply(503, "unavailable"))
    gateway = LlmGateway(provider=HttpProvider(base_url=server.url),
                         max_retries=2, backoff_base=0.0)
    with pytest.raises(ProviderError, match="3 attempts"):
        gateway.complete(request("m", None, "q"), "graph")
    assert len(server.posts) == 3
    assert gateway.stats.provider_retries == 2


# --------------------------------------------------------- cache collisions

def test_concurrent_writers_of_one_entry_leave_whole_lines(tmp_path):
    gateways = [LlmGateway(provider=MockProvider(rules=lambda r: "x"),
                           cache_dir=tmp_path) for _ in range(2)]
    fp = request("m", None, "q").fingerprint
    start = threading.Barrier(2)
    errors = []

    def write(gateway, text):
        start.wait()
        try:
            for _ in range(200):
                gateway._cache_put(fp, "m", text, Usage(1, 1))
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(g, t))
               for g, t in zip(gateways, ("one", "two"))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert errors == []
    # Each writer appended to a log of its own, so no line interleaves.
    logs = sorted(tmp_path.iterdir())
    assert len(logs) == 2
    for log in logs:
        lines = log.read_bytes().split(b"\n")
        assert lines.pop() == b""
        entries = [json.loads(line[65:]) for line in lines]
        assert len(entries) == 200
        assert all(line[:65] == fp.encode() + b" " for line in lines)
        assert len({e["response"] for e in entries}) == 1
        assert all(e["key"] == fp for e in entries)
    assert gateways[0]._cache_get(fp).response in ("one", "two")


# ---------------------------------------------------------------- batching

def _answer(req):
    """Deterministic replies: JSON for contract requests, prose otherwise."""
    user = req.messages[-1][1]
    if req.response_contract is not None:
        return json.dumps({"ok": len(user)})
    return f"answer to {user}"


def _cache_entries(root):
    return EntryLogs(root).entries()


_POOL = [request("m", "sys", f"q{i}", contract=OK_CONTRACT if i % 2 else None)
         for i in range(6)]


@settings(max_examples=40, deadline=None)
@given(batch=st.lists(st.sampled_from(range(len(_POOL))), max_size=12),
       seeded=st.sets(st.sampled_from(range(len(_POOL)))),
       cached=st.booleans())
def test_complete_all_matches_serial_complete(batch, seeded, cached):
    with tempfile.TemporaryDirectory() as serial_dir, \
            tempfile.TemporaryDirectory() as batch_dir:
        gateways = []
        for root in (serial_dir, batch_dir):
            warm = LlmGateway(provider=MockProvider(rules=_answer),
                              cache_dir=root)
            for i in sorted(seeded):
                warm.complete(_POOL[i], "graph")
            gateways.append(LlmGateway(provider=MockProvider(rules=_answer),
                                       cache_dir=root if cached else None))
        serial, batched = gateways
        reqs = [_POOL[i] for i in batch]

        expected = [serial.complete(r, "graph") for r in reqs]
        assert batched.complete_all(reqs, "graph") == expected
        assert batched.stats == serial.stats
        assert batched.ledger.as_dict() == serial.ledger.as_dict()
        assert _cache_entries(batch_dir) == _cache_entries(serial_dir)


def test_all_hit_batch_starts_no_thread(tmp_path, monkeypatch):
    LlmGateway(provider=MockProvider(rules=_answer),
               cache_dir=tmp_path).complete_all(_POOL, "graph")

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(llm_gateway, "ThreadPoolExecutor", no_pool)
    gateway = LlmGateway(provider=MockProvider(rules=_answer),
                         cache_dir=tmp_path)
    results = gateway.complete_all(_POOL + _POOL, "graph")
    assert all(r.cached for r in results)
    # A repeated hit is answered from memory: read, checked and recorded once.
    n = len(_POOL)
    assert all(results[n + i] is results[i] for i in range(n))
    assert (gateway.stats.requests, gateway.stats.cache_hits) == (n, n)
    assert gateway.ledger.token_total == \
        sum(_tokens(r.usage) for r in results[:n])
    # A lone distinct miss, however often it repeats, is fetched inline.
    fresh = request("m", None, "fresh")
    first, again = gateway.complete_all([fresh, fresh], "graph")
    assert not first.cached and again is first


class SleepyProvider:
    """Counts concurrent and per-fingerprint calls; each call sleeps."""

    def __init__(self, delay=0.05, fail=()):
        self.delay = delay
        self.fail = set(fail)
        self.calls: dict[str, int] = {}
        self.inflight = self.peak = 0
        self._lock = threading.Lock()

    def complete(self, req):
        with self._lock:
            self.calls[req.fingerprint] = self.calls.get(req.fingerprint, 0) + 1
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
        try:
            user = req.messages[-1][1]
            # Later requests finish first, so completion order is not
            # input order.
            time.sleep(self.delay / (1 + int(user[1:])))
            if user in self.fail:
                raise ProviderError(f"failed {user}")
            return _answer(req), None
        finally:
            with self._lock:
                self.inflight -= 1


@pytest.mark.parametrize("distinct", [2, 3, 8])
def test_misses_overlap_up_to_max_in_flight(tmp_path, distinct):
    provider = SleepyProvider()
    gateway = LlmGateway(provider=provider, cache_dir=tmp_path,
                         max_in_flight=4)
    reqs = [request("m", None, f"q{i % distinct}") for i in range(2 * distinct)]
    results = gateway.complete_all(reqs, "graph")
    assert provider.peak == min(4, distinct)
    assert sorted(provider.calls.values()) == [1] * distinct
    assert [r.cached for r in results] == [False] * (2 * distinct)
    # The later duplicates take their first occurrence's answer.
    assert all(results[distinct + i] is results[i] for i in range(distinct))
    assert gateway.stats.provider_calls == distinct
    assert gateway.stats.requests == distinct
    assert gateway.stats.cache_hits == 0


class ThreadLedger(CostLedger):
    """Notes the thread of each record() call."""

    def __init__(self):
        super().__init__()
        self.threads = []

    def record(self, *args):
        self.threads.append(threading.get_ident())
        super().record(*args)


@pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
def test_ledger_records_only_on_the_calling_thread(tmp_path, cached):
    ledger = ThreadLedger()
    provider = SleepyProvider()
    gateway = LlmGateway(provider=provider, ledger=ledger, max_in_flight=4,
                         cache_dir=tmp_path if cached else None)
    reqs = [request("m", None, f"q{i}") for i in (0, 1, 2, 3, 4, 5, 0)]
    outcomes = gateway.settle_all(reqs, "graph")
    assert all(isinstance(o, CompletionResult) for o in outcomes)
    assert provider.peak > 1  # the misses were fetched on pool threads
    # One record per distinct request, each on the calling thread.
    assert ledger.threads == [threading.get_ident()] * len(set(reqs))


def test_first_failure_in_input_order_is_raised(tmp_path):
    provider = SleepyProvider(fail={"q1", "q5"})
    gateway = LlmGateway(provider=provider, cache_dir=tmp_path,
                         max_retries=0)
    reqs = [request("m", None, f"q{i}") for i in range(7)]
    with pytest.raises(ProviderError, match="failed q1"):
        gateway.complete_all(reqs, "graph")
    outcomes = gateway.settle_all(reqs, "graph")
    assert isinstance(outcomes[0], CompletionResult)
    assert str(outcomes[1]).endswith("failed q1")
    # Past the first failure a slot holds a fetch already under way (q5
    # may fail first, as later requests finish first) or NotSent.
    for i, outcome in enumerate(outcomes[2:], start=2):
        assert isinstance(outcome, (CompletionResult, NotSent)) \
            or str(outcome).endswith(f"failed q{i}")


class AlwaysFailing:
    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, req):
        with self._lock:
            self.calls += 1
        time.sleep(0.001)
        raise ProviderError("down")


@settings(max_examples=60, deadline=None)
@given(batch=st.lists(st.sampled_from(range(len(_POOL))), max_size=12),
       failing=st.sets(st.sampled_from(range(len(_POOL)))),
       cached=st.booleans(), in_flight=st.sampled_from([1, 4]))
def test_failing_batch_matches_serial_complete_up_to_its_first_error(
        batch, failing, cached, in_flight):
    fail = {f"q{i}" for i in failing}
    with tempfile.TemporaryDirectory() as serial_dir, \
            tempfile.TemporaryDirectory() as batch_dir:
        serial, batched = (
            LlmGateway(provider=SleepyProvider(delay=0.004, fail=fail),
                       cache_dir=root if cached else None, max_retries=0,
                       max_in_flight=in_flight)
            for root in (serial_dir, batch_dir))
        reqs = [_POOL[i] for i in batch]
        expected = []
        for r in reqs:
            try:
                expected.append(serial.complete(r, "graph"))
            except ProviderError as exc:
                expected.append(exc)
                break
        outcomes = batched.settle_all(reqs, "graph")

    first = len(expected) - 1
    if not expected or not isinstance(expected[-1], Exception):
        assert outcomes == expected
        return
    assert outcomes[:first] == expected[:first]
    assert type(outcomes[first]) is ProviderError
    assert str(outcomes[first]) == str(expected[first])
    for i in range(first + 1, len(reqs)):
        if in_flight == 1 or (cached and reqs[i] in reqs[:i]):
            # Sent only after the failure was known: a serial loop or a
            # duplicate served from the cache once the fetches are done.
            assert isinstance(outcomes[i], NotSent)
        else:
            assert isinstance(outcomes[i], (CompletionResult, NotSent)) \
                or str(outcomes[i]).endswith(f"failed {reqs[i].messages[-1][1]}")
    if in_flight == 1:
        assert batched.stats.provider_calls == serial.stats.provider_calls


def test_failing_batch_stops_sending(tmp_path):
    provider = AlwaysFailing()
    gateway = LlmGateway(provider=provider, cache_dir=tmp_path,
                         max_retries=3, backoff_base=0.0, max_in_flight=4)
    reqs = [request("m", None, f"q{i}") for i in range(50)]
    with pytest.raises(ProviderError, match="after 4 attempts"):
        gateway.complete_all(reqs, "graph")
    # Each worker sends at most the one request it holds when the first
    # failure is known, with its retries; a serial loop sends 1 x 4.
    assert provider.calls <= 4 * (3 + 1)
    outcomes = gateway.settle_all(reqs, "graph")
    assert isinstance(outcomes[0], ProviderError)
    assert sum(isinstance(o, NotSent) for o in outcomes) >= 50 - 4


def test_failure_while_fetches_are_queued_stops_queueing(tmp_path):
    sent = []

    def answer(req):
        user = req.messages[-1][1]
        sent.append(user)
        if user == "q0":
            raise ProviderError("down", retryable=False)
        return _answer(req)

    gateway = LlmGateway(provider=MockProvider(rules=answer),
                         cache_dir=tmp_path, max_in_flight=2)
    reqs = [request("m", None, f"q{i}") for i in range(200)]
    outcomes = gateway.settle_all(reqs, "graph")
    assert str(outcomes[0]) == "down"
    # q0 fails at once, before most fetches are even queued: past it, at
    # most the request in the other worker's hand is sent.
    assert sent[0] == "q0" and len(sent) <= 2


def test_failing_hit_stops_the_batch(tmp_path):
    provider = SleepyProvider(delay=0.0)
    gateway = LlmGateway(provider=provider, cache_dir=tmp_path)
    bad = request("m", None, "q9", contract=OK_CONTRACT)
    gateway._cache_put(bad.fingerprint, "m", "not json", Usage(1, 1))
    reqs = [request("m", None, "q0"), bad, request("m", None, "q2")]
    with pytest.raises(ContractViolation):
        gateway.complete_all(reqs, "graph")
    # As serially: q0 is fetched, nothing after the failing hit is.
    assert provider.calls == {reqs[0].fingerprint: 1}
    assert gateway.stats.requests == 2


def test_repeat_after_its_first_ask_failed_is_not_sent(tmp_path):
    sent = []

    def answer(req):
        sent.append(req.messages[-1][1])
        if req.messages[-1][1] == "q1":
            raise ProviderError("q1 failed", retryable=False)
        return _answer(req)

    gateway = LlmGateway(provider=MockProvider(rules=answer),
                         cache_dir=tmp_path)
    q0, q1 = request("m", None, "q0"), request("m", None, "q1")
    outcomes = gateway.settle_all([q0, q1, q0, q1], "graph")
    assert [type(o) for o in outcomes] == \
        [CompletionResult, ProviderError, NotSent, NotSent]
    assert sorted(sent) == ["q0", "q1"]


def test_counters_survive_many_concurrent_misses(tmp_path):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        gateway = LlmGateway(provider=MockProvider(rules=_answer),
                             cache_dir=tmp_path, max_in_flight=8)
        reqs = [request("m", None, f"q{i}", contract=OK_CONTRACT)
                for i in range(300)]
        results = gateway.complete_all(reqs, "graph")
    finally:
        sys.setswitchinterval(interval)
    assert gateway.stats.provider_calls == 300
    assert gateway.stats.requests == 300
    assert gateway.ledger.token_total == sum(_tokens(r.usage) for r in results)
    assert sorted(EntryLogs(tmp_path).keys()) == \
        sorted(r.fingerprint for r in reqs)


def test_replies_are_stored_while_later_fetches_wait(tmp_path):
    reqs = [request("m", None, f"q{i}") for i in range(5)]
    first = reqs[0].fingerprint
    stored = threading.Event()
    seen = []

    def answer(req):
        if req.fingerprint == reqs[-1].fingerprint:
            # The last fetch holds its worker until the caller has stored
            # the first reply; storing only after the pool joins never does.
            seen.append(stored.wait(timeout=5)
                        and first in EntryLogs(tmp_path).keys())
        return _answer(req)

    gateway = LlmGateway(provider=MockProvider(rules=answer),
                         cache_dir=tmp_path, max_in_flight=2)
    put = gateway._cache_put

    def put_and_signal(fp, *args):
        put(fp, *args)
        if fp == first:
            stored.set()

    gateway._cache_put = put_and_signal
    results = gateway.complete_all(reqs, "graph")
    assert seen == [True]
    assert [r.cached for r in results] == [False] * len(reqs)
    assert len(_cache_entries(tmp_path)) == len(reqs)


def test_failed_cache_write_stops_later_sends(tmp_path):
    in_flight = 4
    reqs = [request("m", None, f"q{i}") for i in range(20)]
    fp = reqs[0].fingerprint
    gateway = LlmGateway(
        provider=MockProvider(rules=lambda r: time.sleep(0.02) or _answer(r)),
        cache_dir=tmp_path, max_in_flight=in_flight)
    put = gateway._cache.put

    def put_unless_q0(key, entry):
        if key == fp:  # only q0's line meets a full disk
            raise OSError(errno.ENOSPC, "No space left on device")
        put(key, entry)

    gateway._cache.put = put_unless_q0
    outcomes = gateway.settle_all(reqs, "graph")
    assert isinstance(outcomes[0], CacheWriteError)
    assert f"cannot write response cache entry {fp}: " in str(outcomes[0])
    # When q0's write fails, the workers hold at most max_in_flight requests,
    # and each may have taken one more since q0's reply came back.
    assert gateway.stats.provider_calls <= 2 * in_flight
    assert all(isinstance(o, (CompletionResult, NotSent)) for o in outcomes[1:])
    assert sum(isinstance(o, CompletionResult) for o in outcomes) == \
        gateway.stats.provider_calls - 1
    with pytest.raises(CacheWriteError):
        gateway.complete_all(reqs, "graph")


def test_failed_cache_write_at_a_file_root_stops_later_sends(tmp_path):
    in_flight = 4
    reqs = [request("m", None, f"q{i}") for i in range(20)]
    root = tmp_path / "cache"
    root.write_text("")  # read as no entries; no log can be made under it
    gateway = LlmGateway(
        provider=MockProvider(rules=lambda r: time.sleep(0.02) or _answer(r)),
        cache_dir=root, max_in_flight=in_flight)
    outcomes = gateway.settle_all(reqs, "graph")
    # q0 is always in a worker's hand when the first write fails, so it is
    # fetched, and its write fails too.
    assert isinstance(outcomes[0], CacheWriteError)
    assert f"cannot write response cache entry {reqs[0].fingerprint}: " \
        in str(outcomes[0])
    assert gateway.stats.provider_calls <= 2 * in_flight
    assert all(isinstance(o, (CacheWriteError, NotSent)) for o in outcomes)
    assert sum(isinstance(o, CacheWriteError) for o in outcomes) == \
        gateway.stats.provider_calls
    with pytest.raises(CacheWriteError):
        gateway.complete_all(reqs, "graph")
    assert root.read_text() == ""


def test_worker_interrupt_propagates_and_stops_the_batch(tmp_path):
    reqs = [request("m", None, f"q{i}") for i in range(20)]
    sent = []
    lock = threading.Lock()
    interrupted = threading.Event()

    def answer(req):
        user = req.messages[-1][1]
        with lock:
            sent.append(user)
        if user == "q1":
            interrupted.set()
            raise KeyboardInterrupt
        if user == "q0":
            # Still in hand when q1 is interrupted on the other worker.
            interrupted.wait(timeout=5)
            time.sleep(0.05)
        return _answer(req)

    gateway = LlmGateway(provider=MockProvider(rules=answer),
                         cache_dir=tmp_path, max_in_flight=2)
    raised = []

    def run():
        try:
            gateway.settle_all(reqs, "graph")
        except BaseException as exc:
            raised.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert [type(exc) for exc in raised] == [KeyboardInterrupt]
    assert sorted(sent) == ["q0", "q1"]


def test_interrupt_while_storing_a_reply_stops_the_batch(tmp_path):
    reqs = [request("m", None, f"q{i}") for i in range(10)]
    sent = []
    lock = threading.Lock()
    interrupted = threading.Event()

    def answer(req):
        user = req.messages[-1][1]
        with lock:
            sent.append(user)
        if user != "q0":
            # In hand until the caller is interrupted storing q0's reply.
            interrupted.wait(timeout=5)
            time.sleep(0.05)
        return _answer(req)

    gateway = LlmGateway(provider=MockProvider(rules=answer),
                         cache_dir=tmp_path, max_in_flight=2)

    def put(fp, *args):
        interrupted.set()
        raise KeyboardInterrupt

    gateway._cache_put = put
    before = set(threading.enumerate())
    raised = []

    def run():
        try:
            gateway.settle_all(reqs, "graph")
        except BaseException as exc:
            raised.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert [type(exc) for exc in raised] == [KeyboardInterrupt]
    # q1 was in hand, and q2 may have been taken once q0 came back; the
    # requests queued behind them are never sent.
    assert sorted(sent)[:2] == ["q0", "q1"] and set(sent) <= {"q0", "q1", "q2"}
    for thread in set(threading.enumerate()) - before:
        thread.join(timeout=5)
        assert not thread.is_alive()


# ------------------------------------------------------------- cache reads

def test_cache_without_logs_is_a_silent_miss(tmp_path, caplog):
    fp = request("m", None, "q").fingerprint
    for root in (tmp_path, tmp_path / "missing"):
        gateway = LlmGateway(provider=MockProvider(rules=lambda r: "x"),
                             cache_dir=root)
        assert gateway._cache_get(fp) is None
    assert caplog.records == []
    assert list(tmp_path.iterdir()) == []


def test_cache_path_that_is_a_directory_is_logged_and_refetched(tmp_path,
                                                                caplog):
    gateway = LlmGateway(provider=MockProvider(rules=lambda r: '{"ok": 1}'),
                         cache_dir=tmp_path)
    req = request("m", None, "q", contract=OK_CONTRACT)
    (tmp_path / "stray.log").mkdir()
    # The directory is never read as a log; the reply goes to a new one.
    [result] = gateway.settle_all([req], "graph")
    assert not result.cached
    assert gateway.stats.cache_hits == 0
    assert gateway.stats.provider_calls == 1
    assert "unreadable cache entry log stray.log" in caplog.text
    assert EntryLogs(tmp_path).keys() == [req.fingerprint]


def test_non_utf8_cache_entry_is_logged_and_refetched(tmp_path, caplog):
    req = request("m", None, "q", contract=OK_CONTRACT)
    fp = req.fingerprint
    _ok_gateway(tmp_path).complete(req, "graph")
    logs = EntryLogs(tmp_path)
    damaged = logs.tamper(fp, lambda body: body.decode("utf-8")
                          .encode("utf-16"))

    rerun = _ok_gateway(tmp_path)
    result = rerun.complete(req, "graph")
    assert not result.cached
    assert rerun.stats.provider_calls == 1
    assert f"dropping corrupt cache entry {fp}" in caplog.text
    bodies = [body for key, body in logs.lines() if key == fp]
    assert len(bodies) == 2 and damaged in bodies
    bodies.remove(damaged)
    assert json.loads(bodies[0].decode("utf-8"))["key"] == fp
    assert _ok_gateway(tmp_path).complete(req, "graph").cached
