import json
import socket
import socketserver
import struct
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from typing import NamedTuple

import pytest

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

_PATH_KEYS = ("rfc_metadata", "stub_headers", "ground_truth")


def _materialize(base: Path, target: Path, overrides: dict | None = None) -> Path:
    """Write a copy of the bundled mini-corpus config with absolute input
    paths and workdir/cache relocated under ``target``."""
    raw = json.loads((FIXTURES / "mini_corpus" / "config.json").read_text())

    def absolutize(rel: str) -> str:
        return str((base / rel).resolve())

    raw["workdir"] = str(target / "work")
    raw["cache_dir"] = str(target / "cache")
    raw["rfc_sources"] = [absolutize(s) for s in raw["rfc_sources"]]
    raw["code_trees"] = {k: absolutize(v) for k, v in raw["code_trees"].items()}
    for key in _PATH_KEYS:
        if raw.get(key):
            raw[key] = absolutize(raw[key])
    trip = raw.get("triplets", {})
    for key in ("descriptions", "patches"):
        if trip.get(key):
            trip[key] = absolutize(trip[key])
    if overrides:
        raw.update(overrides)
    target.mkdir(parents=True, exist_ok=True)
    path = target / "config.json"
    path.write_text(json.dumps(raw, indent=1))
    return path


@pytest.fixture
def mini_config(tmp_path):
    """Factory: mini_config("run1") -> config path with its own work/cache."""

    def factory(dirname: str = "run", **overrides) -> Path:
        return _materialize(FIXTURES / "mini_corpus", tmp_path / dirname,
                            overrides or None)

    return factory


@pytest.fixture(autouse=True)
def _close_gateways(monkeypatch):
    """Close every gateway a test builds once the test ends, as each stage
    closes its own, so no cache log is left open for the collector."""
    from deltaspec.llm_gateway import LlmGateway

    built = []
    init = LlmGateway.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(LlmGateway, "__init__", tracked_init)
    yield
    for gateway in built:
        gateway.close()


class EntryLogs:
    """The lines an EntryStore appended to its logs under ``root``: one
    ``<key> <json>\\n`` line per put, in ``<root>/*.log``."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def logs(self) -> list[Path]:
        return sorted(p for p in self.root.glob("*.log") if p.is_file())

    def lines(self) -> list[tuple[str, bytes]]:
        """(key, body) of every line, in log-name order; the body is the
        bytes after ``<key> ``, without the newline."""
        return [(line[:64].decode("ascii"), line[65:])
                for path in self.logs()
                for line in path.read_bytes().splitlines()]

    def keys(self) -> list[str]:
        return [key for key, _ in self.lines()]

    def entries(self) -> list[tuple[str, dict]]:
        """(key, parsed body) of every line, sorted, without the write
        time, so two stores that cached the same replies compare equal."""
        out = []
        for key, body in self.lines():
            entry = json.loads(body)
            entry.pop("created_at", None)
            out.append((key, entry))
        return sorted(out, key=lambda kv: json.dumps(kv, sort_keys=True))

    def tamper(self, key: str, change) -> bytes:
        """Rewrite the one line of ``key`` in place, its body (bytes)
        becoming ``change(body)``. Returns the new body."""
        prefix = key.encode("ascii") + b" "
        found = [(path, lines, i) for path in self.logs()
                 for lines in [path.read_bytes().split(b"\n")]
                 for i, line in enumerate(lines) if line.startswith(prefix)]
        assert len(found) == 1, f"{len(found)} lines for {key}"
        path, lines, i = found[0]
        body = change(lines[i][len(prefix):])
        lines[i] = prefix + body
        path.write_bytes(b"\n".join(lines))
        return body

    def edit(self, key: str, change) -> bytes:
        """tamper() with ``change`` editing the parsed entry in place."""
        def apply(body):
            entry = json.loads(body)
            change(entry)
            return json.dumps(entry).encode("utf-8")
        return self.tamper(key, apply)


def run_stages(cfg_path: Path, *, through: str = "eval"):
    """Run the stages of pipeline.STAGES in process, in order, stopping
    after ``through``. Returns the loaded config."""
    from deltaspec.report_cli import pipeline
    from deltaspec.report_cli.config import load_config

    cfg = load_config(cfg_path)
    names = [stage.name for stage in pipeline.STAGES]
    for stage in pipeline.STAGES[:names.index(through) + 1]:
        stage.run(cfg)
    return cfg


# --- loopback provider -------------------------------------------------------

def http_reply(status: int, body: str | bytes = b"",
               headers: dict | None = None) -> bytes:
    """A whole HTTP/1.1 response. ``headers`` adds to and overrides the
    default Content-Length and Connection: close; a None value drops one."""
    body = body.encode("utf-8") if isinstance(body, str) else body
    fields = {"Content-Length": str(len(body)), "Connection": "close",
              **(headers or {})}
    head = [f"HTTP/1.1 {status} Scripted"] + [
        f"{name}: {value}" for name, value in fields.items() if value is not None]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def chat_reply(content, usage=None) -> bytes:
    """An OpenAI-style chat completion carrying ``content``, and ``usage``
    when it is given."""
    body = {"choices": [{"message": {"content": content}}]}
    if usage is not None:
        body["usage"] = usage
    return http_reply(200, json.dumps(body))


class Fault(NamedTuple):
    """Write ``sent``, then end the connection the way ``kind`` says:
    "reset" aborts it (RST), "stall" holds it open until the server stops."""
    kind: str
    sent: bytes = b""


class Post(NamedTuple):
    path: str
    headers: dict
    body: dict


class _ScriptedHandler(BaseHTTPRequestHandler):
    disable_nagle_algorithm = True

    def do_POST(self):
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        post = Post(self.path, dict(self.headers),
                    json.loads(self.rfile.read(length)) if length else None)
        with server.lock:
            server.posts.append(post)
            script = server.script
            if callable(script):
                answer = script(post)
            else:
                answer = script.popleft() if len(script) > 1 else script[0]
        fault = answer if isinstance(answer, Fault) else Fault("close", answer)
        self.wfile.write(fault.sent)  # one write per reply
        if fault.kind == "reset":
            self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                       struct.pack("ii", 1, 0))
            self.connection.close()  # closes for real once rfile is closed
        elif fault.kind == "stall":
            # An Event, not time.sleep: tests patch the time module.
            server.stopping.wait(30)
        self.close_connection = True

    do_GET = do_POST  # a followed redirect arrives as a GET: keep it too

    def log_message(self, format, *args):
        pass


class FaultServer(socketserver.ThreadingTCPServer):
    """A chat endpoint on 127.0.0.1 that answers the n-th POST with the n-th
    item of the script, the last item repeating; an item is a raw response
    (see http_reply) or a Fault. A script that is one callable maps each
    Post to its answer instead. Every request is kept in ``posts``; a GET,
    which only a followed redirect sends, has the body None."""

    daemon_threads = True

    def __init__(self, *script):
        super().__init__(("127.0.0.1", 0), _ScriptedHandler)
        self.script = script[0] if len(script) == 1 and callable(script[0]) \
            else deque(script)
        self.posts: list[Post] = []
        self.lock = threading.Lock()
        self.stopping = threading.Event()
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1"
        threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.05},
                         daemon=True).start()

    def stop(self) -> None:
        self.stopping.set()
        self.shutdown()
        self.server_close()


@pytest.fixture
def fault_server(monkeypatch):
    """Factory: fault_server(*script) -> a running FaultServer, stopped when
    the test ends. A proxy set in the environment is bypassed for it."""
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(name, "127.0.0.1")
    started = []

    def factory(*script) -> FaultServer:
        started.append(FaultServer(*script))
        return started[-1]

    yield factory
    for server in started:
        server.stop()


# --- acceptance summary -----------------------------------------------------

_acceptance: dict[int, tuple[bool, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, text): acceptance criterion check")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    mark = item.get_closest_marker("acceptance")
    if mark is not None:
        num, text = mark.args
        _acceptance[num] = (report.passed, text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_acceptance):
        passed, text = _acceptance[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num:2d} {status}: {text}")
