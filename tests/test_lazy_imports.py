"""No run needs jsonschema, and pycparser loads only where a run uses it: a
warm rerun does not import it, and the ingest cache key does not need it
loaded. A run on the mock provider loads no HTTP or TLS code."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import REPO, EntryLogs
from deltaspec.code_ingest import EXTRACTOR_VERSION, SourceFile, _IngestCache
from deltaspec.report_cli import pipeline

STAGES = tuple(stage.name for stage in pipeline.STAGES)

# Runs the stages named after the config path through cli.main in one fresh
# interpreter where importing jsonschema fails, then one gateway call whose
# first reply breaks its contract and is retried. Prints which of pycparser
# and the HTTP modules are loaded after each stage.
_PROBE = """
import json, sys
sys.modules["jsonschema"] = None
from deltaspec.diff_verifier import JUDGMENT_CONTRACT
from deltaspec.llm_gateway import LlmGateway, MockProvider, request
from deltaspec.report_cli.cli import main
loaded = {}
for stage in sys.argv[2:]:
    if main([stage, "--config", sys.argv[1]]) != 0:
        sys.exit(f"{stage} failed")
    loaded[stage] = sorted({"pycparser", "urllib.request", "http.client",
                            "ssl", "requests"} & set(sys.modules))
replies = iter(['{"verdict": 1}', '{"verdict": "unknown"}'])
gateway = LlmGateway(MockProvider(rules=lambda r: next(replies)))
gateway.complete(request("m", None, "q", contract=JUDGMENT_CONTRACT),
                 "reasoning")
assert gateway.stats.contract_retries == 1
print(json.dumps(loaded))
"""


def _loaded_after_each_stage(cfg_path: Path, stages) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(cfg_path), *stages],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_warm_stages_import_neither_jsonschema_nor_pycparser(mini_config):
    # Cold or warm, no stage on the mock provider loads urllib.request,
    # http.client, ssl or requests.
    cfg_path = mini_config()  # empty response and ingest caches
    cold = _loaded_after_each_stage(cfg_path, STAGES)
    assert cold["ingest-rfc"] == []
    assert cold["ingest-code"] == ["pycparser"]  # every file missed
    assert cold["report"] == ["pycparser"]  # all that the cold run loaded
    cache = json.loads(cfg_path.read_text())["cache_dir"]
    assert EntryLogs(Path(cache) / "ingest").keys()

    warm = _loaded_after_each_stage(cfg_path, STAGES)
    assert warm == {stage: [] for stage in STAGES}


def test_ingest_cache_key_is_unchanged():
    prelude = "typedef unsigned int u32;\n"
    source = SourceFile(path="net/ipv4/tcp_isn.c", version="v",
                        content="u32 f(u32 x)\n{\n    return x;\n}\n",
                        line_count=4, token_count=0)
    key = _IngestCache(Path("cache"), prelude).key(source)
    # The key as it was built when the salt read the imported module's
    # version.
    import pycparser
    canonical = json.dumps([source.path, source.content,
                            hashlib.sha256(prelude.encode()).hexdigest(),
                            EXTRACTOR_VERSION, pycparser.__version__])
    assert key == hashlib.sha256(canonical.encode()).hexdigest()
    if pycparser.__version__ == "3.00":  # the version the digest was taken at
        assert key == \
            "18dad9feb6c7bb973d102991f36b74fbf25f557e1372682b91ad12aab4012aab"


@pytest.mark.parametrize("origin", [None, "missing.py", "no_version.py"])
def test_pycparser_version_falls_back_to_the_module(monkeypatch, tmp_path,
                                                    origin):
    import pycparser
    from deltaspec import code_ingest
    (tmp_path / "no_version.py").write_text("version = '0'\n")
    spec = None if origin is None else SimpleNamespace(
        origin=str(tmp_path / origin))
    monkeypatch.setattr(code_ingest.importlib.util, "find_spec",
                        lambda name: spec)
    read = code_ingest._pycparser_version
    read.cache_clear()
    try:
        assert read() == pycparser.__version__
    finally:
        read.cache_clear()
