"""Metamorphic relations (Chen, Cheung and Yiu, 1998): edits to the inputs
that must not move a verdict.

Each relation edits a copy of the mini corpus's inputs or its config and
runs every stage cold on it. A relation that only reorders inputs (1-3)
must leave every ``verify/`` byte equal to a cold run on an unedited copy.
For any other (4-7), the verdict values, and the functions each trial
cites (by name: the last ``:`` field of a fid, since an edit may move
lines), must equal the unedited run's, once renamed versions are mapped
back. Relation 8 changes how many provider calls are in flight, under a
provider whose replies arrive in a random order: every ``work/`` byte
outside ``report/``, and the set of cache keys, must equal a serial run's.
"""

import json
import random
import re
import shutil
import time
from pathlib import Path

import pytest

from conftest import FIXTURES, EntryLogs, _materialize, run_stages
from deltaspec.llm_gateway import MockProvider

INPUTS = ("chains", "code", "eval", "rfc", "triplets")
ISN = Path("code") / "toy-b" / "net" / "ipv4" / "tcp_isn.c"
CLOCK_UNITS = re.compile(r"static u32 tcp_clock_units\(void\)\n\{.*?\n\}\n\n",
                         re.DOTALL)


def reverse_rfc_sources(root: Path, config: dict) -> None:
    """Relation 1: the order of ``rfc_sources``."""
    config["rfc_sources"].reverse()


def reverse_code_trees(root: Path, config: dict) -> None:
    """Relation 2: the key order of ``code_trees``."""
    config["code_trees"] = dict(reversed(config["code_trees"].items()))


def reverse_triplet_lines(root: Path, config: dict) -> None:
    """Relation 3: the line order of both triplet files."""
    for name in ("descriptions", "patches"):
        path = root / "triplets" / f"{name}.jsonl"
        path.write_text("".join(reversed(path.read_text().splitlines(True))))


def rename_toy_b_to_sort_first(root: Path, config: dict) -> dict:
    """Relation 4: toy-b renamed to aa-first, which sorts before toy-a,
    in the config and the ground truth."""
    def renamed(d: dict) -> dict:
        return {"aa-first" if k == "toy-b" else k: v for k, v in d.items()}

    config["code_trees"] = renamed(config["code_trees"])
    truth = root / "eval" / "ground_truth.json"
    truth.write_text(json.dumps(renamed(json.loads(truth.read_text()))))
    return {"aa-first": "toy-b"}


def move_clock_units_to_top(root: Path, config: dict) -> None:
    """Relation 5: the order of functions within a file."""
    path = root / ISN
    text = path.read_text()
    function = CLOCK_UNITS.search(text)[0]
    path.write_text(function + text.replace(function, "", 1))


def add_spacer_between_functions(root: Path, config: dict) -> None:
    """Relation 6: blank lines and a comment between two functions, the
    comment holding a brace and both quotes."""
    path = root / ISN
    text = path.read_text()
    end = CLOCK_UNITS.search(text).end()
    path.write_text(text[:end] + "\n\n/* spacer { ' \" */\n\n\n" + text[end:])


def add_unselected_file(root: Path, config: dict) -> None:
    """Relation 7: a file that select_protocol_sources does not select. Its
    function reseeds the secret key, so indexing it would change toy-b's
    verdict on RFC 6528."""
    path = root / "code" / "toy-b" / "drivers" / "blink.c"
    path.parent.mkdir()
    path.write_text("/* Reseed the secret key on every blink. */\n"
                    "void blink_reseed_secret_key(void)\n"
                    "{\n"
                    "\tnet_secret_init();\n"
                    "}\n")


def cold_run(root: Path, edit=None) -> dict:
    """Verdict values and cited names per version and RFC, from a cold run
    under ``root`` on a copy of the inputs and the config that ``edit``
    changed. An edit that renames versions returns the old name of each."""
    for name in INPUTS:
        shutil.copytree(FIXTURES / name, root / name)
    path = _materialize(root / "mini_corpus", root)
    config = json.loads(path.read_text())
    old = (edit(root, config) if edit else None) or {}
    path.write_text(json.dumps(config, indent=1))
    cfg = run_stages(path)
    matrix = json.loads((cfg.workdir / "verify" / "matrix.json").read_text())
    accuracy = json.loads((cfg.workdir / "eval" / "metrics.json").read_text())
    return {"accuracy": accuracy["metrics"]["accuracy"], "cells": {
        old.get(version, version): {
            rfc: (cell["value"],
                  [[fid.rsplit(":", 1)[1] for fid in trial["cited"]]
                   for trial in cell["trials"]])
            for rfc, cell in row.items()}
        for version, row in matrix["versions"].items()}}


def verify_files(root: Path) -> dict:
    """The bytes of each file a run under ``root`` wrote to ``verify/``."""
    verify = root / "work" / "verify"
    return {str(p.relative_to(verify)): p.read_bytes()
            for p in sorted(verify.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def base_root(tmp_path_factory):
    return tmp_path_factory.mktemp("base")


@pytest.fixture(scope="module")
def base(base_root):
    return cold_run(base_root)


@pytest.mark.parametrize("edit", [
    reverse_rfc_sources, reverse_code_trees, reverse_triplet_lines,
], ids=["1-rfc-source-order", "2-code-tree-order", "3-triplet-line-order"])
def test_reordered_inputs_leave_every_verify_byte(base, base_root, edit,
                                                  tmp_path):
    assert base["accuracy"] == 1.0
    cold_run(tmp_path, edit)
    assert verify_files(tmp_path) == verify_files(base_root)


@pytest.mark.parametrize("edit", [
    rename_toy_b_to_sort_first,
    move_clock_units_to_top, add_spacer_between_functions, add_unselected_file,
], ids=["4-version-renamed", "5-function-order", "6-spacer-comment",
        "7-unselected-file"])
def test_edit_moves_no_verdict_and_no_cited_function(base, edit, tmp_path):
    assert base["accuracy"] == 1.0
    assert cold_run(tmp_path, edit) == base


def set_max_in_flight(count: int):
    """Relation 8: the config's ``max_in_flight``."""
    def edit(root: Path, config: dict) -> None:
        config["max_in_flight"] = count
    return edit


def run_files(root: Path) -> dict:
    """The bytes of each file a run under ``root`` wrote to ``work/``,
    ``report/`` aside (its report carries a timestamp), and the keys of
    both caches."""
    work = root / "work"
    files = {str(p.relative_to(work)): p.read_bytes()
             for p in sorted(work.rglob("*"))
             if p.is_file() and p.relative_to(work).parts[0] != "report"}
    keys = {name: set(EntryLogs(root / "cache" / name).keys())
            for name in ("", "ingest")}
    return {"files": files, "cache_keys": keys}


@pytest.fixture(scope="module")
def jittered_provider():
    """MockProvider.complete with a delay of 0-4 ms per call, seeded by the
    request's fingerprint, so concurrent calls finish out of input order."""
    real = MockProvider.complete

    def complete(provider, req):
        time.sleep(random.Random(req.fingerprint).uniform(0, 0.004))
        return real(provider, req)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MockProvider, "complete", complete)
        yield


@pytest.fixture(scope="module")
def serial_run(jittered_provider, tmp_path_factory):
    root = tmp_path_factory.mktemp("serial")
    cold_run(root, set_max_in_flight(1))
    return run_files(root)


@pytest.mark.parametrize("count", [4, 16, 32])
def test_calls_in_flight_leave_every_work_byte(serial_run, jittered_provider,
                                               count, tmp_path):
    assert serial_run["files"] and all(serial_run["cache_keys"].values())
    cold_run(tmp_path, set_max_in_flight(count))
    assert run_files(tmp_path) == serial_run
