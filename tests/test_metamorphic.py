"""Metamorphic relations (Chen, Cheung and Yiu, 1998): edits to the inputs
that must not move a verdict.

Each relation edits a copy of the mini corpus's code trees and runs every
stage cold on it. Its verdict values, and the functions each trial cites
(by name: the last ``:`` field of a fid, since an edit may move lines),
must equal those of a cold run on an unedited copy.
"""

import json
import re
import shutil
from pathlib import Path

import pytest

from conftest import FIXTURES, _materialize, run_stages

ISN = Path("toy-b") / "net" / "ipv4" / "tcp_isn.c"
CLOCK_UNITS = re.compile(r"static u32 tcp_clock_units\(void\)\n\{.*?\n\}\n\n",
                         re.DOTALL)


def move_clock_units_to_top(code: Path) -> None:
    """Relation 5: the order of functions within a file."""
    path = code / ISN
    text = path.read_text()
    function = CLOCK_UNITS.search(text)[0]
    path.write_text(function + text.replace(function, "", 1))


def add_spacer_between_functions(code: Path) -> None:
    """Relation 6: blank lines and a comment between two functions, the
    comment holding a brace and both quotes."""
    path = code / ISN
    text = path.read_text()
    end = CLOCK_UNITS.search(text).end()
    path.write_text(text[:end] + "\n\n/* spacer { ' \" */\n\n\n" + text[end:])


def add_unselected_file(code: Path) -> None:
    """Relation 7: a file that select_protocol_sources does not select. Its
    function reseeds the secret key, so indexing it would change toy-b's
    verdict on RFC 6528."""
    path = code / "toy-b" / "drivers" / "blink.c"
    path.parent.mkdir()
    path.write_text("/* Reseed the secret key on every blink. */\n"
                    "void blink_reseed_secret_key(void)\n"
                    "{\n"
                    "\tnet_secret_init();\n"
                    "}\n")


def cold_run(root: Path, edit=None) -> dict:
    """Verdict values and cited names per version and RFC, from a cold run
    on a copy of the code trees that ``edit`` changed."""
    code = root / "code"
    shutil.copytree(FIXTURES / "code", code)
    if edit is not None:
        edit(code)
    trees = {version: str(code / version) for version in ("toy-a", "toy-b")}
    cfg = run_stages(_materialize(FIXTURES / "mini_corpus", root,
                                  {"code_trees": trees}))
    matrix = json.loads((cfg.workdir / "verify" / "matrix.json").read_text())
    accuracy = json.loads((cfg.workdir / "eval" / "metrics.json").read_text())
    return {"accuracy": accuracy["metrics"]["accuracy"], "cells": {
        version: {rfc: (cell["value"],
                        [[fid.rsplit(":", 1)[1] for fid in trial["cited"]]
                         for trial in cell["trials"]])
                  for rfc, cell in row.items()}
        for version, row in matrix["versions"].items()}}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    return cold_run(tmp_path_factory.mktemp("base"))


@pytest.mark.parametrize("edit", [
    move_clock_units_to_top, add_spacer_between_functions, add_unselected_file,
], ids=["5-function-order", "6-spacer-comment", "7-unselected-file"])
def test_edit_moves_no_verdict_and_no_cited_function(base, edit, tmp_path):
    assert base["accuracy"] == 1.0
    assert cold_run(tmp_path, edit) == base
