"""Tests for the artifact readers."""

import pytest

from deltaspec.errors import MissingArtifact
from deltaspec.fsio import read_jsonl


def test_jsonl_decode_error_names_the_file_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n{"b": ')
    with pytest.raises(MissingArtifact) as err:
        read_jsonl(path)
    assert str(err.value) == (f"cannot read {path}: line 3: Expecting value: "
                              "line 1 column 7 (char 6)")


def test_jsonl_record_of_the_wrong_shape_names_the_file_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n{"b": 2}\n')
    with pytest.raises(MissingArtifact) as err:
        read_jsonl(path, lambda row: row["a"])
    assert str(err.value) == \
        f"cannot read {path}: line 2: unexpected shape (KeyError: 'a')"

