"""Tests for C source selection, function extraction, and extraction stats."""

import pytest

from conftest import FIXTURES
from deltaspec.code_ingest import (
    CodeFunction,
    ExtractionStats,
    build_index,
    compute_extraction_stats,
    extract_functions,
    mask_comments_and_strings,
    select_protocol_sources,
    SourceFile,
)
from deltaspec.errors import EmptyIndex, InvalidInputs, IoError

TOY_A = FIXTURES / "code" / "toy-a"
STUBS = FIXTURES / "code" / "stubs"
ANNOTATED = FIXTURES / "annotated" / "annotated.c"


# ---------------------------------------------------------------- selection

def test_selection_keeps_net_tree_and_drops_lib():
    files = select_protocol_sources(TOY_A, "toy-a")
    assert [f.path for f in files] == [
        "net/ipv4/tcp_input.c",
        "net/ipv4/tcp_isn.c",
    ]
    assert all(f.version == "toy-a" for f in files)


def test_selection_keyword_rescues_files_outside_globs(tmp_path):
    (tmp_path / "drivers").mkdir()
    (tmp_path / "drivers" / "tcp_offload.c").write_text("int x;\n")
    (tmp_path / "drivers" / "spi_bus.c").write_text("int y;\n")
    files = select_protocol_sources(tmp_path, "v")
    assert [f.path for f in files] == ["drivers/tcp_offload.c"]


def test_selection_missing_root_raises():
    with pytest.raises(IoError):
        select_protocol_sources(TOY_A / "nope", "toy-a")


# ------------------------------------------------------------------ masking

def test_masking_keeps_geometry_and_hides_brace_noise():
    src = (
        'int f(void)\n'
        '{\n'
        '    /* { nested } comment */\n'
        '    const char *s = "{\\"}";\n'
        '    char c = \'{\';\n'
        '    // } trailing\n'
        '    return 0;\n'
        '}\n'
    )
    masked = mask_comments_and_strings(src)
    assert len(masked) == len(src)
    assert [i for i, ch in enumerate(masked) if ch == "\n"] == \
        [i for i, ch in enumerate(src) if ch == "\n"]
    # Only the real block braces survive.
    assert masked.count("{") == 1
    assert masked.count("}") == 1
    assert "comment" not in masked
    assert "trailing" not in masked


def test_masking_is_idempotent():
    src = ANNOTATED.read_text()
    once = mask_comments_and_strings(src)
    assert mask_comments_and_strings(once) == once


def test_spliced_string_literal_keeps_lines_and_strict_tier():
    src = (
        'const char *banner(void)\n'
        '{\n'
        '    return "one \\\n'
        'two } three";\n'
        '}\n'
    )
    masked = mask_comments_and_strings(src)
    assert masked.count("\n") == src.count("\n")
    assert "}" not in masked.splitlines()[3]
    source = SourceFile(path="banner.c", version="v", content=src,
                        line_count=src.count("\n"), token_count=0)
    (fn,) = extract_functions(source)
    assert fn.name == "banner"
    assert fn.extraction_tier == "syntax-tree"
    assert (fn.span.line_start, fn.span.line_end) == (1, 5)


# --------------------------------------------------------------- extraction

def test_toy_tree_extracts_every_function_with_types():
    index = build_index(TOY_A, "toy-a", stub_headers=STUBS)
    assert index.total_functions == 6
    assert index.total_lines == 49
    assert {f.name for f in index.functions} == {
        "tcp_isn_hash", "net_secret_init", "isn_reseed_check",
        "tcp_init_sequence", "tcp_validate_reset", "tcp_send_challenge_ack",
    }
    assert all(f.extraction_tier == "syntax-tree" for f in index.functions)
    hash_fn = index.by_fid()["net/ipv4/tcp_isn.c:12:tcp_isn_hash"]
    assert [p[0] for p in hash_fn.params] == \
        ["saddr", "daddr", "sport", "dport", "key"]


def test_fid_encodes_file_line_and_name():
    index = build_index(TOY_A, "toy-a", stub_headers=STUBS)
    for fn in index.functions:
        assert fn.fid == f"{fn.file}:{fn.span.line_start}:{fn.name}"
        assert fn.line_count == fn.span.line_end - fn.span.line_start + 1


def test_annotated_corpus_tiers_and_docs():
    source = SourceFile.load(ANNOTATED.parent, ANNOTATED.name, "annotated")
    functions = extract_functions(source)
    by_name = {f.name: f for f in functions}
    assert len(functions) == 11

    fallback = {n for n, f in by_name.items()
                if f.extraction_tier == "brace-fallback"}
    assert fallback == {"probe_interval_ms", "tcp_rx_hook"}

    clamp = by_name["clamp_add"]
    assert [p[0] for p in clamp.params] == ["a", "b"]
    assert all("unsigned int" in p[1] for p in clamp.params)

    assert "hard ceiling" in by_name["bucket_refill"].doc_comment
    assert "note_drop" in by_name and by_name["note_drop"].doc_comment
    # Fallback extraction knows the span but not the parameter types.
    assert by_name["tcp_rx_hook"].params == ()


def test_function_roundtrips_through_dict():
    source = SourceFile.load(ANNOTATED.parent, ANNOTATED.name, "annotated")
    for fn in extract_functions(source):
        assert CodeFunction.from_dict(fn.to_dict()) == fn


# -------------------------------------------------------------------- stats

def test_stats_round_to_one_decimal():
    stats = ExtractionStats.from_raw("x", 200, 10000, 13.04, 851.06)
    assert stats.function_extraction_rate == 6.5
    assert stats.line_extraction_rate == 8.5
    assert stats.selected_functions == 13.0
    assert stats.selected_lines == 851.1


def test_stats_reject_degenerate_inputs():
    with pytest.raises(EmptyIndex):
        ExtractionStats.from_raw("x", 0, 100, 1, 1)
    with pytest.raises(EmptyIndex):
        ExtractionStats.from_raw("x", 10, 0, 1, 1)
    with pytest.raises(InvalidInputs):
        ExtractionStats.from_raw("x", 10, 100, -1, 1)


def test_corpus_stats_average_per_rfc_selections():
    index = build_index(TOY_A, "toy-a", stub_headers=STUBS)
    by_fid = index.by_fid()
    pick_a = ["net/ipv4/tcp_isn.c:12:tcp_isn_hash",
              "net/ipv4/tcp_isn.c:42:tcp_init_sequence"]
    pick_b = ["net/ipv4/tcp_isn.c:23:net_secret_init"]
    stats = compute_extraction_stats(index, {"793": pick_a, "1948": pick_b})
    assert stats.selected_functions == 1.5
    line_means = (sum(by_fid[f].line_count for f in pick_a) +
                  sum(by_fid[f].line_count for f in pick_b)) / 2
    assert stats.selected_lines == round(line_means, 1)
    assert stats.function_extraction_rate == round(100 * 1.5 / 6, 1)

    with pytest.raises(InvalidInputs):
        compute_extraction_stats(index, {})
