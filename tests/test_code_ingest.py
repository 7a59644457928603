"""Tests for C source selection, function extraction, the ingest cache, and
extraction stats."""

import pycparser
import pytest
from pycparser import c_ast
from pycparser.c_parser import ParseError

from conftest import FIXTURES, EntryLogs
from deltaspec import code_ingest, fsio
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
TOY_B = FIXTURES / "code" / "toy-b"
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


@pytest.mark.parametrize("src,masked,directives_masked", [
    # A literal left open runs to the end, even after a lone backslash.
    ('s = "ab\\', 's = "   ', 's = "   '),
    # Read one escape pair at a time: "\\\\" is a pair, the newline stays.
    ('s = "a\\\\\nb";', 's = "   \n ";', 's = "   \n ";'),
    # A backslash-newline in a literal is a line splice and stays.
    ('s = "a\\\nb";', 's = " \\\n ";', 's = " \\\n ";'),
    ('s = "ab\\"', 's = "    ', 's = "    '),
    # A // comment ends at the newline, even after a trailing backslash.
    ('// x \\\nint y;', '      \nint y;', '      \nint y;'),
    ('/* open {', '         ', '         '),
    ('c = \'"\'; s = "it\'s";', 'c = \' \'; s = "    ";',
     'c = \' \'; s = "    ";'),
    ('\t#define M(a) \\\n\t\t((a) + 1)\nint f(void) { return 0; }',
     '\t#define M(a) \\\n\t\t((a) + 1)\nint f(void) { return 0; }',
     '               \n           \nint f(void) { return 0; }'),
    (" \t#if X /* { */\nint g(void) { return '}'; }",
     " \t#if X        \nint g(void) { return ' '; }",
     "               \nint g(void) { return ' '; }"),
], ids=["open-lone-backslash", "escaped-backslash-newline", "splice",
        "open-escaped-quote", "line-comment-backslash", "open-block-comment",
        "quote-in-char", "tab-define-continued", "directive-with-comment"])
def test_masks_of_edge_cases(src, masked, directives_masked):
    assert mask_comments_and_strings(src) == masked
    assert code_ingest._mask_preprocessor(masked) == directives_masked


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


@pytest.mark.parametrize("src, functions, dropped_at", [
    # g's parameter list would open inside f's region.
    (";g (int f(void) { } y) { }", [("f", 1, 19)], 23),
    # Both #ifdef branches close f's parameter list; directive masking
    # leaves two ')' for one '(', so no list opens after h.
    ("int h(void) { return 0; }\nstatic int f(int a\n#ifdef X\n, int b)\n"
     "#else\n)\n#endif\n{ return a; }\n", [("h", 0, 25)], 78),
], ids=["overlap", "ifdef"])
def test_no_two_regions_overlap_and_a_dropped_body_is_logged(
        caplog, src, functions, dropped_at):
    source = SourceFile(path="overlap.c", version="v", content=src,
                        line_count=src.count("\n"), token_count=0)
    with caplog.at_level("DEBUG", logger="deltaspec.code_ingest"):
        found = extract_functions(source)
    assert [(f.name, f.span.char_start, f.span.char_end)
            for f in found] == functions
    assert f"dropped the body at offset {dropped_at} in overlap.c: no " \
        "parameter list opens after the previous region" in caplog.messages


# ------------------------------------------------- tier 1 against a reference

def reference_tiers(source, stub_headers):
    """(tier, name, params) per candidate region, parsing the masked prelude
    and the region together with a fresh parser each time."""
    src = source.content
    comment_free = mask_comments_and_strings(src)
    masked = code_ingest._mask_preprocessor(comment_free)
    prelude = code_ingest._mask_preprocessor(mask_comments_and_strings(
        code_ingest._load_prelude(stub_headers)))
    out = []
    for cand in code_ingest._scan_candidates(masked):
        region = comment_free[cand.decl_start:cand.close_brace + 1]
        region = region.replace("\\\n", "")
        try:
            ext = pycparser.CParser().parse(
                prelude + "\n" + region if prelude else region).ext
        except (ParseError, AssertionError):
            ext = []
        funcdef = next((n for n in ext if isinstance(n, c_ast.FuncDef)
                        and n.decl.name == cand.name), None)
        if funcdef is None:
            out.append(("brace-fallback",
                        code_ingest._fallback_name(masked, cand), ()))
        else:
            out.append(("syntax-tree", cand.name, tuple(
                (n, code_ingest._strip_declname(t, n))
                for n, t in code_ingest._param_pairs(funcdef))))
    return out


def new_tiers(source, stub_headers):
    return [(f.extraction_tier, f.name, f.params)
            for f in extract_functions(source, stub_headers=stub_headers)]


BUNDLED_SOURCES = [f for tree in (TOY_A, TOY_B)
                   for f in select_protocol_sources(tree, tree.name)] + \
    [SourceFile.load(ANNOTATED.parent, ANNOTATED.name, "annotated")]


@pytest.mark.parametrize("stubs", [STUBS, None], ids=["stubs", "no-stubs"])
@pytest.mark.parametrize("source", BUNDLED_SOURCES, ids=lambda f: f.path)
def test_tier1_matches_prelude_plus_region_reference(source, stubs):
    assert new_tiers(source, stubs) == reference_tiers(source, stubs)


def _stub_dir(tmp_path, text):
    stubs = tmp_path / "stubs"
    stubs.mkdir()
    (stubs / "types.h").write_text(text)
    return stubs


def test_prelude_that_does_not_parse_sends_every_region_to_fallback(tmp_path):
    stubs = _stub_dir(tmp_path, (STUBS / "types.h").read_text() + "int );\n")
    index = build_index(TOY_A, "toy-a", stub_headers=stubs)
    assert index.total_functions == 6
    assert {f.extraction_tier for f in index.functions} == {"brace-fallback"}
    for source in index.files:
        assert new_tiers(source, stubs) == reference_tiers(source, stubs)


def test_region_redeclaring_a_stub_typedef_matches_reference():
    src = (
        "int u32(void)\n{\n    return 0;\n}\n\n"
        "int shadow_param(int u32)\n{\n    return u32;\n}\n\n"
        "int shadow_local(void)\n{\n    int u32 = 1;\n    return u32;\n}\n\n"
        "u32 still_a_type(u32 x)\n{\n    return x;\n}\n"
    )
    source = SourceFile(path="redecl.c", version="v", content=src,
                        line_count=src.count("\n"), token_count=0)
    tiers = new_tiers(source, STUBS)
    assert tiers == reference_tiers(source, STUBS)
    # A file-scope function named like a typedef is rejected, as when the
    # prelude and the region were parsed as one text; the later regions
    # still see u32 as a type.
    assert [t[0] for t in tiers] == ["brace-fallback", "syntax-tree",
                                     "syntax-tree", "syntax-tree"]
    assert tiers[3][2] == (("x", "u32"),)


def test_prelude_function_of_the_same_name_does_not_shadow_the_region(tmp_path):
    stubs = _stub_dir(tmp_path, (STUBS / "types.h").read_text() +
                      "static inline int clamp(int lo)\n{\n\treturn lo;\n}\n")
    src = "int clamp(u32 a, u32 b)\n{\n    return a < b ? a : b;\n}\n"
    source = SourceFile(path="clamp.c", version="v", content=src,
                        line_count=4, token_count=0)
    params = (("a", "u32"), ("b", "u32"))
    assert new_tiers(source, stubs) == [("syntax-tree", "clamp", params)]
    # The one-text reference found the prelude's definition first.
    assert reference_tiers(source, stubs) == \
        [("syntax-tree", "clamp", (("lo", "int"),))]


def _count_parses(monkeypatch):
    """Record the text of every CParser.parse call."""
    texts = []
    parse = pycparser.CParser.parse
    monkeypatch.setattr(pycparser.CParser, "parse",
                        lambda self, text, *a, **k:
                        texts.append(text) or parse(self, text, *a, **k))
    return texts


def test_build_index_parses_the_prelude_once(tmp_path, monkeypatch):
    for i in range(3):
        path = tmp_path / "net" / "ipv4" / f"tcp_part{i}.c"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"u32 part{i}_a(u32 x)\n{{\n    return x;\n}}\n\n"
                        f"u16 part{i}_b(void)\n{{\n    return 0;\n}}\n")
    texts = _count_parses(monkeypatch)
    index = build_index(tmp_path, "v", stub_headers=STUBS)
    assert index.total_functions == 6
    assert {f.extraction_tier for f in index.functions} == {"syntax-tree"}
    assert sum("typedef" in t for t in texts) == 1
    assert len(texts) == 1 + 6


# ------------------------------------------------------------ ingest cache

def _entries(cache_dir):
    return EntryLogs(cache_dir / "ingest")


CACHED_TREES = [(TOY_A, {}), (TOY_B, {}),
                (ANNOTATED.parent, {"keywords": ("annotated",)})]


@pytest.mark.parametrize("tree,kwargs", CACHED_TREES,
                         ids=["toy-a", "toy-b", "annotated"])
def test_cold_and_warm_cached_index_match_the_uncached_one(
        tmp_path, monkeypatch, tree, kwargs):
    def index(**extra):
        return [f.to_dict() for f in build_index(
            tree, "v", stub_headers=STUBS, **kwargs, **extra).functions]

    expected = index()
    assert index(cache_dir=tmp_path) == expected
    # A function and a cut entry per file.
    assert len(_entries(tmp_path).keys()) == \
        2 * len(select_protocol_sources(tree, "v", **kwargs))
    texts = _count_parses(monkeypatch)
    assert index(cache_dir=tmp_path) == expected
    assert texts == []  # a fully warm index parses nothing, not even stubs


def _truncate(logs, key):
    return logs.tamper(key, lambda body: body[:40])


def _edit_entry(change):
    return lambda logs, key: logs.edit(key, change)


@pytest.mark.parametrize("corrupt", [
    _truncate,
    _edit_entry(lambda e: e.update(key="0" * 64)),
    _edit_entry(lambda e: e.update(functions={})),
    _edit_entry(lambda e: e["functions"][0].update(file="net/other.c")),
    _edit_entry(lambda e: e["functions"][0].update(span=[0, 10 ** 6, 1, 9])),
    _edit_entry(lambda e: e["functions"][0].update(fid="x.c:1:x")),
    _edit_entry(lambda e: e["functions"][0].pop("extraction_tier")),
    _edit_entry(lambda e: e["functions"][0].update(params=[["x"]])),
], ids=["truncated", "wrong-key", "not-a-list", "wrong-file",
        "span-past-end", "stale-fid", "missing-field", "bad-param"])
def test_corrupt_ingest_entry_is_rebuilt_not_served(
        tmp_path, monkeypatch, caplog, corrupt):
    expected = build_index(TOY_A, "toy-a", stub_headers=STUBS,
                           cache_dir=tmp_path).functions
    logs = _entries(tmp_path)
    good = logs.lines()
    key = good[0][0]
    corrupted = corrupt(logs, key)
    texts = _count_parses(monkeypatch)
    with caplog.at_level("WARNING", logger="deltaspec.code_ingest"):
        index = build_index(TOY_A, "toy-a", stub_headers=STUBS,
                            cache_dir=tmp_path)
    assert index.functions == expected
    assert texts  # the damaged file was parsed again
    assert any("ingest cache entry" in r.getMessage()
               and r.levelname == "WARNING" for r in caplog.records)
    # The entry was written again, the same as the good one; the damaged
    # line stays, never served.
    assert sorted(logs.lines()) == sorted(good + [(key, corrupted)])


def test_stub_header_and_extractor_version_are_part_of_the_key(
        tmp_path, monkeypatch):
    stubs = _stub_dir(tmp_path, (STUBS / "types.h").read_text())
    cache = tmp_path / "cache"
    build_index(TOY_A, "toy-a", stub_headers=stubs, cache_dir=cache)
    texts = _count_parses(monkeypatch)
    build_index(TOY_A, "toy-a", stub_headers=stubs, cache_dir=cache)
    assert texts == []

    (stubs / "types.h").write_text((STUBS / "types.h").read_text() +
                                   "typedef int extra_t;\n")
    build_index(TOY_A, "toy-a", stub_headers=stubs, cache_dir=cache)
    assert len(texts) == 1 + 6  # the prelude and every region
    # A function and a cut entry per file, under each of two preludes.
    assert len(_entries(cache).keys()) == 2 * 2 * 2

    texts.clear()
    monkeypatch.setattr(code_ingest, "EXTRACTOR_VERSION",
                        code_ingest.EXTRACTOR_VERSION + 1)
    build_index(TOY_A, "toy-a", stub_headers=stubs, cache_dir=cache)
    assert len(texts) == 1 + 6
    assert len(_entries(cache).keys()) == 3 * 2 * 2


def test_a_file_shared_by_two_versions_is_parsed_once(tmp_path, monkeypatch):
    build_index(TOY_A, "toy-a", stub_headers=STUBS, cache_dir=tmp_path)
    texts = _count_parses(monkeypatch)
    index = build_index(TOY_B, "toy-b", stub_headers=STUBS,
                        cache_dir=tmp_path)
    assert [f.path for f in index.files] == \
        ["net/ipv4/tcp_input.c", "net/ipv4/tcp_isn.c"]
    # tcp_input.c is byte-identical in both trees; only tcp_isn.c differs.
    changed = [f for f in index.functions if f.file == "net/ipv4/tcp_isn.c"]
    assert 0 < len(changed) < index.total_functions
    assert len(texts) == 1 + len(changed)
    assert {f.version for f in index.files} == {"toy-b"}


def test_ingest_entry_that_cannot_be_written_is_an_io_error(tmp_path):
    build_index(TOY_A, "toy-a", stub_headers=STUBS, cache_dir=tmp_path / "a")
    key = _entries(tmp_path / "a").keys()[0]  # the first file's entry
    (tmp_path / "b").mkdir()
    # A file at the store's root: read as no entries, and no log can be
    # made under it.
    (tmp_path / "b" / "ingest").write_text("")
    with pytest.raises(IoError, match=f"ingest cache entry {key}"):
        build_index(TOY_A, "toy-a", stub_headers=STUBS,
                    cache_dir=tmp_path / "b")


def test_no_cache_dir_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    writes = []
    monkeypatch.setattr(fsio.EntryStore, "put",
                        lambda *a: writes.append(a))
    build_index(TOY_A, "toy-a", stub_headers=STUBS)
    assert writes == []
    assert list(tmp_path.iterdir()) == []


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
