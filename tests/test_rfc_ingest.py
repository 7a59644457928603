import pytest

from deltaspec.errors import MalformedDocument
from deltaspec.rfc_ingest import (
    RfcDocument,
    RfcSection,
    extract_ascii_figures,
    parse_rfc,
    section_sort_key,
    strip_boilerplate,
)

from conftest import FIXTURES

TINY_RFC = """\
Network Working Group                                          A. Example
Request for Comments: 9999                                  Example Labs
Updates: 793                                                    June 2001
Category: Experimental

                        A Tiny Protocol Extension

Table of Contents

   1.  Introduction ................................... 2
   2.  Behavior ....................................... 3

1.  Introduction

   This memo describes a tiny extension.  It exists to exercise the
   parser.

Example                                                         [Page 1]
\x0c
RFC 9999                A Tiny Protocol Extension               June 2001

2.  Behavior

   Senders MUST set the tiny bit.

   Receivers ignore it.

2.1  Details

   The tiny bit occupies no space.

2.1.1  Sub-details

   Deep headings fold into their parent.

References

   [1]  Somebody, "Something else", RFC 1.

Authors' Addresses

   A. Example
   Example Labs
"""


def test_tiny_rfc_structure():
    doc = parse_rfc(TINY_RFC)
    assert doc.number == 9999
    assert doc.title == "A Tiny Protocol Extension"
    assert doc.updates == (793,)
    assert doc.obsoletes == ()
    assert doc.status == "experimental"
    assert doc.published == "2001-06"
    assert [s.id for s in doc.sections] == ["1", "2", "2.1"]
    sections = {s.id: s for s in doc.sections}
    intro = sections["1"].prose()
    assert "tiny extension" in intro
    # page furniture must not leak into prose
    assert "[Page" not in intro and "Table of Contents" not in intro
    behavior = sections["2"]
    assert behavior.body == ("   Senders MUST set the tiny bit.",
                             "   Receivers ignore it.")
    # depth-3 heading stays inside its level-2 parent
    details = sections["2.1"].prose()
    assert "2.1.1" in details and "fold into their parent" in details


def test_strip_is_idempotent():
    once = strip_boilerplate(TINY_RFC)
    assert strip_boilerplate(once) == once
    for name in ("rfc0793.txt", "rfc1948.txt", "rfc5961.txt", "rfc6528.txt"):
        raw = (FIXTURES / "rfc" / name).read_text()
        once = strip_boilerplate(raw)
        assert strip_boilerplate(once) == once


@pytest.mark.parametrize("name,number,title,status,updates,obsoletes,published", [
    ("rfc0793.txt", 793, "Transmission Control Protocol", "unknown",
     (), (), "1981-09"),
    ("rfc1948.txt", 1948, "Defending Against Sequence Number Attacks",
     "informational", (793,), (), "1996-05"),
    ("rfc5961.txt", 5961, "Improving TCP's Robustness to Blind In-Window Attacks",
     "standards-track", (793,), (), "2010-08"),
    ("rfc6528.txt", 6528, "Defending against Sequence Number Attacks",
     "standards-track", (), (1948,), "2012-02"),
])
def test_bundled_fixture_headers(name, number, title, status, updates,
                                 obsoletes, published):
    doc = parse_rfc((FIXTURES / "rfc" / name).read_text())
    assert doc.number == number
    assert doc.title == title
    assert doc.status == status
    assert doc.updates == updates
    assert doc.obsoletes == obsoletes
    assert doc.published == published


def test_figure_extraction_from_fixture():
    doc = parse_rfc((FIXTURES / "rfc" / "rfc0793.txt").read_text())
    intro = {s.id: s for s in doc.sections}["1"]
    assert len(intro.figures) == 1
    fig = intro.figures[0]
    assert len(fig.lines) == 5
    assert all(("+" in l or "|" in l) for l in fig.lines)
    assert fig.caption is not None and fig.caption.startswith("Figure 1.")
    # diagram rows leave the prose, the caption line stays readable in it
    assert "SrcPt" not in intro.prose()
    assert "Figure 1." in intro.prose()


def test_figure_rules_directly():
    diagram = ["  +----+----+", "  | ab | cd |", "  +----+----+"]
    body = ["Intro line.", ""] + diagram + ["", "   Figure 3: A box.", "Tail."]
    figures, prose = extract_ascii_figures(body, "4")
    assert len(figures) == 1
    assert figures[0].lines == tuple(diagram)
    assert figures[0].caption == "Figure 3: A box."
    assert figures[0].section_id == "4"
    # prose plus figure lines partition the body
    assert sorted(prose + list(figures[0].lines)) == sorted(body)
    # a two-line run is below the minimum and stays prose
    figures, prose = extract_ascii_figures(diagram[:2], "4")
    assert figures == [] and prose == diagram[:2]


def test_section_sort_key_orders_appendices_last():
    ids = ["2.10", "A", "1", "2.2", "10", "2"]
    ordered = sorted(ids, key=section_sort_key)
    assert ordered == ["1", "2", "2.2", "2.10", "10", "A"]


def test_document_validation():
    sec = RfcSection(id="1", heading="One", body=("x",), figures=(),
                     token_count=1)
    dup = RfcSection(id="1", heading="Again", body=("y",), figures=(),
                     token_count=1)
    with pytest.raises(MalformedDocument):
        RfcDocument(number=1, title="t", status="unknown", updates=(),
                    obsoletes=(), published="1990-01", sections=(sec, dup))
    with pytest.raises(MalformedDocument):
        RfcDocument(number=5, title="t", status="unknown", updates=(5,),
                    obsoletes=(), published="1990-01")
    with pytest.raises(MalformedDocument):
        parse_rfc("   \n  \n")
    with pytest.raises(MalformedDocument):
        parse_rfc("1. Heading without any RFC number\n\n   Body.\n")


def test_roundtrip_serialization():
    doc = parse_rfc((FIXTURES / "rfc" / "rfc6528.txt").read_text())
    again = RfcDocument.from_dict(doc.to_dict())
    assert again == doc
