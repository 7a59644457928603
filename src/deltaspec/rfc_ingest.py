"""RFC plain-text ingestion: boilerplate stripping, sectioning, figures.

Input is the classic RFC-editor text rendering (58-line pages, form feeds,
running headers, flush-left numbered headings). Output is a structured
document whose sections preserve body text verbatim, with ASCII diagrams
pulled out into figure records so prose-oriented stages never see them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import MalformedDocument
from .fsio import Record
from .tokenizer import count_tokens

STATUSES = ("standards-track", "informational", "experimental", "historic", "unknown")

_PAGE_FOOTER_RE = re.compile(r"\[\s*Page\s+\d+\s*\]\s*$")
# Running header after a form feed: "RFC 793   ...   September 1981". The
# wide gap (3+ spaces) separates it from a prose line that merely mentions
# an RFC number.
_RUNNING_HEADER_RE = re.compile(r"^RFC\s+\d+.*\s{3,}\S.*$")
_HEADING_RE = re.compile(r"^(\d+(?:\.\d+)*)\.?\s+(\S.*)$")
_APPENDIX_RE = re.compile(r"^(?:APPENDIX|Appendix)\s+([A-Z])(?:[.:])?\s*(.*)$")
_TOC_RE = re.compile(r"^\s*Table\s+of\s+Contents\s*$", re.IGNORECASE)
_TOC_ENTRY_RE = re.compile(r"\.{2,}\s*\d+\s*$")
_AUTHORS_RE = re.compile(r"^\s*(Authors?'?\s+Address(es)?|Author\s+Information)\s*$",
                         re.IGNORECASE)
_REFERENCES_RE = re.compile(
    r"^\s*(?:\d+\.?\s+)?(?:Normative\s+|Informative\s+)?References\s*$", re.IGNORECASE)

_MONTHS = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")
_DATE_RE = re.compile(r"\b(" + "|".join(_MONTHS) + r")\s+(\d{4})\s*$")

_NUMBER_RE = re.compile(r"^(?:Request\s+for\s+Comments|RFC)\s*:?\s*(\d+)", re.IGNORECASE)
_UPDATES_RE = re.compile(r"^Updates\s*:\s*([0-9,\s]+?)(?:\s{3,}.*)?$", re.IGNORECASE)
_OBSOLETES_RE = re.compile(r"^Obsoletes\s*:\s*([0-9,\s]+?)(?:\s{3,}.*)?$", re.IGNORECASE)
_CATEGORY_RE = re.compile(r"^Category\s*:\s*(.+?)(?:\s{3,}.*)?$", re.IGNORECASE)

# Characters that dominate ASCII protocol diagrams but are rare in prose.
_DIAGRAM_CHARS = set("+-|/\\<>=_^:#*")
FIGURE_DENSITY = 0.15  # diagram-character share that marks a diagram line
FIGURE_MIN_LINES = 3  # shortest run of diagram lines kept as a figure
_CAPTION_RE = re.compile(r"^\s*Figure\s+\d+[.:]?\s*(.*)$")


@dataclass(frozen=True)
class AsciiFigure(Record):
    """A diagram block preserved byte-exactly, with its origin recorded."""

    lines: tuple[str, ...]
    caption: str | None
    section_id: str
    line_start: int
    line_end: int


@dataclass(frozen=True)
class RfcSection(Record):
    id: str
    heading: str
    body: tuple[str, ...]  # paragraphs, blank-line separated in the source
    figures: tuple[AsciiFigure, ...]
    token_count: int
    is_appendix: bool = False

    def prose(self) -> str:
        return "\n\n".join(self.body)


def section_sort_key(section_id: str) -> tuple:
    """Order dotted labels numerically; appendix letters sort after numbers."""
    parts = []
    for piece in section_id.split("."):
        if piece.isdigit():
            parts.append((0, int(piece)))
        else:
            parts.append((1, piece))
    return tuple(parts)


@dataclass(frozen=True)
class RfcDocument(Record):
    number: int
    title: str
    status: str
    updates: tuple[int, ...]
    obsoletes: tuple[int, ...]
    published: str  # "YYYY-MM"
    sections: tuple[RfcSection, ...] = field(default=())

    def __post_init__(self):
        if self.number <= 0:
            raise MalformedDocument(f"RFC number must be positive, got {self.number}")
        if self.status not in STATUSES:
            raise MalformedDocument(f"unknown status {self.status!r}")
        if self.number in self.updates or self.number in self.obsoletes:
            raise MalformedDocument(
                f"RFC {self.number} lists itself in updates/obsoletes")
        ids = [s.id for s in self.sections]
        if len(set(ids)) != len(ids):
            raise MalformedDocument(f"duplicate section ids in RFC {self.number}")
        keys = [section_sort_key(i) for i in ids]
        if keys != sorted(keys):
            raise MalformedDocument(f"sections out of order in RFC {self.number}")


def _is_heading(line: str) -> bool:
    return bool(_HEADING_RE.match(line) or _APPENDIX_RE.match(line))


def strip_boilerplate(raw: str) -> str:
    """Remove page furniture and denylisted blocks; keep body text verbatim.

    Drops page footers, form feeds plus the running header after each, the
    table-of-contents block, the references block and the author-address
    block. Everything else passes through untouched, so running the cleaner
    twice is the same as running it once.
    """
    lines = raw.split("\n")
    out: list[str] = []
    i = 0
    skipping = None  # None | "toc" | "authors" | "references"
    while i < len(lines):
        line = lines[i]
        if skipping == "toc":
            if _is_heading(line) and not _TOC_ENTRY_RE.search(line):
                skipping = None  # fall through and keep the heading
            else:
                i += 1
                continue
        elif skipping in ("authors", "references"):
            if _is_heading(line) and not _REFERENCES_RE.match(line):
                skipping = None
            else:
                i += 1
                continue

        if _PAGE_FOOTER_RE.search(line):
            i += 1
            continue
        if "\f" in line:
            # Skip the form feed, any blank spacer lines, and the running
            # header that restarts the next page.
            i += 1
            while i < len(lines) and not lines[i].strip():
                i += 1
            if i < len(lines) and _RUNNING_HEADER_RE.match(lines[i]):
                i += 1
            continue
        if _TOC_RE.match(line):
            skipping = "toc"
            i += 1
            continue
        if _AUTHORS_RE.match(line):
            skipping = "authors"
            i += 1
            continue
        if _REFERENCES_RE.match(line):
            skipping = "references"
            i += 1
            continue
        out.append(line)
        i += 1

    cleaned = "\n".join(out)
    if not any(_is_heading(l) for l in out):
        raise MalformedDocument("no section heading found after cleaning")
    return cleaned


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in re.split(r"[,\s]+", text.strip()) if p)


def _normalize_status(raw: str) -> str:
    key = raw.strip().lower()
    if "standard" in key:
        return "standards-track"
    for status in ("informational", "experimental", "historic"):
        if status in key:
            return status
    return "unknown"


def _parse_header(lines: list[str]) -> dict:
    """Pull number/updates/obsoletes/status/date/title from the top block."""
    meta: dict = {"number": None, "updates": (), "obsoletes": (),
                  "status": "unknown", "published": None, "title": ""}
    # The header block ends at the first blank line after the RFC-number line.
    header_end = len(lines)
    seen_number = False
    for idx, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            if seen_number:
                header_end = idx
                break
            continue
        m = _NUMBER_RE.match(stripped)
        if m:
            meta["number"] = int(m.group(1))
            seen_number = True
        m = _UPDATES_RE.match(stripped)
        if m:
            meta["updates"] = _parse_int_list(m.group(1))
        m = _OBSOLETES_RE.match(stripped)
        if m:
            meta["obsoletes"] = _parse_int_list(m.group(1))
        m = _CATEGORY_RE.match(stripped)
        if m:
            meta["status"] = _normalize_status(m.group(1))
        m = _DATE_RE.search(line)
        if m:
            month = _MONTHS.index(m.group(1)) + 1
            meta["published"] = f"{m.group(2)}-{month:02d}"

    if meta["number"] is None:
        raise MalformedDocument("no 'Request for Comments' number in header")

    # Title: first non-blank line after the header block that is not itself
    # a section heading.
    for line in lines[header_end:]:
        stripped = line.strip()
        if stripped and not _is_heading(line):
            meta["title"] = stripped
            break
    return meta


def extract_ascii_figures(
    body_lines: list[str],
    section_id: str,
) -> tuple[list[AsciiFigure], list[str]]:
    """Split diagram blocks out of a section body.

    A line is diagram-like when the share of diagram characters among its
    non-space characters exceeds ``FIGURE_DENSITY``. Runs of at least
    ``FIGURE_MIN_LINES`` consecutive diagram-like lines become figures,
    preserved byte-exactly. A "Figure N." line adjacent to the block is
    copied into the caption but stays in the prose, so prose plus figure
    lines always adds back up to the original body.
    """

    def is_diagramish(line: str) -> bool:
        stripped = line.replace(" ", "").replace("\t", "")
        if not stripped:
            return False
        hits = sum(1 for c in stripped if c in _DIAGRAM_CHARS)
        return hits / len(stripped) > FIGURE_DENSITY

    figures: list[AsciiFigure] = []
    prose: list[str] = []
    i = 0
    n = len(body_lines)
    while i < n:
        if is_diagramish(body_lines[i]):
            j = i
            while j < n and is_diagramish(body_lines[j]):
                j += 1
            if j - i >= FIGURE_MIN_LINES:
                caption = None
                k = j
                if k < n and not body_lines[k].strip():
                    k += 1
                if k < n:
                    m = _CAPTION_RE.match(body_lines[k])
                    if m:
                        caption = body_lines[k].strip()
                figures.append(AsciiFigure(
                    lines=tuple(body_lines[i:j]),
                    caption=caption,
                    section_id=section_id,
                    line_start=i,
                    line_end=j - 1,
                ))
                i = j
                continue
            prose.extend(body_lines[i:j])
            i = j
            continue
        prose.append(body_lines[i])
        i += 1
    return figures, prose


def _lines_to_paragraphs(lines: list[str]) -> tuple[str, ...]:
    paragraphs: list[str] = []
    current: list[str] = []
    for line in lines:
        if line.strip():
            current.append(line)
        elif current:
            paragraphs.append("\n".join(current))
            current = []
    if current:
        paragraphs.append("\n".join(current))
    return tuple(paragraphs)


def parse_rfc(raw: str) -> RfcDocument:
    """Parse one RFC text file into a structured document.

    Headings nested deeper than two levels fold into their level-2 parent:
    a "3.2.1" heading line simply stays in section 3.2's body. Appendix
    headings become sections flagged ``is_appendix``.
    """
    if not raw.strip():
        raise MalformedDocument("empty document")
    cleaned = strip_boilerplate(raw)
    lines = cleaned.split("\n")
    meta = _parse_header(lines)

    # Partition at flush-left headings of depth <= 2.
    markers: list[tuple[int, str, str, bool]] = []  # (line idx, id, heading, appendix)
    for idx, line in enumerate(lines):
        m = _HEADING_RE.match(line)
        if m:
            if m.group(1).count(".") < 2:
                markers.append((idx, m.group(1), m.group(2).strip(), False))
            continue
        m = _APPENDIX_RE.match(line)
        if m:
            markers.append((idx, m.group(1), m.group(2).strip() or m.group(1), True))

    sections: list[RfcSection] = []
    for pos, (start, sec_id, heading, is_appendix) in enumerate(markers):
        end = markers[pos + 1][0] if pos + 1 < len(markers) else len(lines)
        body_lines = lines[start + 1:end]
        figures, prose_lines = extract_ascii_figures(body_lines, sec_id)
        body = _lines_to_paragraphs(prose_lines)
        sections.append(RfcSection(
            id=sec_id,
            heading=heading,
            body=body,
            figures=tuple(figures),
            token_count=count_tokens("\n\n".join(body)),
            is_appendix=is_appendix,
        ))

    return RfcDocument(
        number=meta["number"],
        title=meta["title"],
        status=meta["status"],
        updates=meta["updates"],
        obsoletes=meta["obsoletes"],
        published=meta["published"] or "0000-00",
        sections=tuple(sections),
    )
