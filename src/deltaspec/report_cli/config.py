"""Pipeline configuration loaded from a JSON file.

Relative paths in the file are resolved against the directory containing it,
so a config can travel with its fixture tree.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from ..chunk_mapper import DEFAULT_CHUNK_SIZE, DEFAULT_REDUNDANCY_RATIO
from ..code_ingest import DEFAULT_GLOBS, DEFAULT_KEYWORDS
from ..diff_verifier import DEFAULT_BUDGET, DEFAULT_TRIALS
from ..errors import InvalidConfig
from ..fsio import Record, invalid
from ..knowledge_graph import DEFAULT_DAMPING
from ..llm_gateway import DEFAULT_MAX_IN_FLIGHT
from ..triplet_store import RetrievalConfig


@dataclass
class PipelineConfig:
    workdir: Path
    cache_dir: Path
    model: str
    provider: str
    transcript: Path | None
    rfc_sources: tuple[Path, ...]
    code_trees: dict[str, Path]
    code_globs: tuple[str, ...]
    code_keywords: tuple[str, ...]
    stub_headers: Path | None
    triplet_descriptions: Path | None
    triplet_patches: Path | None
    paired_positive: bool
    ground_truth: Path | None
    vulnerability_classes: dict[int, str]
    chunk_size: int
    redundancy_ratio: float
    retrieval_k: int
    fusion_alpha: float
    damping: float
    budget: int
    trials: int
    prices: dict[str, tuple[float, float]]
    price_unit: int
    max_in_flight: int

    @property
    def versions(self) -> tuple[str, ...]:
        return tuple(sorted(self.code_trees))


def _resolve(base: Path, value: str) -> Path:
    """``value`` joined to the already-resolved ``base`` and normalized
    lexically: no filesystem call, so a symlink on the way stays as
    written."""
    p = Path(value)
    return p if p.is_absolute() else Path(os.path.normpath(base / p))


def _tree_pattern(pattern: str) -> str:
    """A ``code_globs`` pattern matches inside the code tree only: it is
    relative, not empty, and takes no ``..`` step."""
    path = Path(pattern)
    if not pattern or path.is_absolute() or ".." in path.parts:
        raise InvalidConfig("config key 'code_globs' must be a list of "
                            "non-empty patterns inside the code tree, "
                            f"got {pattern!r}")
    return pattern


def _version_tag(tag: str) -> str:
    """A tag names files under the workdir, so it is one path component,
    and not ``ledger``: ``graph/ledger.json`` is build-graph's ledger."""
    if tag in ("", ".", "..", "ledger") or any(c in tag for c in "/\\\0"):
        key = f"code_trees.{tag}"
        raise InvalidConfig(f"config key {key!r} must be a version tag of "
                            "one path component other than 'ledger'")
    return tag


def _count(key: str, value: int | float, low: float = -math.inf) -> int:
    """A count, given as an int or a whole float, as an int of at least
    ``low``."""
    if value % 1:  # a fraction, or nan for an infinity or a NaN
        raise invalid(key, f"a whole number, got {value!r}")
    if value < low:
        raise invalid(key, f"at least {low}, got {int(value)!r}")
    return int(value)


def _real(key: str, value: int | float) -> float:
    """A number as a float; a NaN, or an int too large for a float, is
    refused."""
    with contextlib.suppress(OverflowError):
        if value == value:
            return float(value)
    raise invalid(key, f"a number, got {value!r}")


@dataclass
class _Chunking(Record):
    chunk_size: int | float = DEFAULT_CHUNK_SIZE
    redundancy_ratio: float = DEFAULT_REDUNDANCY_RATIO

    def __post_init__(self):
        self.chunk_size = _count("chunk_size", self.chunk_size)
        self.redundancy_ratio = _real("redundancy_ratio",
                                      self.redundancy_ratio)


@dataclass
class _Retrieval(Record):
    k: int | float = RetrievalConfig.k
    fusion_alpha: float = RetrievalConfig.fusion_alpha
    damping: float = DEFAULT_DAMPING
    budget: int | float = DEFAULT_BUDGET

    def __post_init__(self):
        self.k = _count("k", self.k, low=0)
        self.fusion_alpha = _real("fusion_alpha", self.fusion_alpha)
        self.damping = _real("damping", self.damping)
        self.budget = _count("budget", self.budget, low=0)


@dataclass
class _Verification(Record):
    trials: int | float = DEFAULT_TRIALS

    def __post_init__(self):
        # Checked on load, so a bad count stops a run before its first
        # stage, not at verify, its sixth.
        self.trials = _count("trials", self.trials, low=1)
        if self.trials % 2 == 0:
            raise invalid("trials", f"odd, got {self.trials}")


@dataclass
class _Triplets(Record):
    descriptions: str | None = None
    patches: str | None = None
    paired_positive: bool = False


@dataclass
class _Config(Record):
    """The config file as written. An empty path is no path; an absent or
    null ``code_globs`` or ``code_keywords`` is the default."""
    workdir: str
    cache_dir: str
    model: str
    provider: str = "mock"
    transcript: str | None = None
    rfc_sources: tuple[str, ...] = ()
    code_trees: dict[str, str] = field(default_factory=dict)
    code_globs: tuple[str, ...] | None = None
    code_keywords: tuple[str, ...] | None = None
    stub_headers: str | None = None
    triplets: _Triplets = field(default_factory=_Triplets)
    ground_truth: str | None = None
    vulnerability_classes: dict[str, str] = field(default_factory=dict)
    chunking: _Chunking = field(default_factory=_Chunking)
    retrieval: _Retrieval = field(default_factory=_Retrieval)
    verification: _Verification = field(default_factory=_Verification)
    prices: dict[str, tuple[float, float]] = field(default_factory=dict)
    price_unit: int | float = 1000
    max_in_flight: int | float = DEFAULT_MAX_IN_FLIGHT

    def __post_init__(self):
        if self.provider not in ("mock", "http"):
            raise invalid("provider",
                          f"'mock' or 'http', got {self.provider!r}")
        for rfc in self.vulnerability_classes:
            if not rfc.strip().isdecimal():
                raise invalid("vulnerability_classes",
                              f"keyed by RFC number, got {rfc!r}")
        self.prices = {name: (_real(f"prices.{name}", inp),
                              _real(f"prices.{name}", out))
                       for name, (inp, out) in self.prices.items()}
        self.price_unit = _count("price_unit", self.price_unit, low=1)
        self.max_in_flight = _count("max_in_flight", self.max_in_flight,
                                    low=1)


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    try:
        raw = _Config.from_dict(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config {path} is not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise InvalidConfig(
            f"config is missing required key {exc.at!r}") from exc
    except (TypeError, ValueError) as exc:
        if not exc.at:
            raise InvalidConfig("config root must be a JSON object") from exc
        key = re.sub(r"\[\d+\]$", "", exc.at)  # the key, not an array item
        raise InvalidConfig(f"config key {key!r} must be "
                            f"{exc.reason.removeprefix('expected ')}") from exc
    base = path.parent.resolve()

    def optional_path(value: str | None) -> Path | None:
        return _resolve(base, value) if value else None

    return PipelineConfig(
        workdir=_resolve(base, raw.workdir),
        cache_dir=_resolve(base, raw.cache_dir),
        model=raw.model,
        provider=raw.provider,
        transcript=optional_path(raw.transcript),
        rfc_sources=tuple(_resolve(base, s) for s in raw.rfc_sources),
        code_trees={_version_tag(v): _resolve(base, root)
                    for v, root in raw.code_trees.items()},
        code_globs=tuple(map(_tree_pattern, DEFAULT_GLOBS if raw.code_globs
                             is None else raw.code_globs)),
        code_keywords=DEFAULT_KEYWORDS if raw.code_keywords is None
        else raw.code_keywords,
        stub_headers=optional_path(raw.stub_headers),
        triplet_descriptions=optional_path(raw.triplets.descriptions),
        triplet_patches=optional_path(raw.triplets.patches),
        paired_positive=raw.triplets.paired_positive,
        ground_truth=optional_path(raw.ground_truth),
        vulnerability_classes={int(rfc): label for rfc, label
                               in raw.vulnerability_classes.items()},
        chunk_size=raw.chunking.chunk_size,
        redundancy_ratio=raw.chunking.redundancy_ratio,
        retrieval_k=raw.retrieval.k,
        fusion_alpha=raw.retrieval.fusion_alpha,
        damping=raw.retrieval.damping,
        budget=raw.retrieval.budget,
        trials=raw.verification.trials,
        prices=raw.prices,
        price_unit=raw.price_unit,
        max_in_flight=raw.max_in_flight,
    )
