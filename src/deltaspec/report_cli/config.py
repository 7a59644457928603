"""Pipeline configuration loaded from a JSON file.

Relative paths in the file are resolved against the directory containing it,
so a config can travel with its fixture tree.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from ..chunk_mapper import DEFAULT_CHUNK_SIZE, DEFAULT_REDUNDANCY_RATIO
from ..code_ingest import DEFAULT_GLOBS, DEFAULT_KEYWORDS
from ..diff_verifier import DEFAULT_BUDGET, DEFAULT_TRIALS
from ..errors import InvalidConfig
from ..knowledge_graph import DEFAULT_DAMPING
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

    @property
    def versions(self) -> tuple[str, ...]:
        return tuple(sorted(self.code_trees))


def _resolve(base: Path, value: str) -> Path:
    """``value`` joined to the already-resolved ``base`` and normalized
    lexically: no filesystem call, so a symlink on the way stays as
    written."""
    p = Path(value)
    return p if p.is_absolute() else Path(os.path.normpath(base / p))


def _number(key: str, value: object, kind: type) -> int | float:
    """``value`` as ``kind``: a boolean is not a number, and an integer
    key takes no fractional value."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(
            f"config key {key!r} must be a number, got {value!r}") from exc
    if isinstance(value, bool) or isinstance(value, float) and number != value:
        whole = "" if isinstance(value, bool) else "whole "
        raise InvalidConfig(
            f"config key {key!r} must be a {whole}number, got {value!r}")
    return number


def _object(key: str, value: object) -> dict:
    if not isinstance(value, dict):
        raise InvalidConfig(
            f"config key {key!r} must be a JSON object, got {value!r}")
    return value


def _strings(key: str, value: object) -> tuple[str, ...]:
    if not (isinstance(value, list)
            and all(isinstance(v, str) for v in value)):
        raise InvalidConfig(
            f"config key {key!r} must be a list of strings, got {value!r}")
    return tuple(value)


def _string(key: str, value: object) -> str:
    if not isinstance(value, str):
        raise InvalidConfig(
            f"config key {key!r} must be a string, got {value!r}")
    return value


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


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidConfig("config root must be a JSON object")
    base = path.parent.resolve()

    def need(key: str) -> object:
        if key not in raw:
            raise InvalidConfig(f"config is missing required key {key!r}")
        return raw[key]

    def path_of(key: str, value: object) -> Path:
        if not isinstance(value, str):
            raise InvalidConfig(
                f"config key {key!r} must be a path string, got {value!r}")
        return _resolve(base, value)

    def optional_path(key: str, value: object) -> Path | None:
        return path_of(key, value) if value else None

    provider = raw.get("provider", "mock")
    if provider not in ("mock", "http"):
        raise InvalidConfig(f"unknown provider {provider!r}")

    def strings_or(key: str, default: tuple[str, ...]) -> tuple[str, ...]:
        """The list at ``key``; absent or null is ``default``, [] is none."""
        value = raw.get(key)
        return default if value is None else _strings(key, value)

    def section(name: str) -> dict:
        return _object(name, raw.get(name, {}))

    def setting(key: str, default: object, kind: type) -> int | float:
        """The number at ``key``; "a.b" is key b of section a."""
        name, _, leaf = key.rpartition(".")
        return _number(key, (section(name) if name else raw).get(leaf, default),
                       kind)

    def at_least(key: str, default: int, low: int) -> int:
        value = setting(key, default, int)
        if value < low:
            raise InvalidConfig(
                f"config key {key!r} must be at least {low}, got {value!r}")
        return value

    triplets = section("triplets")
    paired_positive = triplets.get("paired_positive", False)
    if not isinstance(paired_positive, bool):
        raise InvalidConfig("config key 'triplets.paired_positive' must be "
                            f"true or false, got {paired_positive!r}")
    classes = {}
    for rfc, label in section("vulnerability_classes").items():
        if not rfc.strip().isdecimal():
            raise InvalidConfig("config key 'vulnerability_classes' must be "
                                f"keyed by RFC number, got {rfc!r}")
        classes[int(rfc)] = _string(f"vulnerability_classes.{rfc}", label)

    prices = {}
    for model, pair in section("prices").items():
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise InvalidConfig(f"price for {model!r} must be [input, output]")
        prices[model] = (_number(f"prices.{model}", pair[0], float),
                         _number(f"prices.{model}", pair[1], float))

    return PipelineConfig(
        workdir=path_of("workdir", need("workdir")),
        cache_dir=path_of("cache_dir", need("cache_dir")),
        model=_string("model", need("model")),
        provider=provider,
        transcript=optional_path("transcript", raw.get("transcript")),
        rfc_sources=tuple(path_of("rfc_sources", s) for s in
                          _strings("rfc_sources", raw.get("rfc_sources", []))),
        code_trees={_version_tag(v): path_of(f"code_trees.{v}", root)
                    for v, root in section("code_trees").items()},
        code_globs=tuple(map(_tree_pattern,
                             strings_or("code_globs", DEFAULT_GLOBS))),
        code_keywords=strings_or("code_keywords", DEFAULT_KEYWORDS),
        stub_headers=optional_path("stub_headers", raw.get("stub_headers")),
        triplet_descriptions=optional_path(
            "triplets.descriptions", triplets.get("descriptions")),
        triplet_patches=optional_path(
            "triplets.patches", triplets.get("patches")),
        paired_positive=paired_positive,
        ground_truth=optional_path("ground_truth", raw.get("ground_truth")),
        vulnerability_classes=classes,
        chunk_size=setting("chunking.chunk_size", DEFAULT_CHUNK_SIZE, int),
        redundancy_ratio=setting("chunking.redundancy_ratio",
                                 DEFAULT_REDUNDANCY_RATIO, float),
        retrieval_k=at_least("retrieval.k", RetrievalConfig.k, 0),
        fusion_alpha=setting("retrieval.fusion_alpha",
                             RetrievalConfig.fusion_alpha, float),
        damping=setting("retrieval.damping", DEFAULT_DAMPING, float),
        budget=at_least("retrieval.budget", DEFAULT_BUDGET, 0),
        trials=setting("verification.trials", DEFAULT_TRIALS, int),
        prices=prices,
        price_unit=at_least("price_unit", 1000, 1),
    )
