"""Pipeline configuration loaded from a JSON file.

Relative paths in the file are resolved against the directory containing it,
so a config can travel with its fixture tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import InvalidConfig


@dataclass
class PipelineConfig:
    workdir: Path
    cache_dir: Path
    model: str
    provider: str = "mock"
    transcript: Path | None = None
    temperature: float = 0.0
    rfc_sources: tuple[Path, ...] = ()
    code_trees: dict[str, Path] = field(default_factory=dict)
    code_globs: tuple[str, ...] | None = None
    code_keywords: tuple[str, ...] | None = None
    stub_headers: Path | None = None
    triplet_descriptions: Path | None = None
    triplet_patches: Path | None = None
    paired_positive: bool = False
    ground_truth: Path | None = None
    vulnerability_classes: dict[str, str] = field(default_factory=dict)
    chunk_size: int = 500
    redundancy_ratio: float = 0.10
    retrieval_k: int = 5
    fusion_alpha: float = 0.5
    damping: float = 0.5
    budget: int = 20
    trials: int = 5
    prices: dict[str, tuple[float, float]] = field(default_factory=dict)
    price_unit: int = 1000

    @property
    def versions(self) -> tuple[str, ...]:
        return tuple(sorted(self.code_trees))


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else (base / p).resolve()


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

    provider = raw.get("provider", "mock")
    if provider not in ("mock", "http"):
        raise InvalidConfig(f"unknown provider {provider!r}")

    chunking = raw.get("chunking", {})
    retrieval = raw.get("retrieval", {})
    verification = raw.get("verification", {})
    triplets = raw.get("triplets", {})

    prices = {}
    for model, pair in raw.get("prices", {}).items():
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise InvalidConfig(f"price for {model!r} must be [input, output]")
        prices[model] = (float(pair[0]), float(pair[1]))

    return PipelineConfig(
        workdir=_resolve(base, str(need("workdir"))),
        cache_dir=_resolve(base, str(need("cache_dir"))),
        model=str(need("model")),
        provider=provider,
        transcript=(_resolve(base, raw["transcript"])
                    if raw.get("transcript") else None),
        temperature=float(raw.get("temperature", 0.0)),
        rfc_sources=tuple(_resolve(base, s)
                          for s in raw.get("rfc_sources", [])),
        code_trees={v: _resolve(base, root)
                    for v, root in raw.get("code_trees", {}).items()},
        code_globs=(tuple(raw["code_globs"])
                    if raw.get("code_globs") is not None else None),
        code_keywords=(tuple(raw["code_keywords"])
                       if raw.get("code_keywords") is not None else None),
        stub_headers=(_resolve(base, raw["stub_headers"])
                      if raw.get("stub_headers") else None),
        triplet_descriptions=(_resolve(base, triplets["descriptions"])
                              if triplets.get("descriptions") else None),
        triplet_patches=(_resolve(base, triplets["patches"])
                         if triplets.get("patches") else None),
        paired_positive=bool(triplets.get("paired_positive", False)),
        ground_truth=(_resolve(base, raw["ground_truth"])
                      if raw.get("ground_truth") else None),
        vulnerability_classes={str(k): str(v) for k, v in
                               raw.get("vulnerability_classes", {}).items()},
        chunk_size=int(chunking.get("chunk_size", 500)),
        redundancy_ratio=float(chunking.get("redundancy_ratio", 0.10)),
        retrieval_k=int(retrieval.get("k", 5)),
        fusion_alpha=float(retrieval.get("fusion_alpha", 0.5)),
        damping=float(retrieval.get("damping", 0.5)),
        budget=int(retrieval.get("budget", 20)),
        trials=int(verification.get("trials", 5)),
        prices=prices,
        price_unit=int(raw.get("price_unit", 1000)),
    )
