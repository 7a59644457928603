"""Binary classification metrics over verdict/ground-truth confusions.

The positive class is "inconsistency present": a true positive is a cell the
system called not-implemented that ground truth also marks inconsistent.
Percentages render with one decimal place, F1 with three, everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..diff_verifier import Finding
from ..errors import EmptyEval, InvalidInputs
from ..fsio import Record


@dataclass(frozen=True)
class Confusion(Record):
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise InvalidInputs(f"confusion count {name} is negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    recall: float
    precision: float
    f1: float
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "accuracy_pct": fmt_percent(self.accuracy),
            "recall_pct": fmt_percent(self.recall),
            "precision_pct": fmt_percent(self.precision),
            "f1": fmt_f1(self.f1),
            "accuracy": self.accuracy,
            "recall": self.recall,
            "precision": self.precision,
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class Evaluation(Record):
    """eval/metrics.json. Its "metrics" are compute_metrics of the
    confusion: written, and on a decode computed again, not read."""
    confusion: Confusion
    findings: tuple[Finding, ...]

    @property
    def metrics(self) -> Metrics:
        return compute_metrics(self.confusion)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "metrics": self.metrics.to_dict()}


def compute_metrics(confusion: Confusion) -> Metrics:
    """Accuracy, recall, precision and F1 from one confusion.

    Degenerate denominators (no predicted positives, no actual positives)
    score 0.0 and are flagged rather than raising; only a completely empty
    evaluation is an error.
    """
    if confusion.total == 0:
        raise EmptyEval("confusion holds no data points")
    flags: list[str] = []
    accuracy = (confusion.tp + confusion.tn) / confusion.total
    pred_pos = confusion.tp + confusion.fp
    actual_pos = confusion.tp + confusion.fn
    if pred_pos == 0:
        flags.append("no-predicted-positives")
        precision = 0.0
    else:
        precision = confusion.tp / pred_pos
    if actual_pos == 0:
        flags.append("no-actual-positives")
        recall = 0.0
    else:
        recall = confusion.tp / actual_pos
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return Metrics(accuracy=accuracy, recall=recall, precision=precision,
                   f1=f1, flags=tuple(flags))


def fmt_percent(fraction: float) -> float:
    """A fraction as a percent rounded to one decimal (91.1, not 0.911)."""
    return round(100.0 * fraction, 1)


def fmt_f1(value: float) -> float:
    return round(value, 3)
