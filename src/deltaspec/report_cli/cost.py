"""Closed-form token-cost model for chain verification strategies.

For a chain of N updates over a spec of Len tokens and an implementation
surface of M code tokens, with per-update deltas of dLen spec tokens and dM
code tokens:

    naive     = N * (Len + M)        re-verify everything at every update
    reasoning = N * (dLen + dM)      differential verification of each delta
    graph     = N * Len + M          one-time code indexing, per-update reading
    total     = reasoning + graph
    delta     = naive - total  =  (N - 1) * M - N * (dLen + dM)

The identity on the last line is what makes the differential approach win
whenever the per-update deltas are small against the full code surface.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidInputs
from ..fsio import Record


@dataclass(frozen=True)
class CostModelInputs:
    n_updates: int
    len_spec: int
    m_code: int
    delta_len: int
    delta_m: int

    def __post_init__(self):
        if self.n_updates < 1:
            raise InvalidInputs(f"n_updates must be >= 1, got {self.n_updates}")
        for name in ("len_spec", "m_code", "delta_len", "delta_m"):
            if getattr(self, name) < 0:
                raise InvalidInputs(f"{name} must be nonnegative")


@dataclass(frozen=True)
class CostModelResult(Record):
    naive: int
    reasoning: int
    graph: int
    total: int
    delta: int


def cost_model(inputs: CostModelInputs) -> CostModelResult:
    n = inputs.n_updates
    naive = n * (inputs.len_spec + inputs.m_code)
    reasoning = n * (inputs.delta_len + inputs.delta_m)
    graph = n * inputs.len_spec + inputs.m_code
    total = reasoning + graph
    delta = naive - total
    closed_form = (n - 1) * inputs.m_code - n * (inputs.delta_len + inputs.delta_m)
    if delta != closed_form:
        raise InvalidInputs(
            f"cost identity violated: {delta} != {closed_form} for {inputs}")
    return CostModelResult(naive=naive, reasoning=reasoning, graph=graph,
                           total=total, delta=delta)
