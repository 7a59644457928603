"""Incremental differential verification: trials, verdicts, findings.

Each verification task asks one question: does this code version implement
the functionality a spec increment introduced? The judge runs an odd number
of independent trials; a value wins only with a strict majority, otherwise
the cell is unknown. Unknown maps to not-implemented for classification but
stays flagged so a reader can tell abstention from refutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .errors import (ContractViolation, EmptyResponse, GatewayError,
                     InvalidInputs, ShapeMismatch, UnknownFunction,
                     VerificationAborted)
from .fsio import Record, invalid, read_json, write_json
from .knowledge_graph import KnowledgeGraph, retrieve_code_for_spec
from .llm_gateway import (PHASE_REASONING, Contract, LlmGateway, LlmRequest,
                          request)
from .spec_evolution import FunctionalEntry, Increment
from .triplet_store import RetrievalConfig, TripletStore, retrieve_exemplars

IMPLEMENTED = "implemented"
NOT_IMPLEMENTED = "not-implemented"
UNKNOWN = "unknown"
VERDICT_VALUES = (IMPLEMENTED, NOT_IMPLEMENTED, UNKNOWN)

DEFAULT_TRIALS = 5
DEFAULT_BUDGET = 20

GROUND_TRUTH_LABELS = ("consistent", "inconsistent")


@dataclass(frozen=True)
class JudgmentReply(Record):
    """A judgment reply: the verdict, why, and the functions it cites."""
    verdict: str
    rationale: str = ""
    cited_functions: tuple[str, ...] = ()

    def __post_init__(self):
        if self.verdict not in VERDICT_VALUES:
            raise invalid("verdict", f"{self.verdict!r} is not one of "
                          f"{list(VERDICT_VALUES)!r}")


JUDGMENT_CONTRACT = Contract({
    "type": "object",
    "required": ["verdict"],
    "properties": {
        "verdict": {"enum": list(VERDICT_VALUES)},
        "rationale": {"type": "string"},
        "cited_functions": {"type": "array", "items": {"type": "string"}},
    },
}, JudgmentReply.from_dict)

_IR_SYSTEM = (
    "You compress spec functionality into a terse intermediate representation: "
    "one imperative paragraph stating what a conforming implementation must do."
)

_JUDGE_SYSTEM = (
    "You compare an intermediate representation of required spec behavior "
    "against candidate kernel functions and decide whether the behavior is "
    "implemented. Respond with JSON "
    '{"verdict": "implemented"|"not-implemented"|"unknown", '
    '"rationale": str, "cited_functions": [str]}.'
)


@dataclass(frozen=True)
class VerificationTask:
    rfc: int
    code_version: str
    targets: tuple[FunctionalEntry, ...]
    candidates: tuple[tuple[str, float], ...]  # (fid, retrieval weight)
    rfc_from: int | None = None  # None = whole-RFC mode

    @property
    def subject(self) -> str:
        return "; ".join(t.title for t in self.targets)

    def key_terms(self) -> list[str]:
        seen: list[str] = []
        for t in self.targets:
            for c in t.concepts:
                if c not in seen:
                    seen.append(c)
        return seen


@dataclass(frozen=True)
class Trial(Record):
    index: int
    verdict: str
    rationale: str
    cited: tuple[str, ...]
    ir_text: str

    def __post_init__(self):
        if self.verdict not in VERDICT_VALUES:
            raise ValueError(f"unknown verdict value {self.verdict!r}")


@dataclass(frozen=True)
class Verdict(Record):
    value: str
    trials: tuple[Trial, ...]
    counts: dict[str, int]
    subject: str
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.value not in VERDICT_VALUES:
            raise ValueError(f"unknown verdict value {self.value!r}")


@dataclass(frozen=True)
class _MatrixFile(Record):
    """verify/matrix.json: each version's verdict by RFC number."""
    versions: dict[str, dict[str, Verdict]]


def write_matrix(path: Path,
                 matrix: Mapping[str, Mapping[int, Verdict]]) -> None:
    write_json(path, _MatrixFile({
        version: {str(rfc): verdict for rfc, verdict in row.items()}
        for version, row in matrix.items()}).to_dict())


def read_matrix(path: Path) -> dict[str, dict[int, Verdict]]:
    return read_json(path, lambda d: {
        version: {int(rfc): verdict for rfc, verdict in row.items()}
        for version, row in _MatrixFile.from_dict(d).versions.items()})


@dataclass(frozen=True)
class Finding(Record):
    system: str
    rfc: int
    description: str
    vulnerability_class: str
    evidence: tuple[str, ...]
    flags: tuple[str, ...] = ()


def majority_verdict(votes: Sequence[str]) -> tuple[str, dict[str, int]]:
    """Strict-majority vote: a decided value must win more than half the
    trials outright; anything else, including an unknown plurality, is
    unknown."""
    if not votes:
        raise EmptyResponse("no trial votes to aggregate")
    counts = {v: 0 for v in VERDICT_VALUES}
    for v in votes:
        if v not in counts:
            raise EmptyResponse(f"unusable verdict value {v!r}")
        counts[v] += 1
    threshold = len(votes) / 2.0
    for value in (IMPLEMENTED, NOT_IMPLEMENTED):
        if counts[value] > threshold:
            return value, counts
    return UNKNOWN, counts


def _ir_request(task: VerificationTask, exemplars: Sequence, model: str,
                trial: int) -> LlmRequest:
    lines = [f"TASK: generate-ir", f"TRIAL: {trial}", f"RFC: {task.rfc}", "TARGETS:"]
    for t in task.targets:
        concepts = ", ".join(t.concepts)
        lines.append(f"- {t.title}: {t.summary} [concepts: {concepts}]")
    if exemplars:
        lines.append("EXEMPLAR IRS:")
        for ex in exemplars:
            lines.append(f"- {ex.intermediate_repr}")
    return request(model, _IR_SYSTEM, "\n".join(lines))


def _judge_request(
    task: VerificationTask,
    ir_text: str,
    code_texts: Mapping[str, str],
    exemplars: Sequence,
    model: str,
    trial: int,
) -> LlmRequest:
    lines = [
        "TASK: judge-increment",
        f"TRIAL: {trial}",
        f"RFC: {task.rfc}",
        f"CODE VERSION: {task.code_version}",
        "IR:",
        ir_text,
        "KEY TERMS: " + "; ".join(task.key_terms()),
    ]
    if exemplars:
        lines.append("EXEMPLARS:")
        for ex in exemplars:
            lines.append(f"--- exemplar ({ex.label}) ---")
            lines.append(f"spec: {ex.spec_text}")
            lines.append(f"code:\n{ex.code}")
    lines.append("CANDIDATES:")
    for fid, _ in task.candidates:
        body = code_texts.get(fid)
        if body is None:
            raise UnknownFunction(f"no code text supplied for candidate {fid}")
        lines.append(f"FUNCTION {fid}:")
        lines.append(body)
    return request(model, _JUDGE_SYSTEM, "\n".join(lines),
                   contract=JUDGMENT_CONTRACT)


def _trial(task: VerificationTask, index: int, ir: object,
           judgment: object) -> Trial:
    """One trial from its settled IR and judgment outcomes; raises the
    error a serial run of the trial would have raised."""
    if isinstance(ir, Exception):
        raise ir
    if isinstance(judgment, ContractViolation):
        raise EmptyResponse(
            f"judgment yielded no usable verdict: {judgment}") from judgment
    if isinstance(judgment, Exception):
        raise judgment
    reply = judgment.parsed
    allowed = {fid for fid, _ in task.candidates}
    cited = tuple(f for f in reply.cited_functions if f in allowed)
    return Trial(index=index, verdict=reply.verdict, rationale=reply.rationale,
                 cited=cited, ir_text=ir.text.strip())


@dataclass
class VerifyPlan:
    """Verification tasks and matrix rows, laid out before any trial runs.

    A row cell is the index of the task that judges it, or ``(parent,)``
    when it inherits the verdict of its walk parent, an earlier cell of its
    row. run() judges every task in two gateway batches, the IRs of all
    (task, trial) slots and then their judgments, and fills each row in
    order, each inherited cell adding one "inherited" flag to its parent's.
    """

    trials: int = DEFAULT_TRIALS
    tasks: list[VerificationTask] = field(default_factory=list)
    code_texts: list[Mapping[str, str]] = field(default_factory=list)
    exemplars: list[Sequence] = field(default_factory=list)
    rows: dict[str, dict[int, int | tuple[int]]] = field(default_factory=dict)

    def __post_init__(self):
        if self.trials < 1 or self.trials % 2 == 0:
            raise InvalidInputs(
                f"trials must be odd and positive, got {self.trials}")

    def add_task(self, task: VerificationTask, code_texts: Mapping[str, str],
                 store: TripletStore | None, gateway: LlmGateway,
                 retrieval: RetrievalConfig) -> int:
        """Queue one task; its exemplars are retrieved now, once, and shared
        by all its trials."""
        if not task.targets:
            raise InvalidInputs(
                f"verification task for RFC {task.rfc} on {task.code_version} "
                f"has no target entries: no functional requirement was "
                f"extracted")
        exemplars: Sequence = ()
        if store is not None and len(store) > 0:
            query = "\n".join(f"{t.title} {t.summary}" for t in task.targets)
            exemplars = retrieve_exemplars(query, store, gateway, retrieval)
        self.tasks.append(task)
        self.code_texts.append(code_texts)
        self.exemplars.append(exemplars)
        return len(self.tasks) - 1

    def run(self, gateway: LlmGateway,
            model: str) -> dict[str, dict[int, Verdict]]:
        """Judge every task and return the rows.

        The trial index is embedded in each prompt, so repeated sampling is
        real sampling, not cache replay. Errors surface as a serial run
        would raise them: the first failing trial of the first failing task
        decides, and a gateway failure aborts with that task's earlier
        trials attached.
        """
        trials = self.trials
        slots = [(task, i, t) for i, task in enumerate(self.tasks)
                 for t in range(1, trials + 1)]
        irs = gateway.settle_all(
            [_ir_request(task, self.exemplars[i], model, t)
             for task, i, t in slots], PHASE_REASONING)
        # Slots past the first failing one are never read, so their
        # judgments are not asked for.
        judgments: list[object] = [None] * len(slots)
        reqs: list[LlmRequest] = []
        for (task, i, t), ir in zip(slots, irs):
            if isinstance(ir, Exception):
                break
            try:
                reqs.append(_judge_request(task, ir.text.strip(),
                                           self.code_texts[i],
                                           self.exemplars[i], model, t))
            except UnknownFunction as exc:
                judgments[len(reqs)] = exc
                break
        judgments[:len(reqs)] = gateway.settle_all(reqs, PHASE_REASONING)

        verdicts: list[Verdict] = []
        for i, task in enumerate(self.tasks):
            done: list[Trial] = []
            for t in range(1, trials + 1):
                k = i * trials + t - 1
                try:
                    done.append(_trial(task, t, irs[k], judgments[k]))
                except GatewayError as exc:
                    raise VerificationAborted(
                        f"gateway failed on trial {t}/{trials} for RFC "
                        f"{task.rfc}: {exc}", partial_trials=done) from exc
            value, counts = majority_verdict([t.verdict for t in done])
            flags: list[str] = []
            if task.rfc_from is None:
                flags.append("whole-rfc")
            if not task.candidates:
                flags.append("no-candidates")
            verdicts.append(Verdict(value=value, trials=tuple(done),
                                    counts=counts, subject=task.subject,
                                    flags=tuple(flags)))

        matrix: dict[str, dict[int, Verdict]] = {}
        for version, row in self.rows.items():
            cells = matrix[version] = {}
            for rfc, cell in row.items():
                if isinstance(cell, int):
                    cells[rfc] = verdicts[cell]
                else:
                    base = cells[cell[0]]
                    cells[rfc] = replace(base, flags=base.flags + ("inherited",))
        return matrix


def verify_increment(
    task: VerificationTask,
    code_texts: Mapping[str, str],
    store: TripletStore | None,
    gateway: LlmGateway,
    model: str,
    *,
    retrieval: RetrievalConfig = RetrievalConfig(),
    trials: int = DEFAULT_TRIALS,
) -> Verdict:
    """Run all trials for one task and aggregate the votes (a one-task
    VerifyPlan)."""
    plan = VerifyPlan(trials)
    plan.rows[task.code_version] = {
        task.rfc: plan.add_task(task, code_texts, store, gateway, retrieval)}
    return plan.run(gateway, model)[task.code_version][task.rfc]


def plan_version(
    plan: VerifyPlan,
    walk: Sequence[tuple[int | None, int]],
    increments: Mapping[tuple[int, int], Increment],
    entries: Mapping[int, Sequence[FunctionalEntry]],
    code_version: str,
    graph: KnowledgeGraph,
    store: TripletStore | None,
    gateway: LlmGateway,
    code_text_resolver: Callable[[Sequence[str]], Mapping[str, str]],
    *,
    retrieval: RetrievalConfig = RetrievalConfig(),
    budget: int = DEFAULT_BUDGET,
) -> dict[int, list[str]]:
    """Lay one version's row into ``plan.rows[code_version]``: one cell per
    node of ``walk`` (UpdateChainGraph.walk(), each parent before its
    children).

    A root is verified in whole-RFC mode over all its entries; any other
    node over the targets of the increment from its walk parent, or, when
    that increment has none, it inherits the parent's verdict, flagged.
    Returns the candidate fids of each verified cell.
    """
    row = plan.rows.setdefault(code_version, {})
    judged: dict[int, list[str]] = {}
    for parent, rfc in walk:
        if parent is None:
            targets = tuple(entries.get(rfc, ()))
        else:
            targets = increments[(parent, rfc)].targets
            if not targets:
                row[rfc] = (parent,)
                continue
        concepts = list(dict.fromkeys(c for e in targets for c in e.concepts))
        candidates = tuple(retrieve_code_for_spec(concepts, graph, k=budget))
        task = VerificationTask(rfc=rfc, code_version=code_version,
                                targets=targets, candidates=candidates,
                                rfc_from=parent)
        fids = judged[rfc] = [fid for fid, _ in candidates]
        row[rfc] = plan.add_task(task, code_text_resolver(fids), store,
                                 gateway, retrieval)
    return judged


def verify_chain(
    chain: Sequence[int],
    increments: Sequence[Increment],
    root_entries: Sequence[FunctionalEntry],
    code_version: str,
    graph: KnowledgeGraph,
    store: TripletStore | None,
    gateway: LlmGateway,
    model: str,
    code_text_resolver: Callable[[Sequence[str]], Mapping[str, str]],
    *,
    retrieval: RetrievalConfig = RetrievalConfig(),
    trials: int = DEFAULT_TRIALS,
    budget: int = DEFAULT_BUDGET,
) -> dict[int, Verdict]:
    """One matrix row: a Verdict per chain RFC for one code version (a
    one-chain VerifyPlan; see plan_version)."""
    plan = VerifyPlan(trials)
    plan_version(plan, list(zip([None, *chain], chain)),
                 {(inc.rfc_from, inc.rfc_to): inc for inc in increments},
                 {chain[0]: root_entries}, code_version, graph, store,
                 gateway, code_text_resolver, retrieval=retrieval,
                 budget=budget)
    return plan.run(gateway, model)[code_version]


def compile_findings(
    matrix: Mapping[str, Mapping[int, Verdict]],
    ground_truth: Mapping[str, Mapping[int, str]] | None = None,
    vulnerability_classes: Mapping[int, str] | None = None,
) -> tuple[list[Finding], tuple[int, int, int, int] | None]:
    """Findings from a verdict matrix, plus confusion counts in eval mode.

    A finding is produced for every cell judged not-implemented (unknown
    counts as not-implemented, flagged "unknown-verdict") and, when ground
    truth is supplied, for every cell that disagrees with it (flagged
    "ground-truth-mismatch"). The confusion is (TP, FP, TN, FN) with
    "inconsistency present" as the positive class.
    """
    if ground_truth is not None:
        if set(matrix) != set(ground_truth):
            raise ShapeMismatch(
                f"matrix versions {sorted(matrix)} != truth versions "
                f"{sorted(ground_truth)}")
        for version in matrix:
            if set(matrix[version]) != set(ground_truth[version]):
                raise ShapeMismatch(
                    f"version {version}: matrix RFCs != ground truth RFCs")
    classes = vulnerability_classes or {}
    findings: list[Finding] = []
    tp = fp = fn = tn = 0
    for version in sorted(matrix):
        for rfc in sorted(matrix[version]):
            verdict = matrix[version][rfc]
            value = verdict.value
            predicted_positive = value != IMPLEMENTED
            flags: list[str] = []
            if value == UNKNOWN:
                flags.append("unknown-verdict")
            mismatch = False
            if ground_truth is not None:
                truth = ground_truth[version][rfc]
                if truth not in GROUND_TRUTH_LABELS:
                    raise ShapeMismatch(
                        f"ground truth label {truth!r} for {version}/{rfc}")
                truth_positive = truth == "inconsistent"
                if predicted_positive and truth_positive:
                    tp += 1
                elif predicted_positive and not truth_positive:
                    fp += 1
                elif not predicted_positive and truth_positive:
                    fn += 1
                else:
                    tn += 1
                if predicted_positive != truth_positive:
                    mismatch = True
                    flags.append("ground-truth-mismatch")
            if not (predicted_positive or mismatch):
                continue
            description = f"RFC {rfc} functionality not confirmed in {version}"
            majority_trials = [t for t in verdict.trials if t.verdict == value]
            source_trials = majority_trials or list(verdict.trials)
            if source_trials and source_trials[0].rationale:
                description = f"{verdict.subject}: {source_trials[0].rationale}"
            elif verdict.subject:
                description = verdict.subject
            evidence = tuple(sorted({f for t in source_trials for f in t.cited}))
            findings.append(Finding(
                system=version,
                rfc=rfc,
                description=description,
                vulnerability_class=classes.get(rfc, "unclassified"),
                evidence=evidence,
                flags=tuple(flags),
            ))
    confusion = (tp, fp, tn, fn) if ground_truth is not None else None
    return findings, confusion
