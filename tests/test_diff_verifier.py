"""Tests for trial voting, increment verification, and finding compilation."""

import itertools
import json

import pytest

from conftest import run_stages
from deltaspec.diff_verifier import (
    Finding,
    Trial,
    VerificationTask,
    Verdict,
    VerifyPlan,
    compile_findings,
    majority_verdict,
    plan_version,
    verify_chain,
    verify_increment,
)
from deltaspec.errors import (
    EmptyResponse,
    InvalidInputs,
    ShapeMismatch,
    UnknownFunction,
    VerificationAborted,
)
from deltaspec.knowledge_graph import Entity, KnowledgeGraph
from deltaspec import triplet_store
from deltaspec.llm_gateway import HashEmbedder, LlmGateway, MockProvider
from deltaspec.report_cli.config import PipelineConfig
from deltaspec.spec_evolution import (
    FunctionalDelta,
    FunctionalEntry,
    Increment,
    RfcMeta,
    UpdateChainGraph,
    build_update_chain,
)
from deltaspec.triplet_store import (
    DifferentialTriplet,
    RetrievalConfig,
    TripletStore,
)


def entry(title, concepts=(), rfc=793):
    return FunctionalEntry(rfc=rfc, section="2", title=title, summary="s",
                           concepts=tuple(concepts))


# ------------------------------------------------------------------- voting

def test_strict_majority_decides():
    value, counts = majority_verdict(
        ["implemented", "implemented", "implemented", "not-implemented",
         "unknown"])
    assert value == "implemented"
    assert counts == {"implemented": 3, "not-implemented": 1, "unknown": 1}


def test_unknown_plurality_is_not_a_decision():
    value, _ = majority_verdict(["unknown"] * 4 + ["implemented"])
    assert value == "unknown"


def test_split_vote_is_unknown():
    value, _ = majority_verdict(
        ["implemented", "implemented", "not-implemented", "not-implemented",
         "unknown"])
    assert value == "unknown"


def test_vote_needs_usable_ballots():
    with pytest.raises(EmptyResponse):
        majority_verdict([])
    with pytest.raises(EmptyResponse):
        majority_verdict(["implemented", "maybe"])


def test_majority_matches_brute_force_over_all_five_trial_vectors():
    values = ("implemented", "not-implemented", "unknown")
    for votes in itertools.product(values, repeat=5):
        got, counts = majority_verdict(list(votes))
        expected = "unknown"
        for v in ("implemented", "not-implemented"):
            if votes.count(v) > 2.5:
                expected = v
        assert got == expected
        assert counts == {v: votes.count(v) for v in values}


# ----------------------------------------------------------- increment runs

def judge_rule(verdicts):
    """Script generate-ir plus one judge verdict per trial index."""

    def rule(req):
        user = req.messages[-1][1]
        if user.startswith("TASK: generate-ir"):
            return "must validate the thing"
        if user.startswith("TASK: judge-increment"):
            trial = int(user.splitlines()[1].split(": ")[1])
            verdict = verdicts[(trial - 1) % len(verdicts)]
            return json.dumps({
                "verdict": verdict,
                "rationale": f"trial {trial} rationale",
                "cited_functions": ["net/a.c:1:fn", "bogus.c:9:ghost"],
            })
        return None

    return rule


def make_task(candidates=(("net/a.c:1:fn", 1.0),), rfc_from=792):
    return VerificationTask(rfc=793, code_version="toy",
                            targets=(entry("rst validation", ("rst",)),),
                            candidates=tuple(candidates), rfc_from=rfc_from)


def test_verify_increment_aggregates_and_filters_citations():
    gateway = LlmGateway(provider=MockProvider(
        rules=judge_rule(["implemented", "implemented", "not-implemented"])))
    verdict = verify_increment(make_task(), {"net/a.c:1:fn": "int fn(void);"},
                               None, gateway, "judge-1", trials=3)
    assert verdict.value == "implemented"
    assert verdict.counts == {"implemented": 2, "not-implemented": 1,
                              "unknown": 0}
    assert verdict.subject == "rst validation"
    assert verdict.flags == ()
    assert len(verdict.trials) == 3
    # The fid outside the candidate set is dropped from citations.
    assert all(t.cited == ("net/a.c:1:fn",) for t in verdict.trials)
    assert [t.index for t in verdict.trials] == [1, 2, 3]


def test_degenerate_tasks_are_flagged():
    gateway = LlmGateway(provider=MockProvider(
        rules=judge_rule(["unknown"])))
    verdict = verify_increment(make_task(candidates=(), rfc_from=None),
                               {}, None, gateway, "judge-1", trials=1)
    assert verdict.flags == ("whole-rfc", "no-candidates")
    assert verdict.value == "unknown"


def test_trial_count_must_be_odd_and_targets_nonempty():
    gateway = LlmGateway(provider=MockProvider(rules=judge_rule(["unknown"])))
    with pytest.raises(InvalidInputs, match="odd"):
        verify_increment(make_task(), {}, None, gateway, "m", trials=4)
    bare = VerificationTask(rfc=793, code_version="toy", targets=(),
                            candidates=())
    with pytest.raises(InvalidInputs, match="target"):
        verify_increment(bare, {}, None, gateway, "m", trials=3)


def test_missing_candidate_code_is_an_error():
    gateway = LlmGateway(provider=MockProvider(rules=judge_rule(["unknown"])))
    with pytest.raises(UnknownFunction):
        verify_increment(make_task(), {}, None, gateway, "judge-1", trials=1)


def test_gateway_failure_aborts_with_partial_trials():
    def flaky(req):
        user = req.messages[-1][1]
        if "TRIAL: 2" in user and user.startswith("TASK: generate-ir"):
            return None  # provider error
        return judge_rule(["implemented"])(req)

    gateway = LlmGateway(provider=MockProvider(rules=flaky),
                         max_retries=0, backoff_base=0.0)
    with pytest.raises(VerificationAborted) as err:
        verify_increment(make_task(), {"net/a.c:1:fn": "x"}, None, gateway,
                         "judge-1", trials=3)
    assert len(err.value.partial_trials) == 1
    assert err.value.partial_trials[0].verdict == "implemented"


def test_unparseable_judgments_surface_as_empty_response():
    def garbled(req):
        user = req.messages[-1][1]
        if user.startswith("TASK: generate-ir"):
            return "ir"
        return "no json here"

    gateway = LlmGateway(provider=MockProvider(rules=garbled),
                         contract_retries=0)
    with pytest.raises(EmptyResponse):
        verify_increment(make_task(), {"net/a.c:1:fn": "x"}, None, gateway,
                         "judge-1", trials=1)


# -------------------------------------------------------------- chain walks

def chain_fixture():
    graph = KnowledgeGraph()
    eid = graph.add_entity(Entity("mechanism", "rst")).id
    graph.add_implements(eid, "net/a.c:1:fn")
    resolver = lambda fids: {fid: "int fn(void) { return 0; }" for fid in fids}
    return graph, resolver


def test_chain_inherits_verdicts_over_empty_increments():
    graph, resolver = chain_fixture()
    gateway = LlmGateway(provider=MockProvider(
        rules=judge_rule(["implemented"])))
    increments = [Increment(rfc_from=src, rfc_to=dst, delta=FunctionalDelta([], [], [], []))
                  for src, dst in ((793, 1948), (1948, 6528))]
    row = verify_chain([793, 1948, 6528], increments,
                       [entry("rst validation", ("rst",))], "toy",
                       graph, None, gateway, "judge-1", resolver, trials=1)
    assert [row[rfc].value for rfc in (793, 1948, 6528)] == \
        ["implemented"] * 3
    # Each empty increment stacks one more "inherited" on its parent's flags.
    assert row[793].flags == ("whole-rfc",)
    assert row[1948].flags == ("whole-rfc", "inherited")
    assert row[6528].flags == ("whole-rfc", "inherited", "inherited")
    assert row[6528].trials == row[793].trials


# RFC 3 updates RFCs 1 and 2, and RFC 2 also updates RFC 1: RFC 3 is a
# merge node, reached over 1->2->3 and over 1->3.
MERGE_DOCS = [RfcMeta(1), RfcMeta(2, updates=(1,)), RfcMeta(3, updates=(1, 2))]


def merge_increments():
    def inc(src, dst, *titles):
        targets = tuple(entry(t, ("rst",), rfc=dst) for t in titles)
        return Increment(rfc_from=src, rfc_to=dst,
                         delta=FunctionalDelta(added=list(targets), modified=[],
                                               deprecated=[], inherited=[]))

    return {(1, 2): inc(1, 2),
            (1, 3): inc(1, 3, "rst window check", "rst rate limit"),
            (2, 3): inc(2, 3, "challenge ack on rst")}


def plan_merge_fixture(docs):
    graph, resolver = chain_fixture()
    gateway = LlmGateway(provider=MockProvider(
        rules=judge_rule(["implemented", "not-implemented", "implemented"])))
    plan = VerifyPlan(3)
    judged = {version: plan_version(
        plan, build_update_chain(docs).walk(), merge_increments(),
        {1: [entry("rst validation", ("rst",), rfc=1)]}, version, graph,
        None, gateway, resolver) for version in ("toy-a", "toy-b")}
    return plan, judged, plan.run(gateway, "judge-1"), gateway


def test_merge_node_is_judged_once_from_its_first_reached_predecessor():
    plan, judged, rows, gateway = plan_merge_fixture(MERGE_DOCS)
    cells = [(t.code_version, t.rfc) for t in plan.tasks]
    assert sorted(cells) == [(v, rfc) for v in ("toy-a", "toy-b")
                             for rfc in (1, 3)]
    # An IR prompt names no code version, so each (RFC, trial) IR is asked
    # once for both versions; each (cell, trial) has a judgment of its own.
    assert gateway.stats.requests == len({rfc for _, rfc in cells}) * 3 \
        + len(cells) * 3
    assert {t.rfc_from for t in plan.tasks if t.rfc == 3} == {2}
    assert judged == {v: {1: ["net/a.c:1:fn"], 3: ["net/a.c:1:fn"]}
                      for v in ("toy-a", "toy-b")}
    for row in rows.values():
        assert row[3].subject == "challenge ack on rst"
        assert "inherited" in row[2].flags
        assert row[2].trials == row[1].trials


def test_two_versions_send_each_ir_once():
    sent = []
    rule = judge_rule(["implemented", "not-implemented", "implemented"])
    graph, resolver = chain_fixture()

    def plan_and_run(versions):
        gateway = LlmGateway(provider=MockProvider(
            rules=lambda req: sent.append(req.messages[-1][1]) or rule(req)))
        plan = VerifyPlan(3)
        for version in versions:
            plan_version(plan, build_update_chain(MERGE_DOCS).walk(),
                         merge_increments(),
                         {1: [entry("rst validation", ("rst",), rfc=1)]},
                         version, graph, None, gateway, resolver)
        return plan, plan.run(gateway, "judge-1")

    plan, rows = plan_and_run(("toy-a", "toy-b"))
    irs = [u for u in sent if u.startswith("TASK: generate-ir")]
    assert len(set(sent)) == len(sent)  # nothing is sent twice
    assert len(irs) == len({t.rfc for t in plan.tasks}) * 3
    assert len(sent) - len(irs) == len(plan.tasks) * 3
    # The rows are those of each version judged on a gateway of its own.
    for version in ("toy-a", "toy-b"):
        alone = plan_and_run((version,))[1][version]
        assert {rfc: v.to_dict() for rfc, v in alone.items()} == \
            {rfc: v.to_dict() for rfc, v in rows[version].items()}


def test_merge_rows_do_not_depend_on_document_order():
    def dump(rows):
        return {v: {rfc: verdict.to_dict() for rfc, verdict in row.items()}
                for v, row in rows.items()}

    expected = dump(plan_merge_fixture(MERGE_DOCS)[2])
    for docs in itertools.permutations(MERGE_DOCS):
        assert dump(plan_merge_fixture(list(docs))[2]) == expected


def test_two_version_plan_ranks_each_distinct_query_once(monkeypatch):
    ranked = []
    real = triplet_store._rank

    def spy(query_text, *args):
        ranked.append(query_text)
        return real(query_text, *args)

    monkeypatch.setattr(triplet_store, "_rank", spy)
    store = TripletStore([
        DifferentialTriplet("p", "rst window check", "ir", "check(seq);",
                            "consistent", "description", 3),
        DifferentialTriplet("n", "challenge ack on rst", "ir", "ack();",
                            "inconsistent", "patch", 2)])
    graph, resolver = chain_fixture()
    gateway = LlmGateway(provider=MockProvider(rules=judge_rule(
        ["implemented"])), embedder=HashEmbedder())
    plan = VerifyPlan(1)
    for version in ("toy-a", "toy-b"):
        plan_version(plan, build_update_chain(MERGE_DOCS).walk(),
                     merge_increments(),
                     {1: [entry("rst validation", ("rst",), rfc=1)]},
                     version, graph, store, gateway, resolver,
                     retrieval=RetrievalConfig(k=1))
    # Each version queues RFC 1 (whole-RFC) and RFC 3: two distinct queries.
    assert [(t.code_version, t.rfc) for t in plan.tasks] == [
        ("toy-a", 1), ("toy-a", 3), ("toy-b", 1), ("toy-b", 3)]
    assert sorted(ranked) == ["challenge ack on rst s", "rst validation s"]
    assert plan.exemplars[0] == plan.exemplars[2]
    assert plan.exemplars[1] == plan.exemplars[3]
    assert plan.exemplars[0] is not plan.exemplars[2]


def test_verify_artifacts_do_not_depend_on_version_or_chain_order(
        mini_config, monkeypatch):
    forward = run_stages(mini_config("forward"), through="verify")
    chains = UpdateChainGraph.chains
    monkeypatch.setattr(UpdateChainGraph, "chains",
                        lambda self: chains(self)[::-1])
    monkeypatch.setattr(PipelineConfig, "versions", property(
        lambda self: tuple(sorted(self.code_trees, reverse=True))))
    permuted = run_stages(mini_config("permuted"), through="verify")
    for name in ("matrix.json", "findings.jsonl", "ledger.json"):
        assert (permuted.workdir / "verify" / name).read_bytes() == \
            (forward.workdir / "verify" / name).read_bytes()


# ----------------------------------------------------------------- findings

COLS = ("linux-6.9", "linux-3.6", "linux-2.6.39", "android-4.19",
        "freebsd-13.3", "netbsd-9.4", "openbsd-7.5")

GRID = {
    793: "TTTTTTT",
    1948: "TTTTTTT",
    6528: "TFFTTFF",
    5961: "TTFTTFT",
    2385: "TTTTTTF",
    5925: "TFFFFFF",
    1323: "TTTTTTT",
    7323: "TFFFTFT",
}

WRONG_CELLS = {
    (6528, "linux-6.9"), (6528, "android-4.19"),
    (2385, "openbsd-7.5"),
    (7323, "android-4.19"), (7323, "openbsd-7.5"),
}


def cell(value):
    """A verdict cell with no trials, subject or flags."""
    return Verdict(value=value, trials=(), counts={}, subject="")


def evaluation_grid():
    matrix = {c: {} for c in COLS}
    truth = {c: {} for c in COLS}
    for rfc, row in GRID.items():
        for col, shown in zip(COLS, row):
            implemented = shown == "T"
            matrix[col][rfc] = cell("implemented" if implemented
                                    else "not-implemented")
            consistent = implemented
            if (rfc, col) in WRONG_CELLS:
                consistent = not consistent
            truth[col][rfc] = "consistent" if consistent else "inconsistent"
    return matrix, truth


def test_eight_rfc_seven_system_grid_confusion():
    matrix, truth = evaluation_grid()
    findings, confusion = compile_findings(matrix, truth)
    assert confusion == (15, 2, 36, 3)
    assert len(findings) == 20
    flagged = {(f.rfc, f.system) for f in findings
               if "ground-truth-mismatch" in f.flags}
    assert flagged == WRONG_CELLS


def test_findings_without_truth_cover_predicted_positives_only():
    matrix, _ = evaluation_grid()
    findings, confusion = compile_findings(
        matrix, vulnerability_classes={6528: "TCP sequence number prediction"})
    assert confusion is None
    assert len(findings) == 17
    for f in findings:
        expected = "TCP sequence number prediction" if f.rfc == 6528 \
            else "unclassified"
        assert f.vulnerability_class == expected


def test_shape_mismatches_are_rejected():
    matrix, truth = evaluation_grid()
    with pytest.raises(ShapeMismatch):
        compile_findings(matrix, {c: truth[c] for c in COLS[:-1]})
    short = {c: dict(truth[c]) for c in COLS}
    del short["linux-6.9"][793]
    with pytest.raises(ShapeMismatch):
        compile_findings(matrix, short)
    bad = {c: dict(truth[c]) for c in COLS}
    bad["linux-6.9"][793] = "fine"
    with pytest.raises(ShapeMismatch):
        compile_findings(matrix, bad)


def test_findings_pull_evidence_from_majority_trials():
    trials = (
        Trial(1, "not-implemented", "missing reseed", ("b.c:2:g",), "ir"),
        Trial(2, "implemented", "looks fine", ("a.c:1:f",), "ir"),
        Trial(3, "not-implemented", "", ("a.c:1:f", "b.c:2:g"), "ir"),
    )
    verdict = Verdict(value="not-implemented", trials=trials,
                      counts={"implemented": 1, "not-implemented": 2,
                              "unknown": 0},
                      subject="periodic secret key reseeding")
    findings, _ = compile_findings({"sys": {6528: verdict}})
    (finding,) = findings
    assert finding.description == \
        "periodic secret key reseeding: missing reseed"
    assert finding.evidence == ("a.c:1:f", "b.c:2:g")
    assert finding.system == "sys"
    assert finding.rfc == 6528


def test_unknown_cells_count_as_findings_with_flag():
    findings, confusion = compile_findings(
        {"sys": {793: cell("unknown")}}, {"sys": {793: "consistent"}})
    (finding,) = findings
    assert "unknown-verdict" in finding.flags
    assert "ground-truth-mismatch" in finding.flags
    assert confusion == (0, 1, 0, 0)


def test_verdict_and_finding_roundtrip_through_dicts():
    trials = (Trial(1, "unknown", "r", ("a.c:1:f",), "ir"),)
    verdict = Verdict(value="unknown", trials=trials,
                      counts={"implemented": 0, "not-implemented": 0,
                              "unknown": 1},
                      subject="s", flags=("whole-rfc",))
    assert Verdict.from_dict(json.loads(json.dumps(verdict.to_dict()))) \
        == verdict
    # Findings are read back as plain dicts.
    finding = Finding(system="sys", rfc=793, description="d",
                      vulnerability_class="v", evidence=("e",), flags=("f",))
    assert json.loads(json.dumps(finding.to_dict())) == {
        "system": "sys", "rfc": 793, "description": "d",
        "vulnerability_class": "v", "evidence": ["e"], "flags": ["f"]}
