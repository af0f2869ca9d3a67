"""Acceptance gate: eleven criteria, one printed PASS/FAIL line each.

The claim registry is swept once (module-scoped) and its reports are
shared by every criterion that grades claim outcomes, so the timing
budgets are measured on a single honest run.
"""

import io
import itertools
import random
import time

import pytest

from conftest import enumerate_models
from epicmp.corpus import REGISTRY, fixtures, run_all
from epicmp.cli import run_command
from epicmp.kripke import FrameClass, KripkeModel, classify_frame
from epicmp.search import SearchBounds, count_models
from epicmp.semantics import extension, satisfies, valid_in_model
from epicmp.syntax import parse

# claim ids graded by each criterion, pinned explicitly
AXIOM_IDS = (
    "KT-AX-PC-K", "KT-AX-PC-S", "KT-AX-PC-CONTRA", "KT-AX-NEC-DK",
    "KT-AX-DIST-DK", "KT-AX-VERACITY", "KT-AX-INCL", "KT-AX-ADD",
    "KT-AX-TRANS", "KT-AX-KT1", "KT-AX-NEC-CK", "KT-AX-DIST-CK",
    "KT-AX-FIXPOINT", "KT-AX-INDUCTION",
    "S4-AX-POSINTRO",
    "S5-AX-POSINTRO", "S5-AX-NEGINTRO", "S5-AX-KNOWNSUP",
)
S5_POSITIVE_IDS = (
    "S5-P2", "S5-P3A", "S5-P3B", "S5-P4", "S5-P5", "S5-P6A", "S5-P6B",
    "S5-P6C", "S5-P7", "S5-P10", "S5-P11", "S5-P16B", "S5-P16C",
)
S5_NEGATIVE_IDS = (
    "S5-OBS3", "S5-OBS4A", "S5-OBS4B", "S5-OBS5", "S5-STRICT-TEAM",
    "S5-STRICT-ADD",
)
KT_S4_POSITIVE_IDS = (
    "KT-MONO", "KT-OBS2A", "KT-OBS2B", "KT-OBS2C", "KT-P12A", "KT-P12B",
    "KT-P13", "KT-P14", "KT-PWW", "KT-ACK", "S4-P8", "S4-P16A",
)


@pytest.fixture(scope="module")
def claim_runs():
    start = time.perf_counter()
    reports = {r.claim_id: r for r in run_all()}
    return reports, time.perf_counter() - start


def _grade(capsys, number, failures):
    line = f"ACCEPTANCE criterion {number}: " \
           + ("PASS" if not failures else "FAIL")
    with capsys.disabled():
        print(line, flush=True)
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _claim_failures(reports, ids):
    out = []
    for cid in ids:
        rep = reports.get(cid)
        if rep is None:
            out.append(f"{cid}: missing from registry sweep")
        elif not rep.ok:
            out.append(f"{cid}: " + "; ".join(rep.details))
    return out


def test_criterion_01_fixture_frame_classes(capsys):
    start = time.perf_counter()
    figs = fixtures()
    failures = []
    got = {name: classify_frame(m).overall for name, m in figs.items()}
    want = {"fig1": FrameClass.S5, "fig2": FrameClass.S4,
            "fig3": FrameClass.S5}
    for name, frame in want.items():
        if got[name] is not frame:
            failures.append(f"{name} classified {got[name]}, "
                            f"expected {frame}")
    if got["fig2"] is FrameClass.S5:
        failures.append("fig2 must not be an equivalence frame")
    if time.perf_counter() - start >= 1.0:
        failures.append("classification exceeded 1s")
    _grade(capsys, 1, failures)


def test_criterion_02_fixture_annotations(capsys):
    start = time.perf_counter()
    figs = fixtures()
    point_facts = [
        ("fig3", "s", "[{b} < {a}]"),
        ("fig3", "t", "[{a} # {b}]"),
        ("fig3", "u", "[{a} < {b}]"),
        ("fig2", "s", "[{b} < {a}]"),
        ("fig2", "u", "[{a} < {b}]"),
        ("fig2", "s", "D{a,b} ~(T1 & T2)"),
    ]
    global_facts = [
        ("fig1", "[{a,b} < {c}]"),
        ("fig1", "C{a,b,c} [{a,b} < {c}]"),
        ("fig2", "C{a,b} (K{b} (T1 & T2) | K{b} ~(T1 & T2))"),
    ]
    failures = []
    for fig, world, text in point_facts:
        if not satisfies(figs[fig], world, parse(text)):
            failures.append(f"{fig}@{world} should satisfy {text}")
    for fig, text in global_facts:
        if not valid_in_model(figs[fig], parse(text)):
            failures.append(f"{fig} should validate {text}")
    if time.perf_counter() - start >= 1.0:
        failures.append("annotation checks exceeded 1s")
    _grade(capsys, 2, failures)


def test_criterion_03_axiom_soundness_sweep(capsys, claim_runs):
    reports, _ = claim_runs
    failures = _claim_failures(reports, AXIOM_IDS)
    spent = sum(reports[c].elapsed for c in AXIOM_IDS if c in reports)
    if spent >= 120.0:
        failures.append(f"axiom sweep took {spent:.1f}s (budget 120s)")
    _grade(capsys, 3, failures)


def test_criterion_04_equivalence_frame_positive_claims(capsys,
                                                        claim_runs):
    reports, _ = claim_runs
    _grade(capsys, 4, _claim_failures(reports, S5_POSITIVE_IDS))


def test_criterion_05_equivalence_frame_refutations(capsys, claim_runs):
    reports, _ = claim_runs
    _grade(capsys, 5, _claim_failures(reports, S5_NEGATIVE_IDS))


def test_criterion_06_reflexive_frame_positive_claims(capsys, claim_runs):
    reports, _ = claim_runs
    _grade(capsys, 6, _claim_failures(reports, KT_S4_POSITIVE_IDS))


def test_criterion_07_known_superiority_fails_without_symmetry(
        capsys, claim_runs):
    reports, _ = claim_runs
    failures = _claim_failures(reports, ("S4-KS-FAIL",))
    fig2 = fixtures()["fig2"]
    if not satisfies(fig2, "s", parse("[{b} <= {a}]")):
        failures.append("fig2@s should satisfy [{b} <= {a}]")
    if satisfies(fig2, "s", parse("K{b} [{b} <= {a}]")):
        failures.append("fig2@s should not satisfy K{b} [{b} <= {a}]")
    rep = reports.get("S4-KS-FAIL")
    if rep is not None and rep.countermodel is not None:
        if rep.countermodel.model.n_worlds != 2:
            failures.append(
                f"smallest countermodel has "
                f"{rep.countermodel.model.n_worlds} worlds, expected 2")
    _grade(capsys, 7, failures)


def _random_reflexive_model(rng):
    n = rng.randint(1, 4)
    k = rng.randint(1, 3)
    worlds = tuple(f"w{i}" for i in range(n))
    agents = ("a", "b", "c")[:k]
    edges = {
        agent: [(worlds[rng.randrange(n)], worlds[rng.randrange(n)])
                for _ in range(rng.randint(0, n * n))]
        for agent in agents
    }
    closure = rng.choice([("reflexive",),
                          ("reflexive", "transitive"),
                          ("reflexive", "symmetric", "transitive")])
    valuation = {atom: [w for w in worlds if rng.random() < 0.5]
                 for atom in ("p", "q")}
    return KripkeModel.from_edges(worlds, agents, edges, valuation,
                                  closure=closure)


def _chain_formulas():
    """For every agent count and 2-group supergroup: the entailment chain
    common knowledge -> group-common knowledge -> each group's joint
    knowledge -> the union's joint knowledge."""
    by_k = {}
    for k in (1, 2, 3):
        pool = ("a", "b", "c")[:k]
        subsets = [tuple(pool[i] for i in range(k) if mask >> i & 1)
                   for mask in range(1, 1 << k)]
        chains = []
        for g1, g2 in itertools.combinations(subsets, 2):
            union = ",".join(sorted(set(g1) | set(g2)))
            s1, s2 = ",".join(g1), ",".join(g2)
            for phi in ("p", "(p & q)"):
                chains.append(tuple(parse(t) for t in (
                    f"C{{{union}}} {phi}",
                    f"CD[{{{s1}}};{{{s2}}}] {phi}",
                    f"(D{{{s1}}} {phi} & D{{{s2}}} {phi})",
                    f"D{{{union}}} {phi}")))
        by_k[k] = chains
    return by_k


def test_criterion_08_entailment_chain_on_random_models(capsys):
    rng = random.Random(20240817)
    chains = _chain_formulas()
    failures = []
    for i in range(500):
        m = _random_reflexive_model(rng)
        for chain in chains[len(m.agents)]:
            exts = [extension(m, f) for f in chain]
            for step, (lo, hi) in enumerate(zip(exts, exts[1:])):
                if not lo <= hi:
                    failures.append(f"model {i}: chain step {step} "
                                    f"broken for {chain[0]}")
                    break
        if len(failures) > 3:
            break
    _grade(capsys, 8, failures)


def test_criterion_09_enumeration_count_identities(capsys):
    failures = []
    # independent partition-count oracle (Bell triangle)
    row = [1]
    bell = [1]
    for _ in range(5):
        row = list(itertools.accumulate([row[-1]] + row))
        bell.append(row[0])
    cases = [
        (SearchBounds(FrameClass.S5, 2, 3, atoms=("p",)),
         sum(bell[n] ** 2 << n for n in (1, 2, 3))),
        (SearchBounds(FrameClass.S5, 2, 3, atoms=("p",)), 218),
        (SearchBounds(FrameClass.KT, 1, 2), 5),
        (SearchBounds(FrameClass.S5, 1, 2), 3),
        (SearchBounds(FrameClass.KT, 2, 2, atoms=("p",)),
         sum((1 << (n * n - n)) ** 2 << n for n in (1, 2))),
    ]
    for bounds, expected in cases:
        counted = count_models(bounds)
        listed = sum(1 for _ in enumerate_models(bounds))
        if not counted == listed == expected:
            failures.append(f"{bounds}: count {counted}, enumerated "
                            f"{listed}, expected {expected}")
    _grade(capsys, 9, failures)


def test_criterion_10_parallel_search_is_deterministic(capsys):
    searches = [
        # positive equivalence-frame claim instance
        ("search", "--frame", "s5", "--agents", "2",
         "-f", "[{a} <= {b}] -> D{a} [{a} <= {b}]"),
        # refuted comparison projection
        ("search", "--frame", "s5", "--agents", "3",
         "-f", "[{a,c} <= {b,c}] -> [{a} <= {b}]"),
        # reflexive-frame team comparison
        ("search", "--frame", "kt", "--agents", "3",
         "-f", "[{b} <= {c}] -> [{a,b} <= {a,c}]"),
        # known-superiority failure without symmetry
        ("search", "--frame", "s4", "--agents", "2",
         "-f", "[{b} <= {a}] -> D{b} [{b} <= {a}]"),
    ]
    failures = []
    for argv in searches:
        results = []
        for jobs in ("1", "8"):
            out, err = io.StringIO(), io.StringIO()
            code = run_command([*argv, "--jobs", jobs], out=out, err=err)
            results.append((code, out.getvalue(), err.getvalue()))
        if results[0] != results[1]:
            failures.append(f"output differs across --jobs for {argv[-1]}")
    _grade(capsys, 10, failures)


def test_criterion_11_full_claim_registry_passes(capsys, claim_runs):
    reports, elapsed = claim_runs
    failures = _claim_failures(reports, tuple(REGISTRY))
    if len(reports) != len(REGISTRY):
        failures.append(f"swept {len(reports)} of {len(REGISTRY)} claims")
    if elapsed >= 300.0:
        failures.append(f"full sweep took {elapsed:.1f}s (budget 300s)")
    _grade(capsys, 11, failures)
