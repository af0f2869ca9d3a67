"""Built-in example models and an executable registry of validity claims.

The three fixtures are coin-scenario models: ``fig1`` -- two coins, three
agents who each see one coin or (agent c) only whether the coins agree;
``fig2`` -- an S4 variant where agent a cannot rule anything out at s while
agent b can; ``fig3`` -- a three-world model where the strength order
between agents differs from world to world.  Every annotation these models
are known for (which comparisons hold where) is frozen in the registry and
the test suite.

A claim pairs a formula or schema with search bounds and an expected
verdict: VALID_UP_TO_BOUND means every instantiation must come back
NoCountermodelUpTo; COUNTERMODEL means a designated fixture world falsifies
the formula directly and a bounded search must find a countermodel too.
Either way, a claim runs as one ``check_formulas`` call over its distinct
formulas: its built formulas, its schema's instances or its one formula.
``run_claim``/``run_all`` execute them and report PASS/FAIL; claims are
named ``<frame>-<slug>`` (AX- for axiom schemes, P/OBS for the numbered
claims they reproduce).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping

from .kripke import CorpusError, FrameClass, KripkeModel
from .search import (Countermodel, DEFAULT_FORMULA_POOL, NoCountermodelUpTo,
                     SearchBounds, _assignments, _subsets, check_formulas)
from .semantics import satisfies
from .syntax import (And, CK, Formula, Group, Imp, IndK, parse, render)

__all__ = [
    "Verdict", "CorpusClaim", "ClaimReport", "CorpusError",
    "fixtures", "REGISTRY", "claim_ids", "run_claim", "run_all",
    "claims_table",
]


def fixtures() -> dict[str, KripkeModel]:
    """The three built-in models, rebuilt fresh on every call."""
    fig1 = KripkeModel.from_edges(
        worlds=("HH", "TH", "HT", "TT"), agents=("a", "b", "c"),
        edges={"a": [("HH", "HT"), ("TH", "TT")],
               "b": [("HH", "TH"), ("HT", "TT")],
               "c": [("HH", "TT"), ("TH", "HT")]},
        valuation={"H1": ["HH", "HT"], "T1": ["TH", "TT"],
                   "H2": ["HH", "TH"], "T2": ["HT", "TT"]},
        closure=("reflexive", "symmetric"))
    fig2 = KripkeModel.from_edges(
        worlds=("s", "t", "u", "v"), agents=("a", "b"),
        edges={"a": [("s", "t"), ("s", "u"), ("s", "v")],
               "b": [("s", "u"), ("s", "v"), ("u", "v")]},
        valuation={"H1": ["s", "v"], "T1": ["t", "u"],
                   "H2": ["s", "u"], "T2": ["t", "v"]},
        closure=("reflexive",))
    fig3 = KripkeModel.from_edges(
        worlds=("s", "t", "u"), agents=("a", "b", "c"),
        edges={"a": [("s", "t")], "b": [("t", "u")], "c": [("s", "u")]},
        valuation={"H1": ["s", "t"], "T1": ["u"],
                   "H2": ["t", "u"], "T2": ["s"]},
        closure=("reflexive", "symmetric"))
    return {"fig1": fig1, "fig2": fig2, "fig3": fig3}


class Verdict:
    VALID_UP_TO_BOUND = "VALID_UP_TO_BOUND"
    COUNTERMODEL = "COUNTERMODEL"


@dataclass(frozen=True, eq=False)
class CorpusClaim:
    id: str
    statement: str
    expected: str                     # one of the Verdict constants
    bounds: SearchBounds
    schema: Formula | None = None     # checked over all instantiations
    pool: tuple[str, ...] = ()        # agent pool for group placeholders
    formula_pool: tuple[Formula, ...] | None = None
    constraint: Callable[[dict[str, Group]], bool] | None = None
    build_formulas: Callable[[], tuple[Formula, ...]] | None = None
    formula: Formula | None = None    # single closed formula
    witness: tuple[str, str] | None = None        # (fixture, world)
    extra_facts: tuple[tuple[str, str, str], ...] = ()
    expect_min_worlds: int | None = None

    @property
    def frame(self) -> FrameClass:
        return self.bounds.frame


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    ok: bool
    expected: str
    n_instances: int
    models_checked: int
    elapsed: float
    details: tuple[str, ...] = ()
    countermodel: Countermodel | None = None


# --- registry ------------------------------------------------------------

_TAUT_POOL = (parse("p -> p"), parse("p | ~p"), parse("(p & q) -> p"))

_KT2 = SearchBounds(FrameClass.KT, n_agents=2, max_worlds=3)
_KT2PQ = SearchBounds(FrameClass.KT, n_agents=2, max_worlds=3,
                      atoms=("p", "q"))
_KT3 = SearchBounds(FrameClass.KT, n_agents=3, max_worlds=3)
_S4_2 = SearchBounds(FrameClass.S4, n_agents=2, max_worlds=3)
_S4_2PQ = SearchBounds(FrameClass.S4, n_agents=2, max_worlds=3,
                       atoms=("p", "q"))
_S5_2 = SearchBounds(FrameClass.S5, n_agents=2, max_worlds=4)
_S5_2PQ = SearchBounds(FrameClass.S5, n_agents=2, max_worlds=4,
                       atoms=("p", "q"))
_S5_3 = SearchBounds(FrameClass.S5, n_agents=3, max_worlds=4)

_AB = ("a", "b")
_ABC = ("a", "b", "c")


def _singletons(gm: dict[str, Group]) -> bool:
    return all(len(g.agents) == 1 for g in gm.values())


def _subgroup(gm: dict[str, Group]) -> bool:
    return set(gm["B"].agents) <= set(gm["A"].agents)


def _conj(parts: list[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def _fixpoint_formulas() -> tuple[Formula, ...]:
    out = []
    for group in _subsets(_AB):
        for phi in DEFAULT_FORMULA_POOL:
            ck = CK(group, phi)
            each = _conj([IndK(ag, ck) for ag in group.agents])
            out.append(Imp(ck, And(phi, each)))
    return tuple(out)


def _induction_formulas() -> tuple[Formula, ...]:
    out = []
    for group in _subsets(_AB):
        for phi in DEFAULT_FORMULA_POOL:
            each = _conj([IndK(ag, phi) for ag in group.agents])
            premise = CK(group, Imp(phi, each))
            out.append(Imp(premise, Imp(phi, CK(group, phi))))
    return tuple(out)


def _claims() -> list[CorpusClaim]:
    c: list[CorpusClaim] = []

    def valid(id: str, statement: str, schema: str, bounds: SearchBounds,
              pool: tuple[str, ...] = _AB, **kw) -> None:
        c.append(CorpusClaim(id=id, statement=statement,
                             expected=Verdict.VALID_UP_TO_BOUND,
                             bounds=bounds, schema=parse(schema),
                             pool=pool, **kw))

    def falsified(id: str, statement: str, formula: str,
                  bounds: SearchBounds, witness: tuple[str, str],
                  **kw) -> None:
        c.append(CorpusClaim(id=id, statement=statement,
                             expected=Verdict.COUNTERMODEL,
                             bounds=bounds, formula=parse(formula),
                             witness=witness, **kw))

    # propositional base (three Hilbert schemes over the formula pool)
    valid("KT-AX-PC-K", "weakening", "phi -> (psi -> phi)", _KT2PQ)
    valid("KT-AX-PC-S", "distribution of implication",
          "(phi -> (psi -> chi)) -> ((phi -> psi) -> (phi -> chi))", _KT2PQ)
    valid("KT-AX-PC-CONTRA", "contraposition",
          "(~phi -> ~psi) -> (psi -> phi)", _KT2PQ)
    # group-knowledge operator: necessitation (on tautologies), normality,
    # truthfulness
    valid("KT-AX-NEC-DK", "joint knowledge of tautologies",
          "D{A} phi", _KT2PQ, formula_pool=_TAUT_POOL)
    valid("KT-AX-DIST-DK", "joint knowledge distributes over implication",
          "D{A} (phi -> psi) -> (D{A} phi -> D{A} psi)", _KT2PQ)
    valid("KT-AX-VERACITY", "joint knowledge is true",
          "D{A} phi -> phi", _KT2PQ)
    # comparison axioms
    valid("KT-AX-INCL", "a group knows at least what any subgroup knows",
          "[{A} <= {B}]", _KT2, constraint=_subgroup)
    valid("KT-AX-ADD", "dominating two groups dominates their union",
          "([{A} <= {B}] & [{A} <= {C}]) -> [{A} <= {B,C}]", _KT2)
    valid("KT-AX-TRANS", "comparison is transitive",
          "([{A} <= {B}] & [{B} <= {C}]) -> [{A} <= {C}]", _KT2)
    valid("KT-AX-KT1", "knowledge transfers from dominated to dominating",
          "[{A} <= {B}] -> (D{B} phi -> D{A} phi)", _KT2PQ)
    # shared-knowledge operator: necessitation, normality, fixed point,
    # induction
    valid("KT-AX-NEC-CK", "common knowledge of tautologies",
          "C{A} phi", _KT2PQ, formula_pool=_TAUT_POOL)
    valid("KT-AX-DIST-CK", "common knowledge distributes over implication",
          "C{A} (phi -> psi) -> (C{A} phi -> C{A} psi)", _KT2PQ)
    c.append(CorpusClaim(
        id="KT-AX-FIXPOINT",
        statement="common knowledge unfolds one step for every member",
        expected=Verdict.VALID_UP_TO_BOUND, bounds=_KT2PQ,
        build_formulas=_fixpoint_formulas))
    c.append(CorpusClaim(
        id="KT-AX-INDUCTION",
        statement="a commonly known invariant is common knowledge",
        expected=Verdict.VALID_UP_TO_BOUND, bounds=_KT2PQ,
        build_formulas=_induction_formulas))
    # introspection and known superiority on stronger frames
    valid("S4-AX-POSINTRO", "positive introspection",
          "D{A} phi -> D{A} D{A} phi", _S4_2PQ)
    valid("S5-AX-POSINTRO", "positive introspection",
          "D{A} phi -> D{A} D{A} phi", _S5_2PQ)
    valid("S5-AX-NEGINTRO", "negative introspection",
          "~D{A} phi -> D{A} ~D{A} phi", _S5_2PQ)
    valid("S5-AX-KNOWNSUP", "the stronger group knows its superiority",
          "[{A} <= {B}] -> D{A} [{A} <= {B}]", _S5_2)

    # what comparison facts the groups themselves know (equivalence frames)
    valid("S5-P2", "the dominating group knows it dominates",
          "[{B} <= {C}] -> D{B} [{B} <= {C}]", _S5_2)
    valid("S5-P3A", "equivalent groups both know they are equivalent",
          "[{B} == {C}] -> (D{B} [{B} == {C}] & D{C} [{B} == {C}])", _S5_2)
    valid("S5-P3B", "inequivalent groups both know they are not equivalent",
          "~[{B} == {C}] -> (D{B} ~[{B} == {C}] & D{C} ~[{B} == {C}])",
          _S5_2)
    valid("S5-P4", "the strictly stronger group knows it",
          "[{B} < {C}] -> D{B} [{B} < {C}]", _S5_2)
    valid("S5-P5", "a group not dominated knows it is not dominated",
          "~[{C} <= {B}] -> D{C} ~[{C} <= {B}]", _S5_2)
    valid("S5-P6A", "the union of the compared groups knows who dominates",
          "[{B} <= {C}] -> D{B,C} [{B} <= {C}]", _S5_2)
    valid("S5-P6B", "the union knows the groups are equivalent",
          "[{B} == {C}] -> D{B,C} [{B} == {C}]", _S5_2)
    valid("S5-P6C", "the union knows the strict order",
          "[{B} < {C}] -> D{B,C} [{B} < {C}]", _S5_2)
    valid("S5-P7", "the union knows when the groups are not equivalent",
          "~[{B} == {C}] -> D{B,C} ~[{B} == {C}]", _S5_2)
    valid("S5-P10", "equivalence of two agents is common knowledge",
          "[{B} == {C}] -> C{B,C} [{B} == {C}]", _S5_2,
          constraint=_singletons)
    valid("S5-P11", "inequivalence of two agents is common knowledge",
          "~[{B} == {C}] -> C{B,C} ~[{B} == {C}]", _S5_2,
          constraint=_singletons)
    valid("S5-P16B", "group equivalence is commonly distributed knowledge",
          "[{B} == {C}] -> CD[{B};{C}] [{B} == {C}]", _S5_2)
    valid("S5-P16C", "group inequivalence is commonly distributed knowledge",
          "~[{B} == {C}] -> CD[{B};{C}] ~[{B} == {C}]", _S5_2)

    # failures on equivalence frames: what the weaker side need not know
    falsified("S5-OBS3", "incomparable groups may both miss that fact",
              "[{a} # {b}] -> (D{a} [{a} # {b}] | D{b} [{a} # {b}])",
              _S5_2, witness=("fig3", "t"),
              extra_facts=(("fig3", "t", "[{a} # {b}]"),
                           ("fig3", "t", "~K{a} [{a} # {b}]"),
                           ("fig3", "t", "~K{b} [{a} # {b}]")))
    falsified("S5-OBS4A", "the dominated group may not know the strict order",
              "[{a} < {b}] -> D{b} [{a} < {b}]",
              _S5_2, witness=("fig3", "u"),
              extra_facts=(("fig3", "u", "[{a} < {b}]"),
                           ("fig3", "u", "~K{b} [{a} < {b}]")))
    falsified("S5-OBS4B", "the dominated group may not know it is dominated",
              "[{a} <= {b}] -> D{b} [{a} <= {b}]",
              _S5_2, witness=("fig3", "u"),
              extra_facts=(("fig3", "u", "~K{b} [{a} <= {b}]"),))
    falsified("S5-OBS5", "dominance with a shared member does not project",
              "[{a,c} <= {b,c}] -> [{a} <= {b}]",
              _S5_3, witness=("fig3", "t"),
              extra_facts=(("fig3", "t", "[{a,c} == {b,c}]"),))
    falsified("S5-STRICT-TEAM",
              "a strict advantage can vanish when both sides recruit c",
              "[{a} < {c}] -> [{a,b} < {b,c}]",
              _S5_3, witness=("fig3", "u"),
              extra_facts=(("fig3", "u", "[{a} < {c}]"),
                           ("fig3", "u", "~[{a,b} < {b,c}]"),
                           ("fig3", "s", "~[{a,b} < {b,c}]")))
    falsified("S5-STRICT-ADD",
              "strictly dominating two groups need not strictly dominate "
              "their union",
              "([{a} < {b}] & [{a} < {c}]) -> [{a} < {b,c}]",
              _S5_3, witness=("fig3", "u"),
              extra_facts=(("fig3", "u", "[{a} < {b}] & [{a} < {c}]"),
                           ("fig3", "u", "[{a} == {b,c}]")))

    # reflexive-frame facts about comparison
    valid("KT-MONO", "a larger group knows at least as much",
          "D{B} phi -> D{B,C} phi", _KT2PQ)
    valid("KT-OBS2A", "not dominating means strictly weaker or incomparable",
          "~[{B} <= {C}] <-> ([{C} < {B}] | [{B} # {C}])", _KT2)
    valid("KT-OBS2B", "not strictly stronger means dominated or incomparable",
          "~[{B} < {C}] <-> ([{C} <= {B}] | [{B} # {C}])", _KT2)
    valid("KT-OBS2C", "comparable means one side dominates",
          "~[{B} # {C}] <-> ([{B} <= {C}] | [{C} <= {B}])", _KT2)
    valid("KT-P12A", "joining the same helpers preserves dominance",
          "[{B} <= {C}] -> [{A,B} <= {A,C}]", _KT3, pool=_ABC)
    valid("KT-P12B", "joining the same helpers preserves equivalence",
          "[{B} == {C}] -> [{A,B} == {A,C}]", _KT3, pool=_ABC)
    valid("KT-P13", "a strict team advantage over comparable cores projects",
          "([{A,B} < {A,C}] & ~[{B} # {C}]) -> [{B} < {C}]",
          _KT3, pool=_ABC)
    valid("KT-P14", "a team strictly above another team beats its core",
          "[{A,B} < {A,C}] -> [{A,B} < {C}]", _KT3, pool=_ABC)
    valid("KT-PWW", "dominating a union is dominating both parts",
          "([{B} <= {C}] & [{B} <= {E}]) <-> [{B} <= {C,E}]",
          _KT3, pool=_ABC)
    valid("KT-ACK", "if the dominated side knows the order, so does the "
          "dominating side",
          "D{C} [{B} <= {C}] -> D{B} [{B} <= {C}]", _KT2)
    valid("S4-P8", "an agent knowing it is dominated makes that common "
          "knowledge between the two",
          "D{C} [{B} <= {C}] -> C{B,C} [{B} <= {C}]", _S4_2,
          constraint=_singletons)
    valid("S4-P16A", "a group knowing it is dominated makes that commonly "
          "distributed knowledge",
          "D{C} [{B} <= {C}] -> CD[{B};{C}] [{B} <= {C}]", _S4_2)
    c.append(CorpusClaim(
        id="S4-KS-FAIL",
        statement="without symmetry the stronger group may not know its "
                  "superiority",
        expected=Verdict.COUNTERMODEL,
        bounds=SearchBounds(FrameClass.S4, n_agents=2, max_worlds=4),
        schema=parse("[{B} <= {C}] -> D{B} [{B} <= {C}]"), pool=_AB,
        formula=parse("[{b} <= {a}] -> D{b} [{b} <= {a}]"),
        witness=("fig2", "s"),
        extra_facts=(("fig2", "s", "[{b} <= {a}]"),
                     ("fig2", "s", "~K{b} [{b} <= {a}]")),
        expect_min_worlds=2))

    # shared knowledge among groups-as-agents: the entailment chain
    valid("KT-P15A", "plain common knowledge implies the group-level kind",
          "C{B,C} phi -> CD[{B};{C}] phi", _KT2PQ)
    valid("KT-P15B", "group-level common knowledge implies each group knows",
          "CD[{B};{C}] phi -> (D{B} phi & D{C} phi)", _KT2PQ)
    valid("KT-P15C", "every listed group knowing implies the union knows",
          "(D{B} phi & D{C} phi) -> D{B,C} phi", _KT2PQ)
    return c


REGISTRY: dict[str, CorpusClaim] = {cl.id: cl for cl in _claims()}


def claim_ids() -> tuple[str, ...]:
    return tuple(REGISTRY)


# --- execution -----------------------------------------------------------

def _formulas(claim: CorpusClaim) -> list[Formula]:
    """The claim's distinct formulas, in the order first built: its built
    formulas, its schema's instances or its one formula."""
    if claim.build_formulas is not None:
        return list(dict.fromkeys(claim.build_formulas()))
    if claim.schema is not None:
        return list(dict.fromkeys(inst for _, _, inst in _assignments(
            claim.schema, claim.pool, claim.formula_pool, claim.constraint)))
    assert claim.formula is not None
    return [claim.formula]


def _check_facts(claim: CorpusClaim, models: Mapping[str, KripkeModel],
                 details: list[str]) -> None:
    if claim.witness is not None:
        fix, world = claim.witness
        assert claim.formula is not None
        if satisfies(models[fix], world, claim.formula):
            details.append(f"witness {fix}@{world} fails to falsify "
                           f"{render(claim.formula)}")
    for fix, world, text in claim.extra_facts:
        if not satisfies(models[fix], world, parse(text)):
            details.append(f"expected fact false at {fix}@{world}: {text}")


def run_claim(claim_id: str, *, jobs: int = 1) -> ClaimReport:
    claim = REGISTRY.get(claim_id)
    if claim is None:
        raise CorpusError(f"unknown claim id {claim_id!r}")
    start = time.perf_counter()
    details: list[str] = []
    refute = claim.expected == Verdict.COUNTERMODEL
    if refute:
        _check_facts(claim, fixtures(), details)
    formulas = _formulas(claim)
    outcomes = dict(zip(formulas, check_formulas(formulas, claim.bounds,
                                                 jobs=jobs)))
    models_checked = 0
    countermodel: Countermodel | None = None
    for formula, outcome in outcomes.items():
        if isinstance(outcome, NoCountermodelUpTo):
            models_checked += outcome.models_checked
            continue
        if countermodel is None:
            countermodel = outcome
        if not refute:
            details.append(
                f"unexpected countermodel for {render(formula)} "
                f"({outcome.model.n_worlds} worlds, "
                f"witness {outcome.witness})")
    if refute and countermodel is None:
        details.append("search found no countermodel within bounds")
    elif refute and claim.formula is not None:
        own = outcomes[claim.formula]
        if isinstance(own, NoCountermodelUpTo):
            details.append(
                f"search found no countermodel to "
                f"{render(claim.formula)} within bounds")
        else:
            countermodel = own
            if satisfies(own.model, own.witness, claim.formula):
                details.append("countermodel fails to falsify at "
                               "its witness")
            if claim.expect_min_worlds is not None and \
                    own.model.n_worlds != claim.expect_min_worlds:
                details.append(
                    f"smallest countermodel has "
                    f"{own.model.n_worlds} worlds, expected "
                    f"{claim.expect_min_worlds}")

    return ClaimReport(claim_id=claim.id, ok=not details,
                       expected=claim.expected, n_instances=len(formulas),
                       models_checked=models_checked,
                       elapsed=time.perf_counter() - start,
                       details=tuple(details), countermodel=countermodel)


def run_all(*, frame: FrameClass | None = None, id_prefix: str | None = None,
            jobs: int = 1) -> list[ClaimReport]:
    reports = []
    for claim in REGISTRY.values():
        if frame is not None and claim.frame != frame:
            continue
        if id_prefix is not None and not claim.id.startswith(id_prefix):
            continue
        reports.append(run_claim(claim.id, jobs=jobs))
    return reports


def claims_table() -> str:
    """The registry as a markdown table (shipped under docs/)."""
    rows = ["| id | frame | expected | checked | statement |",
            "| --- | --- | --- | --- | --- |"]
    for claim in REGISTRY.values():
        if claim.schema is not None:
            checked = f"`{render(claim.schema)}`"
            if claim.formula is not None:
                checked += f" (witness instance `{render(claim.formula)}`)"
        elif claim.formula is not None:
            checked = f"`{render(claim.formula)}`"
        else:
            checked = "built instances"
        expect = ("no countermodel up to bound"
                  if claim.expected == Verdict.VALID_UP_TO_BOUND
                  else "countermodel")
        rows.append(f"| {claim.id} | {claim.frame} | {expect} | {checked} "
                    f"| {claim.statement} |")
    return "\n".join(rows) + "\n"
