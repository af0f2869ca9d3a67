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
Either way, a claim is checked through its distinct formulas: its built
formulas, its schema's instances or its one formula.  ``run_claim`` checks
them in one ``check_formulas`` call, and ``run_all`` checks the claims
that share bounds in one call over the union of their formulas.
A schema's group placeholders A/B/C/E range over the non-empty subsets of
the claim's agent pool and phi/psi/chi over its formula pool, and
``instantiate_schema`` substitutes them.
``run_claim``/``run_all`` execute them and report PASS/FAIL; claims are
named ``<frame>-<slug>`` (AX- for axiom schemes, P/OBS for the numbered
claims they reproduce).
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .kripke import CorpusError, FrameClass, KripkeModel
from .search import (Countermodel, NoCountermodelUpTo, SearchBounds,
                     SearchOutcome, check_formulas)
from .semantics import satisfies
from .syntax import (And, Atom, CDK, CK, Cmp, DK, Formula, Group, Imp, IndK,
                     Supergroup, agent_names, atom_names, fold, parse, render)

__all__ = [
    "Verdict", "CorpusClaim", "ClaimReport", "CorpusError",
    "fixtures", "REGISTRY", "claim_ids", "run_claim", "run_all",
    "claims_table", "instantiate_schema",
    "GROUP_PLACEHOLDERS", "FORMULA_PLACEHOLDERS", "DEFAULT_FORMULA_POOL",
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


# --- schema instantiation ------------------------------------------------

GROUP_PLACEHOLDERS = ("A", "B", "C", "E")
FORMULA_PLACEHOLDERS = ("phi", "psi", "chi")

DEFAULT_FORMULA_POOL: tuple[Formula, ...] = (
    parse("p"), parse("~p"), parse("p & q"), parse("D{a} p"),
)


def _subst_group(g: Group, group_map: Mapping[str, Group]) -> Group:
    if len(g.agents) == 1:
        return group_map.get(g.agents[0], g)
    agents: list[str] = []
    for a in g.agents:
        if a in group_map:
            agents.extend(group_map[a].agents)
        else:
            agents.append(a)
    return Group(agents)


# each node that names a placeholder, from its instantiated children and
# the group and formula maps; the other nodes rebuild from their children
_SUBST = {
    Atom: lambda f, gm, fm: fm.get(f.name, f),
    DK: lambda f, gm, fm, sub: DK(_subst_group(f.group, gm), sub),
    CK: lambda f, gm, fm, sub: CK(_subst_group(f.group, gm), sub),
    CDK: lambda f, gm, fm, sub: CDK(
        Supergroup(_subst_group(g, gm) for g in f.groups.groups), sub),
    IndK: lambda f, gm, fm, sub: (DK(gm[f.agent], sub) if f.agent in gm
                                  else f.rebuild(sub)),
    Cmp: lambda f, gm, fm: Cmp(f.op, _subst_group(f.left, gm),
                               _subst_group(f.right, gm)),
}


def instantiate_schema(schema: Formula, group_map: Mapping[str, Group],
                       formula_map: Mapping[str, Formula]) -> Formula:
    """Substitute placeholder group members (unioning) and placeholder
    atoms; non-placeholder names pass through unchanged."""
    def step(f: Formula, *subs: Formula) -> Formula:
        subst = _SUBST.get(type(f))
        if subst is None:
            return f.rebuild(*subs)
        return subst(f, group_map, formula_map, *subs)

    return fold(schema, step)


def _subsets(pool: Sequence[str]) -> list[Group]:
    out = []
    for mask in range(1, 1 << len(pool)):
        out.append(Group(pool[i] for i in range(len(pool))
                         if mask >> i & 1))
    return out


@dataclass(frozen=True, eq=False)
class CorpusClaim:
    id: str
    statement: str
    expected: str                     # one of the Verdict constants
    bounds: SearchBounds
    schema: Formula | None = None     # checked over all instantiations
    pool: tuple[str, ...] = ()        # agent pool for group placeholders
    formula_pool: tuple[Formula, ...] = DEFAULT_FORMULA_POOL
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


def _each_knows(group: Group, phi: Formula) -> Formula:
    return functools.reduce(And, [IndK(ag, phi) for ag in group.agents])


def _built(build: Callable[[Group, Formula], Formula]
           ) -> Callable[[], tuple[Formula, ...]]:
    """A claim's formula builder: build(group, phi) for each group of
    agents a, b and each formula of the default pool, group slowest."""
    return lambda: tuple(build(group, phi) for group in _subsets(_AB)
                         for phi in DEFAULT_FORMULA_POOL)


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
        build_formulas=_built(lambda group, phi: Imp(
            CK(group, phi), And(phi, _each_knows(group, CK(group, phi)))))))
    c.append(CorpusClaim(
        id="KT-AX-INDUCTION",
        statement="a commonly known invariant is common knowledge",
        expected=Verdict.VALID_UP_TO_BOUND, bounds=_KT2PQ,
        build_formulas=_built(lambda group, phi: Imp(
            CK(group, Imp(phi, _each_knows(group, phi))),
            Imp(phi, CK(group, phi))))))
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

def _instances(claim: CorpusClaim) -> Iterator[Formula]:
    """The claim's schema instantiated at each placeholder assignment that
    its constraint accepts, the first placeholder varying slowest."""
    schema = claim.schema
    assert schema is not None
    gp = [p for p in GROUP_PLACEHOLDERS if p in agent_names(schema)]
    fp = [p for p in FORMULA_PLACEHOLDERS if p in atom_names(schema)]
    for groups in itertools.product(_subsets(claim.pool), repeat=len(gp)):
        group_map = dict(zip(gp, groups))
        if claim.constraint is not None and not claim.constraint(group_map):
            continue
        for formulas in itertools.product(claim.formula_pool,
                                          repeat=len(fp)):
            yield instantiate_schema(schema, group_map,
                                     dict(zip(fp, formulas)))


def _formulas(claim: CorpusClaim) -> list[Formula]:
    """The claim's distinct formulas, in the order first built: its built
    formulas, its schema's instances or its one formula."""
    if claim.build_formulas is not None:
        return list(dict.fromkeys(claim.build_formulas()))
    if claim.schema is not None:
        return list(dict.fromkeys(_instances(claim)))
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


def _report(claim: CorpusClaim, details: list[str],
            outcomes: Mapping[Formula, SearchOutcome],
            elapsed: float) -> ClaimReport:
    """The claim's report from the outcome of each of its distinct
    formulas, in the order built; `elapsed` is the time spent on the
    claim before this call."""
    start = time.perf_counter()
    refute = claim.expected == Verdict.COUNTERMODEL
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
                       expected=claim.expected, n_instances=len(outcomes),
                       models_checked=models_checked,
                       elapsed=elapsed + time.perf_counter() - start,
                       details=tuple(details), countermodel=countermodel)


def _run_group(bounds: SearchBounds,
               claims: Sequence[CorpusClaim]) -> list[ClaimReport]:
    """The reports of claims that share bounds, from one `check_formulas`
    call over the union of their distinct formulas, in the order first
    built.  A claim's `elapsed` is its own time (fixture checks, formulas
    and report) plus a share of the call's time in proportion to its
    formulas."""
    prepared: list[tuple[list[str], list[Formula]]] = []
    own = []
    for claim in claims:
        start = time.perf_counter()
        details: list[str] = []
        if claim.expected == Verdict.COUNTERMODEL:
            _check_facts(claim, fixtures(), details)
        prepared.append((details, _formulas(claim)))
        own.append(time.perf_counter() - start)
    union = list(dict.fromkeys(f for _, formulas in prepared
                               for f in formulas))
    start = time.perf_counter()
    outcomes = dict(zip(union, check_formulas(union, bounds)))
    share = (time.perf_counter() - start) \
        / max(1, sum(len(formulas) for _, formulas in prepared))
    return [_report(claim, details, {f: outcomes[f] for f in formulas},
                    spent + share * len(formulas))
            for claim, (details, formulas), spent
            in zip(claims, prepared, own)]


def run_claim(claim_id: str) -> ClaimReport:
    claim = REGISTRY.get(claim_id)
    if claim is None:
        raise CorpusError(f"unknown claim id {claim_id!r}")
    return _run_group(claim.bounds, [claim])[0]


def run_all(*, frame: FrameClass | None = None) -> list[ClaimReport]:
    """Every claim's report (those of one frame class, given `frame`), in
    registry order.  The claims that share bounds are checked together,
    one group at a time, so each span's block and walk serve the whole
    group, and a group's formulas are dropped before the next group is
    built.  The `elapsed` of a group's claims adds up to the group's time,
    so the column adds up to the run."""
    groups: dict[SearchBounds, list[CorpusClaim]] = {}
    for claim in REGISTRY.values():
        if frame is None or claim.frame == frame:
            groups.setdefault(claim.bounds, []).append(claim)
    reports = {report.claim_id: report
               for bounds, claims in groups.items()
               for report in _run_group(bounds, claims)}
    return [reports[claim_id] for claim_id in REGISTRY
            if claim_id in reports]


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
