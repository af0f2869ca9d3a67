"""Claim-registry tests: fixture integrity, registry shape, witness facts,
a schema's instances (their order, constraint, formula pool and
duplicates, and their one sweep against a plain per-model sweep with the
pair-set oracle) and a few representative claim runs (the full sweep
lives in the acceptance module)."""

import time
from pathlib import Path

import pytest

import epicmp.corpus as corpus
import epicmp.search as search
from conftest import encode_model, enumerate_models, oracle_extension
from epicmp.corpus import (DEFAULT_FORMULA_POOL, REGISTRY, CorpusClaim,
                           CorpusError, Verdict, claims_table, fixtures,
                           run_all, run_claim)
from epicmp.kripke import FrameClass, classify_frame, load_model
from epicmp.search import (Countermodel, NoCountermodelUpTo, SearchBounds,
                           check_formulas)
from epicmp.semantics import satisfies
from epicmp.syntax import parse

ROOT = Path(__file__).resolve().parent.parent


# --- fixtures -------------------------------------------------------------

def test_fixture_frame_classes():
    figs = fixtures()
    assert classify_frame(figs["fig1"]).overall is FrameClass.S5
    assert classify_frame(figs["fig2"]).overall is FrameClass.S4
    assert classify_frame(figs["fig3"]).overall is FrameClass.S5
    assert set(figs) == {"fig1", "fig2", "fig3"}


def test_fixtures_are_rebuilt_fresh():
    assert fixtures()["fig1"] == fixtures()["fig1"]
    assert fixtures()["fig1"] is not fixtures()["fig1"]


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_shipped_model_files_match_builtins(name):
    text = (ROOT / "fixtures" / f"{name}.km").read_text()
    assert load_model(text) == fixtures()[name]


# --- registry shape -------------------------------------------------------

def test_registry_ids_are_wellformed_and_consistent():
    assert len(REGISTRY) == 53
    for cid, claim in REGISTRY.items():
        assert cid == claim.id
        assert cid.startswith(str(claim.frame) + "-")
        assert claim.expected in (Verdict.VALID_UP_TO_BOUND,
                                  Verdict.COUNTERMODEL)
        has_payload = (claim.schema is not None
                       or claim.formula is not None
                       or claim.build_formulas is not None)
        assert has_payload
        if claim.expected == Verdict.COUNTERMODEL:
            assert claim.witness is not None
            assert claim.formula is not None


def test_both_verdicts_and_all_frames_are_represented():
    expected = {c.expected for c in REGISTRY.values()}
    assert expected == {Verdict.VALID_UP_TO_BOUND, Verdict.COUNTERMODEL}
    frames = {c.frame for c in REGISTRY.values()}
    assert frames == {FrameClass.KT, FrameClass.S4, FrameClass.S5}


def test_countermodel_witnesses_falsify_and_extra_facts_hold():
    figs = fixtures()
    checked = 0
    for claim in REGISTRY.values():
        for fix, world, text in claim.extra_facts:
            assert satisfies(figs[fix], world, parse(text)), claim.id
        if claim.expected != Verdict.COUNTERMODEL:
            continue
        checked += 1
        fix, world = claim.witness
        assert not satisfies(figs[fix], world, claim.formula), claim.id
    assert checked == 7


def test_countermodel_claims_search_their_formula_once(monkeypatch):
    """A COUNTERMODEL claim's formula is one of its instances, so the
    instance sweep already finds the countermodel run_claim reports."""
    searched = []

    def recording(formulas, bounds, **kw):
        searched.extend(formulas)
        return check_formulas(formulas, bounds, **kw)

    monkeypatch.setattr(search, "check_formulas", recording)
    monkeypatch.setattr(corpus, "check_formulas", recording)
    claims = [c for c in REGISTRY.values()
              if c.expected == Verdict.COUNTERMODEL]
    assert len(claims) == 7
    for claim in claims:
        searched.clear()
        report = run_claim(claim.id)
        assert report.ok, claim.id
        assert searched.count(claim.formula) == 1, claim.id
        assert report.countermodel == check_formulas([claim.formula],
                                                     claim.bounds)[0]


def test_each_claim_is_one_check_formulas_call(monkeypatch):
    """run_claim reaches the search through one check_formulas call per
    claim, over the claim's distinct formulas, and through no other entry
    point."""
    calls = []

    def recording(formulas, bounds, **kw):
        calls.append(list(formulas))
        return check_formulas(formulas, bounds, **kw)

    def unreachable(*args, **kw):
        raise AssertionError("run_claim left the check_formulas path")

    monkeypatch.setattr(corpus, "check_formulas", recording)
    monkeypatch.setattr(search, "check_validity", unreachable)
    monkeypatch.setattr(corpus, "check_validity", unreachable, raising=False)
    for claim_id in REGISTRY:
        calls.clear()
        report = run_claim(claim_id)
        assert len(calls) == 1, claim_id
        formulas = calls[0]
        assert len(set(formulas)) == len(formulas) == report.n_instances, \
            claim_id


def test_run_all_is_one_check_formulas_call_per_bounds(monkeypatch):
    """run_all checks the claims that share bounds in one check_formulas
    call over their distinct formulas, in the order first built, and
    splits each call's time over its claims, so the time column adds up
    to no more than the run."""
    calls = []

    def recording(formulas, bounds, **kw):
        calls.append((bounds, list(formulas)))
        return check_formulas(formulas, bounds, **kw)

    monkeypatch.setattr(corpus, "check_formulas", recording)
    start = time.perf_counter()
    reports = run_all()
    wall = time.perf_counter() - start
    groups: dict[SearchBounds, list[CorpusClaim]] = {}
    for claim in REGISTRY.values():
        groups.setdefault(claim.bounds, []).append(claim)
    assert len(groups) == 9
    assert [bounds for bounds, _ in calls] == list(groups)
    for (_, formulas), claims in zip(calls, groups.values()):
        assert formulas == list(dict.fromkeys(
            f for claim in claims for f in corpus._formulas(claim)))
    assert [r.claim_id for r in reports] == list(REGISTRY)
    assert all(r.elapsed > 0 for r in reports)
    assert sum(r.elapsed for r in reports) <= wall


# --- schema instances -----------------------------------------------------

def _schema_claim(schema: str, bounds: SearchBounds,
                  pool: tuple[str, ...] = ("a", "b"), **kw) -> CorpusClaim:
    return CorpusClaim(id=f"{bounds.frame}-TEST", statement="a test schema",
                       expected=Verdict.VALID_UP_TO_BOUND, bounds=bounds,
                       schema=parse(schema), pool=pool, **kw)


def test_schema_sweep_counts_order_and_verdicts():
    bounds = SearchBounds(FrameClass.KT, 2, 2, atoms=("p", "q"))
    claim = _schema_claim("D{B} phi -> D{A,B} phi", bounds)
    assert len(list(corpus._instances(claim))) \
        == 3 * 3 * len(DEFAULT_FORMULA_POOL)
    formulas = corpus._formulas(claim)
    # the union of A and B takes five values over the nine assignments:
    # {a} and {a,b} with B={a}, {b} and {a,b} with B={b}, {a,b} with B={a,b}
    assert len(formulas) == 5 * len(DEFAULT_FORMULA_POOL)
    # A varies slowest and phi fastest
    assert formulas[:5] == [parse("D{a} p -> D{a} p"),
                            parse("D{a} ~p -> D{a} ~p"),
                            parse("D{a} (p & q) -> D{a} (p & q)"),
                            parse("D{a} D{a} p -> D{a} D{a} p"),
                            parse("D{b} p -> D{a,b} p")]
    assert all(isinstance(outcome, NoCountermodelUpTo)
               for outcome in check_formulas(formulas, bounds))


def test_schema_constraint_filters_assignments():
    bounds = SearchBounds(FrameClass.KT, 2, 2, atoms=("p", "q"))
    claim = _schema_claim(
        "D{B} phi -> D{A,B} phi", bounds,
        constraint=lambda gm: not set(gm["A"].agents) & set(gm["B"].agents))
    pool = ("p", "~p", "p & q", "D{a} p")
    # only A={a}, B={b} and then A={b}, B={a} are disjoint
    assert corpus._formulas(claim) \
        == [parse(f"D{{b}} ({phi}) -> D{{a,b}} ({phi})") for phi in pool] \
        + [parse(f"D{{a}} ({phi}) -> D{{a,b}} ({phi})") for phi in pool]


def test_schema_custom_formula_pool_and_failing_instances():
    bounds = SearchBounds(FrameClass.S5, 2, 2, atoms=("p",))
    claim = _schema_claim("D{A} phi -> D{B} phi", bounds,
                          formula_pool=(parse("p"),))
    formulas = corpus._formulas(claim)
    assert len(formulas) == 9
    for f, outcome in zip(formulas, check_formulas(formulas, bounds)):
        a, b = set(f.left.group.agents), set(f.right.group.agents)
        if a <= b:  # B pools everything A pools, so A's knowledge carries
            assert isinstance(outcome, NoCountermodelUpTo)
        else:
            assert isinstance(outcome, Countermodel)


def test_schema_with_an_empty_formula_pool_has_no_instances():
    bounds = SearchBounds(FrameClass.KT, 1, 2, atoms=("p", "q"))
    claim = _schema_claim("D{A} phi", bounds, pool=("a",), formula_pool=())
    assert corpus._formulas(claim) == []


def test_schema_identical_instances_share_one_outcome():
    """Assignments that instantiate to the same formula, such as A={a},
    B={b} and A={b}, B={a}, give it once, so it is searched once."""
    bounds = SearchBounds(FrameClass.KT, 2, 2, atoms=("p",))
    claim = _schema_claim("D{A,B} phi -> D{A,B} phi", bounds,
                          formula_pool=(parse("p"),))
    assert len(list(corpus._instances(claim))) == 9
    assert corpus._formulas(claim) == [parse("D{a} p -> D{a} p"),
                                       parse("D{a,b} p -> D{a,b} p"),
                                       parse("D{b} p -> D{b} p")]


def _first_falsifiers(formulas, bounds):
    """First falsifying model and its lowest falsifying world per formula,
    by one plain sweep over enumerate_models and the pair-set oracle."""
    first = {}
    for m in enumerate_models(bounds):
        for f in formulas:
            if f not in first:
                holds = oracle_extension(m, f)
                missing = [w for w in m.worlds if w not in holds]
                if missing:
                    first[f] = (m, missing[0])
        if len(first) == len(formulas):
            break
    return first


def test_schema_sweep_matches_per_model_oracle_on_one_frame_spans(
        monkeypatch):
    bounds = SearchBounds(FrameClass.S5, 2, 3, atoms=("p",))
    claim = _schema_claim(
        "D{A} D{B} phi -> D{B} D{A} psi", bounds,
        formula_pool=(parse("p"), parse("~p"), parse("D{a} p")))
    formulas = corpus._formulas(claim)
    # one frame per span: 2 spans at 2 worlds and 15 at 3, so instances
    # leave those sweeps at different spans
    monkeypatch.setattr(search, "_CHUNK_CELLS", 8)
    outcomes = check_formulas(formulas, bounds)
    assert len(outcomes) == len(formulas)
    first = _first_falsifiers(formulas, bounds)
    # an S5 pool holds one relation per set partition: 1, 2 and 5 of them
    # at 1, 2 and 3 worlds
    valid_count = sum(bell ** 2 << n for n, bell in ((1, 1), (2, 2), (3, 5)))
    refuted_at = set()
    for f, outcome in zip(formulas, outcomes):
        if f in first:
            m, w = first[f]
            assert isinstance(outcome, Countermodel)
            assert encode_model(outcome.model, bounds.atoms) \
                == encode_model(m, bounds.atoms)
            assert outcome.witness == w
            refuted_at.add(m.n_worlds)
        else:
            assert outcome == NoCountermodelUpTo(
                bounds=bounds, models_checked=valid_count)
    # the schema mixes valid instances with ones refuted at 1, 2 and 3
    # worlds, so instances leave the sweep at different world counts
    assert refuted_at == {1, 2, 3}
    assert len(first) < len(formulas)


# --- representative runs --------------------------------------------------

def test_run_claim_unknown_id():
    with pytest.raises(CorpusError, match="NO-SUCH"):
        run_claim("NO-SUCH")


def test_run_claim_valid_example():
    report = run_claim("KT-AX-VERACITY")
    assert report.ok
    assert report.expected == Verdict.VALID_UP_TO_BOUND
    assert report.countermodel is None
    assert report.details == ()
    assert report.n_instances >= 3
    assert report.models_checked > 0
    assert report.elapsed > 0


def test_run_claim_countermodel_example():
    report = run_claim("S5-OBS3")
    assert report.ok
    assert report.expected == Verdict.COUNTERMODEL
    assert report.countermodel is not None
    cm = report.countermodel
    claim = REGISTRY["S5-OBS3"]
    assert not satisfies(cm.model, cm.witness, claim.formula)


def test_run_claim_minimum_countermodel_size_is_enforced():
    report = run_claim("S4-KS-FAIL")
    assert report.ok
    assert report.countermodel.model.n_worlds == 2


def test_run_all_filters_compose():
    reports = run_all(frame=FrameClass.S4)
    assert [r.claim_id for r in reports] \
        == [c for c in REGISTRY if c.startswith("S4-")]
    assert all(r.ok for r in reports)
    only_s4 = [c.id for c in REGISTRY.values()
               if c.frame is FrameClass.S4]
    assert only_s4 == [c for c in REGISTRY if c.startswith("S4-")]


# --- shipped table --------------------------------------------------------

def test_claims_doc_is_in_sync_with_registry():
    table = claims_table()
    doc = (ROOT / "docs" / "claims.md").read_text()
    assert table.strip() in doc
    for cid in REGISTRY:
        assert f"| {cid} |" in table
