"""Claim-registry tests: fixture integrity, registry shape, witness facts,
and a few representative claim runs (the full sweep lives in the
acceptance module)."""

from pathlib import Path

import pytest

import epicmp.corpus as corpus
import epicmp.search as search
from epicmp.corpus import (REGISTRY, CorpusError, Verdict, claims_table,
                           fixtures, run_all, run_claim)
from epicmp.kripke import FrameClass, classify_frame, load_model
from epicmp.search import check_formulas
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
    reports = run_all(id_prefix="S5-OBS4")
    assert [r.claim_id for r in reports] == ["S5-OBS4A", "S5-OBS4B"]
    assert all(r.ok for r in reports)
    assert run_all(frame=FrameClass.KT, id_prefix="S5-") == []
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
