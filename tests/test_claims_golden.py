"""Every registry claim's report against a golden file.

`claims_golden.json` holds, for each of the 53 claims in registry order,
what `run_claim` reports: ok, n_instances, models_checked, details, the
countermodel as `save_model` text and its witness.  These are the answers
the search promises to keep, so a change that only makes the search
faster must leave every record as it is.  Only `elapsed` is left out.
`run_all`, which checks the claims that share bounds in one search, must
report the same records, for the whole registry and for each frame class.

To rewrite the file after a change that is meant to alter an answer:

    PYTHONPATH=src python tests/test_claims_golden.py
"""

import json
from pathlib import Path

import pytest

from epicmp.corpus import REGISTRY, claim_ids, run_all, run_claim
from epicmp.kripke import FrameClass, save_model

GOLDEN = Path(__file__).resolve().parent / "claims_golden.json"


def claim_record(claim_id: str) -> dict:
    return report_record(run_claim(claim_id))


def report_record(report) -> dict:
    cm = report.countermodel
    return {"id": report.claim_id, "ok": report.ok,
            "expected": report.expected,
            "n_instances": report.n_instances,
            "models_checked": report.models_checked,
            "details": list(report.details),
            "countermodel": None if cm is None else save_model(cm.model),
            "witness": None if cm is None else cm.witness}


def _golden() -> dict[str, dict]:
    return {rec["id"]: rec for rec in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_the_registry_in_order():
    assert list(_golden()) == list(claim_ids())


@pytest.mark.parametrize("claim_id", claim_ids())
def test_claim_report_matches_the_golden_file(claim_id):
    assert claim_record(claim_id) == _golden()[claim_id]


def test_run_all_matches_the_golden_file():
    assert [report_record(r) for r in run_all()] \
        == list(_golden().values())


@pytest.mark.parametrize("frame", [FrameClass.KT, FrameClass.S4,
                                   FrameClass.S5])
def test_run_all_of_one_frame_matches_the_golden_file(frame):
    assert [report_record(r) for r in run_all(frame=frame)] \
        == [rec for claim_id, rec in _golden().items()
            if REGISTRY[claim_id].frame is frame]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([claim_record(c) for c in claim_ids()],
                                 indent=1) + "\n")
