"""Every registry claim's report against a golden file.

`claims_golden.json` holds, for each of the 53 claims in registry order,
what `run_claim` reports: ok, n_instances, models_checked, details, the
countermodel as `save_model` text and its witness.  These are the answers
the search promises to keep, so a change that only makes the search
faster must leave every record as it is.  Only `elapsed` is left out.

To rewrite the file after a change that is meant to alter an answer:

    PYTHONPATH=src python tests/test_claims_golden.py
"""

import json
from pathlib import Path

import pytest

from epicmp.corpus import claim_ids, run_claim
from epicmp.kripke import save_model

GOLDEN = Path(__file__).resolve().parent / "claims_golden.json"


def claim_record(claim_id: str) -> dict:
    report = run_claim(claim_id)
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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([claim_record(c) for c in claim_ids()],
                                 indent=1) + "\n")
