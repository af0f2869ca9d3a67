"""`epicmp search` output against a golden file, at the default span size.

`cli_golden.json` holds, for each case, the arguments of one
`run_command` call and what it printed: stdout, stderr and the exit code.
The cases sweep whole pools in many spans, pools cut into ranges (KT/2/5,
and KT/2/4 over two atoms), one agent, four agents and `--mod-iso`, so a
change to how the sweep cuts its frames must leave every record as it is.
Each record is also checked on its own: a `NO COUNTERMODEL` count against
the model count worked out from the pool sizes, and a countermodel by
evaluating the formula at its witness.

To rewrite the file after a change that is meant to alter an answer:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import re
from pathlib import Path

import pytest

from epicmp.cli import run_command
from epicmp.kripke import load_model_witness
from epicmp.semantics import satisfies
from epicmp.syntax import atom_names, parse

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

SUB = "[{a} <= {b}] -> (K{b} p -> K{a} p)"
FOUR = "K{a} p -> K{a} K{a} p"
CHAIN = "[{a} <= {b}] & [{b} <= {c}] -> [{a} <= {c}]"

# (frame, agents, max worlds, formula, extra arguments) per case
_CASES = [
    ("kt", 2, 4, SUB, ()),
    ("s4", 2, 5, SUB, ()),
    ("kt", 2, 3, SUB, ("--mod-iso",)),
    ("kt", 2, 5, FOUR, ()),
    ("kt", 2, 5, "[{a} <= {b}]", ()),
    ("kt", 1, 5, FOUR, ()),
    ("kt", 3, 3, CHAIN, ()),
    ("s4", 3, 4, CHAIN, ()),
    ("s5", 4, 4, CHAIN, ()),
    ("s5", 4, 3, "[{a} <= {b}] -> K{c} p | ~K{c} p", ()),
    ("s5", 3, 4, "C{a,b} [{a} <= {b}] -> [{a} <= {b}]", ()),
    ("kt", 2, 4, "(K{a} p & K{b} q) -> D{a,b} (p & q)", ()),
]

# the relations of each frame class on 1, 2, ... worlds
_POOL = {"s4": (1, 4, 29, 355, 6942), "s5": (1, 2, 5, 15, 52)}


def _pool(frame: str, n: int) -> int:
    return 2 ** (n * (n - 1)) if frame == "kt" else _POOL[frame][n - 1]


def _argv(frame, agents, worlds, formula, extra) -> list[str]:
    return ["search", "--frame", frame, "--agents", str(agents),
            "--max-worlds", str(worlds), *extra, "-f", formula]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_holds_the_cases_in_order():
    assert [r["argv"] for r in _golden()] == [_argv(*c) for c in _CASES]


@pytest.mark.parametrize("index", range(len(_CASES)))
def test_search_prints_the_golden_bytes(index):
    record = _golden()[index]
    assert _run(record["argv"]) == record


@pytest.mark.parametrize("index", range(len(_CASES)))
def test_each_golden_answer_holds(index):
    frame, agents, worlds, text, extra = _CASES[index]
    record = _golden()[index]
    f = parse(text)
    if record["code"] == 0:
        count = int(re.fullmatch(
            r"NO COUNTERMODEL up to bound \((\d+) models\)\n",
            record["stdout"]).group(1))
        models = sum(_pool(frame, n) ** agents
                     * 2 ** (n * len(atom_names(f)))
                     for n in range(1, worlds + 1))
        # up to isomorphism there are fewer classes than models
        assert count < models if extra == ("--mod-iso",) \
            else count == models
    else:
        assert record["code"] == 1
        m, witness = load_model_witness(record["stdout"])
        assert m.n_worlds <= worlds and len(m.agents) == agents
        assert not satisfies(m, witness, f)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_run(_argv(*c)) for c in _CASES],
                                 indent=1) + "\n")
