"""Seeded `check_formulas` batches against a golden file.

`search_golden.json` holds batches of random formulas, one batch per
bounds: KT, S4 and S5, 1 to 4 agents, 0 to 3 atoms, 2 to 5 worlds.  Each
batch mixes formulas refuted below the top world count, formulas refuted
only at the top and formulas that hold.  For each formula the file holds
the verdict, `models_checked`, the countermodel as `save_model` text and
its witness, once for the plain bounds and once under `mod_iso`.  The
batches run under jobs 1 at the default span size, and under jobs 2 with
spans of a few frames, so that two threads split every sweep.  A change
that only makes the search faster must leave every record as it is.

The file was generated by this module's `__main__` hook, which draws the
formulas with a seeded `random.Random`, keeps the first few of each kind
per bounds and records what the search answers:

    PYTHONPATH=src python tests/test_search_golden.py
"""

import itertools
import json
import os
import random
from pathlib import Path

import pytest

import epicmp.search as search
from epicmp.kripke import FrameClass, save_model
from epicmp.search import Countermodel, SearchBounds, check_formulas
from epicmp.syntax import (And, Atom, CDK, CK, Cmp, CmpOp, DK, Group, Iff,
                           Imp, IndK, Not, Or, Supergroup, parse, render)

GOLDEN = Path(__file__).resolve().parent / "search_golden.json"

# (frame, agents, worlds, atoms) per batch
_BOUNDS = [
    ("KT", 1, 3, ("p",)),
    ("KT", 2, 3, ()),
    ("KT", 2, 2, ("p", "q", "r")),
    ("KT", 3, 3, ()),
    ("KT", 4, 2, ("p",)),
    ("S4", 1, 4, ("p", "q")),
    ("S4", 2, 3, ("p",)),
    ("S4", 3, 2, ()),
    ("S5", 1, 5, ("p", "q")),
    ("S5", 2, 4, ("p",)),
    ("S5", 3, 3, ("p", "q")),
    ("S5", 4, 3, ()),
]
_PER_KIND = 3  # formulas kept per kind and batch
_CANDIDATES = 300  # formulas drawn per round
_ROUNDS = 30


def _bounds(batch: dict, mod_iso: bool) -> SearchBounds:
    return SearchBounds(FrameClass[batch["frame"]], batch["n_agents"],
                        batch["max_worlds"], atoms=tuple(batch["atoms"]),
                        mod_iso=mod_iso)


def _record(outcome) -> dict:
    if isinstance(outcome, Countermodel):
        return {"verdict": "countermodel", "models_checked": None,
                "countermodel": save_model(outcome.model),
                "witness": outcome.witness}
    return {"verdict": "no-countermodel",
            "models_checked": outcome.models_checked,
            "countermodel": None, "witness": None}


def _answers(batch: dict, mod_iso: bool, jobs: int) -> list[dict]:
    formulas = [parse(text) for text in batch["formulas"]]
    return [_record(o) for o in check_formulas(
        formulas, _bounds(batch, mod_iso), jobs=jobs)]


def _kind(batch: dict, record: dict) -> str:
    if record["countermodel"] is None:
        return "valid"
    worlds = record["countermodel"].splitlines()[1].split()[1:]
    return "top" if len(worlds) == batch["max_worlds"] else "below"


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_golden_batches_cover_frames_agents_atoms_and_kinds():
    batches = _golden()
    assert [(b["frame"], b["n_agents"], b["max_worlds"], tuple(b["atoms"]))
            for b in batches] == _BOUNDS
    assert {b["frame"] for b in batches} == {"KT", "S4", "S5"}
    assert {b["n_agents"] for b in batches} == {1, 2, 3, 4}
    assert {len(b["atoms"]) for b in batches} == {0, 1, 2, 3}
    kinds = [{_kind(b, r) for r in b["plain"]} for b in batches]
    # one S5 agent sees only its own cluster, and a cluster shows at most
    # 4 valuations of two atoms, so no formula needs 5 worlds on S5/1/5
    assert kinds == [{"valid", "below"} if b == ("S5", 1, 5, ("p", "q"))
                     else {"valid", "below", "top"} for b in _BOUNDS]


@pytest.mark.parametrize("mod_iso", [False, True], ids=["plain", "mod_iso"])
@pytest.mark.parametrize("index", range(len(_BOUNDS)))
def test_serial_batch_matches_the_golden_file(index, mod_iso):
    batch = _golden()[index]
    assert _answers(batch, mod_iso, 1) == \
        batch["mod_iso" if mod_iso else "plain"]


@pytest.mark.parametrize("mod_iso", [False, True], ids=["plain", "mod_iso"])
@pytest.mark.parametrize("index", range(len(_BOUNDS)))
def test_two_threads_on_short_spans_match_the_golden_file(index, mod_iso,
                                                           monkeypatch):
    monkeypatch.setattr(search, "_CHUNK_CELLS", 256)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    batch = _golden()[index]
    assert _answers(batch, mod_iso, 2) == \
        batch["mod_iso" if mod_iso else "plain"]


# --- generation -----------------------------------------------------------

def _random_formula(rng: random.Random, agents: tuple[str, ...],
                    atoms: tuple[str, ...], size: int):
    """A random formula with about size nodes over agents and atoms."""
    def group() -> Group:
        return Group(rng.sample(agents, rng.randint(1, min(2, len(agents)))))

    if size <= 1:
        if atoms and rng.random() < 0.6:
            return Atom(rng.choice(atoms))
        return Cmp(rng.choice(list(CmpOp)), group(), group())
    kind = rng.randrange(10)
    if kind < 4:
        left = rng.randint(1, size - 1)
        return (And, Or, Imp, Iff)[kind](
            _random_formula(rng, agents, atoms, left),
            _random_formula(rng, agents, atoms, size - left))
    sub = _random_formula(rng, agents, atoms, size - 1)
    if kind == 4:
        return Not(sub)
    if kind == 5:
        return IndK(rng.choice(agents), sub)
    if kind == 6:
        return DK(group(), sub)
    if kind == 7:
        return CK(group(), sub)
    if kind == 8:
        return CDK(Supergroup([group(), group()]), sub)
    return Not(IndK(rng.choice(agents), Not(sub)))


def _valid_formula(rng: random.Random, agents: tuple[str, ...],
                   atoms: tuple[str, ...]):
    """A random formula that holds on every reflexive frame."""
    sub = _random_formula(rng, agents, atoms, rng.randint(1, 5))
    group = Group(rng.sample(agents, rng.randint(1, len(agents))))
    if rng.random() < 0.5:
        return Imp(DK(group, sub), sub)
    return Imp(CK(group, sub), DK(group, sub))


def _spread_formula(rng: random.Random, agents: tuple[str, ...],
                    atoms: tuple[str, ...]):
    """A formula refuted only where one agent sees worlds with k distinct
    valuations, for a random k: so only on models of k worlds or more."""
    agent = rng.choice(agents)
    k = rng.randint(2, 1 << len(atoms))
    seen = None
    for val in rng.sample(range(1 << len(atoms)), k):
        literals = [Atom(a) if val >> t & 1 else Not(Atom(a))
                    for t, a in enumerate(atoms)]
        full = literals[0]
        for lit in literals[1:]:
            full = And(full, lit)
        possible = Not(IndK(agent, Not(full)))
        seen = possible if seen is None else And(seen, possible)
    return Not(seen)


def _batch(seed: int, frame: str, n_agents: int, max_worlds: int,
           atoms: tuple[str, ...]) -> dict:
    """Draw formulas in rounds until each kind has _PER_KIND of them, or
    for _ROUNDS rounds, and keep the first _PER_KIND of each kind."""
    rng = random.Random(seed)
    agents = search.AGENT_POOL[:n_agents]
    batch = {"frame": frame, "n_agents": n_agents, "max_worlds": max_worlds,
             "atoms": list(atoms)}
    kept: dict[str, list[str]] = {"valid": [], "below": [], "top": []}
    for _ in range(_ROUNDS):
        if all(len(k) == _PER_KIND for k in kept.values()):
            break
        batch["formulas"] = list(dict.fromkeys(render(
            _valid_formula(rng, agents, atoms) if rng.random() < 0.2
            else _spread_formula(rng, agents, atoms) if atoms
            and rng.random() < 0.05
            else _random_formula(rng, agents, atoms, rng.randint(2, 9)))
            for _ in range(_CANDIDATES)))
        for text, record in zip(batch["formulas"],
                                _answers(batch, False, 1)):
            kind = kept[_kind(batch, record)]
            if len(kind) < _PER_KIND and text not in kind:
                kind.append(text)
    # interleaved, so that formulas of each kind sit between the others
    batch["formulas"] = [t for row in itertools.zip_longest(*kept.values())
                         for t in row if t is not None]
    batch["plain"] = _answers(batch, False, 1)
    batch["mod_iso"] = _answers(batch, True, 1)
    return batch


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        [_batch(seed, *b) for seed, b in enumerate(_BOUNDS)],
        indent=1) + "\n")
