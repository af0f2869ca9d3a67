"""Bounded-search tests: enumeration sizes against closed forms, ordering,
dedup-by-isomorphism and its Burnside count, agreement between the array
scanner and a plain per-model sweep (`conftest.enumerate_models`) with the
pair-set oracle (for every number of valuation bytes per frame, and past
the first byte), the relation pools and their world relabelings (against
`conftest.relation_pool` and `conftest.relabel_rows`), the prefixes of
the orbit-minimal frames the scanner walks and the product spans it
sweeps them in, each prefix against the last agent's whole pool (against
a brute-force `conftest.lex_min_frames`), the largest world count swept
first and the smaller ones only for what it refutes, the lazy span walk
and where it stops, and placeholder substitution
(`corpus.instantiate_schema`, which also stands comparisons in for atoms
here).  A schema's instances, checked in one sweep, are tested in
`test_corpus.py`."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epicmp.search as search
from conftest import (canonicalize, encode_model, enumerate_models,
                      formulas_over, lex_min_frames, oracle_extension,
                      relabel_rows, relation_pool)
from epicmp.corpus import instantiate_schema
from epicmp.kripke import FrameClass, classify_frame
from epicmp.search import (AGENT_POOL, BoundsError, Countermodel,
                           MAX_SEARCH_WORLDS, NoCountermodelUpTo,
                           SearchBounds, check_formulas, check_validity,
                           count_models, frame_relations)
from epicmp.semantics import satisfies
from epicmp.syntax import (And, Cmp, CmpOp, DK, Group, Iff, Imp, Or,
                           parse, post_order)


def _bell(n: int) -> int:
    """Set-partition count via the Bell triangle (independent oracle)."""
    row = [1]
    for _ in range(n):
        row = list(itertools.accumulate([row[-1]] + row))
    return row[0]


# --- pool sizes and enumeration counts -----------------------------------

def test_relation_pool_sizes_match_closed_forms():
    for n in range(1, 6):
        assert len(frame_relations(FrameClass.S5, n)) == _bell(n)
    for n in range(1, 5):
        assert len(frame_relations(FrameClass.KT, n)) == 1 << (n * n - n)
    # reflexive+transitive relation counts (preorders)
    assert [len(frame_relations(FrameClass.S4, n))
            for n in range(1, 5)] == [1, 4, 29, 355]


@pytest.mark.parametrize("frame,n", [
    *itertools.product((FrameClass.KT, FrameClass.S4), range(1, 5)),
    *((FrameClass.S5, n) for n in range(1, 6))])
def test_relation_pools_are_the_plain_pools_in_order(frame, n):
    assert [tuple(int(x) for x in rows)
            for rows in frame_relations(frame, n)] \
        == list(relation_pool(frame, n))


@pytest.mark.parametrize("frame,n,step", [
    *((frame, n, 1) for frame in (FrameClass.KT, FrameClass.S4,
                                  FrameClass.S5) for n in range(1, 5)),
    (FrameClass.S4, 5, 13), (FrameClass.S5, 5, 13)])
def test_relabel_renames_the_worlds_of_every_pool_relation(frame, n, step):
    """Every relabeling of up to 4 worlds, and every step-th one of 5."""
    pool = [tuple(int(x) for x in rows) for rows in frame_relations(frame, n)]
    index = {rows: i for i, rows in enumerate(pool)}
    idx = np.arange(len(pool), dtype=np.int64)
    for perm in itertools.islice(itertools.permutations(range(n)),
                                 step - 1, None, step):
        assert search._relabel(frame, n, perm, idx).tolist() \
            == [index[relabel_rows(rows, perm)] for rows in pool]


def test_count_models_examples():
    assert count_models(
        SearchBounds(FrameClass.S5, 2, 3, atoms=("p",))) == 218
    assert count_models(SearchBounds(FrameClass.KT, 1, 2)) == 5
    assert count_models(SearchBounds(FrameClass.S5, 1, 2)) == 3
    assert count_models(SearchBounds(FrameClass.S5, 2, 4)) == 255


def test_count_models_is_the_product_formula():
    for bounds in (SearchBounds(FrameClass.S5, 2, 3, atoms=("p", "q")),
                   SearchBounds(FrameClass.KT, 2, 2, atoms=("p",)),
                   SearchBounds(FrameClass.S4, 3, 2)):
        expected = sum(
            len(frame_relations(bounds.frame, n)) ** bounds.n_agents
            * (1 << (n * len(bounds.atoms)))
            for n in range(1, bounds.max_worlds + 1))
        assert count_models(bounds) == expected


def test_enumeration_matches_count_and_is_strictly_ordered():
    for bounds in (SearchBounds(FrameClass.S5, 2, 3, atoms=("p",)),
                   SearchBounds(FrameClass.KT, 1, 2, atoms=("p",)),
                   SearchBounds(FrameClass.S4, 2, 2)):
        encs = [encode_model(m, bounds.atoms)
                for m in enumerate_models(bounds)]
        assert len(encs) == count_models(bounds)
        # leading byte is the world count, so byte order == documented order
        assert all(a < b for a, b in zip(encs, encs[1:]))


def test_enumerated_models_lie_in_the_frame_class():
    for m in enumerate_models(SearchBounds(FrameClass.S5, 2, 2,
                                           atoms=("p",))):
        assert classify_frame(m).overall is FrameClass.S5
        assert m.agents == AGENT_POOL[:2]
    seen = set()
    for m in enumerate_models(SearchBounds(FrameClass.KT, 1, 3)):
        report = classify_frame(m)
        assert all(f.reflexive for f in report.flags)
        seen.add(report.overall)
    # the reflexive pool contains strictly stronger frames too
    assert seen == {FrameClass.KT, FrameClass.S4, FrameClass.S5}


# --- dedup by isomorphism -------------------------------------------------

def test_mod_iso_reps_are_minimal_nonisomorphic_and_cover():
    base = SearchBounds(FrameClass.S5, 2, 3, atoms=("p",))
    iso = SearchBounds(FrameClass.S5, 2, 3, atoms=("p",), mod_iso=True)
    first_by_class = {}
    for m in enumerate_models(base):
        key = canonicalize(m, base.atoms)
        first_by_class.setdefault(key, encode_model(m, base.atoms))
    reps = list(enumerate_models(iso))
    rep_keys = [canonicalize(m, base.atoms) for m in reps]
    assert len(rep_keys) == len(set(rep_keys))
    assert set(rep_keys) == set(first_by_class)
    assert [encode_model(m, base.atoms) for m in reps] \
        == [first_by_class[k] for k in rep_keys]
    assert len(reps) < count_models(base)


def test_mod_iso_preserves_search_outcomes():
    base = SearchBounds(FrameClass.S5, 2, 3, atoms=("p",))
    iso = SearchBounds(FrameClass.S5, 2, 3, atoms=("p",), mod_iso=True)

    f = parse("D{a,b} p -> D{a} p")
    full, dedup = check_validity(f, base), check_validity(f, iso)
    assert isinstance(full, Countermodel) and isinstance(dedup, Countermodel)
    assert encode_model(full.model, base.atoms) \
        == encode_model(dedup.model, base.atoms)
    assert full.witness == dedup.witness

    g = parse("D{a} p -> D{a,b} p")
    full, dedup = check_validity(g, base), check_validity(g, iso)
    assert isinstance(full, NoCountermodelUpTo)
    assert isinstance(dedup, NoCountermodelUpTo)
    assert dedup.models_checked < full.models_checked == 218


@pytest.mark.parametrize("frame,max_worlds,classes", [
    (FrameClass.S5, 4, 357), (FrameClass.S4, 3, 1260),
    (FrameClass.KT, 3, 5638)])
def test_mod_iso_models_checked_is_the_burnside_count(frame, max_worlds,
                                                      classes):
    bounds = SearchBounds(frame, 2, max_worlds, atoms=("p",), mod_iso=True)
    assert check_validity(parse("p -> p"), bounds) == NoCountermodelUpTo(
        bounds=bounds, models_checked=classes)
    assert count_models(bounds) == classes


@pytest.mark.parametrize("bounds", [
    SearchBounds(FrameClass.S5, 2, 3, atoms=("p",), mod_iso=True),
    SearchBounds(FrameClass.S4, 2, 2, mod_iso=True)])
def test_mod_iso_count_matches_the_enumerated_representatives(bounds):
    reps = len(list(enumerate_models(bounds)))
    assert count_models(bounds) == reps
    out = check_validity(parse("[{a} <= {a}]"), bounds)
    assert out == NoCountermodelUpTo(bounds=bounds, models_checked=reps)


# --- array scanner vs. per-model sweep -----------------------------------

def _sweep(f, bounds):
    checked = 0
    for m in enumerate_models(bounds):
        checked += 1
        missing = [w for w in m.worlds if w not in oracle_extension(m, f)]
        if missing:
            return m, missing[0], checked
    return None, None, checked


_AGREEMENT_CASES = [
    ("D{a} p -> p", SearchBounds(FrameClass.KT, 1, 2, atoms=("p",))),
    ("p -> D{a} p", SearchBounds(FrameClass.KT, 1, 2, atoms=("p",))),
    ("D{a} p -> D{a,b} p", SearchBounds(FrameClass.S5, 2, 2, atoms=("p",))),
    ("D{a,b} p -> D{a} p", SearchBounds(FrameClass.S5, 2, 2, atoms=("p",))),
    ("C{a,b} p -> D{b} p", SearchBounds(FrameClass.KT, 2, 2, atoms=("p",))),
    ("CD[{a};{b}] p <-> C{a,b} p",
     SearchBounds(FrameClass.KT, 2, 2, atoms=("p",))),
    ("~D{a} p -> D{a} ~D{a} p",
     SearchBounds(FrameClass.KT, 1, 3, atoms=("p",))),
    ("[{a,b} <= {a}]", SearchBounds(FrameClass.S5, 2, 2)),
    ("[{a} <= {a,b}]", SearchBounds(FrameClass.S5, 2, 2)),
    ("[{a} # {b}] -> ~[{a} <= {b}]", SearchBounds(FrameClass.S4, 2, 2)),
]


@pytest.mark.parametrize("text,bounds", _AGREEMENT_CASES,
                         ids=[t for t, _ in _AGREEMENT_CASES])
def test_scanner_agrees_with_per_model_sweep(text, bounds, monkeypatch):
    f = parse(text)
    out = check_validity(f, bounds)
    # these blocks are small enough for a box to take every world in one
    # pass; a large sweep takes one world per pass, with the same answer
    monkeypatch.setattr(search, "_BOX_CELLS", 1)
    assert check_validity(f, bounds) == out
    m, w, checked = _sweep(f, bounds)
    if m is None:
        assert isinstance(out, NoCountermodelUpTo)
        assert out.models_checked == checked == count_models(bounds)
    else:
        assert isinstance(out, Countermodel)
        assert encode_model(out.model, bounds.atoms) \
            == encode_model(m, bounds.atoms)
        assert out.witness == w
        assert not satisfies(out.model, out.witness, f)


@settings(max_examples=40)
@given(formulas_over(("a", "b"), atoms=("p",), max_leaves=6))
def test_scanner_agrees_on_random_formulas(f):
    bounds = SearchBounds(FrameClass.KT, 2, 2, atoms=("p",))
    out = check_validity(f, bounds)
    m, w, checked = _sweep(f, bounds)
    if m is None:
        assert out == NoCountermodelUpTo(bounds=bounds,
                                         models_checked=checked)
    else:
        assert isinstance(out, Countermodel)
        assert encode_model(out.model, bounds.atoms) \
            == encode_model(m, bounds.atoms)
        assert out.witness == w


# --- orbit-minimal frames -------------------------------------------------

def _swept_frames(frame, n, n_agents, step, run_spans=1):
    """The frames the spans of at most step frames sweep, in order.  A
    last-agent row that fits goes whole, step // len(row) prefixes to a
    span, and a longer one is cut into ranges of step frames, one prefix
    to a span.  Each run holds run_spans spans' prefixes, the last run
    what is left."""
    last = search._last_indices(frame, n, n_agents).tolist()
    size = max(1, step // len(last)) * run_spans
    runs = list(search._prefix_runs(frame, n, n_agents, size))
    spans = [(list(map(tuple, run[lo:hi].tolist())), start, stop)
             for run in runs
             for lo, hi, start, stop in search._spans(len(run), len(last),
                                                      step)]
    assert [len(run) for run in runs[:-1]] == [size] * (len(runs) - 1)
    assert sum(map(len, runs)) \
        == sum(map(len, search._prefixes(frame, n, n_agents)))
    if len(last) <= step:
        assert all(s[1:] == (0, len(last)) for s in spans)
        assert [len(s[0]) for s in spans[:-1]] \
            == [step // len(last)] * (len(spans) - 1)
        assert 1 <= len(spans[-1][0]) <= step // len(last)
    else:
        ranges = [(start, min(start + step, len(last)))
                  for start in range(0, len(last), step)]
        assert [s[1:] for s in spans] \
            == ranges * (len(spans) // len(ranges))
        assert all(len(s[0]) == 1 for s in spans)
    return [prefix + (last[i],) for prefixes, start, stop in spans
            for prefix in prefixes for i in range(start, stop)]


@pytest.mark.parametrize("n_prefixes,n_last,step", [
    (5, 3, 7), (2, 10, 4), (4, 5, 5), (1, 6, 4), (1, 3, 7)],
    ids=["whole rows", "ranges", "step of a row", "one prefix in ranges",
         "one whole prefix"])
def test_spans_cover_each_frame_once_in_frame_order(n_prefixes, n_last,
                                                    step):
    spans = list(search._spans(n_prefixes, n_last, step))
    assert [(p, i) for lo, hi, start, stop in spans
            for p in range(lo, hi) for i in range(start, stop)] \
        == list(itertools.product(range(n_prefixes), range(n_last)))
    assert all((hi - lo) * (stop - start) <= step
               for lo, hi, start, stop in spans)
    if n_last <= step:
        assert all((start, stop) == (0, n_last)
                   for _, _, start, stop in spans)
        assert [hi - lo for lo, hi, _, _ in spans[:-1]] \
            == [step // n_last] * (len(spans) - 1)
        assert 1 <= spans[-1][1] - spans[-1][0] <= step // n_last
    else:
        assert all(hi - lo == 1 for lo, hi, _, _ in spans)


@pytest.mark.parametrize("frame,n_agents,n", [
    *itertools.product((FrameClass.KT, FrameClass.S4, FrameClass.S5),
                       (1, 2, 3), (1, 2, 3)),
    (FrameClass.S5, 2, 4),
    # three prefix agents: the only walks that read the relabelings fixing
    # a proper part of the prefix
    (FrameClass.KT, 4, 2), (FrameClass.S4, 4, 2), (FrameClass.S5, 4, 2),
    (FrameClass.S5, 4, 3)])
def test_frame_walk_is_the_brute_force_lex_min(frame, n_agents, n):
    """The walk's prefixes are those of the brute-force lex-min frames,
    ascending and each once.  Each is swept against the whole pool, or
    with one agent against the lex-min frames themselves, so the swept
    frames hold every lex-min frame."""
    minimal = lex_min_frames(frame, n, n_agents)
    prefixes = list(dict.fromkeys(f[:-1] for f in minimal))
    last = ([f[0] for f in minimal] if n_agents == 1
            else list(range(len(relation_pool(frame, n)))))
    assert [tuple(prefix) for block in search._prefixes(frame, n, n_agents)
            for prefix in block.tolist()] == prefixes
    assert search._last_indices(frame, n, n_agents).tolist() == last
    expected = [prefix + (i,) for prefix in prefixes for i in last]
    assert set(minimal) <= set(expected)
    # spans of 7 frames cut through long rows and hold several short ones
    assert _swept_frames(frame, n, n_agents, 7) == expected
    assert _swept_frames(frame, n, n_agents, 7, 3) == expected
    assert _swept_frames(frame, n, n_agents, 1 << 17) == expected


_MINIMAL_SWEEP_BOUNDS = [
    SearchBounds(FrameClass.KT, 2, 2, atoms=("p",)),
    SearchBounds(FrameClass.KT, 1, 3, atoms=("p",)),
    SearchBounds(FrameClass.S4, 2, 3, atoms=("p",)),
    SearchBounds(FrameClass.S5, 3, 3, atoms=("p",)),
    SearchBounds(FrameClass.KT, 4, 2, atoms=("p",)),
    SearchBounds(FrameClass.S5, 4, 2, atoms=("p",)),
    # An extension holds one bit per (frame, valuation) cell: one byte
    # holds 8, 4 or 2 frames of 1, 2 or 4 valuations, and a frame of 8,
    # 16, 32 or 64 valuations takes 1, 2, 4 or 8 bytes.  The bounds above
    # hold 4 and 8 valuations at their largest world count, these 1, 2, 16,
    # 32 and 64.
    SearchBounds(FrameClass.KT, 2, 2),
    SearchBounds(FrameClass.S5, 2, 1, atoms=("p",)),
    SearchBounds(FrameClass.S5, 1, 4, atoms=("p",)),
    SearchBounds(FrameClass.S5, 1, 5, atoms=("p",)),
    SearchBounds(FrameClass.S5, 1, 3, atoms=("p", "q")),
]


def _bounds_id(b):
    atoms = "" if b.atoms == ("p",) else "-" + ("".join(b.atoms) or "none")
    return f"{b.frame}-{b.n_agents}-{b.max_worlds}{atoms}"


def _check_spans(f, bounds, want, cells=8):
    """check_validity with 8-cell blocks (spans of one to eight frames,
    cut across prefixes), or blocks of the given cells, gives want, the
    per-model sweep's (model, witness, models checked)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_CHUNK_CELLS", cells)
        _agrees(check_validity(f, bounds), bounds, want)


def _agrees(out, bounds, want):
    """A search outcome is want, the per-model sweep's (model, witness,
    models checked)."""
    m, w, checked = want
    if m is None:
        assert out == NoCountermodelUpTo(bounds=bounds,
                                         models_checked=checked)
    else:
        assert isinstance(out, Countermodel)
        assert encode_model(out.model, bounds.atoms) \
            == encode_model(m, bounds.atoms)
        assert out.witness == w


@pytest.mark.parametrize("bounds", _MINIMAL_SWEEP_BOUNDS, ids=_bounds_id)
def test_minimal_frame_sweep_agrees_with_per_model_sweep(bounds):
    """The first countermodel and witness of the minimal-frame scan are
    those of a plain sweep over every model, with 8-cell blocks (spans of
    one to eight frames, cut across prefixes).
    Without atoms in the bounds, the formulas' atom is a comparison."""
    stand_in = {} if bounds.atoms else {"p": parse("[{a} <= {b}]")}

    @settings(max_examples=12, deadline=None)
    @given(formulas_over(bounds.agents, atoms=bounds.atoms or ("p",),
                         max_leaves=6))
    def check(f):
        f = instantiate_schema(f, {}, stand_in)
        _check_spans(f, bounds, _sweep(f, bounds))

    check()


# Atomless rows of 4, 15 and 29 last-agent frames end mid-byte.  Spans of
# 8 and 13 cells hold several KT/2/2 rows, and cut each S5/2/4 and S4/2/3
# row into ranges; at full size one span holds every row.
_MID_BYTE_BOUNDS = [SearchBounds(FrameClass.KT, 2, 2),
                    SearchBounds(FrameClass.S5, 2, 4),
                    SearchBounds(FrameClass.S4, 2, 3)]


@pytest.mark.parametrize("bounds", _MID_BYTE_BOUNDS, ids=_bounds_id)
def test_product_spans_agree_with_per_model_sweep(bounds):
    """Each prefix swept against the whole pool gives the per-model
    sweep's first countermodel, witness and models_checked from
    check_validity, with spans of 8 and 13 cells and one span.  The
    formulas' atoms stand for comparisons."""
    stand_in = {"p": parse("[{a} <= {b}]"), "q": parse("[{b} <= {a}]")}

    @settings(max_examples=10, deadline=None)
    @given(formulas_over(bounds.agents, atoms=("p", "q"), max_leaves=6))
    def check(f):
        f = instantiate_schema(f, {}, stand_in)
        want = _sweep(f, bounds)
        for cells in (8, 13, search._CHUNK_CELLS):
            _check_spans(f, bounds, want, cells)

    check()


# some b-successor's b-row lies inside a's: fails where b is total on a
# prefix row that does not separate the worlds
_PAST_NON_MINIMAL = parse("~K{b} ~[{b} <= {a}]")


@pytest.mark.parametrize("bounds,cell,skipped", [
    (SearchBounds(FrameClass.KT, 2, 2), (0, 3), [(0, 2)]),
    (SearchBounds(FrameClass.KT, 2, 3), (0, 5), [(0, 2), (0, 4)])],
    ids=["KT-2-2", "KT-2-3"])
def test_first_failure_past_a_frame_that_is_not_minimal(bounds, cell,
                                                        skipped):
    """Prefix 0's row reaches its first failure past frames that a
    relabeling fixing the prefix maps lower.  They are swept and never
    reported: the failure is the lex-min frame the per-model sweep finds,
    under every span size."""
    n, f = bounds.max_worlds, _PAST_NON_MINIMAL
    minimal = set(lex_min_frames(bounds.frame, n, 2))
    assert cell in minimal
    assert not minimal & set(skipped)
    assert all(s < cell for s in skipped)
    want = _sweep(f, bounds)
    for cells in (8, 13, search._CHUNK_CELLS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_CHUNK_CELLS", cells)
            frame, val, _ = search._first_failures([f], bounds, n)[f]
            assert (frame, val) == (cell, 0)
        _check_spans(f, bounds, want, cells)


@pytest.mark.parametrize("bounds", [
    SearchBounds(FrameClass.KT, 2, 3), SearchBounds(FrameClass.S4, 2, 3),
    SearchBounds(FrameClass.S5, 2, 4),
    SearchBounds(FrameClass.KT, 2, 2, atoms=("p",)),
    SearchBounds(FrameClass.KT, 3, 2, atoms=("p",))], ids=_bounds_id)
def test_the_first_failure_of_whole_rows_is_a_minimal_frame(bounds):
    """Sweeping every prefix against the last agent's whole pool, the
    first failure at the largest world count is always a frame of the
    brute-force lex-min set."""
    n = bounds.max_worlds
    minimal = set(lex_min_frames(bounds.frame, n, bounds.n_agents))
    stand_in = {} if bounds.atoms else {"p": parse("[{a} <= {b}]")}

    @settings(max_examples=25, deadline=None)
    @given(formulas_over(bounds.agents, atoms=bounds.atoms or ("p",),
                         max_leaves=6))
    def check(f):
        f = instantiate_schema(f, {}, stand_in)
        for cells in (8, search._CHUNK_CELLS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(search, "_CHUNK_CELLS", cells)
                hits = search._first_failures([f], bounds, n)
            if hits:
                assert hits[f][0] in minimal

    check()


# --- world counts: the largest first -------------------------------------

# fails first at 3 worlds on KT, and at 4 worlds too
_REFUTED_BELOW_TOP = parse("K{a} p -> K{a} K{a} p")
# an agent must see four worlds at once, one per valuation of p and q
_REFUTED_ONLY_AT_TOP = parse("~(~K{a}~(p & q) & ~K{a}~(p & ~q) "
                             "& ~K{a}~(~p & q) & ~K{a}~(~p & ~q))")


def test_a_formula_refuted_below_the_top_keeps_its_smallest_countermodel():
    """KT, 1 agent, 4 worlds: the 4-world sweep refutes the formula, and
    the sweeps below it find its first countermodel, at 3 worlds."""
    f = _REFUTED_BELOW_TOP
    bounds = SearchBounds(FrameClass.KT, 1, 4, atoms=("p",))
    assert f in search._first_failures([f], bounds, 4)
    want = _sweep(f, bounds)
    assert want[0].n_worlds == 3
    _check_spans(f, bounds, want)


def test_a_formula_refuted_only_at_the_top_keeps_its_top_failure():
    """S5, 1 agent, p and q: the formula holds on all 356 models up to 3
    worlds, so its first countermodel is the 4-world sweep's."""
    f = _REFUTED_ONLY_AT_TOP
    below = SearchBounds(FrameClass.S5, 1, 3, atoms=("p", "q"))
    assert _sweep(f, below) == (None, None, 356)
    assert check_validity(f, below) == NoCountermodelUpTo(
        bounds=below, models_checked=356)
    bounds = SearchBounds(FrameClass.S5, 1, 4, atoms=("p", "q"))
    want = _sweep(f, bounds)
    assert want[0].n_worlds == 4
    _check_spans(f, bounds, want)


_MIXED_BOUNDS = SearchBounds(FrameClass.KT, 1, 4, atoms=("p", "q"))
_MIXED_VALID = [parse("p -> p"), parse("K{a} p -> p"),
                parse("K{a} (p | q) -> p | q")]
# refuted first at 3, 4 and 1 worlds, between formulas that hold
_MIXED = [_MIXED_VALID[0], _REFUTED_BELOW_TOP, _MIXED_VALID[1],
          _REFUTED_ONLY_AT_TOP, parse("p"), _MIXED_VALID[2]]


def test_a_mixed_batch_gives_each_formula_its_own_outcome(monkeypatch):
    """One batch of formulas that hold and formulas refuted at 1, 3 and 4
    worlds gives each the outcome of its own search, with one frame per
    span."""
    monkeypatch.setattr(search, "_CHUNK_CELLS", 8)
    alone = [check_validity(f, _MIXED_BOUNDS) for f in _MIXED]
    assert [o.model.n_worlds if isinstance(o, Countermodel) else None
            for o in alone] == [None, 3, None, 4, 1, None]
    assert check_formulas(_MIXED, _MIXED_BOUNDS) == alone


def test_lower_world_counts_sweep_only_the_refuted_formulas(monkeypatch):
    """A batch that holds is swept at 4 worlds alone.  Below 4 worlds the
    sweeps carry only the formulas the 4-world sweep refuted, in formula
    order, each until its first failing world count, and stop once every
    one has failed.  A repeated formula is swept once and shares its
    outcome."""
    calls = []
    first_failures = search._first_failures

    def spy(formulas, bounds, n):
        calls.append((n, list(formulas)))
        return first_failures(formulas, bounds, n)

    monkeypatch.setattr(search, "_first_failures", spy)
    check_formulas(_MIXED_VALID, _MIXED_BOUNDS)
    assert calls == [(4, _MIXED_VALID)]
    calls.clear()
    check_formulas(_MIXED, _MIXED_BOUNDS)
    assert calls == [(4, _MIXED), (1, [_MIXED[i] for i in (1, 3, 4)]),
                     (2, [_MIXED[1], _MIXED[3]]),
                     (3, [_MIXED[1], _MIXED[3]])]
    calls.clear()
    check_formulas([parse("p"), _MIXED_VALID[0]], _MIXED_BOUNDS)
    assert calls == [(4, [parse("p"), _MIXED_VALID[0]]), (1, [parse("p")])]
    calls.clear()
    outs = check_formulas([parse("p"), _MIXED_VALID[0], parse("p")],
                          _MIXED_BOUNDS)
    assert calls == [(4, [parse("p"), _MIXED_VALID[0]]), (1, [parse("p")])]
    assert outs[0] == outs[2]


def test_valid_sweep_scans_the_minimal_prefixes_against_the_whole_pool(
        monkeypatch):
    """KT, 2 agents, 4 worlds: the 703,760 minimal frames of the
    16,777,216 have 218 prefixes, and a formula that holds everywhere
    sweeps exactly those against the whole 4,096-relation pool: 892,928
    frames.  It holds at 4 worlds, so no smaller world count is swept, yet
    models_checked still counts the models of 1 to 4 worlds."""
    _, scanned = _keep_blocks(monkeypatch)
    bounds = SearchBounds(FrameClass.KT, 2, 4, atoms=("p",))
    out = check_validity(parse("p -> p"), bounds)
    assert out == NoCountermodelUpTo(bounds=bounds,
                                     models_checked=268_468_290)
    assert {len(b.rows_by_agent["b"][0, 0]) for b in scanned} == {4096}
    assert sum(b.shape[0] for b in scanned) == 218
    assert sum(b.shape[0] * b.shape[1] for b in scanned) \
        == 892_928 == 218 * 4096


def test_frame_walk_memory_stays_below_a_relabeling_table():
    """KT, 1 agent, 5 worlds: the 2^20-relation pool relabeled 120 ways
    would be a table of about 500 MB; the walk filters the survivors of
    each relabeling only and stays far below that."""
    bounds = SearchBounds(FrameClass.KT, 1, 5, atoms=("p",))
    tracemalloc.start()
    try:
        out = check_validity(parse("p -> p"), bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == NoCountermodelUpTo(bounds=bounds,
                                     models_checked=count_models(bounds))
    assert peak < 128 << 20


# --- the walk's memo --------------------------------------------------------

@pytest.mark.parametrize("frame,n_agents,n,orbits", [
    (FrameClass.KT, 2, 4, 703_760),
    (FrameClass.KT, 3, 3, 43_968),
    (FrameClass.S4, 2, 5, 437_319)])
def test_one_minimal_frame_per_isomorphism_class(frame, n_agents, n,
                                                 orbits):
    """Each class of frames under world relabeling has one least member,
    so the swept rows hold as many frames that no relabeling fixing their
    prefix makes smaller as Burnside's lemma counts classes."""
    fixed = sum(rels ** n_agents for rels, _ in search._relabelings(frame, n))
    assert fixed // math.factorial(n) == orbits
    perms = list(itertools.permutations(range(n)))[1:]
    minimal = 0
    for idx in itertools.chain.from_iterable(
            search._prefixes(frame, n, n_agents)):
        fixing = tuple(perm for perm in perms if np.array_equal(
            search._relabel(frame, n, perm, idx), idx))
        minimal += len(search._kept_indices(frame, n, fixing))
    assert minimal == orbits


@pytest.mark.parametrize("frame,n_agents,n", [
    (FrameClass.KT, 3, 3), (FrameClass.S4, 2, 4), (FrameClass.S5, 4, 4)])
def test_a_second_walk_yields_the_same_spans(monkeypatch, frame, n_agents,
                                             n):
    monkeypatch.setattr(search, "_KEPT", {})
    n_last = len(search._last_indices(frame, n, n_agents))
    size = max(1, 7 // n_last) * 2
    cold = list(search._prefix_runs(frame, n, n_agents, size))
    assert search._KEPT
    warm = list(search._prefix_runs(frame, n, n_agents, size))
    assert [run.tolist() for run in warm] == [run.tolist() for run in cold]
    assert all(run.shape[1] == n_agents - 1 for run in cold)


def test_the_walk_memo_is_read_only(monkeypatch):
    monkeypatch.setattr(search, "_KEPT", {})
    for _ in search._prefixes(FrameClass.S4, 4, 3):
        pass
    assert search._KEPT
    for entry in search._KEPT.values():
        for array in (entry.bits, entry.fixed, entry.group):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert isinstance(entry.groups, tuple)
    assert not search._pool_range(FrameClass.S4, 4).flags.writeable


def test_the_walk_memo_holds_one_bit_per_pool_relation(monkeypatch):
    """S4, 3 agents, 5 worlds: after a walk of the prefixes the memo holds
    one bit per pool relation per entry, plus the sparse maps of fixing
    relabelings (an int64 array of kept indices would take 64 bits per
    kept relation)."""
    frame, n = FrameClass.S4, 5
    pool = len(frame_relations(frame, n))
    row = -(-pool // 8)

    def walk():
        for _ in search._prefixes(frame, n, 3):
            pass

    walk()  # the pool and the relabeling tables are cached outside the count
    monkeypatch.setattr(search, "_KEPT", {})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        walk()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = list(search._KEPT.values())
    sparse = 0
    for entry in entries:
        assert entry.bits.nbytes == row
        kept = np.flatnonzero(np.unpackbits(entry.bits, count=pool))
        assert np.isin(entry.fixed, kept).all()
        assert (np.diff(entry.fixed) > 0).all()
        assert len(entry.group) == len(entry.fixed)
        assert all(entry.groups)
        sparse += entry.fixed.nbytes + entry.group.nbytes \
            + sum(sys.getsizeof(g) for g in entry.groups)
    # keys, named tuples, array headers and the relabelings themselves:
    # about 1.1 KiB per entry
    overhead = 2048 * len(entries)
    assert retained <= len(entries) * row + sparse + overhead


# --- several valuation bytes per frame -----------------------------------

# 512 and 1,024 valuations at the largest world count: 64 and 128 bytes
# per world and frame.  On the two-agent bound a comparison, the same in
# every byte of a frame, meets an atom, the same in every frame.
_KT_1_3_PQR = SearchBounds(FrameClass.KT, 1, 3, atoms=("p", "q", "r"))
_S5_1_5_PQ = SearchBounds(FrameClass.S5, 1, 5, atoms=("p", "q"))
_S5_2_3_PQR = SearchBounds(FrameClass.S5, 2, 3, atoms=("p", "q", "r"))


def _sweep_at(f, bounds, n):
    """The first n-world model of the per-model sweep that falsifies f,
    with its lowest falsifying world."""
    for m in enumerate_models(bounds):
        if m.n_worlds == n:
            missing = [w for w in m.worlds if w not in oracle_extension(m, f)]
            if missing:
                return m, missing[0]
    return None, None


def _cell_of(m, bounds):
    """The (pool indices, valuation index) that name m within bounds."""
    pool = frame_relations(bounds.frame, m.n_worlds).tolist()
    frame = tuple(pool.index(list(r.rows)) for r in m.relations)
    val_idx = 0
    for mask in m.valuation:
        val_idx = val_idx << m.n_worlds | mask
    return frame, val_idx


@pytest.mark.parametrize("bounds,text,cell", [
    (_KT_1_3_PQR, "~p", ((0,), 64)),
    (_KT_1_3_PQR, "~(p & q & r)", ((0,), 73)),
    (_KT_1_3_PQR, "p -> K{a} q", ((0,), 64)),
    (_S5_1_5_PQ, "K{a} p -> (q -> K{a} q)", ((1,), 97)),
    (_S5_1_5_PQ, "(K{a} p & q) -> K{a} q", ((1,), 97)),
    (_S5_1_5_PQ, "K{a} (p | q) -> (K{a} p | K{a} q)", ((1,), 34)),
    (_S5_2_3_PQR, "[{a} <= {b}] -> (p -> q)", None),
    (_S5_2_3_PQR, "~[{a} <= {b}] | r", None),
    (_S5_2_3_PQR, "[{a} <= {b}] | ~p", None),
    (_S5_2_3_PQR, "[{a} <= {b}] | ~(p & q)", None),
    (_S5_2_3_PQR, "[{b} <= {a}] | (p -> q)", None)],
    ids=lambda x: _bounds_id(x) if isinstance(x, SearchBounds) else None)
def test_first_failure_past_the_first_word(bounds, text, cell):
    """Several bytes per frame: at the largest world count, a first
    failure past the first byte (valuation 8 and up) or at a later frame
    is decoded to the per-model sweep's model and witness, in spans of one
    frame and in one span of every frame, and so is the search's first
    countermodel.  The cells pinned here are the sweep's."""
    n, f = bounds.max_worlds, parse(text)
    m, w = _sweep_at(f, bounds, n)
    assert cell in (None, _cell_of(m, bounds))
    for cells in (8, search._CHUNK_CELLS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_CHUNK_CELLS", cells)
            hits = search._first_failures([f], bounds, n)
        frame, val_idx, mask = hits[f]
        assert (frame, val_idx) == _cell_of(m, bounds)
        got = search._model_at(bounds, n, frame, val_idx)
        assert encode_model(got, bounds.atoms) \
            == encode_model(m, bounds.atoms)
        missing = ~mask & ((1 << n) - 1)
        assert got.worlds[(missing & -missing).bit_length() - 1] == w
    _check_spans(f, bounds, _sweep(f, bounds))


@pytest.mark.parametrize("bounds", [_KT_1_3_PQR, _S5_1_5_PQ],
                         ids=_bounds_id)
def test_several_words_hold_everywhere(bounds):
    """A formula valid on every model checks all of them, in spans of one
    frame."""
    f = parse("(K{a} p -> p) & (K{a} (q -> p) -> (K{a} q -> K{a} p))")
    _check_spans(f, bounds, (None, None, count_models(bounds)))


def _keep_blocks(monkeypatch):
    """The blocks the search builds, and those of them whose span it
    scans, as two lists that fill as they are made: a block of a whole run
    of prefixes is built and never scanned."""
    built, scanned = [], []

    class Kept(search.Block):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

        def extensions(self, steps):
            scanned.append(self)
            return super().extensions(steps)

    monkeypatch.setattr(search, "Block", Kept)
    return built, scanned


def test_an_extension_holds_one_bit_per_valuation(monkeypatch):
    """KT, 2 agents, 4 worlds, atom p: every extension over a span is
    bytes and holds at most n * V / 8 of them per frame (8, two per
    world), where one uint32 world mask per valuation would take 64.  A
    span is four prefixes against the whole 4,096-relation pool."""
    _, blocks = _keep_blocks(monkeypatch)
    bounds = SearchBounds(FrameClass.KT, 2, 4, atoms=("p",))
    # refuted in the first span
    assert search._first_failures([parse("p")], bounds, 4) \
        == {parse("p"): ((0, 0), 0, 0)}
    (one,) = blocks
    n_prefixes, n_last, n_vals = one.shape
    assert (n_prefixes, n_last, n_vals) == (4, 4096, 16)
    n_frames = n_prefixes * n_last
    assert n_frames == search._CHUNK_CELLS // 16
    for text in ("p", "~p", "K{a} p -> p", "[{a} <= {b}]",
                 "D{a,b} p & ~C{a,b} ~p", "[{a} # {b}] | CD[{a};{b}] p"):
        ext = one.evaluate(parse(text))
        assert ext.dtype == np.uint8
        assert ext.nbytes <= n_frames * 4 * n_vals // 8


def test_an_atomless_extension_packs_eight_frames_per_byte(monkeypatch):
    """KT, 3 agents, 3 worlds, no atoms: one valuation, so a byte
    holds 8 frames and an extension over the span of all 720 prefixes
    against the 64-relation pool (46,080 frames, 43,968 of them minimal)
    holds at most n * F / 8 bytes (one byte per world and frame would take
    n * F)."""
    blocks, _ = _keep_blocks(monkeypatch)
    bounds = SearchBounds(FrameClass.KT, 3, 3)
    assert search._first_failures([parse("[{a} <= {a}]")], bounds,
                                  3) == {}
    (one,) = blocks
    n_prefixes, n_last, n_vals = one.shape
    assert (n_prefixes, n_last, n_vals) == (720, 64, 1)
    n_frames = n_prefixes * n_last
    for text in ("[{a} <= {b}]", "~[{a} <= {b}]", "[{a,b} < {c}]",
                 "D{a,b} [{a} # {c}]", "K{a} [{b} <= {c}]",
                 "C{a,b} [{a} <= {b}] -> [{b} == {c}]",
                 "CD[{a};{b,c}] ~[{a} <= {c}]"):
        ext = one.evaluate(parse(text))
        assert ext.dtype == np.uint8
        assert ext.nbytes <= -(-3 * n_frames // 8)


# --- frames packed into a byte --------------------------------------------

# KT, 2 agents, up to 3 worlds, no atoms: one valuation, so a byte
# holds 8 frames.  Blocks of 10 and 13 cells cut spans of up to 10 and 13
# frames, neither a multiple of 8, so a span's last byte holds padding
# cells past the span's last frame.
_KT_2_3 = SearchBounds(FrameClass.KT, 2, 3)


@pytest.mark.parametrize("cells", [10, 13])
@pytest.mark.parametrize("text", ["[{a} <= {a}]", "[{a,b} <= {a}]"])
def test_padding_past_the_last_frame_never_fails(text, cells):
    """Valid formulas whose comparisons are 0 on the padding cells check
    every model."""
    _check_spans(parse(text), _KT_2_3,
                      (None, None, count_models(_KT_2_3)), cells)


@pytest.mark.parametrize("cells", [10, 13])
@pytest.mark.parametrize("text", [
    "~[{a} <= {b}]", "[{b} <= {a}]", "[{a} <= {b}] | [{b} <= {a}]",
    "[{a} <= {b}] -> K{a} [{a} <= {b}]"])
def test_first_failure_in_a_packed_span(text, cells):
    """A packed span's first failure, in its first byte or a later one,
    is the per-model sweep's first countermodel and witness."""
    f = parse(text)
    _check_spans(f, _KT_2_3, _sweep(f, _KT_2_3), cells)


def test_first_failure_in_the_second_word_of_a_span(monkeypatch):
    """On 3 worlds a prefix's row holds the 64-relation pool in 8 bytes,
    and this formula first fails at frame (6, 9): the second cell of the
    second byte of prefix 6's row.  Spans of 13 frames cut that row into
    five, the first holding the failure; one span holds the 16 prefixes
    against the whole pool, 6 the fifth."""
    hits = []
    first_failure = search.Block.first_failure

    def record(block, ext):
        hits.append((block.shape, first_failure(block, ext)))
        return hits[-1][1]

    monkeypatch.setattr(search.Block, "first_failure", record)
    f = parse("K{a} ~K{b} ~([{b} <= {a}] | [{a} <= {b}])")
    for cells, shape, prefix in ((13, (1, 13, 1), 0),
                                 (1 << 17, (16, 64, 1), 4)):
        monkeypatch.setattr(search, "_CHUNK_CELLS", cells)
        hits.clear()
        out = check_validity(f, _KT_2_3)
        assert _cell_of(out.model, _KT_2_3) == ((6, 9), 0)
        ((got_shape, (got_prefix, last, val, _)),) = [
            (s, hit) for s, hit in hits if hit is not None]
        assert (got_shape, got_prefix, last, val) == (shape, prefix, 9, 0)


# --- batches: one walk over the union DAG --------------------------------

def test_a_batch_walk_drops_each_subterm_after_its_last_reader():
    """`schedule` lists each distinct subterm of a batch once, after its
    children, marks the batch's formulas, and drops each subterm exactly
    once: at its last reader, or at its own step when nothing reads it."""
    batch = [parse(text) for text in (
        "[{a} <= {b}] -> D{a} p", "D{a} p", "[{a} <= {b}] -> D{a} p",
        "D{a} p & [{a} <= {b}]", "~D{b} p")]
    steps = search.schedule(batch)
    order = [g for g, *_ in steps]
    assert len(set(order)) == len(order)
    assert set(order) == set(post_order(batch))
    pos = {g: i for i, g in enumerate(order)}
    assert all(pos[c] < pos[g] for g in order for c in g.children)
    assert {g for g, _, root, _ in steps if root} == set(batch)
    dropped = {}
    for i, (*_, drops) in enumerate(steps):
        for g in drops:
            assert g not in dropped
            dropped[g] = i
    for g in order:
        readers = [pos[h] for h in order if g in h.children]
        assert dropped[g] == max(readers, default=pos[g])


def _block_of(rows_a, rows_b, n_vals=1):
    """A Block over 2-world frames, the prefix b's rows against a row of
    last-agent rows for a, and with one atom p when n_vals is 4
    (valuation v is p's world mask)."""
    atom_ext = {} if n_vals == 1 else {
        "p": search.Block.atom_words(np.arange(4, dtype=np.uint32), 2)}
    return search.Block(
        {"a": np.array(rows_a, dtype=np.uint8).T[:, None],
         "b": np.array(rows_b, dtype=np.uint8)[:, None, None]},
        atom_ext, (1, len(rows_a), n_vals))


_IDENTITY = [0b01, 0b10]
# w1 sees w0: a's row at w1 is not inside the identity's
_W1_SEES_W0 = [0b01, 0b11]


@pytest.mark.parametrize("n_frames,n_vals,holds,fails", [
    # 8 frames a byte: the tenth frame is the second bit of the second
    # byte, whose last six bits are padding
    (10, 1, "[{b} <= {a}]", "[{a} <= {b}]"),
    # 2 frames a byte: the third frame fills half of the second byte, and
    # fails only where D{a} p holds at w1, at valuation 3
    (3, 4, "[{b} <= {a}] | p", "~p | ~D{a} p | [{a} <= {b}]")])
def test_the_failure_test_skips_padding_and_finds_the_last_real_frame(
        n_frames, n_vals, holds, fails):
    """A row whose last byte is part filled: a formula that holds on
    every real cell, but not on the padding, reports no failure, and one
    whose only failing frame is the last real one reports that frame, its
    valuation and the world that misses it."""
    block = _block_of([_IDENTITY] * (n_frames - 1) + [_W1_SEES_W0],
                      _IDENTITY, n_vals)
    assert block.groups == 2
    exts = dict(block.extensions(search.schedule(
        [parse(holds), parse(fails)])))
    assert np.bitwise_and.reduce(exts[parse(holds)], axis=None) != 0xFF
    assert block.first_failure(exts[parse(holds)]) is None
    prefix, frame, val, mask = block.first_failure(exts[parse(fails)])
    assert (prefix, frame, val) == (0, n_frames - 1, n_vals - 1)
    missing = ~mask & 0b11
    assert (missing & -missing).bit_length() - 1 == 1
    for f, ext in exts.items():
        assert np.array_equal(*np.broadcast_arrays(ext, block.evaluate(f)))


@st.composite
def _batches(draw, agents, atoms):
    """1-6 formulas that share work: repeats, a formula next to one of its
    own subformulas, and one comparison and one box read by several."""
    formula = formulas_over(agents, atoms=atoms, max_leaves=4)
    groups = st.sets(st.sampled_from(agents), min_size=1).map(Group)
    cmp = draw(st.builds(Cmp, st.sampled_from(list(CmpOp)), groups, groups))
    box = draw(st.builds(DK, groups, formula))
    batch: list = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 3 if batch else 1))
        if kind == 0:
            f = draw(formula)
        elif kind == 1:
            op = draw(st.sampled_from((And, Or, Imp, Iff)))
            f = op(draw(st.sampled_from((cmp, box))), draw(formula))
        elif kind == 2:
            f = draw(st.sampled_from(batch))
        else:
            f = draw(st.sampled_from(post_order([draw(st.sampled_from(
                batch))])))
        batch.append(f)
    return batch


@pytest.mark.parametrize("bounds", [
    SearchBounds(FrameClass.KT, 2, 2, atoms=("p",)),
    SearchBounds(FrameClass.S4, 2, 2, atoms=("p",)),
    SearchBounds(FrameClass.S5, 2, 3, atoms=("p",))], ids=_bounds_id)
def test_a_batch_gives_each_formula_its_own_search(bounds):
    """Each formula of a batch with shared subterms gets what
    check_validity gives it alone, and the per-model sweep with the
    pair-set oracle, with spans of one to four frames."""

    @settings(max_examples=15, deadline=None)
    @given(_batches(bounds.agents, bounds.atoms))
    def check(batch):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_CHUNK_CELLS", 8)
            outs = check_formulas(batch, bounds)
            assert outs == [check_validity(f, bounds) for f in batch]
        for f, out in zip(batch, outs):
            m, w, checked = _sweep(f, bounds)
            if m is None:
                assert out == NoCountermodelUpTo(bounds=bounds,
                                                 models_checked=checked)
            else:
                assert isinstance(out, Countermodel)
                assert encode_model(out.model, bounds.atoms) \
                    == encode_model(m, bounds.atoms)
                assert out.witness == w

    check()


# --- two search results pinned in full -----------------------------------

def test_negative_introspection_minimal_reflexive_countermodel():
    f = parse("~D{a} p -> D{a} ~D{a} p")
    out = check_validity(f, SearchBounds(FrameClass.KT, 1, 3, atoms=("p",)))
    assert isinstance(out, Countermodel)
    assert out.model.n_worlds == 2
    assert out.model.relation("a").rows == (0b11, 0b10)
    assert out.model.atom_mask("p") == 0b10
    assert out.witness == "w0"

    on_s5 = check_validity(f, SearchBounds(FrameClass.S5, 1, 3,
                                           atoms=("p",)))
    assert on_s5 == NoCountermodelUpTo(
        bounds=SearchBounds(FrameClass.S5, 1, 3, atoms=("p",)),
        models_checked=2 + 8 + 40)


def test_known_superiority_valid_on_s5_refuted_on_s4():
    f = parse("[{b} <= {a}] -> D{b} [{b} <= {a}]")
    on_s5 = check_validity(f, SearchBounds(FrameClass.S5, 2, 4))
    assert isinstance(on_s5, NoCountermodelUpTo)
    assert on_s5.models_checked == 255

    on_s4 = check_validity(f, SearchBounds(FrameClass.S4, 2, 4))
    assert isinstance(on_s4, Countermodel)
    m = on_s4.model
    assert m.n_worlds == 2
    assert m.relation("a").rows == (0b11, 0b10)  # one-way refinement
    assert m.relation("b").rows == (0b11, 0b11)  # no information
    assert on_s4.witness == "w0"
    assert satisfies(m, "w0", parse("[{b} <= {a}]"))
    assert not satisfies(m, "w0", parse("D{b} [{b} <= {a}]"))


# --- the span walk -------------------------------------------------------

# a span the sweep cut: its prefixes as tuples of pool indices, and its
# bounds as `search._spans` yields them
_CutSpan = namedtuple("_CutSpan", "prefixes lo hi start stop")


def _count_spans_and_blocks(monkeypatch):
    """The spans the walk cuts and the blocks the scans build, as lists
    that fill as they are made."""
    cut, runs = [], []
    prefix_runs, spans = search._prefix_runs, search._spans

    def counting_runs(*args):
        for run in prefix_runs(*args):
            runs.append(run)
            yield run

    def counting_spans(*args):
        for lo, hi, start, stop in spans(*args):
            cut.append(_CutSpan(list(map(tuple, runs[-1][lo:hi].tolist())),
                                lo, hi, start, stop))
            yield lo, hi, start, stop

    monkeypatch.setattr(search, "_prefix_runs", counting_runs)
    monkeypatch.setattr(search, "_spans", counting_spans)
    built, _ = _keep_blocks(monkeypatch)
    return cut, built


def test_the_walk_stops_once_every_formula_has_failed(monkeypatch):
    """KT, 2 agents, 3 worlds, atom p, one frame per span: `p` fails in
    the first span and this comparison first at prefix 1's first frame,
    span 64.  Once both have failed no further span is cut or scanned."""
    cut, built = _count_spans_and_blocks(monkeypatch)
    monkeypatch.setattr(search, "_CHUNK_CELLS", 8)
    bounds = SearchBounds(FrameClass.KT, 2, 3, atoms=("p",))
    batch = [parse("p"), parse("~[{b} <= {a}] | [{a} <= {b}]")]
    hits = search._first_failures(batch, bounds, 3)
    assert hits == {batch[0]: ((0, 0), 0, 0), batch[1]: ((1, 0), 0, 0b110)}
    assert len(cut) == len(built) == 65
    assert (cut[-1].prefixes, *cut[-1][1:]) == ([(1,)], 0, 1, 0, 1)


def test_a_batch_that_empties_in_its_first_span_walks_once(monkeypatch):
    """Every formula fails in the first span: the batch's walk is built
    once (`schedule` called once), and one span is cut and one block
    built."""
    cut, built = _count_spans_and_blocks(monkeypatch)
    walks = []
    schedule = search.schedule

    def counting_schedule(formulas):
        walks.append(list(formulas))
        return schedule(formulas)

    monkeypatch.setattr(search, "schedule", counting_schedule)
    monkeypatch.setattr(search, "_CHUNK_CELLS", 8)
    bounds = SearchBounds(FrameClass.KT, 2, 3, atoms=("p",))
    batch = [parse("p"), parse("~p | p & ~p")]
    hits = search._first_failures(batch, bounds, 3)
    assert hits == {batch[0]: ((0, 0), 0, 0), batch[1]: ((0, 0), 1, 0b110)}
    assert len(walks) == 1
    assert len(cut) == len(built) == 1


def test_no_walk_is_built_that_no_span_reads(monkeypatch):
    """Atomless KT, 2 agents, 3 worlds is one span: the comparison fails
    in it and the other formula holds, so no walk of the formula left is
    built, since no span is left to read it."""
    walks = []
    schedule = search.schedule

    def counting_schedule(formulas):
        walks.append(list(formulas))
        return schedule(formulas)

    monkeypatch.setattr(search, "schedule", counting_schedule)
    cut, _ = _count_spans_and_blocks(monkeypatch)
    batch = [parse("[{a} <= {b}]"), parse("[{a} <= {a}]")]
    hits = search._first_failures(batch, SearchBounds(FrameClass.KT, 2, 3),
                                  3)
    assert list(hits) == batch[:1]
    assert len(cut) == 1
    assert walks == [batch]


def test_a_span_block_is_released_before_the_next_is_built(monkeypatch):
    """KT, 2 agents, 3 worlds, atom p, 8 spans of two prefixes against
    the whole pool: when a block is built, no block whose extensions an
    earlier span walked is still alive, so a sweep holds one span's block
    and extensions at a time."""
    scanned, alive = [], []

    class Watched(search.Block):
        def __init__(self, *args):
            alive.append(sum(ref() is not None for ref in scanned))
            super().__init__(*args)

        def extensions(self, steps):
            scanned.append(weakref.ref(self))
            return super().extensions(steps)

    monkeypatch.setattr(search, "Block", Watched)
    monkeypatch.setattr(search, "_CHUNK_CELLS", 1024)
    f = parse("[{a} <= {b}] -> (K{b} p -> K{a} p)")
    bounds = SearchBounds(FrameClass.KT, 2, 3, atoms=("p",))
    assert search._first_failures([f], bounds, 3) == {}
    assert len(scanned) == 8
    assert alive == [0] * 9


def test_an_empty_batch_sweeps_nothing(monkeypatch):
    """`check_formulas` of no formulas returns [] without building a
    relation pool, walking the prefixes or cutting a span."""
    def refuse(*args):
        raise AssertionError("an empty batch started a sweep")

    for name in ("frame_relations", "_pool_codes", "_prefixes",
                 "_prefix_runs", "_spans", "_first_failures",
                 "count_models"):
        monkeypatch.setattr(search, name, refuse)
    for mod_iso in (False, True):
        bounds = SearchBounds(FrameClass.KT, 2, 5, mod_iso=mod_iso)
        assert check_formulas([], bounds) == []


def test_no_cache_outlives_a_call(monkeypatch):
    """KT, 2 agents, 3 worlds, atom p, 8 spans of two prefixes against
    the whole pool: `K{b} p` reads no prefix agent, so it is evaluated
    once per call and then shared, and `K{a} p` reads only prefix agents,
    so it is evaluated once per run of prefixes, here one run of all 16.
    A second identical call evaluates as many boxes as the first: nothing
    is kept between calls."""
    boxes = []
    box = search.Block._box

    def counting_box(block, name, ext):
        boxes.append(name)
        return box(block, name, ext)

    monkeypatch.setattr(search.Block, "_box", counting_box)
    monkeypatch.setattr(search, "_CHUNK_CELLS", 1024)
    f = parse("[{a} <= {b}] -> (K{b} p -> K{a} p)")
    bounds = SearchBounds(FrameClass.KT, 2, 3, atoms=("p",))
    counts = []
    for _ in range(2):
        boxes.clear()
        assert check_validity(f, bounds) == NoCountermodelUpTo(
            bounds=bounds, models_checked=count_models(bounds))
        counts.append({g: boxes.count(g) for g in boxes})
    assert counts[0] == counts[1] == {Group(["a"]): 1, Group(["b"]): 1}


def test_every_block_of_a_whole_pool_sweep_shares_the_last_agent_tables(
        monkeypatch):
    """KT, 2 agents, 3 worlds, atom p, 8 spans of two prefixes against
    the whole pool: the last agent's rows, world axis first, and their
    complement are built once per call, so every block of the sweep, the
    run's block included, holds the same read-only arrays."""
    built, scanned = _keep_blocks(monkeypatch)
    monkeypatch.setattr(search, "_CHUNK_CELLS", 1024)
    bounds = SearchBounds(FrameClass.KT, 2, 3, atoms=("p",))
    assert check_validity(parse("[{a} <= {b}] -> (K{b} p -> K{a} p)"),
                          bounds) == NoCountermodelUpTo(
        bounds=bounds, models_checked=count_models(bounds))
    assert len(scanned) == 8 and len(built) == 9
    rows = built[0].rows_by_agent["b"]
    missed = built[0]._missed(Group(["b"]))
    assert not rows.flags.writeable and not missed.flags.writeable
    for block in built:
        assert block.rows_by_agent["b"] is rows
        assert block._missed(Group(["b"])) is missed


@pytest.mark.parametrize("bounds,text,cells,read,runs,spans", [
    (SearchBounds(FrameClass.KT, 2, 3, atoms=("p",)),
     "[{a} <= {b}] -> (K{b} p -> K{a} p)", 1024, ("box", Group(["a"])),
     1, 8),
    (SearchBounds(FrameClass.KT, 3, 3),
     "[{a} <= {b}] & [{b} <= {c}] -> [{a} <= {c}]", 128,
     ("leq", Group(["a"]), Group(["b"])), 45, 360)],
    ids=["K{a} p", "[{a} <= {b}]"])
def test_a_prefix_only_subterm_is_evaluated_once_per_run(
        monkeypatch, bounds, text, cells, read, runs, spans):
    """A subterm that reads only prefix agents is evaluated once per run
    of prefixes, on the run's block, and each span reads its own prefixes
    of it.  On KT/2/3 with p, `K{a} p` is boxed once for the one run of
    all 16 prefixes, not in each of 8 spans; on atomless KT/3/3,
    `[{a} <= {b}]` (a and b are prefix agents) is evaluated once in each
    of 45 runs of 16 prefixes, not in each of 360 spans."""
    cut, _ = _count_spans_and_blocks(monkeypatch)
    reads = []
    box, leq = search.Block._box, search.Block._leq

    def counting_box(block, name, ext):
        reads.append(("box", name))
        return box(block, name, ext)

    def counting_leq(block, left, right):
        reads.append(("leq", left, right))
        return leq(block, left, right)

    monkeypatch.setattr(search.Block, "_box", counting_box)
    monkeypatch.setattr(search.Block, "_leq", counting_leq)
    monkeypatch.setattr(search, "_CHUNK_CELLS", cells)
    assert check_validity(parse(text), bounds) == NoCountermodelUpTo(
        bounds=bounds, models_checked=count_models(bounds))
    assert reads.count(read) == runs
    assert len(cut) == spans
    assert sum(span.lo == 0 for span in cut) == runs


def test_a_subterm_of_a_prefix_agent_and_the_last_is_evaluated_per_span(
        monkeypatch):
    """KT, 2 agents, 3 worlds, atom p, 8 spans of two prefixes against
    the whole pool: `[{a} <= {b}]` reads the prefix agent a and the last
    agent b, so each span evaluates its own, and no span reuses
    another's."""
    cut, _ = _count_spans_and_blocks(monkeypatch)
    leqs = []
    leq = search.Block._leq

    def counting_leq(block, left, right):
        leqs.append((left, right))
        return leq(block, left, right)

    monkeypatch.setattr(search.Block, "_leq", counting_leq)
    monkeypatch.setattr(search, "_CHUNK_CELLS", 1024)
    bounds = SearchBounds(FrameClass.KT, 2, 3, atoms=("p",))
    assert check_validity(parse("[{a} <= {b}] -> (K{b} p -> K{a} p)"),
                          bounds) == NoCountermodelUpTo(
        bounds=bounds, models_checked=count_models(bounds))
    assert len(cut) == 8
    assert leqs == [(Group(["a"]), Group(["b"]))] * 8


# A formula that fails in the middle of a run of prefixes at the largest
# world count, and one that shares a subterm of prefix agents with it and
# goes on.  At the given cells each span is one prefix against the whole
# pool, in runs of 4 to 16 spans.
_MID_RUN_CASES = [
    (SearchBounds(FrameClass.KT, 2, 3, atoms=("p",)), 512,
     "~K{a} ~p -> p", "[{a} <= {b}] -> (K{b} ~p -> K{a} ~p)"),
    (SearchBounds(FrameClass.S4, 2, 3, atoms=("p",)), 232,
     "~K{a} ~p -> p", "[{a} <= {b}] -> (K{b} ~p -> K{a} ~p)"),
    (SearchBounds(FrameClass.S5, 2, 4, atoms=("p",)), 240,
     "~K{a} ~p -> p", "[{a} <= {b}] -> (K{b} ~p -> K{a} ~p)"),
    (SearchBounds(FrameClass.KT, 3, 3), 64, "[{a} <= {b}] | [{b} <= {a}]",
     "[{a} <= {b}] -> [{a} <= {c}] | [{c} <= {b}]"),
    (SearchBounds(FrameClass.S4, 3, 3), 29, "[{a} <= {b}] | [{b} <= {a}]",
     "[{a} <= {b}] -> [{a} <= {c}] | [{c} <= {b}]"),
    (SearchBounds(FrameClass.S5, 3, 3, atoms=("p",)), 40,
     "[{a} <= {b}] | [{b} <= {a}]", "[{a} <= {b}] -> K{c} [{a} <= {b}]")]


@pytest.mark.parametrize("bounds,cells,leaves,stays", _MID_RUN_CASES,
                         ids=[_bounds_id(c[0]) for c in _MID_RUN_CASES])
def test_a_formula_that_leaves_mid_run_leaves_the_run_to_the_new_batch(
        monkeypatch, bounds, cells, leaves, stays):
    """The first formula fails in a span that is not its run's last, so
    the rest of the run is evaluated with a new walk of the second alone,
    which reads what the run's block already evaluated.  Both outcomes are
    the per-model sweep's, with spans of 8 and 13 cells, in runs of
    one-prefix spans, and at full size."""
    batch = [parse(leaves), parse(stays)]
    want = [_sweep(f, bounds) for f in batch]
    cut, _ = _count_spans_and_blocks(monkeypatch)
    left = []
    schedule = search.schedule

    def counting_schedule(formulas):
        left.append(cut[-1] if cut else None)
        return schedule(formulas)

    monkeypatch.setattr(search, "schedule", counting_schedule)
    for size in (8, 13, cells, search._CHUNK_CELLS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_CHUNK_CELLS", size)
            cut.clear()
            left.clear()
            outs = check_formulas(batch, bounds)
        for out, got in zip(outs, want):
            _agrees(out, bounds, got)
        if size == cells:
            # the second walk, built at the span after the first
            # formula's, in the same run
            assert left[1].lo > 0


_HUGE_SPAN_COUNT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from epicmp.kripke import FrameClass
from epicmp.search import SearchBounds, _first_failures
from epicmp.syntax import parse
bounds = SearchBounds(FrameClass.KT, 2, 5, atoms=("p",))
print(_first_failures([parse("p")], bounds, 5))
"""


def test_span_walk_memory_does_not_grow_with_the_span_count():
    """KT, 2 agents, 5 worlds: of the 2^40 frames the walk visits only the
    orbit-minimal ones, at least 2^40 / 5! (about 9.2 billion, since an
    orbit of world relabelings holds at most 120 frames), in at least 2.2
    million spans of 4,096 frames.  Finding the first failure must fit in
    2 GiB of address space, so nothing may be held per span.  Runs in a
    child process under that limit."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(search.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _HUGE_SPAN_COUNT],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "{parse('p'): ((0, 0), 0, 0)}\n"


def test_frame_relations_arrays_are_read_only():
    for frame in (FrameClass.KT, FrameClass.S4, FrameClass.S5):
        rows = frame_relations(frame, 3)
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0
        assert frame_relations(frame, 3) is rows


def test_frame_relations_rows_are_one_byte():
    """Search frames have at most 5 worlds, so a row mask is one byte."""
    for frame in (FrameClass.KT, FrameClass.S4, FrameClass.S5):
        for n in range(1, MAX_SEARCH_WORLDS + 1):
            assert frame_relations(frame, n).dtype == np.uint8


# --- bounds validation ----------------------------------------------------

def test_bounds_rejects_out_of_range_parameters():
    with pytest.raises(BoundsError, match="frame"):
        SearchBounds(FrameClass.NONE, 1, 2)
    with pytest.raises(BoundsError, match="n_agents"):
        SearchBounds(FrameClass.KT, 0, 2)
    with pytest.raises(BoundsError, match="n_agents"):
        SearchBounds(FrameClass.KT, 5, 2)
    with pytest.raises(BoundsError, match="max_worlds"):
        SearchBounds(FrameClass.KT, 1, 6)
    with pytest.raises(BoundsError, match="atoms"):
        SearchBounds(FrameClass.KT, 1, 2, atoms=("p", "q", "r", "s"))
    with pytest.raises(BoundsError, match="duplicate"):
        SearchBounds(FrameClass.KT, 1, 2, atoms=("p", "p"))


def test_formula_outside_bounds_is_rejected():
    bounds = SearchBounds(FrameClass.KT, 2, 2, atoms=("p",))
    with pytest.raises(BoundsError, match="agent 'c'"):
        check_validity(parse("D{c} p"), bounds)
    with pytest.raises(BoundsError, match="atom 'q'"):
        check_validity(parse("D{a} q"), bounds)


# --- placeholder substitution -------------------------------------------

def test_instantiate_schema_unions_group_placeholders():
    schema = parse("D{A,B} phi")
    got = instantiate_schema(
        schema, {"A": Group(["a", "b"]), "B": Group(["b", "c"])},
        {"phi": parse("p & q")})
    assert got == parse("D{a,b,c} (p & q)")
    # non-placeholder member names pass through
    mixed = instantiate_schema(parse("D{A,d} phi"), {"A": Group(["a"])},
                               {"phi": parse("p")})
    assert mixed == parse("D{a,d} p")
