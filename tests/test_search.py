"""Bounded-search tests: enumeration sizes against closed forms, ordering,
dedup-by-isomorphism and its Burnside count, agreement between the array
scanner and a plain per-model sweep (`conftest.enumerate_models`) with the
pair-set oracle (for every number of valuation bytes per frame, and past
the first byte), the relation pools and their world relabelings (against
`conftest.relation_pool` and `conftest.relabel_rows`), the orbit-minimal
frames the scanner walks (against a brute-force
`conftest.lex_min_frames`), the largest world count swept first and the
smaller ones only for what it refutes, the thread pool and the lazy span
walk, and schema instantiation (whose instances share one scan, checked against the
per-model sweep too)."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings

import epicmp.search as search
import epicmp.semantics as semantics
from conftest import (canonicalize, encode_model, enumerate_models,
                      formulas_over, lex_min_frames, oracle_extension,
                      relabel_rows, relation_pool)
from epicmp.kripke import FrameClass, classify_frame
from epicmp.search import (AGENT_POOL, BoundsError, Countermodel,
                           DEFAULT_FORMULA_POOL, MAX_SEARCH_WORLDS,
                           NoCountermodelUpTo, SearchBounds, check_formulas,
                           check_schema, check_validity, count_models,
                           frame_relations, instantiate_schema)
from epicmp.semantics import satisfies
from epicmp.syntax import Group, parse


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
    for jobs in (1, 2, 8):
        out = check_validity(parse("[{a} <= {a}]"), bounds, jobs=jobs)
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
    monkeypatch.setattr(semantics, "_BOX_CELLS", 1)
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

def _walked_frames(frame, n, n_agents, step):
    spans = list(search._frame_spans(frame, n, n_agents, step))
    assert all(len(idx) == len(span[0]) for span in spans for idx in span)
    assert [len(span[0]) for span in spans[:-1]] == [step] * (len(spans) - 1)
    assert 1 <= len(spans[-1][0]) <= step
    return [tuple(int(idx[k]) for idx in span)
            for span in spans for k in range(len(span[0]))]


@pytest.mark.parametrize("frame,n_agents,n", [
    *itertools.product((FrameClass.KT, FrameClass.S4, FrameClass.S5),
                       (1, 2, 3), (1, 2, 3)),
    (FrameClass.S5, 2, 4)])
def test_frame_walk_is_the_brute_force_lex_min(frame, n_agents, n):
    expected = lex_min_frames(frame, n, n_agents)
    # spans of 7 frames cut across prefixes and through long ones
    assert _walked_frames(frame, n, n_agents, 7) == expected
    assert _walked_frames(frame, n, n_agents, 1 << 17) == expected


_MINIMAL_SWEEP_BOUNDS = [
    SearchBounds(FrameClass.KT, 2, 2, atoms=("p",)),
    SearchBounds(FrameClass.KT, 1, 3, atoms=("p",)),
    SearchBounds(FrameClass.S4, 2, 3, atoms=("p",)),
    SearchBounds(FrameClass.S5, 3, 3, atoms=("p",)),
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


def _check_every_jobs(f, bounds, want, cells=8):
    """check_validity with 8-cell blocks (spans of one to eight frames,
    cut across prefixes), or blocks of the given cells, and 1, 2 or 8
    threads gives want, the per-model sweep's (model, witness, models
    checked)."""
    m, w, checked = want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_CHUNK_CELLS", cells)
        mp.setattr(os, "cpu_count", lambda: 8)
        outs = [check_validity(f, bounds, jobs=jobs) for jobs in (1, 2, 8)]
    for out in outs:
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
    one to eight frames, cut across prefixes) and 1, 2 or 8 threads.
    Without atoms in the bounds, the formulas' atom is a comparison."""
    stand_in = {} if bounds.atoms else {"p": parse("[{a} <= {b}]")}

    @settings(max_examples=12, deadline=None)
    @given(formulas_over(bounds.agents, atoms=bounds.atoms or ("p",),
                         max_leaves=6))
    def check(f):
        f = instantiate_schema(f, {}, stand_in)
        _check_every_jobs(f, bounds, _sweep(f, bounds))

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
    assert 0 in search._first_failures([f], [0], bounds, 4, 1)
    want = _sweep(f, bounds)
    assert want[0].n_worlds == 3
    _check_every_jobs(f, bounds, want)


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
    _check_every_jobs(f, bounds, want)


_MIXED_BOUNDS = SearchBounds(FrameClass.KT, 1, 4, atoms=("p", "q"))
_MIXED_VALID = [parse("p -> p"), parse("K{a} p -> p"),
                parse("K{a} (p | q) -> p | q")]
# refuted first at 3, 4 and 1 worlds, between formulas that hold
_MIXED = [_MIXED_VALID[0], _REFUTED_BELOW_TOP, _MIXED_VALID[1],
          _REFUTED_ONLY_AT_TOP, parse("p"), _MIXED_VALID[2]]


def test_a_mixed_batch_gives_each_formula_its_own_outcome(monkeypatch):
    """One batch of formulas that hold and formulas refuted at 1, 3 and 4
    worlds gives each the outcome of its own search, with one frame per
    span and 1, 2 or 8 threads."""
    monkeypatch.setattr(search, "_CHUNK_CELLS", 8)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    alone = [check_validity(f, _MIXED_BOUNDS) for f in _MIXED]
    assert [o.model.n_worlds if isinstance(o, Countermodel) else None
            for o in alone] == [None, 3, None, 4, 1, None]
    for jobs in (1, 2, 8):
        assert check_formulas(_MIXED, _MIXED_BOUNDS, jobs=jobs) == alone


def test_lower_world_counts_sweep_only_the_refuted_formulas(monkeypatch):
    """A batch that holds is swept at 4 worlds alone.  Below 4 worlds the
    sweeps carry only the formulas the 4-world sweep refuted, in formula
    order, each until its first failing world count, and stop once every
    one has failed."""
    calls = []
    first_failures = search._first_failures

    def spy(formulas, todo, bounds, n, jobs):
        calls.append((n, list(todo)))
        return first_failures(formulas, todo, bounds, n, jobs)

    monkeypatch.setattr(search, "_first_failures", spy)
    check_formulas(_MIXED_VALID, _MIXED_BOUNDS)
    assert calls == [(4, [0, 1, 2])]
    calls.clear()
    check_formulas(_MIXED, _MIXED_BOUNDS)
    assert calls == [(4, [0, 1, 2, 3, 4, 5]), (1, [1, 3, 4]), (2, [1, 3]),
                     (3, [1, 3])]
    calls.clear()
    check_formulas([parse("p"), _MIXED_VALID[0]], _MIXED_BOUNDS)
    assert calls == [(4, [0, 1]), (1, [0])]


def test_valid_sweep_gathers_only_the_minimal_frames(monkeypatch):
    """KT, 2 agents, 4 worlds: 703,760 of the 16,777,216 frames are
    minimal, and a formula that holds everywhere gathers exactly those.
    It holds at 4 worlds, so no smaller world count is swept, yet
    models_checked still counts the models of 1 to 4 worlds."""
    gathered = {}
    block = search._block

    def counting_block(rel_rows, bounds, n, atom_ext, span):
        gathered[n] = gathered.get(n, 0) + len(span[0])
        return block(rel_rows, bounds, n, atom_ext, span)

    monkeypatch.setattr(search, "_block", counting_block)
    bounds = SearchBounds(FrameClass.KT, 2, 4, atoms=("p",))
    out = check_validity(parse("p -> p"), bounds)
    assert out == NoCountermodelUpTo(bounds=bounds,
                                     models_checked=268_468_290)
    assert gathered == {4: 703_760}


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
    so the walk yields as many frames as Burnside's lemma counts classes."""
    fixed = sum(rels ** n_agents for rels, _ in search._relabelings(frame, n))
    assert fixed // math.factorial(n) == orbits
    assert sum(len(last) for _, last
               in search._minimal_frames(frame, n, n_agents)) == orbits


@pytest.mark.parametrize("frame,n_agents,n", [
    (FrameClass.KT, 3, 3), (FrameClass.S4, 2, 4), (FrameClass.S5, 4, 4)])
def test_a_second_walk_yields_the_same_spans(monkeypatch, frame, n_agents,
                                             n):
    monkeypatch.setattr(search, "_KEPT", {})
    cold = list(search._frame_spans(frame, n, n_agents, 7))
    assert search._KEPT
    warm = list(search._frame_spans(frame, n, n_agents, 7))
    assert len(warm) == len(cold)
    for a, b in zip(cold, warm):
        assert len(a) == len(b) == n_agents
        for x, y in zip(a, b):
            assert x.dtype == y.dtype == np.int64
            assert np.array_equal(x, y)


def test_the_walk_memo_is_read_only(monkeypatch):
    monkeypatch.setattr(search, "_KEPT", {})
    for _ in search._minimal_frames(FrameClass.S4, 4, 3):
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
    """S4, 2 agents, 5 worlds: after a walk the memo holds one bit per
    pool relation per entry, plus the sparse maps of fixing relabelings
    (an int64 array of kept indices would take 64 bits per kept
    relation)."""
    frame, n = FrameClass.S4, 5
    pool = len(frame_relations(frame, n))
    row = -(-pool // 8)

    def walk():
        for _ in search._minimal_frames(frame, n, 2):
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
            mp.setattr(os, "cpu_count", lambda: 8)
            for jobs in (1, 2, 8):
                hits = search._first_failures([f], [0], bounds, n, jobs)
                frame, val_idx, mask = hits[0]
                assert (frame, val_idx) == _cell_of(m, bounds)
                got = search._model_at(bounds, n, frame, val_idx)
                assert encode_model(got, bounds.atoms) \
                    == encode_model(m, bounds.atoms)
                missing = ~mask & ((1 << n) - 1)
                assert got.worlds[(missing & -missing).bit_length() - 1] == w
    _check_every_jobs(f, bounds, _sweep(f, bounds))


@pytest.mark.parametrize("bounds", [_KT_1_3_PQR, _S5_1_5_PQ],
                         ids=_bounds_id)
def test_several_words_hold_everywhere(bounds):
    """A formula valid on every model checks all of them, under every
    jobs and block size."""
    f = parse("(K{a} p -> p) & (K{a} (q -> p) -> (K{a} q -> K{a} p))")
    _check_every_jobs(f, bounds, (None, None, count_models(bounds)))


def test_an_extension_holds_one_bit_per_valuation(monkeypatch):
    """KT, 2 agents, 4 worlds, atom p: every extension over a span is
    bytes and holds at most n * V / 8 of them per frame (8, two per
    world), where one uint32 world mask per valuation would take 64."""
    blocks = []
    block = search._block

    def keep_block(rel_rows, bounds, n, atom_ext, span):
        blocks.append(block(rel_rows, bounds, n, atom_ext, span))
        return blocks[-1]

    monkeypatch.setattr(search, "_block", keep_block)
    bounds = SearchBounds(FrameClass.KT, 2, 4, atoms=("p",))
    # refuted in the first span
    assert search._first_failures([parse("p")], [0], bounds, 4, 1) \
        == {0: ((0, 0), 0, 0)}
    (one,) = blocks
    n_frames, n_vals = one.shape
    assert (n_frames, n_vals) == (search._CHUNK_CELLS // 16, 16)
    for text in ("p", "~p", "K{a} p -> p", "[{a} <= {b}]",
                 "D{a,b} p & ~C{a,b} ~p", "[{a} # {b}] | CD[{a};{b}] p"):
        ext = one.evaluate(parse(text))
        assert ext.dtype == np.uint8
        assert ext.nbytes <= n_frames * 4 * n_vals // 8


def test_an_atomless_extension_packs_eight_frames_per_byte(monkeypatch):
    """KT, 3 agents, 3 worlds, no atoms: one valuation, so a byte
    holds 8 frames and an extension over the span of all 43,968 minimal
    frames holds at most n * F / 8 bytes (one byte per world and frame
    would take n * F)."""
    blocks = []
    block = search._block

    def keep_block(rel_rows, bounds, n, atom_ext, span):
        blocks.append(block(rel_rows, bounds, n, atom_ext, span))
        return blocks[-1]

    monkeypatch.setattr(search, "_block", keep_block)
    bounds = SearchBounds(FrameClass.KT, 3, 3)
    assert search._first_failures([parse("[{a} <= {a}]")], [0], bounds, 3,
                                  1) == {}
    (one,) = blocks
    n_frames, n_vals = one.shape
    assert (n_frames, n_vals) == (43_968, 1)
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
    every model, under every jobs."""
    _check_every_jobs(parse(text), _KT_2_3,
                      (None, None, count_models(_KT_2_3)), cells)


@pytest.mark.parametrize("cells", [10, 13])
@pytest.mark.parametrize("text", [
    "~[{a} <= {b}]", "[{b} <= {a}]", "[{a} <= {b}] | [{b} <= {a}]",
    "[{a} <= {b}] -> K{a} [{a} <= {b}]"])
def test_first_failure_in_a_packed_span(text, cells):
    """A packed span's first failure, in its first byte or a later one,
    is the per-model sweep's first countermodel and witness."""
    f = parse(text)
    _check_every_jobs(f, _KT_2_3, _sweep(f, _KT_2_3), cells)


def test_first_failure_in_the_second_word_of_a_span(monkeypatch):
    """On 2 worlds the 10 minimal frames make one span, and this formula
    first fails at frame 8: the first cell of the span's second byte."""
    hits = []
    first_failure = semantics.Block.first_failure

    def record(block, ext):
        hits.append((block.shape, first_failure(block, ext)))
        return hits[-1][1]

    monkeypatch.setattr(semantics.Block, "first_failure", record)
    monkeypatch.setattr(search, "_CHUNK_CELLS", 13)
    f = parse("[{a} <= {b}] -> K{a} [{a} <= {b}]")
    assert isinstance(check_validity(f, _KT_2_3), Countermodel)
    shape, (frame, val, _) = hits[-1]
    assert (shape, frame, val) == ((10, 1), 8, 0)


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


# --- parallel scanning ----------------------------------------------------

def test_jobs_do_not_change_the_answer():
    bounds = SearchBounds(FrameClass.KT, 2, 3, atoms=("p",))
    f = parse("~D{a} p -> D{a} ~D{a} p")
    outs = [check_validity(f, bounds, jobs=j) for j in (1, 2, 8)]
    assert all(isinstance(o, Countermodel) for o in outs)
    assert len({(encode_model(o.model, bounds.atoms), o.witness)
                for o in outs}) == 1

    g = parse("D{a} p -> p")
    outs = [check_validity(g, bounds, jobs=j) for j in (1, 4)]
    assert outs[0] == outs[1]
    assert isinstance(outs[0], NoCountermodelUpTo)


def _inline_pool(requested, submitted):
    """A `ThreadPoolExecutor` stand-in that runs each task at once, in
    this thread, and records max_workers and each task's arguments."""

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args)
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    return InlinePool


def _reversed_pool(ran):
    """A `ThreadPoolExecutor` stand-in whose tasks run only when a result
    is first asked for, and then last submitted first: every task not yet
    run runs at that point.  Records each task's arguments in the order
    the tasks ran."""
    pending = []

    class Deferred(Future):
        def result(self, timeout=None):
            while pending:
                fut, fn, args = pending.pop()
                ran.append(args)
                fut.set_result(fn(*args))
            return super().result(timeout)

    class ReversedPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Deferred()
            pending.append((fut, fn, args))
            return fut

    return ReversedPool


def test_spans_merge_in_order_when_they_finish_out_of_order(monkeypatch):
    """KT, 1 agent, 3 worlds, atom p: one frame per span, and `p` fails
    in both spans the two workers start with.  Span 1 (pool index 1)
    finishes first, yet span 0's frame is the one reported."""
    ran = []
    monkeypatch.setattr(search, "ThreadPoolExecutor", _reversed_pool(ran))
    monkeypatch.setattr(search, "_CHUNK_CELLS", 8)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    bounds = SearchBounds(FrameClass.KT, 1, 3, atoms=("p",))
    hits = search._first_failures([parse("p")], [0], bounds, 3, 2)
    assert [span[0].tolist() for span, _ in ran] == [[1], [0]]
    assert hits == {0: ((0,), 0, 0)}


def test_jobs_thread_pool_is_clamped(monkeypatch):
    """The pool never asks for more workers than CPUs or spans."""
    requested = []
    monkeypatch.setattr(search, "ThreadPoolExecutor",
                        _inline_pool(requested, []))
    # one frame per span at 3 worlds: 16 spans, one per minimal frame.  The
    # formula holds there, so the 1- and 2-world sweeps never run
    monkeypatch.setattr(search, "_CHUNK_CELLS", 8)
    bounds = SearchBounds(FrameClass.KT, 1, 3, atoms=("p",))
    f = parse("D{a} p -> p")
    serial = check_validity(f, bounds)
    assert requested == []

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert check_validity(f, bounds, jobs=10**6) == serial
    assert requested == [4]

    requested.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert check_validity(f, bounds, jobs=10**6) == serial
    assert requested == []


def test_span_walk_submits_no_more_spans_than_workers(monkeypatch):
    """Spans are submitted as the walk reaches them: a formula refuted in
    the first span of 720 costs one span per worker, not one each."""
    submitted = []
    monkeypatch.setattr(search, "ThreadPoolExecutor",
                        _inline_pool([], submitted))
    monkeypatch.setattr(search, "_CHUNK_CELLS", 8)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    bounds = SearchBounds(FrameClass.KT, 2, 3, atoms=("p",))
    # 64 reflexive relations per agent, 8 valuations: 720 one-frame spans,
    # one per minimal frame
    hits = search._first_failures([parse("p")], [0], bounds, 3, 2)
    assert hits == {0: ((0, 0), 0, 0)}
    assert 1 <= len(submitted) <= 2


_HUGE_SPAN_COUNT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from epicmp.kripke import FrameClass
from epicmp.search import SearchBounds, _first_failures
from epicmp.syntax import parse
bounds = SearchBounds(FrameClass.KT, 2, 5, atoms=("p",))
print(_first_failures([parse("p")], [0], bounds, 5, 1))
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
    assert proc.stdout == "{0: ((0, 0), 0, 0)}\n"


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


# --- schema instantiation -------------------------------------------------

def test_schema_sweep_counts_order_and_verdicts():
    schema = parse("D{B} phi -> D{A,B} phi")
    bounds = SearchBounds(FrameClass.KT, 2, 2, atoms=("p", "q"))
    inst = check_schema(schema, bounds, pool=("a", "b"))
    assert len(inst) == 3 * 3 * len(DEFAULT_FORMULA_POOL)
    assert all(isinstance(i.outcome, NoCountermodelUpTo) for i in inst)
    first = inst[0]
    assert first.group_map == (("A", Group(["a"])), ("B", Group(["a"])))
    assert first.formula_map == (("phi", DEFAULT_FORMULA_POOL[0]),)
    assert first.formula == parse("D{a} p -> D{a} p")


def test_schema_constraint_filters_assignments():
    schema = parse("D{B} phi -> D{A,B} phi")
    bounds = SearchBounds(FrameClass.KT, 2, 2, atoms=("p", "q"))
    inst = check_schema(
        schema, bounds, pool=("a", "b"),
        constraint=lambda gm: not set(gm["A"].agents) & set(gm["B"].agents))
    maps = {i.group_map for i in inst}
    assert maps == {(("A", Group(["a"])), ("B", Group(["b"]))),
                    (("A", Group(["b"])), ("B", Group(["a"])))}
    assert len(inst) == 2 * len(DEFAULT_FORMULA_POOL)


def test_schema_custom_formula_pool_and_failing_instances():
    schema = parse("D{A} phi -> D{B} phi")
    bounds = SearchBounds(FrameClass.S5, 2, 2, atoms=("p",))
    inst = check_schema(schema, bounds, pool=("a", "b"),
                        formula_pool=[parse("p")])
    assert len(inst) == 9
    for i in inst:
        a = set(dict(i.group_map)["A"].agents)
        b = set(dict(i.group_map)["B"].agents)
        if a <= b:  # B pools everything A pools, so A's knowledge carries
            assert isinstance(i.outcome, NoCountermodelUpTo)
        else:
            assert isinstance(i.outcome, Countermodel)


def test_schema_with_an_empty_formula_pool_has_no_instances():
    bounds = SearchBounds(FrameClass.KT, 1, 2, atoms=("p", "q"))
    assert check_schema(parse("D{A} phi"), bounds, ("a",),
                        formula_pool=[]) == []


def test_schema_identical_instances_share_one_outcome():
    schema = parse("D{A,B} phi -> D{A,B} phi")
    bounds = SearchBounds(FrameClass.KT, 2, 2, atoms=("p",))
    inst = check_schema(schema, bounds, pool=("a", "b"),
                        formula_pool=[parse("p")])
    by_formula = {}
    for i in inst:
        by_formula.setdefault(i.formula, []).append(i.outcome)
    # e.g. A={a},B={b} and A={b},B={a} instantiate to the same formula
    assert any(len(v) > 1 for v in by_formula.values())
    for outcomes in by_formula.values():
        assert all(o is outcomes[0] for o in outcomes)


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


def test_schema_sweep_matches_per_model_oracle_for_every_jobs(monkeypatch):
    schema = parse("D{A} D{B} phi -> D{B} D{A} psi")
    bounds = SearchBounds(FrameClass.S5, 2, 3, atoms=("p",))
    pool = [parse("p"), parse("~p"), parse("D{a} p")]
    # one frame per span: 2 spans at 2 worlds and 25 at 3, so threads
    # split those world counts; a short switch interval makes them
    # interleave often
    monkeypatch.setattr(search, "_CHUNK_CELLS", 8)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = [check_schema(schema, bounds, pool=("a", "b"),
                             formula_pool=pool, jobs=jobs)
                for jobs in (1, 2, 8)]
    finally:
        sys.setswitchinterval(interval)
    first = _first_falsifiers(list(dict.fromkeys(i.formula
                                                 for i in runs[0])),
                              bounds)
    valid_count = sum(_bell(n) ** 2 << n for n in range(1, 4))
    refuted_at = set()
    for inst in runs[0]:
        if inst.formula in first:
            m, w = first[inst.formula]
            assert isinstance(inst.outcome, Countermodel)
            assert encode_model(inst.outcome.model, bounds.atoms) \
                == encode_model(m, bounds.atoms)
            assert inst.outcome.witness == w
            refuted_at.add(m.n_worlds)
        else:
            assert inst.outcome == NoCountermodelUpTo(
                bounds=bounds, models_checked=valid_count)
    # the schema mixes valid instances with ones refuted at 1, 2 and 3
    # worlds, so instances leave the sweep at different world counts
    assert refuted_at == {1, 2, 3}
    assert len(first) < len(runs[0])
    for other in runs[1:]:
        assert [(i.group_map, i.formula_map, i.formula) for i in other] \
            == [(i.group_map, i.formula_map, i.formula) for i in runs[0]]
        for a, b in zip(runs[0], other):
            if isinstance(a.outcome, Countermodel):
                assert isinstance(b.outcome, Countermodel)
                assert encode_model(a.outcome.model, bounds.atoms) \
                    == encode_model(b.outcome.model, bounds.atoms)
                assert a.outcome.witness == b.outcome.witness
            else:
                assert b.outcome == a.outcome


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
