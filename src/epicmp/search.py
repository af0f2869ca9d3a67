"""Bounded countermodel search over enumerated models.

The models within bounds are ordered by world count, then frame index,
then valuation index.  With n worlds:

    frame      one relation per agent from the frame class's pool
               (`frame_relations`, ascending by code); the frame index
               reads the agents' pool positions as base-len(pool) digits,
               first agent most significant
    valuation  one world mask per atom; the valuation index reads the
               masks as n-bit digits, first atom most significant

A reflexive relation's code holds its off-diagonal pairs as bits, (i, j)
at `_bit(n, i, j)`, in the order of (i, j), so codes ascend as the row
masks packed row 0 lowest do, and renaming the worlds permutes a code's
bits (`_relabel`).  No other module knows the order; a failure names its
frame by the agents' pool indices and its valuation by index
(`_atom_masks`).  The pools (`_pool_codes`) are:

    KT  every code, so a KT pool index is its code
    S4  the codes of transitive relations
    S5  the codes of equivalences (one per set partition of the worlds)

`check_formulas` sweeps the space with numpy for a list of formulas at
once: one axis walks frames, one enumerates valuations, and
`semantics.Block` evaluates every connective as bitwise arithmetic on
bytes that hold one bit per (frame, valuation) cell, frame-major.  The
frame axis holds only the frames that no world relabeling makes smaller
(`_minimal_frames`).  That loses no answer: if a relabeling makes a
frame smaller, it maps each falsifier on that frame to an isomorphic
falsifier earlier in the order, so the first countermodel lies on a
minimal frame, and a formula that holds on every minimal frame holds on
every frame.

Each sweep covers one world count and walks frame spans, then the
formulas not yet refuted: each span's block of frame rows, its joint /
common / cdk relations and its comparison bytes are built once and
shared by every formula, and a formula leaves the sweep at its first
failing span.  Spans are walked in order with at most two per worker in
flight, so memory does not grow with the number of spans, and their
failures are merged in span order.

The largest world count is swept first, for every formula.  Every
operator at a world reads only the worlds it reaches (D, K, C, CD) or
that world's own rows (comparisons), so a model and its disjoint union
with other worlds agree on the original worlds (Blackburn, de Rijke &
Venema, *Modal Logic*, 2001, Props. 2.3 and 2.6).  KT, S4 and S5 all
admit an isolated reflexive world, so a countermodel with fewer worlds,
padded with such worlds, is a countermodel at the largest count: a
formula that holds there holds at every smaller count.  Only the
formulas the first sweep refutes are swept again, at 1, 2, ... worlds,
each until its first failing count.  `check_validity` is the
one-formula case and `check_schema` sweeps all unique instances of a
schema together.  The first countermodel reported for each formula is
the first in enumeration order, with the lowest falsifying world as
witness, so results are reproducible and independent of --jobs
chunking.

`mod_iso` runs the same sweep and counts isomorphism classes instead of
models: the first falsifying model in enumeration order is always the
first member of its class, so the countermodel and witness do not change,
and `models_checked` is the class count from Burnside's lemma over the
world relabelings.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .kripke import BoundsError, FrameClass, KripkeModel, Relation
from .semantics import Block
from .syntax import (Atom, CDK, CK, Cmp, DK, Formula, Group, IndK,
                     Supergroup, agent_names, atom_names, fold, parse)

AGENT_POOL = ("a", "b", "c", "d")
MAX_SEARCH_WORLDS = 5
MAX_SEARCH_AGENTS = len(AGENT_POOL)
MAX_SEARCH_ATOMS = 3

# Frames x valuations per block: 2^17 cells.  An extension holds one bit
# per cell, n * 16 KiB at most (80 KiB at 5 worlds); with fewer than 8
# valuations a byte holds several frames, so an atomless span of
# 2^17 frames packs into the same n * 16 KiB.  A cached comparison is at
# most one such extension, and a relation's rows (gathered, joint, common,
# cdk, and the complement rows a box reads) are F x n bytes: at most
# 640 KiB, for an atomless span at 5 worlds.  A block shared by every
# instance of a schema holds dozens of these; at 2^18 cells the registry's
# peak RSS rose instead of falling.
_CHUNK_CELLS = 1 << 17

__all__ = [
    "AGENT_POOL", "MAX_SEARCH_WORLDS", "MAX_SEARCH_AGENTS",
    "MAX_SEARCH_ATOMS", "BoundsError", "SearchBounds", "NoCountermodelUpTo",
    "Countermodel", "SearchOutcome", "count_models",
    "check_validity", "check_formulas", "check_schema", "instantiate_schema",
    "SchemaInstance",
    "GROUP_PLACEHOLDERS", "FORMULA_PLACEHOLDERS", "DEFAULT_FORMULA_POOL",
]


@dataclass(frozen=True)
class SearchBounds:
    frame: FrameClass
    n_agents: int
    max_worlds: int
    atoms: tuple[str, ...] = ()
    mod_iso: bool = False

    def __post_init__(self):
        if self.frame not in (FrameClass.KT, FrameClass.S4, FrameClass.S5):
            raise BoundsError(f"frame must be KT, S4 or S5, got {self.frame}")
        if not 1 <= self.n_agents <= MAX_SEARCH_AGENTS:
            raise BoundsError(f"n_agents must be 1..{MAX_SEARCH_AGENTS}, "
                              f"got {self.n_agents}")
        if not 1 <= self.max_worlds <= MAX_SEARCH_WORLDS:
            raise BoundsError(f"max_worlds must be 1..{MAX_SEARCH_WORLDS}, "
                              f"got {self.max_worlds}")
        if len(self.atoms) > MAX_SEARCH_ATOMS:
            raise BoundsError(f"at most {MAX_SEARCH_ATOMS} atoms, "
                              f"got {len(self.atoms)}")
        if len(set(self.atoms)) != len(self.atoms):
            raise BoundsError("duplicate atom in bounds")

    @property
    def agents(self) -> tuple[str, ...]:
        return AGENT_POOL[:self.n_agents]


@dataclass(frozen=True)
class NoCountermodelUpTo:
    bounds: SearchBounds
    models_checked: int


@dataclass(frozen=True)
class Countermodel:
    model: KripkeModel
    witness: str


SearchOutcome = NoCountermodelUpTo | Countermodel


# --- relation codes and pools ---------------------------------------------

def _bit(n: int, i: int, j: int) -> int:
    """The bit of the pair (i, j), i != j, in the code of a reflexive
    relation on n worlds: its off-diagonal pairs in the order of (i, j)."""
    return i * (n - 1) + j - (j > i)


def _rows(codes: np.ndarray, n: int) -> np.ndarray:
    """The reflexive relations with these codes, as a (len, n) uint8
    array of row masks (up to 5 worlds, so a row fits a byte), built in
    place: a KT/5 pool has 2^20 codes."""
    rows = np.empty((len(codes), n), dtype=np.uint8)
    row, bit = np.empty_like(codes), np.empty_like(codes)
    for i in range(n):
        row[...] = 1 << i
        for j in range(n):
            if j != i:
                np.right_shift(codes, _bit(n, i, j), out=bit)
                bit &= 1
                bit <<= j
                row |= bit
        rows[:, i] = row
    return rows


@lru_cache(maxsize=None)
def _pool_codes(frame: FrameClass, n: int) -> np.ndarray:
    """The codes of the frame class's pool over n worlds, ascending
    (int64): all codes (KT), or the transitive ones among all (S4) or the
    symmetric (S5) codes.  Cached and shared, so read-only."""
    if frame is FrameClass.S5:
        pairs = list(itertools.combinations(range(n), 2))
        sym = np.arange(1 << len(pairs), dtype=np.int64)
        codes = np.zeros_like(sym)
        for t, (i, j) in enumerate(pairs):
            both = 1 << _bit(n, i, j) | 1 << _bit(n, j, i)
            codes |= (sym >> t & 1) * both
        codes.sort()
    else:
        codes = np.arange(1 << (n * n - n), dtype=np.int64)
    if frame is not FrameClass.KT:
        rows = _rows(codes, n)
        ok = np.ones(len(codes), dtype=bool)
        for i, k in itertools.permutations(range(n), 2):
            # k a successor of i: every successor of k is one of i
            ok &= (rows[:, i] >> k & 1 == 0) | (rows[:, k] & ~rows[:, i] == 0)
        codes = codes[ok]
    codes.setflags(write=False)
    return codes


@lru_cache(maxsize=None)
def frame_relations(frame: FrameClass, n: int) -> np.ndarray:
    """All per-agent relations for the frame class over n worlds, as a
    (count, n) uint8 array of row masks, ascending by code
    (`_pool_codes`).  The array is cached and shared, so it is
    read-only."""
    rows = _rows(_pool_codes(frame, n), n)
    rows.setflags(write=False)
    return rows


# --- world relabelings ----------------------------------------------------

@lru_cache(maxsize=None)
def _relabel_table(n: int, perm: tuple[int, ...]):
    """The (shift, bits) pairs `_relabel` applies for one relabeling:
    renaming the worlds permutes a code's bits, and the bits that move by
    the same shift move together."""
    moves: dict[int, int] = {}
    for i, j in itertools.permutations(range(n), 2):
        shift = _bit(n, perm[i], perm[j]) - _bit(n, i, j)
        moves[shift] = moves.get(shift, 0) | 1 << _bit(n, i, j)
    return tuple(moves.items())


def _relabel(frame: FrameClass, n: int, perm: tuple[int, ...],
             idx: np.ndarray) -> np.ndarray:
    """The pool index of each relation in idx (an int64 array of pool
    indices) with every world j renamed perm[j].  A KT pool index is its
    code, so KT needs neither the gather of codes nor their lookup."""
    codes = _pool_codes(frame, n)
    src = idx if frame is FrameClass.KT else codes[idx]
    # one scratch array for the moved bits: a KT/5 pool is 8 MB of codes,
    # and the walk relabels it whole
    out = np.zeros_like(src)
    moved = np.empty_like(src)
    for shift, mask in _relabel_table(n, perm):
        np.bitwise_and(src, mask, out=moved)
        if shift >= 0:
            moved <<= shift
        else:
            moved >>= -shift
        out |= moved
    return out if frame is FrameClass.KT else np.searchsorted(codes, out)


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The cycle lengths of a permutation, ascending."""
    seen: set[int] = set()
    lengths = []
    for start in perm:
        j, length = start, 0
        while j not in seen:
            seen.add(j)
            j, length = perm[j], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


@lru_cache(maxsize=None)
def _relabelings(frame: FrameClass, n: int) -> tuple[tuple[int, int], ...]:
    """For each relabeling of n worlds: how many relations of the frame
    class's pool, and how many sets of worlds, it maps onto themselves.
    Both depend only on the relabeling's cycle lengths, so each cycle
    type is counted once."""
    pool = _pool_range(frame, n)
    by_type: dict[tuple[int, ...], tuple[int, int]] = {}
    out = []
    for perm in itertools.permutations(range(n)):
        cycles = _cycle_type(perm)
        if cycles not in by_type:
            fixed = _relabel(frame, n, perm, pool) == pool
            by_type[cycles] = (int(np.count_nonzero(fixed)), 1 << len(cycles))
        out.append(by_type[cycles])
    return tuple(out)


def _models_at(bounds: SearchBounds, n: int) -> int:
    """Models with n worlds within bounds; under mod_iso, their
    isomorphism classes, counted by Burnside's lemma as the mean over
    world relabelings of the models each relabeling fixes."""
    k = len(bounds.atoms)
    if not bounds.mod_iso:
        return len(_pool_codes(bounds.frame, n)) ** bounds.n_agents \
            << (n * k)
    fixed = sum(rels ** bounds.n_agents * sets ** k
                for rels, sets in _relabelings(bounds.frame, n))
    return fixed // math.factorial(n)


def count_models(bounds: SearchBounds) -> int:
    """Number of models within bounds, or of their isomorphism classes
    under mod_iso: the `models_checked` of a search that finds no
    countermodel."""
    return sum(_models_at(bounds, n) for n in range(1, bounds.max_worlds + 1))


# --- index decoding and the vectorized sweep -----------------------------

def _atom_masks(val_idx, n: int, n_atoms: int):
    """Each atom's world mask at a valuation index: one Python int or a
    uint32 array of indices."""
    full = (1 << n) - 1
    return [(val_idx >> (n * (n_atoms - 1 - t))) & full
            for t in range(n_atoms)]


@lru_cache(maxsize=None)
def _pool_range(frame: FrameClass, n: int) -> np.ndarray:
    """Every pool index, ascending (int64): what a prefix whose only
    fixing relabeling is the identity keeps.  For KT this is the array of
    codes itself.  Cached and shared, so read-only."""
    if frame is FrameClass.KT:
        return _pool_codes(frame, n)
    out = np.arange(len(_pool_codes(frame, n)), dtype=np.int64)
    out.setflags(write=False)
    return out


class _Kept(NamedTuple):
    """What a prefix keeps, given the relabelings that fix it: the pool
    indices that none of them maps lower, and for each kept index the
    relabelings among them that also fix it.  Every array is read-only."""

    bits: np.ndarray  # the kept indices, packed: one bit per pool relation
    # a sparse map from each kept index that some relabeling fixes
    # (ascending, int64) to its group of fixing relabelings, as an entry of
    # groups; every other kept index is fixed by the identity alone
    fixed: np.ndarray
    group: np.ndarray
    groups: tuple[tuple[tuple[int, ...], ...], ...]

    def fixers(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        return dict(zip(self.fixed.tolist(),
                        (self.groups[g] for g in self.group.tolist())))


# (frame, n, relabelings) -> _Kept, one entry per group of relabelings that
# fixes some prefix.  A KT 2-agent 5-world walk makes 73 entries: 9.1 MB of
# bits and 2.8 MB of sparse maps (316k kept indices that a relabeling
# fixes).
_KEPT: dict[tuple, _Kept] = {}


def _kept(frame: FrameClass, n: int,
          perms: tuple[tuple[int, ...], ...]) -> _Kept:
    """What a prefix fixed by perms (identity left out, not empty) keeps;
    worked out once per process, since it depends on nothing else."""
    key = (frame, n, perms)
    out = _KEPT.get(key)
    if out is None:
        everything = _pool_range(frame, n)
        kept = everything
        # each relabeling filters only what the previous ones kept, so no
        # (n!, pool) table is built
        for perm in perms:
            kept = kept[_relabel(frame, n, perm, kept) >= kept]
        fixes = np.array([_relabel(frame, n, perm, kept) == kept
                          for perm in perms])
        cols = np.flatnonzero(fixes.any(axis=0))
        # one entry of groups per distinct column of fixes
        patterns, group = np.unique(np.packbits(fixes[:, cols], axis=0),
                                    axis=1, return_inverse=True)
        groups = tuple(
            tuple(perms[p] for p in np.flatnonzero(
                np.unpackbits(pattern, count=len(perms))))
            for pattern in patterns.T)
        held = np.zeros(len(everything), dtype=bool)
        held[kept] = True
        out = _Kept(np.packbits(held), kept[cols],
                    group.reshape(-1).astype(np.min_scalar_type(len(groups))),
                    groups)
        for array in out[:3]:
            array.setflags(write=False)
        out = _KEPT.setdefault(key, out)
    return out


def _minimal_frames(frame: FrameClass, n: int, n_agents: int
                    ) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """The n-world frames that no world relabeling makes smaller, in
    ascending order, as (prefix, last) pairs: the pool indices of all
    agents but the last, and the ascending array of last-agent indices
    that complete the prefix to such a frame.

    Agent j keeps pool index i iff no relabeling that fixes the prefix maps
    i lower; those that also map i onto itself then bound agent j + 1.
    What a prefix keeps depends only on the relabelings that fix it
    (`_kept`), so each group of them is worked out once per process and
    the walk is lookups plus its yields.  A prefix's last-agent indices are
    unpacked only when the walk reaches it, so the list of frames is never
    built."""
    everything = _pool_range(frame, n)

    def walk(prefix: tuple[int, ...], perms: tuple[tuple[int, ...], ...]):
        if not perms:
            kept, entry = everything, None
        else:
            entry = _kept(frame, n, perms)
            kept = np.flatnonzero(np.unpackbits(entry.bits,
                                                count=len(everything)))
        if len(prefix) == n_agents - 1:
            yield prefix, kept
            return
        fixers = {} if entry is None else entry.fixers()
        for i in kept.tolist():
            yield from walk(prefix + (i,), fixers.get(i, ()))

    # the identity comes first and keeps everything, so it is left out
    yield from walk((), tuple(itertools.permutations(range(n)))[1:])


def _frame_spans(frame: FrameClass, n: int, n_agents: int,
                 step: int) -> Iterator[list[np.ndarray]]:
    """The minimal frames in ascending order, cut into spans of at most
    step frames; a span is one int64 pool-index array per agent and may
    cover several prefixes."""
    parts: list[tuple[tuple[int, ...], np.ndarray]] = []
    size = 0
    for prefix, last in _minimal_frames(frame, n, n_agents):
        while len(last):
            take, last = last[:step - size], last[step - size:]
            parts.append((prefix, take))
            size += len(take)
            if size == step:
                yield _span(parts, n_agents)
                parts, size = [], 0
    if parts:
        yield _span(parts, n_agents)


def _span(parts: list[tuple[tuple[int, ...], np.ndarray]],
          n_agents: int) -> list[np.ndarray]:
    """A span's per-agent pool-index arrays from its (prefix, last-agent
    indices) parts."""
    lengths = [len(take) for _, take in parts]
    return [np.repeat([prefix[j] for prefix, _ in parts], lengths)
            for j in range(n_agents - 1)] \
        + [np.concatenate([take for _, take in parts])]


def _block(rel_rows: np.ndarray, bounds: SearchBounds, n: int,
           atom_ext: Mapping[str, np.ndarray],
           span: Sequence[np.ndarray]) -> Block:
    """The frames of one span x all valuations."""
    # np.take gathers rows about ten times faster than rel_rows[idx]
    return Block(dict(zip(bounds.agents,
                          (np.take(rel_rows, idx, axis=0) for idx in span))),
                 atom_ext, (len(span[0]), 1 << (n * len(bounds.atoms))))


def _validate_within(f: Formula, bounds: SearchBounds) -> None:
    stray = agent_names(f) - set(bounds.agents)
    if stray:
        raise BoundsError(f"formula mentions agent {sorted(stray)[0]!r} "
                          f"outside the {bounds.n_agents}-agent pool "
                          f"{bounds.agents}")
    stray = atom_names(f) - set(bounds.atoms)
    if stray:
        raise BoundsError(f"formula mentions atom {sorted(stray)[0]!r} "
                          f"not declared in bounds {bounds.atoms}")


def _model_at(bounds: SearchBounds, n: int, frame: tuple[int, ...],
              val_idx: int) -> KripkeModel:
    """Rebuild the model at a frame of pool indices and a valuation."""
    rows = frame_relations(bounds.frame, n)[list(frame)].tolist()
    return KripkeModel(worlds=tuple(f"w{i}" for i in range(n)),
                       agents=bounds.agents,
                       relations=tuple(Relation(tuple(r)) for r in rows),
                       atoms=bounds.atoms,
                       valuation=tuple(_atom_masks(val_idx, n,
                                                   len(bounds.atoms))))


_Failure = tuple[tuple[int, ...], int, int]  # pool indices, valuation, mask


def _run_now(fn: Callable, *args) -> Future:
    """`Executor.submit` without a thread: run fn now."""
    fut: Future = Future()
    fut.set_result(fn(*args))
    return fut


def _first_failures(formulas: Sequence[Formula], todo: Sequence[int],
                    bounds: SearchBounds, n: int,
                    jobs: int) -> dict[int, _Failure]:
    """The first failure over the n-world models of each formula in todo
    that has one.

    Only the frames no relabeling makes smaller are scanned
    (`_minimal_frames`); the first failure always lies on one.  They are
    cut into spans and submitted in order, at most two per worker not yet
    waited for, each with the formulas that no merged span has refuted.
    A span's scan builds its block once and returns its failures, and the
    results are merged in span order, so each formula keeps its lowest
    span's failure and the answer never depends on `jobs`.  The walk stops
    once every formula has failed.
    """
    rel_rows = frame_relations(bounds.frame, n)
    k = len(bounds.atoms)
    n_vals = 1 << (n * k)
    masks = _atom_masks(np.arange(n_vals, dtype=np.uint32), n, k)
    atom_ext = {atom: Block.atom_words(mask, n)
                for atom, mask in zip(bounds.atoms, masks)}
    step = max(1, _CHUNK_CELLS // n_vals)
    spans = _frame_spans(bounds.frame, n, bounds.n_agents, step)

    def scan(span: list[np.ndarray], live: tuple[int, ...]
             ) -> list[tuple[int, _Failure]]:
        """The first failure in the span of each formula in live that has
        one, with the frame read off the span's pool indices."""
        block = _block(rel_rows, bounds, n, atom_ext, span)
        out = []
        for i in live:
            hit = block.first_failure(block.evaluate(formulas[i]))
            if hit is not None:
                local_f, val, mask = hit
                frame = tuple(int(idx[local_f]) for idx in span)
                out.append((i, (frame, val, mask)))
        return out

    def sweep(submit: Callable[..., Future], depth: int
              ) -> dict[int, _Failure]:
        """Scan spans in order until every formula has failed: one span per
        worker first, because the first spans often refute every formula,
        then up to `depth` spans submitted and not yet waited for.  At the
        end, spans not yet started are cancelled; the others cannot change
        the answer, so their results are not read."""
        first: dict[int, _Failure] = {}
        live = tuple(todo)
        ahead = deque(submit(scan, span, live) for span in head)
        while ahead:
            for i, hit in ahead.popleft().result():
                first.setdefault(i, hit)
            live = tuple(i for i in todo if i not in first)
            if not live:
                break
            for span in itertools.islice(spans, depth - len(ahead)):
                ahead.append(submit(scan, span, live))
        for fut in ahead:
            fut.cancel()
        return first

    # workers = min(jobs, cpu_count, number of spans), at least one; only
    # the spans the workers start with are cut here
    head = list(itertools.islice(spans,
                                 max(1, min(jobs, os.cpu_count() or 1))))
    workers = len(head)
    if workers > 1:
        # A second queued span per worker keeps each thread busy while the
        # main thread waits for the GIL to hand out the next one: with one,
        # KT/2/4 ran 14% slower under jobs=2 on 2 vCPUs.
        with ThreadPoolExecutor(max_workers=workers) as tpe:
            return sweep(tpe.submit, 2 * workers)
    return sweep(_run_now, 1)


def _countermodel(bounds: SearchBounds, n: int,
                  failure: _Failure) -> Countermodel:
    """The model of an n-world failure, with its lowest falsifying world
    as witness."""
    frame, val_idx, ext_mask = failure
    m = _model_at(bounds, n, frame, val_idx)
    missing = ~ext_mask & ((1 << n) - 1)
    return Countermodel(model=m,
                        witness=m.worlds[(missing & -missing).bit_length() - 1])


def check_formulas(formulas: Sequence[Formula], bounds: SearchBounds, *,
                   jobs: int = 1) -> list[SearchOutcome]:
    """`check_validity` for each formula, in shared sweeps.

    Every formula is validated against the bounds first, in order.  The
    first sweep runs at `max_worlds` worlds, for every formula.  A smaller
    countermodel filled up to `max_worlds` with isolated reflexive worlds,
    every atom false there, is still one (a disjoint union: Blackburn, de
    Rijke & Venema, *Modal Logic*, 2001, Props. 2.3 and 2.6), so only the
    formulas that sweep refutes are swept again, at 1, 2, ... worlds, each
    until its first failing world count.  Each formula keeps its own first
    countermodel and witness, exactly as a search of its own would report
    them.
    """
    for f in formulas:
        _validate_within(f, bounds)
    top = bounds.max_worlds
    refuted = _first_failures(formulas, range(len(formulas)), bounds, top,
                              jobs)
    found: dict[int, Countermodel] = {}
    todo = sorted(refuted)
    for n in range(1, top):
        if not todo:
            break
        for i, hit in _first_failures(formulas, todo, bounds, n,
                                      jobs).items():
            found[i] = _countermodel(bounds, n, hit)
        todo = [i for i in todo if i not in found]
    for i in todo:
        found[i] = _countermodel(bounds, top, refuted[i])
    none = NoCountermodelUpTo(bounds=bounds,
                              models_checked=count_models(bounds))
    return [found.get(i, none) for i in range(len(formulas))]


def check_validity(f: Formula, bounds: SearchBounds, *,
                   jobs: int = 1) -> SearchOutcome:
    """First countermodel to f within bounds, or proof of none.

    The countermodel is the enumeration-wise first falsifying model with
    its lowest falsifying world; `jobs` only parallelizes scanning and
    never changes the answer.  With `bounds.mod_iso`, `models_checked`
    counts isomorphism classes instead of models.
    """
    return check_formulas([f], bounds, jobs=jobs)[0]


# --- schema instantiation ------------------------------------------------

GROUP_PLACEHOLDERS = ("A", "B", "C", "E")
FORMULA_PLACEHOLDERS = ("phi", "psi", "chi")

DEFAULT_FORMULA_POOL: tuple[Formula, ...] = (
    parse("p"), parse("~p"), parse("p & q"), parse("D{a} p"),
)


@dataclass(frozen=True)
class SchemaInstance:
    group_map: tuple[tuple[str, Group], ...]
    formula_map: tuple[tuple[str, Formula], ...]
    formula: Formula
    outcome: SearchOutcome


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


def _assignments(schema: Formula, pool: Sequence[str],
                 formula_pool: Sequence[Formula] | None,
                 constraint: Callable[[dict[str, Group]], bool] | None
                 ) -> Iterator[tuple[dict[str, Group], dict[str, Formula],
                                     Formula]]:
    """(group map, formula map, instance) for each placeholder assignment
    that `constraint` accepts, in `check_schema`'s order."""
    if formula_pool is None:
        formula_pool = DEFAULT_FORMULA_POOL
    gp = [p for p in GROUP_PLACEHOLDERS if p in agent_names(schema)]
    fp = [p for p in FORMULA_PLACEHOLDERS if p in atom_names(schema)]
    for groups in itertools.product(_subsets(pool), repeat=len(gp)):
        group_map = dict(zip(gp, groups))
        if constraint is not None and not constraint(group_map):
            continue
        for formulas in itertools.product(formula_pool, repeat=len(fp)):
            formula_map = dict(zip(fp, formulas))
            yield (group_map, formula_map,
                   instantiate_schema(schema, group_map, formula_map))


def check_schema(schema: Formula, bounds: SearchBounds, pool: Sequence[str],
                 *, formula_pool: Sequence[Formula] | None = None,
                 constraint: Callable[[dict[str, Group]], bool] | None = None,
                 jobs: int = 1) -> list[SchemaInstance]:
    """Check every instantiation of a schema.

    Group placeholders (A/B/C/E) range over all non-empty subsets of pool;
    formula placeholders (phi/psi/chi) over formula_pool.  `constraint`
    filters group assignments.  Instantiations that produce the same
    formula share one outcome.  The unique instances are validated against
    the bounds in order and then checked in one `check_formulas` sweep, so
    each frame block is built once for the whole schema rather than once
    per instance; every instance still gets its own first countermodel.
    """
    assigned = list(_assignments(schema, pool, formula_pool, constraint))
    unique = list(dict.fromkeys(inst for _, _, inst in assigned))
    results = dict(zip(unique, check_formulas(unique, bounds, jobs=jobs)))
    return [SchemaInstance(group_map=tuple(sorted(group_map.items())),
                           formula_map=tuple(sorted(formula_map.items())),
                           formula=inst, outcome=results[inst])
            for group_map, formula_map, inst in assigned]
