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
once, and `semantics.Block` evaluates every connective as bitwise
arithmetic on bytes that hold one bit per (frame, valuation) cell.  A
frame is a prefix (the pool indices of every agent but the last) and a
last-agent index, and the frames a block holds are a product: a run of
prefixes, each against a range of the last agent's indices.  A subterm is
evaluated on the axes of what it reads: per prefix, per last-agent frame
or per frame.

Only frames that no world relabeling makes smaller matter: if a
relabeling makes a frame smaller, it maps each falsifier on that frame to
an isomorphic falsifier earlier in the order, so the first countermodel
lies on a minimal frame, and a formula that holds on every minimal frame
holds on every frame.  The walk yields the prefixes of the minimal frames
(`_prefixes`), and each is swept against the last agent's whole pool
(`_last_indices`): the first failing cell of a prefix's row lies on a
minimal frame anyway, since a relabeling that fixes the prefix and maps
the row's first failure lower would map it to an earlier failure in the
same row (McKay, "Isomorph-free exhaustive generation", *J. Algorithms*
26, 1998).  The other frames of the row are evaluated and never
reported.  With one agent there is no prefix, and the row holds only the
minimal frames: that filter saves a factor of up to n!.

Each sweep covers one world count and walks spans of prefixes, then the
formulas not yet refuted: each span's block of rows, its joint / common /
cdk relations and its comparison bytes are built once and shared by every
formula.  The live formulas are one batch: a span evaluates each distinct
subterm among them once, in one walk over their union DAG that drops
each extension after its last reader (`semantics.schedule`, worked out
again only when a formula leaves).  When every span holds the last
agent's whole pool and a sweep has several spans, a subterm is evaluated
once per value of the axes it reads: one that reads no prefix agent is
the same in each span and is evaluated once per sweep, and one that reads
only prefix agents (`K{a} p`) once per run of prefixes, a span's
extension budget's worth, on a block of the run that each span reads its
own prefixes of.  The last agent's rows and their complement are built
once per sweep too.  A formula whose extension has every bit set holds
on the whole span, so only the others are searched for their first
failing cell, and a formula leaves the sweep at its first failing span.
Spans are cut and scanned one at a time, in order, so memory does not
grow with the number of spans.

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
one-formula case.  The first countermodel reported for each formula is
the first in enumeration order, with the lowest falsifying world as
witness, so results are reproducible and do not depend on how the
sweep is cut into spans.

`mod_iso` runs the same sweep and counts isomorphism classes instead of
models: the first falsifying model in enumeration order is always the
first member of its class, so the countermodel and witness do not change,
and `models_checked` is the class count from Burnside's lemma over the
world relabelings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .kripke import BoundsError, FrameClass, KripkeModel, Relation
from .semantics import Block, schedule
from .syntax import Formula, Group, agent_names, atom_names

AGENT_POOL = ("a", "b", "c", "d")
MAX_SEARCH_WORLDS = 5
MAX_SEARCH_AGENTS = len(AGENT_POOL)
MAX_SEARCH_ATOMS = 3

# Frames x valuations per span: 2^18 cells, in at most 2^17 frames.  A
# span's frames are P prefixes x L last-agent indices: a last-agent row
# that fits goes whole, step // L prefixes to a span, where step =
# min(2^18 // V, 2^17) frames, and a longer one (KT/5, 2^20 relations) is
# cut into ranges of step indices, one prefix to a span.  An extension
# holds one bit per cell, n * 32 KiB at most (160 KiB at 5 worlds); with
# fewer than 8 valuations a byte holds several frames, so an atomless span
# packs into n * 16 KiB, plus each prefix row's padding to whole bytes.  A
# cached comparison is at most one such extension; a relation's rows
# (joint, common, cdk, and the complement rows a box reads) are at most n
# bytes per frame, 640 KiB for an atomless span at 5 worlds, and a
# relation that reads only prefix agents or only the last agent is n bytes
# per prefix or per last-agent index.  Those rows are why the frames are
# capped: atomless KT/3/4 spans of 2^18 frames fault their rows in afresh
# (8,195 minor faults over the first 4,096 prefixes, against 3 at 2^17
# frames).  In process (2 vCPUs), the `scan_kt4` search takes 2.7-2.8 ms
# at 2^18 cells, 4.0-5.8 ms at 2^17 and 9-12 ms at 2^19, where its scratch
# arrays leave the heap (4,320 minor faults per search, against 0); the
# registry's sweeps are single spans at either size.
_CHUNK_CELLS = 1 << 18
_CHUNK_FRAMES = 1 << 17

__all__ = [
    "AGENT_POOL", "MAX_SEARCH_WORLDS", "MAX_SEARCH_AGENTS",
    "MAX_SEARCH_ATOMS", "BoundsError", "SearchBounds", "NoCountermodelUpTo",
    "Countermodel", "SearchOutcome", "count_models",
    "check_validity", "check_formulas",
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
# fixes some part of a prefix; the last agent is swept whole, so it needs
# none.  A KT 2-agent 5-world walk makes one entry (131 KB of bits and
# 14 KB of sparse maps), and a KT 3-agent 4-world walk 22 (30 KB in all).
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


def _kept_indices(frame: FrameClass, n: int,
                  perms: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The pool indices, ascending (int64), that a prefix fixed by perms
    (identity left out) keeps: those that none of perms maps lower."""
    if not perms:
        return _pool_range(frame, n)
    return np.flatnonzero(np.unpackbits(_kept(frame, n, perms).bits,
                                        count=len(_pool_codes(frame, n))))


def _all_relabelings(n: int) -> tuple[tuple[int, ...], ...]:
    """Every relabeling of n worlds but the identity, which comes first
    and keeps everything."""
    return tuple(itertools.permutations(range(n)))[1:]


def _prefixes(frame: FrameClass, n: int, n_agents: int
              ) -> Iterator[tuple[int, ...]]:
    """The prefixes of the n-world frames that no world relabeling makes
    smaller, ascending and each once: the pool indices of every agent but
    the last (one empty prefix for one agent).

    Agent j keeps pool index i iff no relabeling that fixes the prefix maps
    i lower; those that also map i onto itself then bound agent j + 1.
    What a prefix keeps depends only on the relabelings that fix it
    (`_kept`), so each group of them is worked out once per process and
    the walk is lookups plus its yields.  The last agent is not walked: a
    prefix is swept against its whole pool (`_last_indices`)."""

    def walk(prefix: tuple[int, ...], perms: tuple[tuple[int, ...], ...]):
        if len(prefix) == n_agents - 1:
            yield prefix
            return
        fixers = _kept(frame, n, perms).fixers() if perms else {}
        for i in _kept_indices(frame, n, perms).tolist():
            yield from walk(prefix + (i,), fixers.get(i, ()))

    yield from walk((), _all_relabelings(n))


def _last_indices(frame: FrameClass, n: int, n_agents: int) -> np.ndarray:
    """The last agent's pool indices that each prefix is swept against:
    the whole pool behind a prefix, or for one agent the indices no
    relabeling maps lower.

    The whole pool loses no answer.  If frame (prefix, b) fails at
    valuation v and a relabeling that fixes the prefix maps b lower, then
    (prefix, that image of b) comes earlier and fails at the relabeled
    valuation.  So the first failing cell in a prefix's row lies on a
    minimal frame, with the valuation and witness a sweep of the minimal
    frames alone would report."""
    if n_agents > 1:
        return _pool_range(frame, n)
    return _kept_indices(frame, n, _all_relabelings(n))


class _Span(NamedTuple):
    """Prefixes lo to hi of a run of prefixes, each swept against the
    last-agent indices last[start:stop] (`_last_indices`): the frames
    (run[p], last[l]), prefix-major.  The spans of a run share its list."""

    run: list[tuple[int, ...]]
    lo: int
    hi: int
    start: int
    stop: int

    @property
    def prefixes(self) -> list[tuple[int, ...]]:
        return self.run[self.lo:self.hi]


def _frame_spans(frame: FrameClass, n: int, n_agents: int, n_last: int,
                 step: int, run_spans: int) -> Iterator[_Span]:
    """The minimal frames' prefixes in ascending order, each against the
    n_last last-agent indices, cut into spans of at most step frames.  A
    row of n_last frames that fits a span goes whole, step // n_last
    prefixes to a span, and a longer one is cut into ranges of step
    frames, one prefix to a span.  The prefixes are drawn in runs of
    run_spans spans' prefixes."""
    prefixes = _prefixes(frame, n, n_agents)
    per_span = max(1, step // n_last)
    while run := list(itertools.islice(prefixes, per_span * run_spans)):
        for lo in range(0, len(run), per_span):
            for start in range(0, n_last, step):
                yield _Span(run, lo, min(lo + per_span, len(run)), start,
                            min(start + step, n_last))


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
# a walk over distinct formulas, and the indices each of them holds
_Batch = tuple[tuple, Mapping[Formula, list[int]]]


def _memoized(memo: dict[Formula, np.ndarray], ext_of: Callable) -> Callable:
    """ext_of, an evaluator of `semantics.schedule`'s steps, that looks its
    subterm up in memo first and stores there what it evaluates."""

    def once(block: Block, g: Formula, *children: np.ndarray) -> np.ndarray:
        out = memo.get(g)
        if out is None:
            out = memo[g] = ext_of(block, g, *children)
            out.setflags(write=False)
        return out

    return once


def _first_failures(formulas: Sequence[Formula], todo: Sequence[int],
                    bounds: SearchBounds, n: int) -> dict[int, _Failure]:
    """The first failure over the n-world models of each formula in todo
    that has one.

    The prefixes of the frames no relabeling makes smaller are swept
    against the last agent's indices (`_last_indices`); the first failure
    always lies on a minimal frame.  They are cut into spans
    (`_frame_spans`) and scanned in order, each with the formulas that no
    earlier span has refuted.  A span's scan builds its block once,
    evaluates the distinct live formulas in one walk
    (`semantics.schedule`) and returns its failures, so each formula
    keeps its lowest span's failure.  The walk stops right after the span
    where the last formula fails.
    """
    rel_rows = frame_relations(bounds.frame, n)
    last = _last_indices(bounds.frame, n, bounds.n_agents)
    last_rows = rel_rows if bounds.n_agents > 1 else rel_rows[last]
    k = len(bounds.atoms)
    n_vals = 1 << (n * k)
    masks = _atom_masks(np.arange(n_vals, dtype=np.uint32), n, k)
    atom_ext = {atom: Block.atom_words(mask, n)
                for atom, mask in zip(bounds.atoms, masks)}
    step = max(1, min(_CHUNK_CELLS // n_vals, _CHUNK_FRAMES))
    *prefix_agents, last_agent = bounds.agents
    # When the last agent's row fits a span, every span sweeps all of it,
    # and a subterm is evaluated once per value of the axes it reads: one
    # that reads no prefix agent once per call (`wide`), and one that reads
    # only prefix agents once per run of prefixes (`in_run`), on the run's
    # block, of which each span reads its own prefixes.  Such an extension
    # takes ceil(V / 8) bytes per prefix and world, and a span's extension
    # ceil(L * V / 8) bytes per prefix, so a run is run_spans spans' worth
    # of prefixes: one span's extension budget.
    whole = len(last) <= step
    run_spans = -(-len(last) * n_vals // 8) // -(-n_vals // 8) \
        if whole else 1
    wide: dict[Formula, np.ndarray] = {}
    in_run: dict[Formula, np.ndarray] = {}

    def block(lo: int, hi: int) -> Block:
        """Prefixes lo to hi of the run against the span's last-agent
        indices, x all valuations."""
        return Block({**{agent: r[:, lo:hi] for agent, r in rows.items()},
                      last_agent: cols}, atom_ext,
                     (hi - lo, cols.shape[2], n_vals), missed)

    def per_run(ext_of: Callable) -> Callable:
        """ext_of for a subterm that reads only prefix agents: evaluated
        once per run on the run's block, from its children's extensions
        over the run (an agent-free child's has no prefix axis, so the
        span's is the run's), and cut to the span's prefixes."""

        def once(_: Block, g: Formula, *children: np.ndarray) -> np.ndarray:
            out = in_run.get(g)
            if out is None:
                kids = [in_run.get(c, x)
                        for c, x in zip(g.children, children)]
                out = in_run[g] = ext_of(run_block, g, *kids)
                out.setflags(write=False)
            return out[:, :, span.lo:span.hi]

        return once

    def shared(g: Formula, ext_of: Callable) -> Callable:
        """ext_of, evaluated once per value of the axes g reads."""
        agents = agent_names(g)
        if agents.isdisjoint(prefix_agents):
            return _memoized(wide, ext_of)
        return ext_of if last_agent in agents else per_run(ext_of)

    def batch(live: Sequence[int]) -> _Batch:
        """The walk over the distinct formulas in live, with the memos of
        a sweep of several spans, and the indices in live that each of
        them holds."""
        where: dict[Formula, list[int]] = {}
        for i in live:
            where.setdefault(formulas[i], []).append(i)
        steps = schedule(where)
        if share:
            steps = tuple((g, shared(g, ext_of), root, drops)
                          for g, ext_of, root, drops in steps)
        return steps, where

    def scan(live: _Batch) -> list[tuple[int, _Failure]]:
        """The first failure in the span of each live formula that has
        one, with the frame read off the span's prefix and last-agent
        index."""
        steps, where = live
        here = block(span.lo, span.hi)
        out = []
        for f, ext in here.extensions(steps):
            hit = here.first_failure(ext)
            if hit is not None:
                prefix, local, val, mask = hit
                frame = span.run[span.lo + prefix] \
                    + (int(last[span.start + local]),)
                out += ((i, (frame, val, mask)) for i in where[f])
        return out

    first: dict[int, _Failure] = {}
    live = run = cut = None
    for span in _frame_spans(bounds.frame, n, bounds.n_agents, len(last),
                             step, run_spans):
        if live is None:
            # a sweep of one span has nothing to share, and a memo would
            # keep each extension past its last reader
            share = whole and len(span.run) > span.hi
            live = batch(todo)
        if (span.start, span.stop) != cut:
            # once per call when every span holds the whole pool
            cut = span.start, span.stop
            cols = np.ascontiguousarray(last_rows[span.start:span.stop].T
                                        )[:, None]
            missed = {Group([last_agent]): np.invert(cols)}
            cols.setflags(write=False)
            missed[Group([last_agent])].setflags(write=False)
        if span.run is not run:
            run = span.run
            rows = {agent: rel_rows[[p[j] for p in run]].T[:, :, None]
                    for j, agent in enumerate(prefix_agents)}
            in_run.clear()
            run_block = block(0, len(run)) if share else None
        hits = scan(live)
        first.update(hits)
        if len(first) == len(todo):
            break
        if hits:
            # a new walk only when a formula has left
            live = batch([i for i in todo if i not in first])
    return first


def _countermodel(bounds: SearchBounds, n: int,
                  failure: _Failure) -> Countermodel:
    """The model of an n-world failure, with its lowest falsifying world
    as witness."""
    frame, val_idx, ext_mask = failure
    m = _model_at(bounds, n, frame, val_idx)
    missing = ~ext_mask & ((1 << n) - 1)
    return Countermodel(model=m,
                        witness=m.worlds[(missing & -missing).bit_length() - 1])


def check_formulas(formulas: Sequence[Formula],
                   bounds: SearchBounds) -> list[SearchOutcome]:
    """`check_validity` for each formula, in shared sweeps.

    Every formula is validated against the bounds first, in order.  The
    first sweep runs at `max_worlds` worlds, for every formula.  A smaller
    countermodel filled up to `max_worlds` with isolated reflexive worlds,
    every atom false there, is still one (a disjoint union: Blackburn, de
    Rijke & Venema, *Modal Logic*, 2001, Props. 2.3 and 2.6), so only the
    formulas that sweep refutes are swept again, at 1, 2, ... worlds, each
    until its first failing world count.  Each formula keeps its own first
    countermodel and witness, exactly as a search of its own would report
    them.  No formulas, no sweep.
    """
    if not formulas:
        return []
    for f in formulas:
        _validate_within(f, bounds)
    top = bounds.max_worlds
    refuted = _first_failures(formulas, range(len(formulas)), bounds, top)
    found: dict[int, Countermodel] = {}
    todo = sorted(refuted)
    for n in range(1, top):
        if not todo:
            break
        for i, hit in _first_failures(formulas, todo, bounds, n).items():
            found[i] = _countermodel(bounds, n, hit)
        todo = [i for i in todo if i not in found]
    for i in todo:
        found[i] = _countermodel(bounds, top, refuted[i])
    none = NoCountermodelUpTo(bounds=bounds,
                              models_checked=count_models(bounds))
    return [found.get(i, none) for i in range(len(formulas))]


def check_validity(f: Formula, bounds: SearchBounds) -> SearchOutcome:
    """First countermodel to f within bounds, or proof of none.

    The countermodel is the enumeration-wise first falsifying model with
    its lowest falsifying world.  With `bounds.mod_iso`, `models_checked`
    counts isomorphism classes instead of models.
    """
    return check_formulas([f], bounds)[0]
