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
once, and `Block` evaluates every connective as bitwise arithmetic on
bytes that hold one bit per (frame, valuation) cell.  A frame is a prefix
(the pool indices of every agent but the last) and a last-agent index,
and the frames a block holds are a product: a run of prefixes, each
against a range of the last agent's indices.  A subterm is evaluated on
the axes of what it reads: per prefix, per last-agent frame or per
frame.

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
each extension after its last reader (`schedule`, worked out again at
the first span after a formula leaves).  When every span holds the last
agent's whole pool and a sweep has several spans, a subterm is evaluated
once per value of the axes it reads (`_first_failures`), and the last
agent's rows and their complement are built once per sweep.  A formula
whose extension has every bit set holds on the whole span, so only the
others are searched for their first failing cell, and a formula leaves
the sweep at its first failing span.  Spans are cut and scanned one at a
time, in order, so memory does not grow with the number of spans.

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
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple,
                    Sequence)

import numpy as np

from .kripke import BoundsError, FrameClass, KripkeModel, Relation
from .syntax import (Atom, CK, CDK, Cmp, CmpOp, DK, Formula, Iff, Imp, IndK,
                     And, Group, Not, Or, Supergroup, agent_names,
                     atom_names, post_order, singletons)

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
    "check_validity", "check_formulas", "Block", "schedule",
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


# --- the block evaluator -------------------------------------------------

# Bytes per world in one pass of a box operator: a pass takes k successor
# worlds of the result's W * P * G bytes each (its broadcast axes counted
# once), k * W * P * G <= _BOX_CELLS, and at least one.  A box over the
# last agent in a `scan_kt4` sweep (4,096 frames of 4 worlds, two bytes
# each) then takes two successor worlds per pass: the pass's scratch array
# is 64 KiB and its successor bytes 32 KiB, below glibc's 128 KiB mmap
# threshold, so they are reused from the heap instead of being faulted in
# afresh.  A box over both agents in one of its spans (4 prefixes against
# the 4,096 frames) takes one world per pass, with 128 KiB of scratch and
# 64 KiB of successor bytes, and faulted nothing either.
_BOX_CELLS = 1 << 14


def _per_word(n_vals: int) -> int:
    """The frames per group of bytes that hold one bit per (frame,
    valuation) cell: a frame of 8 or more valuations takes n_vals / 8
    bytes, and with fewer one byte holds 8 // n_vals frames."""
    return max(1, 8 // n_vals)


class Block:
    """Frames x valuations of one world count, shared by every formula
    evaluated against it.

    The frames are a product: P prefixes (the relations of every agent but
    the last) times L last-agent relations, prefix-major, and `shape` is
    (P, L, V) with V valuations.  `rows_by_agent` maps each agent to its
    relation's row masks, world axis first, shaped (n, P|1, L|1): (n, P, 1)
    for a prefix agent and (n, 1, L) for the last one, in any unsigned
    dtype wide enough for n worlds (uint8 in the search); the joint /
    common / cdk rows keep that dtype and broadcast to the axes of the
    agents they pool.
    `atom_ext` maps each atom to its extension as `atom_words` builds it.
    Each prefix has a row of cells: cell c = l * V + v, for last-agent
    frame l and valuation v, is bit c % 8 of the row's byte c // 8, as
    `np.packbits` packs bits little-endian (`atom_words` and
    `_spread_bytes` both pack cells with it).  A row's bytes fall into G
    groups of W bytes and per_word frames each, 8 * W = per_word * V: one
    frame over W bytes when there are 8 or more valuations, else 8 // V
    frames in one byte (W = 1).  An extension
    is a uint8 array shaped (n, W|1, P|1, G|1): world, byte, prefix and
    group, each axis broadcast on demand, so each subterm is evaluated on
    the axes of what it reads: a box over a prefix agent is (n, W, P, 1),
    once per prefix; a box over the last agent (n, W, 1, G), once per
    last-agent frame; a comparison between them (n, 1, P, G); an atom
    (n, W, 1, 1).  Each row's last group's cells past frame L are padding,
    which no first failure reports.  The joint / common / cdk relations,
    their complement rows (one table per relation, named by a group or a
    supergroup) and the comparison bytes live as long as the block;
    `missed` gives complement rows already built, by group, so blocks that
    share an agent's rows can share their complement too.  A batch of
    formulas is evaluated as one walk over its union DAG (`schedule`):
    each distinct subterm once, and each subterm's extension is dropped
    after its last consumer, so memory follows the extensions live at one
    step of the walk, not the number of formulas.
    """

    def __init__(self, rows_by_agent: Mapping[str, np.ndarray],
                 atom_ext: Mapping[str, np.ndarray],
                 shape: tuple[int, int, int],
                 missed: Mapping[Group, np.ndarray] = {}):
        self.rows_by_agent = rows_by_agent
        self.atom_ext = atom_ext
        self.shape = shape
        _, n_last, n_vals = shape
        rows = next(iter(rows_by_agent.values()))
        self.n = rows.shape[0]
        # a box's successor worlds, one per leading index
        self._shifts = np.arange(self.n, dtype=rows.dtype)[:, None, None,
                                                           None]
        self.per_word = _per_word(n_vals)
        self.groups = -(-n_last // self.per_word)
        # the cells of a row's last group's bytes that hold frames
        tail = (n_last - (self.groups - 1) * self.per_word) * n_vals
        self.tail = np.uint8((1 << min(tail, 8)) - 1)
        self._joint: dict[Group, np.ndarray] = {}
        self._reach: dict[Supergroup, np.ndarray] = {}
        self._misses: dict[Group | Supergroup, np.ndarray] = dict(missed)
        self._leqs: dict[tuple[Group, str], np.ndarray] = {}

    @staticmethod
    def atom_words(masks: np.ndarray, n: int) -> np.ndarray:
        """An atom's extension from its world mask at each valuation index
        (a (V,) integer array), as (n, W, 1, 1) bytes: the same for every
        prefix and group, so with fewer than 8 valuations the V cells repeat
        for each frame of the byte."""
        cells = np.tile(masks.astype(np.uint32), _per_word(len(masks)))
        held = (cells >> np.arange(n, dtype=np.uint32)[:, None]) & 1
        return np.packbits(held, axis=1, bitorder="little")[:, :, None, None]

    def extensions(self, steps: Sequence[_Step]
                   ) -> Iterator[tuple[Formula, np.ndarray]]:
        """Each formula of a batch with its extension, broadcastable to
        (n, W, P, G), in the order `schedule` reaches them: each distinct
        subterm is evaluated once, from its children's extensions, and
        dropped after its last consumer.  A formula's extension is yielded
        as soon as it is computed; a formula that nothing later reads is
        dropped when the walk resumes."""
        memo: dict[Formula, np.ndarray] = {}
        get = memo.__getitem__
        for g, ext_of, root, drops in steps:
            ext = memo[g] = ext_of(self, g, *map(get, g.children))
            if root:
                yield g, ext
            for d in drops:
                del memo[d]

    def evaluate(self, f: Formula) -> np.ndarray:
        """f's extension: the batch of one."""
        return next(self.extensions(schedule([f])))[1]

    def world_mask(self, ext: np.ndarray, prefix: int, last: int,
                   val: int) -> int:
        """The worlds of one frame where ext holds at one valuation, as a
        bitmask."""
        byte, bit = divmod(last % self.per_word * self.shape[2] + val, 8)
        # a broadcast axis of length 1 stands for every byte, prefix or
        # group
        cells = ext[:, byte % ext.shape[1], prefix % ext.shape[2],
                    last // self.per_word % ext.shape[3]]
        return sum((c >> bit & 1) << w for w, c in enumerate(cells.tolist()))

    def first_failure(self, ext: np.ndarray
                      ) -> tuple[int, int, int, int] | None:
        """(prefix, last-agent frame, valuation, world mask) of the first
        cell where ext misses a world, prefixes first, then last-agent
        frames and then valuations ascending, or None if ext holds
        everywhere."""
        # one reduction settles an extension with every bit set, padding
        # included: most formulas a search checks hold on the whole span
        if np.bitwise_and.reduce(ext, axis=None) == 0xFF:
            return None
        fail = np.invert(np.bitwise_and.reduce(ext, axis=0))
        if fail.shape[2] == self.groups:
            fail[..., -1] &= self.tail
        if not fail.any():
            return None
        # prefix, group, byte, as the cells run; a broadcast axis fails
        # first at its index 0
        prefix, rest = divmod(int(np.argmax(fail.transpose(1, 2, 0) != 0)),
                              fail.shape[2] * fail.shape[0])
        group, byte = divmod(rest, fail.shape[0])
        low = int(fail[byte, prefix, group])
        frame, val = divmod(byte * 8 + (low & -low).bit_length() - 1,
                            self.shape[2])
        last = group * self.per_word + frame
        return prefix, last, val, self.world_mask(ext, prefix, last, val)

    def _spread_bytes(self, held: np.ndarray) -> np.ndarray:
        """held, a (..., L|1) uint8 array of one 0/1 byte per last-agent
        frame, as the (..., G|1) bytes with all cells set of each frame
        whose byte is 1, packed as `atom_words` packs cells, the cells past
        frame L 0 (0 - 1 = 0xFF when a frame fills whole bytes, or when
        one byte stands for every frame)."""
        if self.per_word == 1 or held.shape[-1] == 1:
            return np.negative(held)
        # np.repeat copies even when V = 1, which took 8 times as long as
        # the packing on the registry's atomless blocks
        if self.shape[2] > 1:
            held = np.repeat(held, self.shape[2], axis=-1)
        return np.packbits(held, axis=-1, bitorder="little")

    def joint(self, group: Group) -> np.ndarray:
        out = self._joint.get(group)
        if out is None:
            out = self.rows_by_agent[group.agents[0]]
            for agent in group.agents[1:]:
                out = out & self.rows_by_agent[agent]
            self._joint[group] = out
        return out

    def _closure(self, rows: np.ndarray) -> np.ndarray:
        # in the rows' own dtype: a uint8 row stays one byte
        rows = rows | (rows.dtype.type(1)
                       << np.arange(self.n, dtype=rows.dtype))[:, None, None]
        for k in range(self.n):
            rows = rows | ((rows >> k) & 1) * rows[k:k + 1]
        return rows

    def common(self, group: Group) -> np.ndarray:
        return self.cdk(singletons(group))

    def cdk(self, groups: Supergroup) -> np.ndarray:
        out = self._reach.get(groups)
        if out is None:
            acc = self.joint(groups.groups[0])
            for g in groups.groups[1:]:
                acc = acc | self.joint(g)
            out = self._closure(acc)
            self._reach[groups] = out
        return out

    def _missed(self, name: Group | Supergroup) -> np.ndarray:
        """The complement rows of the relation name names (a group's joint
        relation, a supergroup's cdk closure), shaped as the rows are: bit v
        of [w, p, l] is 1 where world v is not a successor of w in frame
        (p, l).  Built once per name."""
        out = self._misses.get(name)
        if out is None:
            rows = (self.joint(name) if isinstance(name, Group)
                    else self.cdk(name))
            out = self._misses[name] = np.invert(rows)
        return out

    def _box(self, name: Group | Supergroup, ext: np.ndarray) -> np.ndarray:
        # at world w: the AND over successor worlds v of ext[v] | notin[v, w],
        # where notin[v, w] is all ones on the frames where v is not a
        # successor of w.  k worlds v per pass, reduced over the leading
        # axis.  Each pass spreads them from the relation's complement rows
        # into one scratch array: caching them held n x n bytes per frame,
        # which pushed a `scan_kt4` span's heap past what glibc keeps
        # between spans (12,700 minor faults per pass, not 0).
        missed = self._missed(name)
        # each broadcast axis is 1 or full
        shape = (self.n, ext.shape[1], max(ext.shape[2], missed.shape[1]),
                 ext.shape[3] if missed.shape[2] == 1 else self.groups)
        k = min(self.n,
                max(1, _BOX_CELLS // (shape[1] * shape[2] * shape[3])))
        held = np.empty((k, *missed.shape), dtype=np.uint8)
        sub = np.empty((k, *shape), dtype=np.uint8)
        out = None
        for v in range(0, self.n, k):
            j = min(k, self.n - v)
            np.right_shift(missed, self._shifts[v:v + j], out=held[:j],
                           casting="unsafe")
            held[:j] &= 1
            notin = self._spread_bytes(held[:j])[:, :, None]
            np.bitwise_or(ext[v:v + j, None], notin, out=sub[:j])
            if out is None:
                out = np.bitwise_and.reduce(sub[:j])
            else:
                # one world needs no reduction, which would allocate a
                # fresh result
                out &= sub[0] if j == 1 else np.bitwise_and.reduce(sub[:j])
        return out

    def _leq(self, left: Group, right: Group) -> np.ndarray:
        # A's joint row is inside B's iff it is inside each member's row,
        # so only the comparisons with one agent on the right are cached: a
        # cache per pair of groups raised the registry's peak RSS by 8%
        out = self._leq_agent(left, right.agents[0])
        for agent in right.agents[1:]:
            out = out & self._leq_agent(left, agent)
        return out

    def _leq_agent(self, left: Group, agent: str) -> np.ndarray:
        out = self._leqs.get((left, agent))
        if out is None:
            a, outside = self.joint(left), self._missed(Group([agent]))
            # k prefixes per pass keep a pass's row tests within _BOX_CELLS
            # bytes per world: an atomless KT/3/4 span tests 32 prefixes x
            # 4,096 frames, and in one pass it faulted in 2 MiB of scratch
            # afresh
            k = max(1, _BOX_CELLS // max(a.shape[2], outside.shape[2]))
            n_prefixes = max(a.shape[1], outside.shape[1])
            if n_prefixes <= k:
                out = self._contained(a, outside)
            else:
                out = np.concatenate(
                    [self._contained(_prefix_run(a, p, k),
                                     _prefix_run(outside, p, k))
                     for p in range(0, n_prefixes, k)], axis=1)
            out = self._leqs[(left, agent)] = out[:, None]
        return out

    def _contained(self, rows: np.ndarray, missing: np.ndarray
                   ) -> np.ndarray:
        """Whether each row lies inside the complement of missing, as the
        bytes `_spread_bytes` packs: one row test per frame and world,
        world axis first, so the operators read the bytes contiguously."""
        return self._spread_bytes(((rows & missing) == 0).view(np.uint8))

    def _cmp(self, f: Cmp) -> np.ndarray:
        leq = self._leq(f.left, f.right)
        if f.op is CmpOp.LEQ:
            return leq
        geq = self._leq(f.right, f.left)
        if f.op is CmpOp.LT:
            return leq & ~geq
        if f.op is CmpOp.EQV:
            return leq & geq
        return ~(leq | geq)


def _prefix_run(rows: np.ndarray, start: int, k: int) -> np.ndarray:
    """Prefixes start to start + k of (n, P|1, L|1) rows; a broadcast
    prefix axis stands for all of them."""
    return rows[:, start:start + k] if rows.shape[1] > 1 else rows


# each node's extension in block b, from its children's
_EXT = {
    Atom: lambda b, f: b.atom_ext[f.name],
    Not: lambda b, f, sub: ~sub,
    And: lambda b, f, left, right: left & right,
    Or: lambda b, f, left, right: left | right,
    Imp: lambda b, f, left, right: ~left | right,
    Iff: lambda b, f, left, right: ~(left ^ right),
    DK: lambda b, f, sub: b._box(f.group, sub),
    IndK: lambda b, f, sub: b._box(Group([f.agent]), sub),
    CK: lambda b, f, sub: b._box(singletons(f.group), sub),
    CDK: lambda b, f, sub: b._box(f.groups, sub),
    Cmp: Block._cmp,
}


# one step of a batch's walk: the subterm, its evaluator (`_EXT`), whether
# it is a formula of the batch, and the subterms last read by this step
_Step = tuple[Formula, Callable, bool, tuple[Formula, ...]]


def schedule(formulas: Iterable[Formula]) -> tuple[_Step, ...]:
    """The walk `Block.extensions` makes over a batch of formulas: their
    union DAG in post-order (`post_order`), each step naming the subterms
    whose last consumer it is (Aho, Lam, Sethi & Ullman, *Compilers*, 2nd
    ed., 2006, 6.1 and 9.2.5).  A formula that no later step reads is
    dropped at its own step.  The walk depends only on the formulas, so a
    search builds it once for every span that checks the same batch."""
    roots = dict.fromkeys(formulas)
    order = post_order(roots)
    if len(roots) > 1:
        # the formulas that read one shared subterm are walked next to
        # each other, so it is dropped soon: sorted by the first shared
        # subterm each reaches, the registry's 1,055 atomless KT formulas
        # on 3 agents hold at most 27 fresh extensions at once, not 127
        reads = Counter(c for g in order for c in g.children)
        first: dict[Formula, int] = {}
        for i, g in enumerate(order):
            k = i if reads[g] + (g in roots) > 1 else len(order)
            for c in g.children:
                if first[c] < k:
                    k = first[c]
            first[g] = k
        order = post_order(sorted(roots, key=first.__getitem__))
    last = {c: i for i, g in enumerate(order) for c in g.children}
    drops: list[list[Formula]] = [[] for _ in order]
    for i, g in enumerate(order):
        drops[last.get(g, i)].append(g)
    return tuple((g, _EXT[type(g)], g in roots, tuple(d))
                 for g, d in zip(order, drops))


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
              ) -> Iterator[np.ndarray]:
    """The prefixes of the n-world frames that no world relabeling makes
    smaller, ascending and each once: the pool indices of every agent but
    the last (one empty prefix for one agent), as (prefixes, n_agents - 1)
    int64 blocks, one for each head (the indices of every prefix agent but
    the last) with each index its last prefix agent keeps.

    Agent j keeps pool index i iff no relabeling that fixes the prefix maps
    i lower; those that also map i onto itself then bound agent j + 1.
    What a prefix keeps depends only on the relabelings that fix it
    (`_kept`), so each group of them is worked out once per process and
    the walk is lookups plus one block per head.  The last agent is not
    walked: a prefix is swept against its whole pool (`_last_indices`)."""
    if n_agents == 1:
        yield np.empty((1, 0), dtype=np.int64)
        return

    def walk(head: tuple[int, ...], perms: tuple[tuple[int, ...], ...]):
        if len(head) == n_agents - 2:
            kept = _kept_indices(frame, n, perms)
            block = np.empty((len(kept), n_agents - 1), dtype=np.int64)
            block[:, :-1] = head
            block[:, -1] = kept
            yield block
            return
        fixers = _kept(frame, n, perms).fixers() if perms else {}
        for i in _kept_indices(frame, n, perms).tolist():
            yield from walk(head + (i,), fixers.get(i, ()))

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
    (run[p], last[l]), prefix-major.  A run is a (prefixes, n_agents - 1)
    int64 array of pool indices, and the spans of a run share it."""

    run: np.ndarray
    lo: int
    hi: int
    start: int
    stop: int

    @property
    def prefixes(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.run[self.lo:self.hi].tolist()))


def _prefix_runs(frame: FrameClass, n: int, n_agents: int,
                 size: int) -> Iterator[np.ndarray]:
    """The prefixes `_prefixes` yields in runs of size, the last run what
    is left, each a (prefixes, n_agents - 1) int64 array: 8 bytes per pool
    index, where a tuple of Python ints takes about 100 bytes per prefix,
    and a run of atomless KT/3/4 holds 16,384 prefixes.  A run is drawn
    only once this walk and `_frame_spans` have let go of the previous
    one: a cold atomless KT/3/4 search that kept it made 43,700 minor
    faults, not 12,500."""
    parts, held = [], 0
    for block in _prefixes(frame, n, n_agents):
        while len(block):
            parts.append(block[:size - held])
            block = block[size - held:]
            held += len(parts[-1])
            if held == size:
                yield parts[0] if len(parts) == 1 else np.concatenate(parts)
                parts, held = [], 0
    if parts:
        yield np.concatenate(parts)


def _frame_spans(frame: FrameClass, n: int, n_agents: int, n_last: int,
                 step: int, run_spans: int) -> Iterator[_Span]:
    """The minimal frames' prefixes in ascending order, each against the
    n_last last-agent indices, cut into spans of at most step frames.  A
    row of n_last frames that fits a span goes whole, step // n_last
    prefixes to a span, and a longer one is cut into ranges of step
    frames, one prefix to a span.  The prefixes are drawn in runs of
    run_spans spans' prefixes (`_prefix_runs`)."""
    per_span = max(1, step // n_last)
    for run in _prefix_runs(frame, n, n_agents, per_span * run_spans):
        for lo in range(0, len(run), per_span):
            for start in range(0, n_last, step):
                yield _Span(run, lo, min(lo + per_span, len(run)), start,
                            min(start + step, n_last))
        del run


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


def _first_failures(formulas: Sequence[Formula], bounds: SearchBounds,
                    n: int) -> dict[Formula, _Failure]:
    """The first failure over the n-world models of each of the distinct
    formulas that has one.

    The prefixes of the frames no relabeling makes smaller are swept
    against the last agent's indices (`_last_indices`); the first failure
    always lies on a minimal frame.  They are cut into spans
    (`_frame_spans`) and scanned in order, each with the formulas that no
    earlier span has refuted.  A span's scan builds its block once and
    evaluates the live formulas in one walk (`schedule`), so each formula
    keeps its lowest span's failure.  A new walk is built at the first
    span after a formula leaves, and the sweep stops right after the span
    where the last formula fails.

    When every span sweeps the last agent's whole pool and there are
    several spans, a subterm is evaluated once per value of the axes it
    reads.  One that reads no prefix agent is evaluated once per call, and
    one that reads only prefix agents once per run of prefixes.  Both are
    evaluated on the run's block, from their children's extensions over
    the run, and kept until an axis they read changes; each span reads its
    own prefixes of them, and a prefix axis of length 1 whole.  A subterm
    that reads a prefix agent and the last agent is evaluated per span.
    A run's extension takes ceil(V / 8) bytes per prefix and world, and a
    span's ceil(L * V / 8) bytes per prefix, so a run holds run_spans
    spans' prefixes: one span's extension budget.
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
    whole = len(last) <= step
    run_spans = -(-len(last) * n_vals // 8) // -(-n_vals // 8) \
        if whole else 1
    memo: dict[Formula, np.ndarray] = {}

    def shared(_: Block, g: Formula, *__: np.ndarray) -> np.ndarray:
        """g's extension over the run, evaluated once, cut to the span."""
        out = memo.get(g)
        if out is None:
            out = memo[g] = _EXT[type(g)](run_block, g,
                                          *map(memo.__getitem__, g.children))
            out.setflags(write=False)
        return out[:, :, span.lo:span.hi] if out.shape[2] > 1 else out

    first: dict[Formula, _Failure] = {}
    share = steps = cut = None
    for span in _frame_spans(bounds.frame, n, bounds.n_agents, len(last),
                             step, run_spans):
        if share is None:
            # a sweep of one span has nothing to share, and a memo would
            # keep each extension past its last reader
            share = whole and len(span.run) > span.hi
        if steps is None:
            steps = schedule([f for f in formulas if f not in first])
            if share:
                # per span only what reads a prefix agent and the last agent
                steps = tuple(
                    (g, ext_of if last_agent in agent_names(g)
                     and len(agent_names(g)) > 1 else shared, root, drops)
                    for g, ext_of, root, drops in steps)
        if (span.start, span.stop) != cut:
            # once per call when every span holds the whole pool
            cut = span.start, span.stop
            cols = np.ascontiguousarray(last_rows[span.start:span.stop].T
                                        )[:, None]
            missed = {Group([last_agent]): np.invert(cols)}
            cols.setflags(write=False)
            missed[Group([last_agent])].setflags(write=False)
        if span.lo == span.start == 0:
            # a run's first span
            memo = {g: ext for g, ext in memo.items()
                    if agent_names(g).isdisjoint(prefix_agents)}
            rows = {agent: rel_rows[span.run[:, j]].T[:, :, None]
                    for j, agent in enumerate(prefix_agents)}
            run_block = Block({**rows, last_agent: cols}, atom_ext,
                              (len(span.run), cols.shape[2], n_vals),
                              missed) if share else None
        here = Block({**{agent: r[:, span.lo:span.hi]
                         for agent, r in rows.items()}, last_agent: cols},
                     atom_ext, (span.hi - span.lo, cols.shape[2], n_vals),
                     missed)
        for f, ext in here.extensions(steps):
            hit = here.first_failure(ext)
            if hit is not None:
                prefix, local, val, mask = hit
                first[f] = ((*span.run[span.lo + prefix].tolist(),
                             int(last[span.start + local])), val, mask)
                steps = None
        # not held while the next span is cut
        here = ext = None
        if len(first) == len(formulas):
            break
    return first


def _countermodel(bounds: SearchBounds, n: int,
                  failure: _Failure) -> Countermodel:
    """The model of an n-world failure, with its lowest falsifying world
    as witness."""
    frame, val_idx, ext_mask = failure
    m = _model_at(bounds, n, frame, val_idx)
    missing = ~ext_mask & ((1 << n) - 1)
    return Countermodel(
        model=m, witness=m.worlds[(missing & -missing).bit_length() - 1])


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
    them, and repeated formulas share one sweep and one outcome.  No
    formulas, no sweep.
    """
    if not formulas:
        return []
    for f in formulas:
        _validate_within(f, bounds)
    distinct = list(dict.fromkeys(formulas))
    top = bounds.max_worlds
    refuted = _first_failures(distinct, bounds, top)
    found: dict[Formula, Countermodel] = {}
    todo = [f for f in distinct if f in refuted]
    for n in range(1, top):
        if not todo:
            break
        for f, hit in _first_failures(todo, bounds, n).items():
            found[f] = _countermodel(bounds, n, hit)
        todo = [f for f in todo if f not in found]
    for f in todo:
        found[f] = _countermodel(bounds, top, refuted[f])
    none = NoCountermodelUpTo(bounds=bounds,
                              models_checked=count_models(bounds))
    return [found.get(f, none) for f in formulas]


def check_validity(f: Formula, bounds: SearchBounds) -> SearchOutcome:
    """First countermodel to f within bounds, or proof of none.

    The countermodel is the enumeration-wise first falsifying model with
    its lowest falsifying world.  With `bounds.mod_iso`, `models_checked`
    counts isomorphism classes instead of models.
    """
    return check_formulas([f], bounds)[0]
