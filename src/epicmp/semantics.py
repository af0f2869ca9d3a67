"""Truth evaluation of formulas: the one evaluator.

A `Block` holds models that share a world count: frames, each a tuple of
per-agent relations stored as row masks in the rows' own unsigned dtype
(uint8 in the search), times V valuations.  The frames are a product: P
prefixes (the relations of every agent but the last) times L relations of
the last agent.  The bit axis is the (frame, valuation) cell, bit-sliced:
an extension holds, for each world and prefix, bytes whose bits are the
cells, last-agent frames first and valuations within a frame.  With 8 or
more valuations a frame takes V / 8 bytes; with fewer, one byte holds
8 // V frames.  Every extension is a uint8 array shaped (n, W|1, P|1,
G|1): world, then byte within a group of W bytes, then prefix, then group,
each axis broadcast on demand, so a subterm is evaluated once per value of
what it reads.  Each connective is one bitwise operation on those bytes.
A box operator holds at w, for a valuation, when the operand holds there
at every R-successor v of w: it is the AND over v of
`ext[v] | notin[v, w]`, where notin[v, w] is all ones on the cells of the
frames where v is not a successor of w and 0 on the others.
The comparison `[A <= B]` holds at w when A's joint row at w is contained
in B's: A's pooled information is at least as sharp, so anything B
jointly knows at w transfers to A.  It does not depend on the valuation,
so each frame's cells are all ones or 0.  The strict/mutual/incomparable
forms and `K{a}` are evaluated directly with the same row tests their
desugarings produce.

The countermodel search evaluates whole frame spans this way; `satisfies`,
`valid_in_model` and `extension` evaluate one `KripkeModel` as a block of
one prefix, one frame and one valuation.  They first check the formula
against the model: an agent the model does not declare is an
UnknownAgentError, and an undeclared atom is false everywhere, or an
UnknownAtomError with `strict_atoms=True`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .kripke import KripkeModel, ModelError, UnknownAgentError
from .syntax import (Atom, CK, CDK, Cmp, CmpOp, DK, Formula, Iff, Imp, IndK,
                     And, Group, Not, Or, Supergroup, agent_names,
                     atom_names, post_order)

__all__ = ["Block", "schedule", "satisfies", "valid_in_model",
           "extension", "UnknownAtomError"]


class UnknownAtomError(ModelError):
    pass


# Bytes per world in one pass of a box operator: a pass takes k successor
# worlds of the result's W * P * G bytes each (its broadcast axes counted
# once), k * W * P * G <= _BOX_CELLS, and at least one.  A box over the
# last agent in a `scan_kt4` sweep (4,096 frames of 4 worlds, two bytes
# each) then takes two successor worlds per pass: the pass's scratch array
# is 64 KiB and its successor bytes 32 KiB, below glibc's 128 KiB mmap
# threshold, so they are reused from the heap instead of being faulted in
# afresh.  A box over both agents in one of its spans (4 prefixes against
# the 4,096 frames) takes one world per pass, with 128 KiB of scratch and
# 64 KiB of successor bytes, and faulted nothing either.  A single model
# takes every successor at once.
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
    dtype wide enough for n worlds (uint8 in the search, uint32 for a
    single model of up to 16 worlds); the joint / common / cdk rows keep
    that dtype and broadcast to the axes of the agents they pool.
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
        return self.cdk(_singletons(group))

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


def _singletons(group: Group) -> Supergroup:
    """C{G} as CD over G's members, each a group of one, pooling nothing."""
    return Supergroup(Group([a]) for a in group.agents)


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
    CK: lambda b, f, sub: b._box(_singletons(f.group), sub),
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


def _extension_mask(m: KripkeModel, f: Formula, strict_atoms: bool) -> int:
    """f's extension in m as a world bitmask: m is a block of one frame
    and one valuation."""
    stray = agent_names(f) - set(m.agents)
    if stray:
        raise UnknownAgentError(f"unknown agent {sorted(stray)[0]!r}")
    atom_ext = {}
    for atom in atom_names(f):
        mask = m.atom_mask(atom)
        if mask is None:
            if strict_atoms:
                raise UnknownAtomError(f"unknown atom {atom!r}")
            mask = 0
        atom_ext[atom] = Block.atom_words(np.array([mask]), m.n_worlds)
    rows = {agent: np.array(rel.rows, dtype=np.uint32)[:, None, None]
            for agent, rel in zip(m.agents, m.relations)}
    block = Block(rows, atom_ext, (1, 1, 1))
    return block.world_mask(block.evaluate(f), 0, 0, 0)


def satisfies(m: KripkeModel, world: str, f: Formula, *,
              strict_atoms: bool = False) -> bool:
    """Does f hold at the named world of m?"""
    w = m.world_index(world)
    return bool(_extension_mask(m, f, strict_atoms) >> w & 1)


def valid_in_model(m: KripkeModel, f: Formula, *,
                   strict_atoms: bool = False) -> bool:
    """Does f hold at every world of m?"""
    return _extension_mask(m, f, strict_atoms) == (1 << m.n_worlds) - 1


def extension(m: KripkeModel, f: Formula, *,
              strict_atoms: bool = False) -> set[str]:
    """The set of worlds (by name) where f holds."""
    mask = _extension_mask(m, f, strict_atoms)
    return {w for i, w in enumerate(m.worlds) if mask >> i & 1}
