"""Truth evaluation of formulas: the one evaluator.

A `Block` holds models that share a world count: F frames, each a tuple of
per-agent relations stored as (F, n) uint32 row masks, times V valuations.
The valuation axis is bit-sliced: an extension holds, for each world and
frame, W words whose bits are the valuations (one word of the smallest
unsigned type that holds V bits, or V/64 uint64 words), shaped
(n, F|1, W|1) with the world axis first and broadcast on demand.  Each
connective is one bitwise operation on those words.  A box operator holds
at w, for a valuation, when the operand holds there at every R-successor
v of w: it is the AND over v of `ext[v] | notin[v, w]`, where notin[v, w]
is all ones when v is not a successor of w and 0 when it is.  The
comparison `[A <= B]` holds at w when A's joint row at w is contained in
B's: A's pooled information is at least as sharp, so anything B jointly
knows at w transfers to A.  It does not depend on the valuation, so it is
one word per world and frame, all ones or 0.  The strict/mutual/
incomparable forms and `K{a}` are evaluated directly with the same row
tests their desugarings produce.

The countermodel search evaluates whole frame spans this way; `satisfies`,
`valid_in_model` and `extension` evaluate one `KripkeModel` as a block of
one frame and one valuation.  They first check the formula against the
model: an agent the model does not declare is an UnknownAgentError, and an
undeclared atom is false everywhere, or an UnknownAtomError with
`strict_atoms=True`.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .kripke import KripkeModel, ModelError, UnknownAgentError
from .syntax import (Atom, CK, CDK, Cmp, CmpOp, DK, Formula, Iff, Imp, IndK,
                     And, Group, Not, Or, Supergroup, agent_names,
                     atom_names, fold)

__all__ = ["Block", "satisfies", "valid_in_model", "extension",
           "UnknownAtomError"]


class UnknownAtomError(ModelError):
    pass


# Cells (frames x valuation words) in one pass of a box operator.  A
# `scan_kt4` span (8,192 frames of 4 worlds, one uint16 word) then takes one
# successor world per pass, and each pass's scratch array is 64 KiB, below
# glibc's 128 KiB mmap threshold, so it is reused from the heap instead of
# being faulted in afresh; a single model takes every successor at once.
_BOX_CELLS = 1 << 13


def _word_layout(n_vals: int) -> tuple[np.dtype, int]:
    """The word dtype and the word count that hold one bit per valuation:
    the smallest unsigned type of at least n_vals bits, else uint64s."""
    bits = 8
    while bits < min(n_vals, 64):
        bits *= 2
    return np.dtype(f"uint{bits}"), -(-n_vals // bits)


class Block:
    """Frames x valuations of one world count, shared by every formula
    evaluated against it.

    `rows_by_agent` maps each agent to its (F, n) uint32 relation rows and
    `atom_ext` each atom to its extension as `atom_words` builds it; `shape`
    is (F, V).  An extension holds, for each world and frame, W words whose
    bits are the valuations: valuation v is bit v % B of word v // B, with
    B bits per word.  It is shaped (n, F|1, W|1), world axis first, and
    broadcast on demand.  The joint / common / cdk relations, their
    successor masks and the comparison words live as long as the block;
    the memo of one formula's subterm extensions is dropped after
    `evaluate` returns, so memory does not grow with the number of
    formulas.
    """

    def __init__(self, rows_by_agent: Mapping[str, np.ndarray],
                 atom_ext: Mapping[str, np.ndarray],
                 shape: tuple[int, int]):
        self.rows_by_agent = rows_by_agent
        self.atom_ext = atom_ext
        self.shape = shape
        self.n = next(iter(rows_by_agent.values())).shape[1]
        self.dtype = _word_layout(shape[1])[0]
        self.bits = self.dtype.itemsize * 8
        self.full = self.dtype.type(np.iinfo(self.dtype).max)
        self._joint: dict[Group, np.ndarray] = {}
        self._reach: dict[Supergroup, np.ndarray] = {}
        self._notins: dict[object, np.ndarray] = {}
        self._leqs: dict[tuple[Group, str], np.ndarray] = {}

    @staticmethod
    def atom_words(masks: np.ndarray, n: int) -> np.ndarray:
        """An atom's extension from its world mask at each valuation index
        (a (V,) integer array), as (n, 1, W) valuation words."""
        dtype, n_words = _word_layout(len(masks))
        bits = dtype.itemsize * 8
        held = np.zeros((n, n_words * bits), dtype=dtype)
        held[:, :len(masks)] = (masks.astype(np.uint32)
                                >> np.arange(n, dtype=np.uint32)[:, None]) & 1
        held = held.reshape(n, n_words, bits) << np.arange(bits, dtype=dtype)
        return np.bitwise_or.reduce(held, axis=2)[:, None, :]

    def evaluate(self, f: Formula) -> np.ndarray:
        """f's extension, broadcastable to (n, F, W): a fold, so each
        subterm is evaluated once, from its children's extensions, and a
        formula of any depth evaluates.  The subterm extensions are
        dropped on return."""
        return fold(f, lambda g, *subs: _EXT[type(g)](self, g, *subs))

    def world_mask(self, ext: np.ndarray, frame: int, val: int) -> int:
        """The worlds of one frame where ext holds at one valuation, as a
        bitmask."""
        word, bit = divmod(val, self.bits)
        # a broadcast axis of length 1 stands for every frame or word
        cells = ext[:, frame % ext.shape[1], word % ext.shape[2]]
        return sum((c >> bit & 1) << w for w, c in enumerate(cells.tolist()))

    def first_failure(self, ext: np.ndarray) -> tuple[int, int, int] | None:
        """(frame, valuation, world mask) of the first cell where ext
        misses a world, frames first and then valuations ascending, or
        None if ext holds everywhere."""
        # With fewer than 8 valuations the word has spare bits.  Atoms are
        # false there and no operator mixes bits, so a spare bit evaluates
        # as valuation 0 of its word and never fails first.
        fail = np.invert(np.bitwise_and.reduce(ext, axis=0))
        if not fail.any():
            return None
        # a broadcast frame axis fails first at frame 0
        frame, word = divmod(int(np.argmax(fail != 0)), fail.shape[1])
        low = int(fail[frame, word])
        val = word * self.bits + (low & -low).bit_length() - 1
        return frame, val, self.world_mask(ext, frame, val)

    def joint(self, group: Group) -> np.ndarray:
        out = self._joint.get(group)
        if out is None:
            out = self.rows_by_agent[group.agents[0]]
            for agent in group.agents[1:]:
                out = out & self.rows_by_agent[agent]
            self._joint[group] = out
        return out

    def _closure(self, rows: np.ndarray) -> np.ndarray:
        rows = rows | (np.uint32(1) << np.arange(self.n, dtype=np.uint32))
        for k in range(self.n):
            rows = rows | ((rows >> np.uint32(k)) & 1) * rows[:, k:k + 1]
        return rows

    def common(self, group: Group) -> np.ndarray:
        # the group's members, each as a group of one, pooling nothing
        return self.cdk(Supergroup(Group([a]) for a in group.agents))

    def cdk(self, groups: Supergroup) -> np.ndarray:
        out = self._reach.get(groups)
        if out is None:
            acc = self.joint(groups.groups[0])
            for g in groups.groups[1:]:
                acc = acc | self.joint(g)
            out = self._closure(acc)
            self._reach[groups] = out
        return out

    def _notin(self, key: object, rows: np.ndarray) -> np.ndarray:
        """notin for a relation's rows, as (n, n, F, 1) words: [v, w] is
        all ones where world v is not an R-successor of w and 0 where it
        is.  Built once per relation and block."""
        out = self._notins.get(key)
        if out is None:
            out = np.empty((self.n, self.n, len(rows), 1), dtype=self.dtype)
            # row >> v, cut to the word type, keeps bit v of the row as its
            # lowest bit; & 1, then - 1, turns 1 into 0 and 0 into all ones
            cell = out[..., 0]
            shifts = np.arange(self.n, dtype=np.uint32)[:, None, None]
            np.right_shift(np.ascontiguousarray(rows.T)[None], shifts,
                           out=cell, casting="unsafe")
            cell &= 1
            cell -= 1
            self._notins[key] = out
        return out

    def _box(self, key: object, rows: np.ndarray,
             ext: np.ndarray) -> np.ndarray:
        # at world w: the AND over successor worlds v of ext[v] | notin[v, w]
        notin = self._notin(key, rows)
        n_f, n_w = notin.shape[2], ext.shape[2]
        # k successor worlds per pass, reduced over the leading axis; the
        # scratch array is reused across passes
        k = min(self.n, max(1, _BOX_CELLS // (n_f * n_w)))
        sub = np.empty((k, self.n, n_f, n_w), dtype=self.dtype)
        out = None
        for v in range(0, self.n, k):
            j = min(k, self.n - v)
            np.bitwise_or(ext[v:v + j, None], notin[v:v + j], out=sub[:j])
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
            a, b = self.joint(left), self.rows_by_agent[agent]
            # one row test per frame and world, as a word of all ones or 0;
            # written world axis first, so the operators read it
            # contiguously
            hit = np.ascontiguousarray(((a & np.invert(b)) == 0).T)
            out = np.empty((self.n, len(a), 1), dtype=self.dtype)
            np.multiply(hit, self.full, out=out[:, :, 0])
            self._leqs[(left, agent)] = out
        return out

    def _cmp(self, f: Cmp) -> np.ndarray:
        leq = self._leq(f.left, f.right)
        if f.op is CmpOp.LEQ:
            return leq
        geq = self._leq(f.right, f.left)
        if f.op is CmpOp.LT:
            return leq & (geq ^ self.full)
        if f.op is CmpOp.EQV:
            return leq & geq
        return (leq ^ self.full) & (geq ^ self.full)


# each node's extension in block b, from its children's
_EXT = {
    Atom: lambda b, f: b.atom_ext[f.name],
    Not: lambda b, f, sub: sub ^ b.full,
    And: lambda b, f, left, right: left & right,
    Or: lambda b, f, left, right: left | right,
    Imp: lambda b, f, left, right: (left ^ b.full) | right,
    Iff: lambda b, f, left, right: (left ^ right) ^ b.full,
    DK: lambda b, f, sub: b._box(f.group, b.joint(f.group), sub),
    IndK: lambda b, f, sub: b._box(Group([f.agent]),
                                   b.rows_by_agent[f.agent], sub),
    CK: lambda b, f, sub: b._box(("common", f.group), b.common(f.group),
                                 sub),
    CDK: lambda b, f, sub: b._box(("cdk", f.groups), b.cdk(f.groups), sub),
    Cmp: Block._cmp,
}


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
    rows = {agent: np.array([rel.rows], dtype=np.uint32)
            for agent, rel in zip(m.agents, m.relations)}
    block = Block(rows, atom_ext, (1, 1))
    return block.world_mask(block.evaluate(f), 0, 0)


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
