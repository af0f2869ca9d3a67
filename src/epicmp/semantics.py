"""Truth evaluation of formulas: the one evaluator.

A `Block` holds models that share a world count: F frames, each a tuple of
per-agent relations stored as (F, n) uint32 row masks, times V valuations.
Every extension is an array of world bitmasks (uint32, or the smallest
unsigned type that holds n bits for a comparison), shaped (F, V), (F, 1)
or (1, V) and broadcast on demand.  Box-style operators hold at w when the
operand's extension covers the relation's row at w.  The comparison
`[A <= B]` holds at w when A's joint row at w is contained in B's: A's
pooled information is at least as sharp, so anything B jointly knows at w
transfers to A.  The strict/mutual/incomparable forms and `K{a}` are
evaluated directly with the same row tests their desugarings produce.

The countermodel search evaluates whole frame spans this way; `satisfies`,
`valid_in_model` and `extension` evaluate one `KripkeModel` as a (1, 1)
block.  They first check the formula against the model: an agent the model
does not declare is an UnknownAgentError, and an undeclared atom is false
everywhere, or an UnknownAtomError with `strict_atoms=True`.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .kripke import KripkeModel, ModelError, UnknownAgentError
from .syntax import (Atom, CK, CDK, Cmp, CmpOp, DK, Formula, Iff, Imp, IndK,
                     And, Group, Not, Or, Supergroup, agent_names,
                     atom_names)

__all__ = ["Block", "satisfies", "valid_in_model", "extension",
           "UnknownAtomError"]


class UnknownAtomError(ModelError):
    pass


# Cells in one pass of a box operator's scratch arrays: one search block
# (search._CHUNK_CELLS), so a search sweep takes one world per pass.
_BOX_CELLS = 1 << 17


class Block:
    """Frames x valuations of one world count, shared by every formula
    evaluated against it.

    `rows_by_agent` maps each agent to its (F, n) uint32 relation rows and
    `atom_ext` each atom to its extension; `shape` is (F, V).  The joint /
    common / cdk relations and the comparison masks live as long as the
    block; the memo of one formula's subterm extensions is dropped after
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
        self.full = np.uint32((1 << self.n) - 1)
        self._leq_dtype = np.min_scalar_type(self.full)
        # per-world shift counts for _box, shaped to broadcast over (F, V)
        self._shifts = np.arange(self.n, dtype=np.uint32)[:, None, None]
        self._world_bits = (np.uint32(1) << np.arange(
            self.n, dtype=np.uint32)).astype(self._leq_dtype)
        self._joint: dict[Group, np.ndarray] = {}
        self._reach: dict[object, np.ndarray] = {}
        self._leqs: dict[tuple[Group, Group], np.ndarray] = {}
        self._memo: dict[Formula, np.ndarray] = {}

    def evaluate(self, f: Formula) -> np.ndarray:
        """f's extension, broadcastable to `shape`."""
        out = self._ext(f)
        self._memo.clear()
        return out

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
        key = ("common", group)
        out = self._reach.get(key)
        if out is None:
            acc = self.rows_by_agent[group.agents[0]]
            for agent in group.agents[1:]:
                acc = acc | self.rows_by_agent[agent]
            out = self._closure(acc)
            self._reach[key] = out
        return out

    def cdk(self, groups: Supergroup) -> np.ndarray:
        key = ("cdk", groups)
        out = self._reach.get(key)
        if out is None:
            acc = self.joint(groups.groups[0])
            for g in groups.groups[1:]:
                acc = acc | self.joint(g)
            out = self._closure(acc)
            self._reach[key] = out
        return out

    def _box(self, rows: np.ndarray, ext: np.ndarray) -> np.ndarray:
        not_ext = ext ^ self.full
        n_f, n_v = rows.shape[0], not_ext.shape[1]
        # k worlds per pass, world axis first, so that the two scratch
        # arrays hold about _BOX_CELLS cells: a search block goes one world
        # at a time, a single model all at once.  The scratch arrays are
        # reused across passes: every fresh block-sized temporary costs
        # page faults, since freed blocks of this size go back to the OS
        k = min(self.n, max(1, _BOX_CELLS // (n_f * n_v)))
        cols = rows.T[:, :, None]
        out = np.zeros((n_f, n_v), dtype=np.uint32)
        sub = np.empty((k, n_f, n_v), dtype=np.uint32)
        hit = np.empty((k, n_f, n_v), dtype=bool)
        for w in range(0, self.n, k):
            j = min(k, self.n - w)
            np.bitwise_and(cols[w:w + j], not_ext, out=sub[:j])
            np.equal(sub[:j], 0, out=hit[:j])
            np.left_shift(hit[:j], self._shifts[w:w + j], out=sub[:j],
                          dtype=np.uint32)
            # one world needs no reduction, which would allocate a fresh
            # block-sized result
            out |= sub[0] if j == 1 else np.bitwise_or.reduce(sub[:j])
        return out

    def _leq(self, left: Group, right: Group) -> np.ndarray:
        out = self._leqs.get((left, right))
        if out is None:
            a, b = self.joint(left), self.joint(right)
            # one row test per world, packed into a mask by a dot product
            # with the world bits: distinct powers of two, so the sum is
            # their OR and fits the mask dtype
            hit = ((a & (b ^ self.full)) == 0).astype(self._leq_dtype)
            out = (hit @ self._world_bits)[:, None]
            self._leqs[(left, right)] = out
        return out

    def _ext(self, f: Formula) -> np.ndarray:
        out = self._memo.get(f)
        if out is not None:
            return out
        if isinstance(f, Atom):
            out = self.atom_ext[f.name]
        elif isinstance(f, Not):
            out = self._ext(f.sub) ^ self.full
        elif isinstance(f, And):
            out = self._ext(f.left) & self._ext(f.right)
        elif isinstance(f, Or):
            out = self._ext(f.left) | self._ext(f.right)
        elif isinstance(f, Imp):
            out = (self._ext(f.left) ^ self.full) | self._ext(f.right)
        elif isinstance(f, Iff):
            out = (self._ext(f.left) ^ self._ext(f.right)) ^ self.full
        elif isinstance(f, DK):
            out = self._box(self.joint(f.group), self._ext(f.sub))
        elif isinstance(f, IndK):
            out = self._box(self.rows_by_agent[f.agent], self._ext(f.sub))
        elif isinstance(f, CK):
            out = self._box(self.common(f.group), self._ext(f.sub))
        elif isinstance(f, CDK):
            out = self._box(self.cdk(f.groups), self._ext(f.sub))
        elif isinstance(f, Cmp):
            if f.op is CmpOp.LEQ:
                out = self._leq(f.left, f.right)
            else:
                leq = self._leq(f.left, f.right)
                geq = self._leq(f.right, f.left)
                if f.op is CmpOp.LT:
                    out = leq & (geq ^ self.full)
                elif f.op is CmpOp.EQV:
                    out = leq & geq
                else:
                    out = (leq ^ self.full) & (geq ^ self.full)
        else:
            raise TypeError(f"not a formula node: {f!r}")
        self._memo[f] = out
        return out


def _extension_mask(m: KripkeModel, f: Formula, strict_atoms: bool) -> int:
    """f's extension in m as a world bitmask, m taken as a (1, 1) block."""
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
        atom_ext[atom] = np.array([[mask]], dtype=np.uint32)
    rows = {agent: np.array([rel.rows], dtype=np.uint32)
            for agent, rel in zip(m.agents, m.relations)}
    return int(Block(rows, atom_ext, (1, 1)).evaluate(f)[0, 0])


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
