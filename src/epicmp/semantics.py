"""Truth evaluation of formulas in one model, on world bitmasks.

An extension is a Python int whose bit w is set where the formula holds
at world w, worlds in model order.  Each distinct subformula is labelled
once, children first (`syntax.fold`): the labelling algorithm of Fagin,
Halpern, Moses & Vardi, *Reasoning About Knowledge*, 1995, 3.2, which
checks a model in O(|f| * |M|).  Each connective is one bit operation
under the full mask of the n worlds.  A box holds at the worlds whose
relation row (the worlds they reach) lies inside the operand's
extension.  A group's joint relation is the AND of its members' rows;
`C{G}` boxes over the reflexive-transitive closure of the members' own
relations and `CD[G1;...;Gk]` over that of the groups' joint relations.
The comparison `[A <= B]` holds at w when A's joint row at w lies inside
B's: A's pooled information is at least as sharp, so anything B jointly
knows at w transfers to A.  The strict/mutual/incomparable forms are
built from it and its converse.

`satisfies`, `valid_in_model` and `extension` first check the formula
against the model: an agent the model does not declare is an
UnknownAgentError, and an undeclared atom is false everywhere, or an
UnknownAtomError (naming the smallest such atom) with
`strict_atoms=True`.  This module loads no numpy: the countermodel
search evaluates blocks of frames with its own numpy evaluator
(`search.Block`), and the two share only `fold` and the node types.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

from .kripke import KripkeModel, ModelError, Relation, UnknownAgentError
from .syntax import (Atom, CK, CDK, Cmp, CmpOp, DK, Formula, Iff, Imp, IndK,
                     And, Group, Not, Or, Supergroup, agent_names,
                     atom_names, fold, singletons)

__all__ = ["satisfies", "valid_in_model", "extension", "UnknownAtomError"]


class UnknownAtomError(ModelError):
    pass


class _Labels:
    """One model's atoms and relation rows, with each group's joint rows
    and each closure built once per evaluation."""

    def __init__(self, m: KripkeModel):
        self.full = (1 << m.n_worlds) - 1
        self.valuation = dict(zip(m.atoms, m.valuation))
        self.rows = {agent: rel.rows
                     for agent, rel in zip(m.agents, m.relations)}
        self._relations: dict[Group | Supergroup, tuple[int, ...]] = {}

    def joint(self, group: Group) -> tuple[int, ...]:
        out = self._relations.get(group)
        if out is None:
            out = self.rows[group.agents[0]]
            for agent in group.agents[1:]:
                out = tuple(map(int.__and__, out, self.rows[agent]))
            self._relations[group] = out
        return out

    def reach(self, groups: Supergroup) -> tuple[int, ...]:
        """The reflexive-transitive closure of the union of the groups'
        joint relations."""
        out = self._relations.get(groups)
        if out is None:
            union = self.joint(groups.groups[0])
            for g in groups.groups[1:]:
                union = tuple(map(int.__or__, union, self.joint(g)))
            out = self._relations[groups] = Relation(
                union).reflexive_closure().transitive_closure().rows
        return out

    def cmp(self, f: Cmp) -> int:
        left, right = self.joint(f.left), self.joint(f.right)
        leq = _inside(left, right)
        if f.op is CmpOp.LEQ:
            return leq
        geq = _inside(right, left)
        if f.op is CmpOp.LT:
            return leq & ~geq
        if f.op is CmpOp.EQV:
            return leq & geq
        return self.full & ~(leq | geq)


def _inside(rows: Iterable[int], bounds: Iterable[int]) -> int:
    """The worlds w whose row lies inside the w-th bound, as a mask."""
    mask = 0
    for w, (row, bound) in enumerate(zip(rows, bounds)):
        if not row & ~bound:
            mask |= 1 << w
    return mask


def _box(rows: tuple[int, ...], ext: int) -> int:
    """The worlds all of whose successors lie in ext."""
    return _inside(rows, repeat(ext))


# each node's extension in model labels m, from its children's
_MASK = {
    Atom: lambda m, f: m.valuation.get(f.name, 0),
    Not: lambda m, f, sub: m.full & ~sub,
    And: lambda m, f, left, right: left & right,
    Or: lambda m, f, left, right: left | right,
    Imp: lambda m, f, left, right: m.full & ~left | right,
    Iff: lambda m, f, left, right: m.full & ~(left ^ right),
    DK: lambda m, f, sub: _box(m.joint(f.group), sub),
    IndK: lambda m, f, sub: _box(m.rows[f.agent], sub),
    CK: lambda m, f, sub: _box(m.reach(singletons(f.group)), sub),
    CDK: lambda m, f, sub: _box(m.reach(f.groups), sub),
    Cmp: lambda m, f: m.cmp(f),
}


def _extension_mask(m: KripkeModel, f: Formula, strict_atoms: bool) -> int:
    """f's extension in m as a world bitmask."""
    stray = agent_names(f) - set(m.agents)
    if stray:
        raise UnknownAgentError(f"unknown agent {sorted(stray)[0]!r}")
    if strict_atoms:
        stray = atom_names(f) - set(m.atoms)
        if stray:
            raise UnknownAtomError(f"unknown atom {sorted(stray)[0]!r}")
    labels = _Labels(m)
    return fold(f, lambda g, *kids: _MASK[type(g)](labels, g, *kids))


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
