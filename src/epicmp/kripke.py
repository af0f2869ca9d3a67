"""Pointed-model machinery: relations, models, files, frame classes.

Relations over n worlds are stored as n row bitmasks: bit j of ``rows[i]``
set iff world i reaches world j.  With the hard caps (16 worlds, 8 agents)
every row fits a machine int and closures are bitset sweeps.

Model text format (line oriented, ``#`` starts a comment, sections in this
order)::

    agents: a b c
    worlds: s t u
    atoms: H1 T1
    closure: reflexive symmetric      # optional, applied to every relation
    rel a: (s,t) (t,u)                # one line per agent
    val H1: s t                       # worlds where the atom is true
    witness: t                        # optional, advisory

Omitted ``val`` lines mean false everywhere; an omitted ``rel`` line is the
empty relation.  ``save_model`` writes relations as-is (already closed if
they were built that way) and never writes a ``closure:`` directive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator, Mapping, Sequence

MAX_WORLDS = 16
MAX_AGENTS = 8

CLOSURE_PROPS = ("reflexive", "symmetric", "transitive")

__all__ = [
    "MAX_WORLDS", "MAX_AGENTS", "CLOSURE_PROPS",
    "Relation", "KripkeModel", "FrameClass", "RelationFlags", "FrameReport",
    "ModelError", "ModelFormatError", "UnknownAgentError", "UnknownWorldError",
    "classify_frame", "apply_closure", "load_model", "load_model_witness",
    "save_model",
]


class ModelError(ValueError):
    """Base class for model construction/use errors."""


# The search and corpus errors live here, in a module without numpy, so
# the CLI can map them to exit 2 without loading `search` or `corpus`;
# those modules re-export them under the same names.
class BoundsError(ValueError):
    """Search parameters outside the supported ranges, or a formula that
    mentions agents/atoms the bounds do not cover."""


class CorpusError(ValueError):
    pass


class ModelFormatError(ModelError):
    """Malformed model text; message carries the 1-based line number."""


class UnknownAgentError(ModelError):
    pass


class UnknownWorldError(ModelError):
    pass


@dataclass(frozen=True)
class Relation:
    """Binary relation on {0..n-1} as a tuple of row bitmasks."""

    rows: tuple[int, ...]

    def __post_init__(self):
        n = len(self.rows)
        full = (1 << n) - 1
        for i, row in enumerate(self.rows):
            if not 0 <= row <= full:
                raise ModelError(f"row {i} mask {row:#x} out of range for "
                                 f"{n} worlds")

    @property
    def size(self) -> int:
        return len(self.rows)

    def pairs(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.rows):
            for j in range(self.size):
                if row >> j & 1:
                    yield (i, j)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> Relation:
        rows = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ModelError(f"pair ({i},{j}) out of range for {n} worlds")
            rows[i] |= 1 << j
        return cls(tuple(rows))

    @classmethod
    def identity(cls, n: int) -> Relation:
        return cls(tuple(1 << i for i in range(n)))

    def reflexive_closure(self) -> Relation:
        return Relation(tuple(row | (1 << i)
                              for i, row in enumerate(self.rows)))

    def symmetric_closure(self) -> Relation:
        rows = list(self.rows)
        for i in range(self.size):
            for j in range(self.size):
                if rows[i] >> j & 1:
                    rows[j] |= 1 << i
        return Relation(tuple(rows))

    def transitive_closure(self) -> Relation:
        rows = list(self.rows)
        for k in range(self.size):
            for i in range(self.size):
                if rows[i] >> k & 1:
                    rows[i] |= rows[k]
        return Relation(tuple(rows))

    def is_reflexive(self) -> bool:
        return all(row >> i & 1 for i, row in enumerate(self.rows))

    def is_symmetric(self) -> bool:
        return self == self.symmetric_closure()

    def is_transitive(self) -> bool:
        return self == self.transitive_closure()

    def is_euclidean(self) -> bool:
        # wRu and wRv imply uRv: every successor of w reaches all of them
        for row in self.rows:
            for u in range(self.size):
                if row >> u & 1 and row & ~self.rows[u]:
                    return False
        return True


def _closed(rel: Relation, props: Iterable[str]) -> Relation:
    """The least relation containing rel with the given properties."""
    wanted = set(props)
    unknown = wanted.difference(CLOSURE_PROPS)
    if unknown:
        raise ModelError(f"unknown closure property: {sorted(unknown)[0]!r}")
    # one pass in this order is closed: the symmetric and transitive
    # closures keep reflexivity, and the transitive closure of a symmetric
    # relation is symmetric
    if "reflexive" in wanted:
        rel = rel.reflexive_closure()
    if "symmetric" in wanted:
        rel = rel.symmetric_closure()
    if "transitive" in wanted:
        rel = rel.transitive_closure()
    return rel


class FrameClass(IntEnum):
    """Strongest standard frame condition every agent relation meets."""

    NONE = 0
    KT = 1   # reflexive
    S4 = 2   # reflexive + transitive
    S5 = 3   # reflexive + transitive + symmetric (equivalence)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class RelationFlags:
    reflexive: bool
    transitive: bool
    symmetric: bool
    euclidean: bool


@dataclass(frozen=True)
class FrameReport:
    agents: tuple[str, ...]
    flags: tuple[RelationFlags, ...]
    overall: FrameClass

    def flags_for(self, agent: str) -> RelationFlags:
        try:
            return self.flags[self.agents.index(agent)]
        except ValueError:
            raise UnknownAgentError(f"unknown agent {agent!r}") from None


@dataclass(frozen=True)
class KripkeModel:
    """Worlds + one relation per agent + valuation (atom -> world bitmask)."""

    worlds: tuple[str, ...]
    agents: tuple[str, ...]
    relations: tuple[Relation, ...]   # aligned with agents
    atoms: tuple[str, ...]
    valuation: tuple[int, ...]        # aligned with atoms

    def __post_init__(self):
        n = len(self.worlds)
        if not 1 <= n <= MAX_WORLDS:
            raise ModelError(f"need 1..{MAX_WORLDS} worlds, got {n}")
        if not 1 <= len(self.agents) <= MAX_AGENTS:
            raise ModelError(f"need 1..{MAX_AGENTS} agents, "
                             f"got {len(self.agents)}")
        for label, names in (("world", self.worlds), ("agent", self.agents),
                             ("atom", self.atoms)):
            if len(set(names)) != len(names):
                raise ModelError(f"duplicate {label} name")
        if len(self.relations) != len(self.agents):
            raise ModelError("one relation per agent required")
        for rel in self.relations:
            if rel.size != n:
                raise ModelError(f"relation over {rel.size} worlds in a "
                                 f"{n}-world model")
        if len(self.valuation) != len(self.atoms):
            raise ModelError("one valuation mask per atom required")
        full = (1 << n) - 1
        for atom, mask in zip(self.atoms, self.valuation):
            if not 0 <= mask <= full:
                raise ModelError(f"valuation mask for {atom!r} out of range")

    @property
    def n_worlds(self) -> int:
        return len(self.worlds)

    def world_index(self, name: str) -> int:
        try:
            return self.worlds.index(name)
        except ValueError:
            raise UnknownWorldError(f"unknown world {name!r}") from None

    def agent_index(self, name: str) -> int:
        try:
            return self.agents.index(name)
        except ValueError:
            raise UnknownAgentError(f"unknown agent {name!r}") from None

    def relation(self, agent: str) -> Relation:
        return self.relations[self.agent_index(agent)]

    def atom_mask(self, atom: str) -> int | None:
        """Bitmask of worlds where the atom holds, or None if undeclared."""
        try:
            return self.valuation[self.atoms.index(atom)]
        except ValueError:
            return None

    @classmethod
    def from_edges(cls, worlds: Sequence[str], agents: Sequence[str],
                   edges: Mapping[str, Iterable[tuple[str, str]]],
                   valuation: Mapping[str, Iterable[str]] | None = None,
                   closure: Iterable[str] = ()) -> KripkeModel:
        """Build from named edge lists, applying closure properties."""
        worlds = tuple(worlds)
        index = {w: i for i, w in enumerate(worlds)}
        n = len(worlds)

        def _idx(name: str) -> int:
            if name not in index:
                raise UnknownWorldError(f"unknown world {name!r}")
            return index[name]

        for agent in edges:
            if agent not in agents:
                raise UnknownAgentError(f"unknown agent {agent!r}")
        relations = []
        for agent in agents:
            pairs = [(_idx(s), _idx(t)) for s, t in edges.get(agent, ())]
            relations.append(_closed(Relation.from_pairs(n, pairs), closure))
        valuation = valuation or {}
        masks = []
        for atom in valuation:
            mask = 0
            for name in valuation[atom]:
                mask |= 1 << _idx(name)
            masks.append(mask)
        return cls(worlds=worlds, agents=tuple(agents),
                   relations=tuple(relations), atoms=tuple(valuation),
                   valuation=tuple(masks))


def classify_frame(m: KripkeModel) -> FrameReport:
    flags = []
    for rel in m.relations:
        flags.append(RelationFlags(
            reflexive=rel.is_reflexive(),
            transitive=rel.is_transitive(),
            symmetric=rel.is_symmetric(),
            euclidean=rel.is_euclidean(),
        ))
    if all(f.reflexive and f.transitive and f.symmetric for f in flags):
        overall = FrameClass.S5
    elif all(f.reflexive and f.transitive for f in flags):
        overall = FrameClass.S4
    elif all(f.reflexive for f in flags):
        overall = FrameClass.KT
    else:
        overall = FrameClass.NONE
    return FrameReport(agents=m.agents, flags=tuple(flags), overall=overall)


def apply_closure(m: KripkeModel, props: Iterable[str]) -> KripkeModel:
    props = tuple(props)
    return KripkeModel(
        worlds=m.worlds, agents=m.agents,
        relations=tuple(_closed(rel, props) for rel in m.relations),
        atoms=m.atoms, valuation=m.valuation)


# --- text format ---------------------------------------------------------

_PAIR_RE = re.compile(r"\(\s*([A-Za-z][A-Za-z0-9_]*)\s*,"
                      r"\s*([A-Za-z][A-Za-z0-9_]*)\s*\)")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")

# each section's order rank and the kind of name it lists or heads; rel and
# val may repeat but may not interleave backwards
_SECTIONS = {"agents": (0, "agent"), "worlds": (1, "world"),
             "atoms": (2, "atom"), "closure": (3, None), "rel": (4, "agent"),
             "val": (5, "atom"), "witness": (6, "world")}


def _split_names(body: str, lineno: int, kind: str) -> list[str]:
    names = body.split()
    for name in names:
        if not _NAME_RE.match(name):
            raise ModelFormatError(f"line {lineno}: bad {kind} name {name!r}")
    return names


def _known(names: Sequence[str], known: Sequence[str], kind: str,
           lineno: int) -> Sequence[str]:
    for name in names:
        if name not in known:
            raise ModelFormatError(f"line {lineno}: unknown {kind} {name!r}")
    return names


def _pairs(body: str, lineno: int,
           worlds: Sequence[str]) -> list[tuple[str, str]]:
    pairs = []
    while body:
        mm = _PAIR_RE.match(body)
        if mm is None:
            raise ModelFormatError(
                f"line {lineno}: expected '(s,t)' pairs, got {body!r}")
        pairs.append(_known(mm.group(1, 2), worlds, "world", lineno))
        body = body[mm.end():].lstrip()
    return pairs


def load_model_witness(text: str) -> tuple[KripkeModel, str | None]:
    """Parse model text; returns the model and the witness world, if any."""
    header: dict[str, Sequence[str]] = {}
    # rel / val line bodies by agent / atom
    lines: dict[str, dict[str, Sequence]] = {"rel": {}, "val": {}}
    rank = -1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, body = line.partition(":")
        if not sep:
            raise ModelFormatError(f"line {lineno}: expected 'section: ...'")
        head = head.strip()
        body = body.strip()
        parts = head.split()
        key = parts[0] if parts else ""
        if key not in _SECTIONS:
            raise ModelFormatError(f"line {lineno}: unknown section {head!r}")
        if _SECTIONS[key][0] < rank:
            raise ModelFormatError(
                f"line {lineno}: {key!r} section out of order")
        rank, kind = _SECTIONS[key]

        if key in lines:
            if len(parts) != 2:
                raise ModelFormatError(
                    f"line {lineno}: expected '{key} <{kind}>:'")
            name = parts[1]
            _known([name], header.get(kind + "s", ()), kind, lineno)
            if name in lines[key]:
                raise ModelFormatError(
                    f"line {lineno}: duplicate {key} line for {name!r}")
            worlds = header.get("worlds", ())
            lines[key][name] = (
                _pairs(body, lineno, worlds) if key == "rel" else
                _known(_split_names(body, lineno, "world"), worlds, "world",
                       lineno))
        else:
            if key in header:
                raise ModelFormatError(f"line {lineno}: duplicate {key}:")
            if kind is None:
                names = _known(body.split(), CLOSURE_PROPS,
                               "closure property", lineno)
            else:
                names = _split_names(body, lineno, kind)
            if key == "witness" and len(names) != 1:
                raise ModelFormatError(
                    f"line {lineno}: witness takes one world")
            header[key] = names

    for label in ("agents", "worlds", "atoms"):
        if label not in header:
            raise ModelFormatError(f"missing {label}: section")

    try:
        m = KripkeModel.from_edges(
            header["worlds"], header["agents"], lines["rel"],
            valuation={a: lines["val"].get(a, []) for a in header["atoms"]},
            closure=header.get("closure", ()))
    except ModelError as exc:
        raise ModelFormatError(str(exc)) from exc
    # the valuation mapping keeps one entry per repeated atom name
    if len(m.atoms) != len(header["atoms"]):
        raise ModelFormatError("duplicate atom name")
    witness = header.get("witness", [None])[0]
    if witness is not None and witness not in header["worlds"]:
        raise ModelFormatError(f"witness names unknown world {witness!r}")
    return m, witness


def load_model(text: str) -> KripkeModel:
    return load_model_witness(text)[0]


def save_model(m: KripkeModel, witness: str | None = None) -> str:
    """Render to the text format; load_model(save_model(m)) == m."""
    def _section(name: str, names: Sequence[str]) -> str:
        return f"{name}: " + " ".join(names) if names else f"{name}:"

    lines = [
        _section("agents", m.agents),
        _section("worlds", m.worlds),
        _section("atoms", m.atoms),
    ]
    for agent, rel in zip(m.agents, m.relations):
        pairs = " ".join(f"({m.worlds[i]},{m.worlds[j]})"
                         for i, j in rel.pairs())
        lines.append(f"rel {agent}:" + (" " + pairs if pairs else ""))
    for atom, mask in zip(m.atoms, m.valuation):
        if mask:
            names = " ".join(w for i, w in enumerate(m.worlds)
                             if mask >> i & 1)
            lines.append(f"val {atom}: {names}")
    if witness is not None:
        m.world_index(witness)
        lines.append(f"witness: {witness}")
    return "\n".join(lines) + "\n"

