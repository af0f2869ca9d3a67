"""Formula language: AST, parser, renderer, desugaring.

Connectives, loosest to tightest binding:

    iff     :=  imp ('<->' imp)*          left associative
    imp     :=  or ('->' imp)?            right associative
    or      :=  and ('|' and)*
    and     :=  unary ('&' unary)*
    unary   :=  '~' unary | modal unary | primary
    modal   :=  'D' group | 'C' group | 'K' group | 'CD' '[' group (';' group)* ']'
    primary :=  ident | '(' iff ')' | '[' group cmpop group ']'
    group   :=  '{' ident (',' ident)* '}'
    cmpop   :=  '<=' | '<' | '==' | '#'

Identifiers are [A-Za-z][A-Za-z0-9_]*.  `D`, `C`, `K`, `CD` act as keywords
only when immediately followed by `{` (or `[` for CD), so `Kp` and `Dog`
parse as atoms.  `K{a}` requires exactly one agent.  Modal prefixes bind
like `~`: `D{a} p & q` is `(D{a} p) & q`.

Comparison atoms relate the joint (pooled-information) relations of two
agent groups:  `[{a} <= {b}]` holds at a world when every world jointly
possible for {a} is also jointly possible for {b} -- {a}'s pooled view is
at least as sharp, so whatever {b} jointly knows there, {a} does too.
`<` is the strict form, `==` mutual, `#` neither direction; all three
desugar to `<=` via expand_sugar, and `K{a}` desugars to `D{a}`.

Nodes are interned: building a node that already exists returns the
existing object, so equal formulas are identical and compare and hash in
constant time.  `render`, `atom_names` and `agent_names` never recurse,
so a formula of any depth the parser accepts can be rendered and
evaluated.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref  # what WeakValueDictionary uses
from dataclasses import dataclass
from enum import Enum
from functools import partial, total_ordering
from typing import Iterable

MAX_GROUP_AGENTS = 8

__all__ = [
    "Formula", "Atom", "Not", "And", "Or", "Imp", "Iff",
    "DK", "CK", "CDK", "IndK", "Cmp", "CmpOp", "Group", "Supergroup",
    "FormulaError", "LexError", "ParseError", "EmptyGroupError",
    "parse", "render", "expand_sugar", "atom_names", "agent_names",
]


class FormulaError(ValueError):
    """Base class for formula syntax/structure errors."""


class LexError(FormulaError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


class ParseError(FormulaError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


class EmptyGroupError(FormulaError):
    """A group or group list with no members."""


# --- interned nodes ------------------------------------------------------

# Every node is built through this table, keyed by (class, fields).  A
# node's fields are strings, an operator, interned groups and interned
# subformulas, so structurally equal nodes are one object: equality and
# hashing are identity and never recurse (hash-consing, after Filliatre &
# Conchon, "Type-safe modular hash-consing", 2006).  The table holds its
# nodes weakly, so it keeps alive no formula that nothing else references.
_nodes: dict[tuple, weakref.ref] = {}


def _forget(key: tuple, ref: weakref.ref, nodes=_nodes,
            remove=_remove_dead_weakref) -> None:
    # drops the entry only while it holds a dead reference: another thread
    # may already have put a new node under the same key.  The defaults
    # keep working while the interpreter tears the module down.
    remove(nodes, key)


def _intern(cls: type, *fields):
    """The one node of class cls with these fields, built if need be."""
    key = (cls, *fields)
    ref = _nodes.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            object.__setattr__(node, name, value)
        node._derive(fields)
        new = weakref.ref(node, partial(_forget, key))
        # setdefault, so threads that build the same node get one object
        while (ref := _nodes.setdefault(key, new)) is not new:
            if (other := ref()) is not None:
                return other
            # a dead node whose callback has not run yet
            _remove_dead_weakref(_nodes, key)
    return node


class _Node:
    """An immutable node, one object per structure: build it only through
    its class.  `_fields` names what identifies it, in constructor order."""

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def _derive(self, fields: tuple) -> None:
        """Cache what the node's subtree determines; its fields are set."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which returns
        # the interned node
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


@total_ordering
class Group(_Node):
    """Non-empty set of agent names, stored sorted for canonical identity."""

    __slots__ = _fields = ("agents",)

    def __new__(cls, agents: Iterable[str]) -> Group:
        names = tuple(sorted(set(agents)))
        if not names:
            raise EmptyGroupError("group must name at least one agent")
        if len(names) > MAX_GROUP_AGENTS:
            raise FormulaError(
                f"group has {len(names)} agents (limit {MAX_GROUP_AGENTS})")
        return _intern(cls, names)

    def __lt__(self, other: Group) -> bool:
        if not isinstance(other, Group):
            return NotImplemented
        return self.agents < other.agents

    def __str__(self) -> str:
        return "{" + ",".join(self.agents) + "}"


class Supergroup(_Node):
    """Non-empty set of groups, stored sorted for canonical identity."""

    __slots__ = _fields = ("groups",)

    def __new__(cls, groups: Iterable[Group]) -> Supergroup:
        gs = tuple(sorted(set(groups)))
        if not gs:
            raise EmptyGroupError("group list must contain at least one group")
        return _intern(cls, gs)

    def __str__(self) -> str:
        return ";".join(str(g) for g in self.groups)

    def union(self) -> Group:
        return Group(a for g in self.groups for a in g.agents)


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """a | b, reusing a or b when it holds the other."""
    if b <= a:
        return a
    return b if a <= b else a | b


class Formula(_Node):
    """Base class.  Nodes are immutable and interned, so two formulas are
    equal exactly when they are the same object.  Each node holds its
    children and its atom and agent names, computed from its children when
    it is built, so no query walks the tree."""

    __slots__ = ("children", "_atoms", "_agents")
    children: tuple[Formula, ...]  # the immediate subformulas, in order

    def _derive(self, fields: tuple) -> None:
        children = []
        atoms = agents = frozenset()
        for value in fields:
            if isinstance(value, Formula):
                children.append(value)
                atoms = _union(atoms, value._atoms)
                names = value._agents
            elif isinstance(value, Group):
                names = frozenset(value.agents)
            elif isinstance(value, Supergroup):
                names = frozenset(value.union().agents)
            elif isinstance(value, str):
                # IndK's agent; Atom has its own _derive
                names = frozenset((value,))
            else:
                continue
            agents = _union(agents, names)
        object.__setattr__(self, "children", tuple(children))
        object.__setattr__(self, "_atoms", atoms)
        object.__setattr__(self, "_agents", agents)

    def __str__(self) -> str:
        return render(self)


class Atom(Formula):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str) -> Atom:
        return _intern(cls, name)

    def _derive(self, fields: tuple) -> None:
        object.__setattr__(self, "children", ())
        object.__setattr__(self, "_atoms", frozenset(fields))
        object.__setattr__(self, "_agents", frozenset())


class Not(Formula):
    __slots__ = _fields = ("sub",)

    def __new__(cls, sub: Formula) -> Not:
        return _intern(cls, sub)


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return _intern(cls, left, right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class _GroupModal(Formula):
    __slots__ = _fields = ("group", "sub")

    def __new__(cls, group: Group, sub: Formula):
        return _intern(cls, group, sub)


class DK(_GroupModal):
    """What the group would know pooling everything its members know."""

    __slots__ = ()


class CK(_GroupModal):
    """Common knowledge among the group's members."""

    __slots__ = ()


class CDK(Formula):
    """Common knowledge among groups-as-agents (each group pools first)."""

    __slots__ = _fields = ("groups", "sub")

    def __new__(cls, groups: Supergroup, sub: Formula) -> CDK:
        return _intern(cls, groups, sub)


class IndK(Formula):
    """Individual knowledge; sugar for a one-agent DK."""

    __slots__ = _fields = ("agent", "sub")

    def __new__(cls, agent: str, sub: Formula) -> IndK:
        return _intern(cls, agent, sub)


class CmpOp(Enum):
    LEQ = "<="
    LT = "<"
    EQV = "=="
    INCOMP = "#"


class Cmp(Formula):
    """Comparison of the epistemic strength of two groups."""

    __slots__ = _fields = ("op", "left", "right")

    def __new__(cls, op: CmpOp, left: Group, right: Group) -> Cmp:
        return _intern(cls, op, left, right)


# --- lexer ---------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" or the operator text itself
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<op><->|->|<=|==|[~&|(){}\[\],;<\#])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LexError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "ident":
            tokens.append(_Token("ident", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append(_Token(m.group(), m.group(), pos))
        pos = m.end()
    return tokens


# --- parser --------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self, ahead: int = 0) -> _Token | None:
        j = self.i + ahead
        return self.tokens[j] if j < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError(f"expected {kind!r}, got end of input",
                             len(self.text))
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, got {tok.text!r}", tok.pos)
        self.i += 1
        return tok

    def _at(self, kind: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == kind

    def parse(self) -> Formula:
        f = self._iff()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r} after formula", tok.pos)
        return f

    def _iff(self) -> Formula:
        left = self._imp()
        while self._at("<->"):
            self._next()
            left = Iff(left, self._imp())
        return left

    def _imp(self) -> Formula:
        left = self._or()
        if self._at("->"):
            self._next()
            return Imp(left, self._imp())
        return left

    def _or(self) -> Formula:
        left = self._and()
        while self._at("|"):
            self._next()
            left = Or(left, self._and())
        return left

    def _and(self) -> Formula:
        left = self._unary()
        while self._at("&"):
            self._next()
            left = And(left, self._unary())
        return left

    def _unary(self) -> Formula:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        if tok.kind == "~":
            self._next()
            return Not(self._unary())
        if tok.kind == "ident":
            nxt = self._peek(1)
            if tok.text in ("D", "C", "K") and nxt is not None \
                    and nxt.kind == "{":
                self._next()
                group = self._group()
                sub = self._unary()
                if tok.text == "D":
                    return DK(group, sub)
                if tok.text == "C":
                    return CK(group, sub)
                if len(group.agents) != 1:
                    raise ParseError(
                        f"K takes a single agent, got {group}", tok.pos)
                return IndK(group.agents[0], sub)
            if tok.text == "CD" and nxt is not None and nxt.kind == "[":
                self._next()
                self._expect("[")
                groups = [self._group()]
                while self._at(";"):
                    self._next()
                    groups.append(self._group())
                self._expect("]")
                return CDK(Supergroup(groups), self._unary())
        return self._primary()

    def _primary(self) -> Formula:
        tok = self._next()
        if tok.kind == "ident":
            return Atom(tok.text)
        if tok.kind == "(":
            f = self._iff()
            self._expect(")")
            return f
        if tok.kind == "[":
            left = self._group()
            op_tok = self._next()
            try:
                op = CmpOp(op_tok.kind)
            except ValueError:
                raise ParseError(
                    f"expected comparison operator, got {op_tok.text!r}",
                    op_tok.pos) from None
            right = self._group()
            self._expect("]")
            return Cmp(op, left, right)
        raise ParseError(f"unexpected {tok.text!r}", tok.pos)

    def _group(self) -> Group:
        open_tok = self._expect("{")
        if self._at("}"):
            raise EmptyGroupError(
                f"empty group at column {open_tok.pos + 1}")
        names = [self._expect("ident").text]
        while self._at(","):
            self._next()
            tok = self._expect("ident")
            if tok.text in names:
                raise ParseError(f"duplicate agent {tok.text!r} in group",
                                 tok.pos)
            names.append(tok.text)
        self._expect("}")
        return Group(names)


def parse(text: str) -> Formula:
    """Parse formula text; raises LexError/ParseError/EmptyGroupError."""
    return _Parser(text).parse()


# --- rendering -----------------------------------------------------------

# precedence levels; a node is parenthesized when its level is below the
# minimum its context demands
_L_IFF, _L_IMP, _L_OR, _L_AND, _L_UNARY, _L_PRIMARY = range(1, 7)


def _pieces(f: Formula) -> tuple[int, list]:
    """f's level and its text: strings, and (child, the level the child
    needs to go without parentheses) pairs."""
    if isinstance(f, Atom):
        return _L_PRIMARY, [f.name]
    if isinstance(f, Cmp):
        return _L_PRIMARY, [f"[{f.left} {f.op.value} {f.right}]"]
    if isinstance(f, Not):
        return _L_UNARY, ["~", (f.sub, _L_UNARY)]
    if isinstance(f, DK):
        return _L_UNARY, [f"D{f.group} ", (f.sub, _L_UNARY)]
    if isinstance(f, CK):
        return _L_UNARY, [f"C{f.group} ", (f.sub, _L_UNARY)]
    if isinstance(f, IndK):
        return _L_UNARY, ["K{" + f.agent + "} ", (f.sub, _L_UNARY)]
    if isinstance(f, CDK):
        return _L_UNARY, [f"CD[{f.groups}] ", (f.sub, _L_UNARY)]
    if isinstance(f, And):
        return _L_AND, [(f.left, _L_AND), " & ", (f.right, _L_AND + 1)]
    if isinstance(f, Or):
        return _L_OR, [(f.left, _L_OR), " | ", (f.right, _L_OR + 1)]
    if isinstance(f, Imp):
        # right associative: the right child may be another Imp bare
        return _L_IMP, [(f.left, _L_IMP + 1), " -> ", (f.right, _L_IMP)]
    if isinstance(f, Iff):
        return _L_IFF, [(f.left, _L_IFF), " <-> ", (f.right, _L_IFF + 1)]
    raise TypeError(f"not a formula node: {f!r}")


def render(f: Formula) -> str:
    """Render with minimal parentheses; parse(render(f)) == f.  The walk
    keeps its own stack, so a formula of any depth renders."""
    out: list[str] = []
    todo: list = [(f, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, min_level = item
        level, pieces = _pieces(node)
        if level < min_level:
            pieces = ["(", *pieces, ")"]
        todo.extend(reversed(pieces))
    return "".join(out)


# --- desugaring and traversal --------------------------------------------

def expand_sugar(f: Formula) -> Formula:
    """Rewrite to the core fragment: atoms, ~, &, D, C, CD, [<=].

    K{a} becomes D{a};  [A < B] becomes [A <= B] & ~[B <= A];
    [A == B] both directions;  [A # B] neither;  |, ->, <-> become ~/&.
    """
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(expand_sugar(f.sub))
    if isinstance(f, And):
        return And(expand_sugar(f.left), expand_sugar(f.right))
    if isinstance(f, Or):
        return Not(And(Not(expand_sugar(f.left)), Not(expand_sugar(f.right))))
    if isinstance(f, Imp):
        return Not(And(expand_sugar(f.left), Not(expand_sugar(f.right))))
    if isinstance(f, Iff):
        left, right = expand_sugar(f.left), expand_sugar(f.right)
        return And(Not(And(left, Not(right))), Not(And(right, Not(left))))
    if isinstance(f, DK):
        return DK(f.group, expand_sugar(f.sub))
    if isinstance(f, CK):
        return CK(f.group, expand_sugar(f.sub))
    if isinstance(f, CDK):
        return CDK(f.groups, expand_sugar(f.sub))
    if isinstance(f, IndK):
        return DK(Group([f.agent]), expand_sugar(f.sub))
    if isinstance(f, Cmp):
        leq = Cmp(CmpOp.LEQ, f.left, f.right)
        geq = Cmp(CmpOp.LEQ, f.right, f.left)
        if f.op is CmpOp.LEQ:
            return leq
        if f.op is CmpOp.LT:
            return And(leq, Not(geq))
        if f.op is CmpOp.EQV:
            return And(leq, geq)
        return And(Not(leq), Not(geq))
    raise TypeError(f"not a formula node: {f!r}")


def atom_names(f: Formula) -> frozenset[str]:
    return f._atoms


def agent_names(f: Formula) -> frozenset[str]:
    """Every agent mentioned in any modality or comparison."""
    return f._agents
