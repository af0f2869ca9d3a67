"""Formula language: AST, parser, renderer, desugaring.

Connectives, loosest to tightest binding:

    iff     :=  imp ('<->' imp)*          left associative
    imp     :=  or ('->' imp)?            right associative
    or      :=  and ('|' and)*
    and     :=  unary ('&' unary)*
    unary   :=  '~' unary | modal unary | primary
    modal   :=  'D' group | 'C' group | 'K' group
             |  'CD' '[' group (';' group)* ']'
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
constant time.  `post_order` is the one walk over formulas: it lists
each distinct subformula of a batch once, children first, from an
explicit stack.  `fold` runs a step over one formula's walk, and
`expand_sugar`, schema instantiation and one model's evaluation are
folds, and the search runs a batch's walk (`search.schedule`).  The
parser and `render` keep explicit stacks too, and `atom_names` and
`agent_names` read what each node caches, so no formula operation
recurses on depth.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref  # what WeakValueDictionary uses
from dataclasses import dataclass
from enum import Enum
from functools import partial, total_ordering
from typing import Callable, Iterable

MAX_GROUP_AGENTS = 8

__all__ = [
    "Formula", "Atom", "Not", "And", "Or", "Imp", "Iff",
    "DK", "CK", "CDK", "IndK", "Cmp", "CmpOp", "Group", "Supergroup",
    "FormulaError", "LexError", "ParseError", "EmptyGroupError",
    "parse", "render", "post_order", "fold", "expand_sugar", "atom_names",
    "agent_names", "singletons",
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

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__

    def __reduce__(self):
        # pickle rebuilds through the constructor, which returns the
        # interned node
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


def singletons(group: Group) -> Supergroup:
    """C{G} as CD over G's members, each a group of one, pooling nothing."""
    return Supergroup(Group([a]) for a in group.agents)


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

    __slots__ = ("children", "_atoms", "_agents", "_order")
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
        object.__setattr__(self, "_order", None)  # see fold

    def rebuild(self, *children: Formula) -> Formula:
        """This node with new children, in order; the node itself when
        they are its own.  A node's children are its last fields."""
        if children == self.children:
            return self
        kept = self._fields[:len(self._fields) - len(children)]
        return _intern(type(self), *[getattr(self, n) for n in kept],
                       *children)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"parse({render(self)!r})"


class Atom(Formula):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str) -> Atom:
        return _intern(cls, name)

    def _derive(self, fields: tuple) -> None:
        object.__setattr__(self, "children", ())
        object.__setattr__(self, "_atoms", frozenset(fields))
        object.__setattr__(self, "_agents", frozenset())
        object.__setattr__(self, "_order", ())


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

# The binary connectives, loosest first: (level, class, text).  `->` is
# right associative and the others left associative.  Prefix operators
# bind at _L_UNARY, atoms and comparisons at _L_PRIMARY.
_BINARY = ((1, Iff, "<->"), (2, Imp, "->"), (3, Or, "|"), (4, And, "&"))
_L_UNARY, _L_PRIMARY = 5, 6
_INFIX = {text: (level, cls) for level, cls, text in _BINARY}
_INFIX_OF = {cls: (level, text) for level, cls, text in _BINARY}


def _indk(tok: _Token, group: Group, sub: Formula) -> IndK:
    if len(group.agents) != 1:
        raise ParseError(f"K takes a single agent, got {group}", tok.pos)
    return IndK(group.agents[0], sub)


def _reduce(args: list[Formula], ops: list, level: int) -> None:
    """Apply the pending operators of at least this level."""
    while ops and ops[-1][0] >= level:
        op_level, build = ops.pop()
        if op_level == _L_UNARY:
            args[-1] = build(args[-1])
        else:
            right = args.pop()
            args[-1] = build(args[-1], right)


class _Parser:
    def __init__(self, text: str):
        # a last token of kind "end" marks the end of the input
        self.tokens = [*_tokenize(text), _Token("end", "", len(text))]
        self.i = 0

    def _next(self, kind: str | None = None) -> _Token:
        """The next token, which must be of this kind if one is given."""
        tok = self.tokens[self.i]
        if (tok.kind == "end") if kind is None else (tok.kind != kind):
            got = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ParseError(f"unexpected {got}" if kind is None else
                             f"expected {kind!r}, got {got}", tok.pos)
        self.i += 1
        return tok

    def _at(self, kind: str) -> bool:
        return self.tokens[self.i].kind == kind

    def parse(self) -> Formula:
        """Operator precedence over two explicit stacks: `args` holds the
        finished operands, `ops` the operators still waiting for theirs
        as (level, build)."""
        args: list[Formula] = []
        ops: list[tuple[int, Callable | None]] = []
        while True:
            tok = self._next()
            op = self._opener(tok)
            if op is not None:
                ops.append(op)
                continue
            args.append(self._leaf(tok))
            # the operand is finished: apply its prefixes, and close the
            # parentheses it finishes; once the binary operators are
            # applied, an open parenthesis is all that can be left
            _reduce(args, ops, _L_UNARY)
            while self._at(")"):
                _reduce(args, ops, 1)
                if not ops:
                    break
                self.i += 1
                ops.pop()
                _reduce(args, ops, _L_UNARY)
            tok = self.tokens[self.i]
            if tok.kind not in _INFIX:
                _reduce(args, ops, 1)
                if ops:
                    self._next(")")
                if tok.kind != "end":
                    raise ParseError(f"unexpected {tok.text!r} after formula",
                                     tok.pos)
                return args[0]
            self.i += 1
            level, cls = _INFIX[tok.kind]
            _reduce(args, ops, level + (cls is Imp))
            ops.append((level, cls))

    def _opener(self, tok: _Token) -> tuple[int, Callable | None] | None:
        """The operator tok opens, with its groups read, or None: an open
        parenthesis as (0, None), a prefix operator as (_L_UNARY, build)."""
        if tok.kind == "(":
            return 0, None
        if tok.kind == "~":
            return _L_UNARY, Not
        if tok.kind != "ident":
            return None
        nxt = self.tokens[self.i]
        if tok.text in ("D", "C", "K") and nxt.kind == "{":
            build = {"D": DK, "C": CK, "K": partial(_indk, tok)}[tok.text]
            return _L_UNARY, partial(build, self._group())
        if tok.text == "CD" and nxt.kind == "[":
            self.i += 1
            groups = [self._group()]
            while self._at(";"):
                self.i += 1
                groups.append(self._group())
            self._next("]")
            return _L_UNARY, partial(CDK, Supergroup(groups))
        return None

    def _leaf(self, tok: _Token) -> Formula:
        if tok.kind == "ident":
            return Atom(tok.text)
        if tok.kind != "[":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        left = self._group()
        op_tok = self._next()
        try:
            op = CmpOp(op_tok.kind)
        except ValueError:
            raise ParseError(
                f"expected comparison operator, got {op_tok.text!r}",
                op_tok.pos) from None
        right = self._group()
        self._next("]")
        return Cmp(op, left, right)

    def _group(self) -> Group:
        open_tok = self._next("{")
        if self._at("}"):
            raise EmptyGroupError(
                f"empty group at column {open_tok.pos + 1}")
        names = [self._next("ident").text]
        while self._at(","):
            self.i += 1
            tok = self._next("ident")
            if tok.text in names:
                raise ParseError(f"duplicate agent {tok.text!r} in group",
                                 tok.pos)
            names.append(tok.text)
        self._next("}")
        return Group(names)


def parse(text: str) -> Formula:
    """Parse formula text; raises LexError/ParseError/EmptyGroupError."""
    return _Parser(text).parse()


# --- rendering -----------------------------------------------------------

# the text of each node without children, and of each prefix operator
_TEXT = {
    Atom: lambda f: f.name,
    Cmp: lambda f: f"[{f.left} {f.op.value} {f.right}]",
    Not: lambda f: "~",
    DK: lambda f: f"D{f.group} ",
    CK: lambda f: f"C{f.group} ",
    IndK: lambda f: "K{" + f.agent + "} ",
    CDK: lambda f: f"CD[{f.groups}] ",
}


def _pieces(f: Formula) -> tuple[int, list]:
    """f's level and its text: strings, and (child, the level the child
    needs to go without parentheses) pairs."""
    cls = type(f)
    if cls in _INFIX_OF:
        level, text = _INFIX_OF[cls]
        # the operand on the associative side may sit bare at f's level
        left, right = (level + 1, level) if cls is Imp else (level, level + 1)
        return level, [(f.left, left), f" {text} ", (f.right, right)]
    if cls not in _TEXT:
        raise TypeError(f"not a formula node: {f!r}")
    level = _L_UNARY if f.children else _L_PRIMARY
    return level, [_TEXT[cls](f), *[(sub, level) for sub in f.children]]


def render(f: Formula) -> str:
    """Render with minimal parentheses; parse(render(f)) is f.  The walk
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


# --- the walk -------------------------------------------------------------

def post_order(formulas: Iterable[Formula]) -> list[Formula]:
    """The distinct subformulas of the formulas, each formula included,
    each once and after its children: the formulas' union DAG in
    post-order, left to right, found with an explicit stack, so formulas
    of any depth are walked."""
    seen: set[Formula] = set()
    order: list[Formula] = []
    for root in formulas:
        if root in seen:
            continue
        seen.add(root)
        # each node on the stack with its children not yet entered; a
        # node is entered once, and left after its last child
        stack = [(root, iter(root.children))]
        while stack:
            g, kids = stack[-1]
            for c in kids:
                if c not in seen:
                    seen.add(c)
                    if c.children:
                        stack.append((c, iter(c.children)))
                        break
                    order.append(c)
            else:
                stack.pop()
                order.append(g)
    return order


def fold(f: Formula, step: Callable):
    """step(f, *results), where each child's result is its own fold.
    Each distinct subformula is folded once, children first
    (`post_order`), so a formula of any depth folds.  The order is cached
    on f without f, so f holds no reference cycle."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula node: {f!r}")
    if f._order is None:
        object.__setattr__(f, "_order", tuple(post_order(f.children)))
    done: dict[Formula, object] = {}
    result = done.__getitem__
    for g in f._order:
        done[g] = step(g, *map(result, g.children))
    return step(f, *map(result, f.children))


def _core_cmp(f: Cmp) -> Formula:
    leq = Cmp(CmpOp.LEQ, f.left, f.right)
    if f.op is CmpOp.LEQ:
        return leq
    geq = Cmp(CmpOp.LEQ, f.right, f.left)
    if f.op is CmpOp.LT:
        return And(leq, Not(geq))
    if f.op is CmpOp.EQV:
        return And(leq, geq)
    return And(Not(leq), Not(geq))


# each sugared node in the core fragment, from its children's; the other
# nodes rebuild from theirs
_CORE = {
    Or: lambda f, left, right: Not(And(Not(left), Not(right))),
    Imp: lambda f, left, right: Not(And(left, Not(right))),
    Iff: lambda f, left, right: And(Not(And(left, Not(right))),
                                    Not(And(right, Not(left)))),
    IndK: lambda f, sub: DK(Group([f.agent]), sub),
    Cmp: _core_cmp,
}


def expand_sugar(f: Formula) -> Formula:
    """Rewrite to the core fragment: atoms, ~, &, D, C, CD, [<=].

    K{a} becomes D{a};  [A < B] becomes [A <= B] & ~[B <= A];
    [A == B] both directions;  [A # B] neither;  |, ->, <-> become ~/&.
    """
    return fold(f, lambda g, *subs:
                _CORE.get(type(g), Formula.rebuild)(g, *subs))


def atom_names(f: Formula) -> frozenset[str]:
    return f._atoms


def agent_names(f: Formula) -> frozenset[str]:
    """Every agent mentioned in any modality or comparison."""
    return f._agents
