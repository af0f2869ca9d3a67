"""Independent oracle for the benchmark's correctness checks.

Nothing here imports epicmp.  Formulas are nested tuples, models are pair
sets, and every count is derived from first principles:

- ``extension`` evaluates every operator over pair-set relations;
- ``closed_form_count`` gives the size of a full enumeration, e.g.
  sum_n (2^(n^2-n))^agents * 2^(n*atoms) on reflexive frames;
- ``burnside_count`` gives the number of isomorphism classes by Burnside's
  lemma over the world permutations;
- ``first_countermodel`` replays the documented enumeration order (world
  count, then per-agent relation in encoding order, then valuation) to find
  the first falsifying model and its lowest falsifying world.

Formula tuples::

    ("atom", name)              ("not", f)
    ("and" | "or" | "imp" | "iff", f, g)
    ("K", agent, f)             ("D", agents, f)      ("C", agents, f)
    ("CD", (agents, ...), f)    ("cmp", op, agents, agents)  op in <= < == #

``agents`` is a sorted tuple of agent names.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

AGENT_POOL = ("a", "b", "c", "d")
CMP_OPS = ("<=", "<", "==", "#")
BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


@dataclass
class Model:
    worlds: tuple[str, ...]
    agents: tuple[str, ...]
    rels: dict[str, frozenset[tuple[int, int]]]
    atoms: tuple[str, ...]
    val: dict[str, frozenset[int]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.worlds)


# --- rendering and conversion ---------------------------------------------

def _group(agents) -> str:
    return "{" + ",".join(agents) + "}"


def render(f) -> str:
    """Fully parenthesised text in the epicmp formula syntax."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "~" + render(f[1])
    if kind in BINARY:
        return f"({render(f[1])} {BINARY[kind]} {render(f[2])})"
    if kind == "K":
        return f"K{{{f[1]}}} " + render(f[2])
    if kind in ("D", "C"):
        return f"{kind}{_group(f[1])} " + render(f[2])
    if kind == "CD":
        groups = ";".join(_group(g) for g in f[1])
        return f"CD[{groups}] " + render(f[2])
    if kind == "cmp":
        return f"[{_group(f[2])} {f[1]} {_group(f[3])}]"
    raise ValueError(f"not a formula: {f!r}")


def from_program(f):
    """Convert an epicmp formula object by its public field names."""
    kind = type(f).__name__
    if kind == "Atom":
        return ("atom", f.name)
    if kind == "Not":
        return ("not", from_program(f.sub))
    if kind in ("And", "Or", "Imp", "Iff"):
        return (kind.lower(), from_program(f.left), from_program(f.right))
    if kind == "IndK":
        return ("K", f.agent, from_program(f.sub))
    if kind == "DK":
        return ("D", tuple(sorted(f.group.agents)), from_program(f.sub))
    if kind == "CK":
        return ("C", tuple(sorted(f.group.agents)), from_program(f.sub))
    if kind == "CDK":
        return ("CD", tuple(tuple(sorted(g.agents)) for g in f.groups.groups),
                from_program(f.sub))
    if kind == "Cmp":
        return ("cmp", f.op.value, tuple(sorted(f.left.agents)),
                tuple(sorted(f.right.agents)))
    raise ValueError(f"unknown formula node {kind}")


def model_from_program(m) -> Model:
    """Convert an epicmp KripkeModel through its public fields."""
    n = len(m.worlds)
    rels = {agent: frozenset((i, j) for i in range(n) for j in range(n)
                             if rel.rows[i] >> j & 1)
            for agent, rel in zip(m.agents, m.relations)}
    val = {atom: frozenset(i for i in range(n) if mask >> i & 1)
           for atom, mask in zip(m.atoms, m.valuation)}
    return Model(tuple(m.worlds), tuple(m.agents), rels, tuple(m.atoms), val)


def render_model(m: Model, closure: tuple[str, ...] = ()) -> str:
    """Model text in the .km format, optionally with a closure line."""
    lines = [f"agents: {' '.join(m.agents)}", f"worlds: {' '.join(m.worlds)}",
             f"atoms: {' '.join(m.atoms)}".rstrip()]
    if closure:
        lines.append("closure: " + " ".join(closure))
    for agent in m.agents:
        pairs = " ".join(f"({m.worlds[i]},{m.worlds[j]})"
                         for i, j in sorted(m.rels[agent]))
        lines.append(f"rel {agent}: {pairs}".rstrip())
    for atom in m.atoms:
        if m.val.get(atom):
            names = " ".join(m.worlds[i] for i in sorted(m.val[atom]))
            lines.append(f"val {atom}: {names}")
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> Model:
    """Read the subset of the .km format the fixtures use (no closure)."""
    fields: dict[str, list[str]] = {}
    rels: dict[str, list[str]] = {}
    vals: dict[str, list[str]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, body = line.partition(":")
        words = head.split()
        if words[0] == "rel":
            rels[words[1]] = body.replace("(", " ").replace(")", " ").split()
        elif words[0] == "val":
            vals[words[1]] = body.split()
        else:
            fields[words[0]] = body.split()
    worlds = tuple(fields["worlds"])
    index = {w: i for i, w in enumerate(worlds)}
    out = {}
    for agent in fields["agents"]:
        pairs = [p.split(",") for p in rels.get(agent, [])]
        out[agent] = frozenset((index[s], index[t]) for s, t in pairs)
    val = {a: frozenset(index[w] for w in vals.get(a, []))
           for a in fields["atoms"]}
    return Model(worlds, tuple(fields["agents"]), out,
                 tuple(fields["atoms"]), val)


# --- relations ------------------------------------------------------------

def close(pairs, n: int, props) -> frozenset[tuple[int, int]]:
    """Least relation containing pairs and closed under props."""
    out = set(pairs)
    while True:
        before = len(out)
        if "reflexive" in props:
            out |= {(i, i) for i in range(n)}
        if "symmetric" in props:
            out |= {(j, i) for i, j in out}
        if "transitive" in props:
            succ = _succ(out, n)
            for i in range(n):
                seen: set[int] = set()
                todo = list(succ[i])
                while todo:
                    v = todo.pop()
                    if v not in seen:
                        seen.add(v)
                        todo.extend(succ[v])
                out |= {(i, v) for v in seen}
        if len(out) == before:
            return frozenset(out)


def _succ(pairs, n: int) -> list[frozenset[int]]:
    rows: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        rows[i].add(j)
    return [frozenset(r) for r in rows]


def _reach(pairs, n: int) -> list[frozenset[int]]:
    """Reflexive-transitive reachability by breadth-first search."""
    succ = _succ(pairs, n)
    out = []
    for start in range(n):
        seen = {start}
        todo = [start]
        while todo:
            w = todo.pop()
            for v in succ[w]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        out.append(frozenset(seen))
    return out


def flags(pairs, n: int) -> dict[str, bool]:
    """The four frame properties `classify` reports."""
    p = set(pairs)
    return {
        "reflexive": all((i, i) in p for i in range(n)),
        "transitive": all((i, k) in p for i, j in p for jj, k in p
                          if j == jj),
        "symmetric": all((j, i) in p for i, j in p),
        "euclidean": all((j, k) in p for i, j in p for ii, k in p
                         if i == ii),
    }


def classify_text(m: Model) -> str:
    """Expected stdout of `epicmp classify` on m."""
    lines = []
    all_flags = []
    for agent in m.agents:
        fl = flags(m.rels[agent], m.n)
        all_flags.append(fl)
        names = [k for k in ("reflexive", "transitive", "symmetric",
                             "euclidean") if fl[k]]
        lines.append(f"agent {agent}: " + (" ".join(names) or "-"))
    if all(f["reflexive"] and f["transitive"] and f["symmetric"]
           for f in all_flags):
        overall = "S5"
    elif all(f["reflexive"] and f["transitive"] for f in all_flags):
        overall = "S4"
    elif all(f["reflexive"] for f in all_flags):
        overall = "KT"
    else:
        overall = "NONE"
    lines.append(f"overall: {overall}")
    return "\n".join(lines) + "\n"


# --- evaluation -----------------------------------------------------------

class _Eval:
    def __init__(self, m: Model):
        self.m = m
        self.worlds = frozenset(range(m.n))
        self.memo: dict = {}
        self.rows: dict = {}

    def joint(self, agents) -> list[frozenset[int]]:
        key = ("D", agents)
        if key not in self.rows:
            pairs = self.m.rels[agents[0]]
            for a in agents[1:]:
                pairs = pairs & self.m.rels[a]
            self.rows[key] = _succ(pairs, self.m.n)
        return self.rows[key]

    def common(self, agents) -> list[frozenset[int]]:
        key = ("C", agents)
        if key not in self.rows:
            pairs = frozenset().union(*(self.m.rels[a] for a in agents))
            self.rows[key] = _reach(pairs, self.m.n)
        return self.rows[key]

    def cdk(self, groups) -> list[frozenset[int]]:
        key = ("CD", groups)
        if key not in self.rows:
            pairs = set()
            for g in groups:
                rows = self.joint(g)
                pairs |= {(i, j) for i in range(self.m.n) for j in rows[i]}
            self.rows[key] = _reach(pairs, self.m.n)
        return self.rows[key]

    def box(self, rows, ext: frozenset[int]) -> frozenset[int]:
        return frozenset(w for w in range(self.m.n) if rows[w] <= ext)

    def leq(self, left, right) -> frozenset[int]:
        a, b = self.joint(left), self.joint(right)
        return frozenset(w for w in range(self.m.n) if a[w] <= b[w])

    def ext(self, f) -> frozenset[int]:
        if f in self.memo:
            return self.memo[f]
        kind = f[0]
        if kind == "atom":
            out = self.m.val.get(f[1], frozenset())
        elif kind == "not":
            out = self.worlds - self.ext(f[1])
        elif kind == "and":
            out = self.ext(f[1]) & self.ext(f[2])
        elif kind == "or":
            out = self.ext(f[1]) | self.ext(f[2])
        elif kind == "imp":
            out = (self.worlds - self.ext(f[1])) | self.ext(f[2])
        elif kind == "iff":
            a, b = self.ext(f[1]), self.ext(f[2])
            out = (a & b) | (self.worlds - (a | b))
        elif kind == "K":
            out = self.box(self.joint((f[1],)), self.ext(f[2]))
        elif kind == "D":
            out = self.box(self.joint(f[1]), self.ext(f[2]))
        elif kind == "C":
            out = self.box(self.common(f[1]), self.ext(f[2]))
        elif kind == "CD":
            out = self.box(self.cdk(f[1]), self.ext(f[2]))
        elif kind == "cmp":
            op, left, right = f[1], f[2], f[3]
            leq = self.leq(left, right)
            geq = self.leq(right, left)
            out = {"<=": leq, "<": leq - geq, "==": leq & geq,
                   "#": self.worlds - (leq | geq)}[op]
        else:
            raise ValueError(f"not a formula: {f!r}")
        self.memo[f] = out
        return out


def extension(m: Model, f) -> frozenset[int]:
    """Indices of the worlds of m where f holds."""
    return _Eval(m).ext(f)


def world_names(m: Model, ext) -> list[str]:
    return [m.worlds[i] for i in sorted(ext)]


# --- frame pools and counts -----------------------------------------------

def _key(pairs, n: int) -> int:
    """Packed encoding: bit i*n+j set iff (i, j) in the relation."""
    return sum(1 << (i * n + j) for i, j in pairs)


@lru_cache(maxsize=None)
def pool(frame: str, n: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """Every relation of the frame class over n worlds, in encoding order."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    diag = {(i, i) for i in range(n)}
    out = []
    for bits in range(1 << len(off)):
        rel = frozenset(diag | {off[k] for k in range(len(off))
                                if bits >> k & 1})
        fl = flags(rel, n) if frame != "KT" else None
        if frame == "S4" and not fl["transitive"]:
            continue
        if frame == "S5" and not (fl["transitive"] and fl["symmetric"]):
            continue
        out.append(rel)
    out.sort(key=lambda rel: _key(rel, n))
    return tuple(out)


def pool_size(frame: str, n: int) -> int:
    if frame == "KT":
        return 2 ** (n * n - n)
    if frame == "S5":          # one equivalence per set partition
        return _bell(n)
    return len(pool(frame, n))


@lru_cache(maxsize=None)
def _bell(n: int) -> int:
    if n == 0:
        return 1
    return sum(math.comb(n - 1, k) * _bell(k) for k in range(n))


def closed_form_count(frame: str, agents: int, max_worlds: int,
                      atoms: int) -> int:
    """Models in the full enumeration, e.g. on KT
    sum_n (2^(n^2-n))^agents * 2^(n*atoms)."""
    return sum(pool_size(frame, n) ** agents * 2 ** (n * atoms)
               for n in range(1, max_worlds + 1))


def _cycles(perm) -> int:
    seen, count = set(), 0
    for i in range(len(perm)):
        if i not in seen:
            count += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return count


def burnside_count(frame: str, agents: int, max_worlds: int,
                   atoms: int) -> int:
    """Isomorphism classes of models up to the world bound: for each n,
    the mean over permutations of (fixed relations)^agents *
    2^(cycles*atoms)."""
    total = 0
    for n in range(1, max_worlds + 1):
        rels = pool(frame, n)
        fixed_sum = 0
        for perm in itertools.permutations(range(n)):
            fixed = sum(1 for rel in rels
                        if frozenset((perm[i], perm[j]) for i, j in rel)
                        == rel)
            fixed_sum += fixed ** agents * 2 ** (_cycles(perm) * atoms)
        classes, rem = divmod(fixed_sum, math.factorial(n))
        if rem:
            raise ArithmeticError("Burnside sum not divisible by n!")
        total += classes
    return total


class SearchLimit(Exception):
    """first_countermodel gave up after its model budget."""


def first_countermodel(f, frame: str, agents: int, max_worlds: int,
                       atoms: tuple[str, ...], limit: int = 200_000):
    """(model, witness index, models visited) of the first falsifying model
    in enumeration order, or (None, None, visited) if none exists."""
    names = AGENT_POOL[:agents]
    visited = 0
    for n in range(1, max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(n))
        for rels in itertools.product(pool(frame, n), repeat=agents):
            for masks in itertools.product(range(1 << n), repeat=len(atoms)):
                visited += 1
                if visited > limit:
                    raise SearchLimit(f"more than {limit} models")
                val = {a: frozenset(i for i in range(n) if mask >> i & 1)
                       for a, mask in zip(atoms, masks)}
                m = Model(worlds, names, dict(zip(names, rels)), atoms, val)
                ext = extension(m, f)
                if len(ext) != n:
                    witness = min(set(range(n)) - ext)
                    return m, witness, visited
    return None, None, visited


def same_model(a: Model, b: Model) -> bool:
    return (a.worlds == b.worlds and a.agents == b.agents
            and a.atoms == b.atoms
            and all(a.rels[x] == b.rels[x] for x in a.agents)
            and all(a.val.get(x, frozenset()) == b.val.get(x, frozenset())
                    for x in a.atoms))


# --- the three shipped fixtures, as the oracle reads them -----------------

FIXTURE_TEXT = {
    "fig1": """agents: a b c
worlds: HH TH HT TT
atoms: H1 T1 H2 T2
rel a: (HH,HH) (HH,HT) (TH,TH) (TH,TT) (HT,HH) (HT,HT) (TT,TH) (TT,TT)
rel b: (HH,HH) (HH,TH) (TH,HH) (TH,TH) (HT,HT) (HT,TT) (TT,HT) (TT,TT)
rel c: (HH,HH) (HH,TT) (TH,TH) (TH,HT) (HT,TH) (HT,HT) (TT,HH) (TT,TT)
val H1: HH HT
val T1: TH TT
val H2: HH TH
val T2: HT TT
""",
    "fig2": """agents: a b
worlds: s t u v
atoms: H1 T1 H2 T2
rel a: (s,s) (s,t) (s,u) (s,v) (t,t) (u,u) (v,v)
rel b: (s,s) (s,u) (s,v) (t,t) (u,u) (u,v) (v,v)
val H1: s v
val T1: t u
val H2: s u
val T2: t v
""",
    "fig3": """agents: a b c
worlds: s t u
atoms: H1 T1 H2 T2
rel a: (s,s) (s,t) (t,s) (t,t) (u,u)
rel b: (s,s) (t,t) (t,u) (u,t) (u,u)
rel c: (s,s) (s,u) (t,t) (u,s) (u,u)
val H1: s t
val T1: u
val H2: t u
val T2: s
""",
}


def fixtures() -> dict[str, Model]:
    return {name: parse_model(text) for name, text in FIXTURE_TEXT.items()}
