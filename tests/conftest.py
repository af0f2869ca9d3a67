"""Shared strategies, pair-set oracles and the plain model enumeration
for the property tests.

The oracles work on relations as sets of pairs and extensions as
frozensets of world indices, independently of the numpy evaluator in
`epicmp.semantics`, so tests that compare the two are real cross-checks.
`relation_pool` builds each frame class's relations from plain ints and
`Relation`'s property checks, in the documented order.
`enumerate_models` yields the search space one `KripkeModel` at a time,
in the order of the packed byte key `encode_model` builds, and drops
isomorphic models by a brute-force `canonicalize`; `lex_min_frames` lists
the frames no world relabeling (`relabel_rows`) makes smaller by brute
force over the plain pool product.  Neither reads `epicmp.search`'s pools,
so its pool order, index decoding, relabeling and frame walk are all
checked against them."""

from __future__ import annotations

import itertools
import struct
from functools import lru_cache
from typing import Iterator, Sequence

import hypothesis.strategies as st

from epicmp.kripke import FrameClass, KripkeModel, ModelError, Relation
from epicmp.search import SearchBounds
from epicmp.syntax import (And, Atom, CDK, CK, Cmp, CmpOp, DK, Group, Iff,
                           Imp, IndK, Not, Or, Supergroup)

AGENTS = ("a", "b", "c", "d")

_CLOSURES = (
    (),
    ("reflexive",),
    ("reflexive", "transitive"),
    ("reflexive", "symmetric"),
    ("reflexive", "symmetric", "transitive"),
)


@st.composite
def models(draw, max_worlds=4, max_agents=3, atoms=("p", "q"),
           closures=_CLOSURES, min_worlds=1):
    """Random models; closure choices skew toward the standard frames."""
    n = draw(st.integers(min_worlds, max_worlds))
    k = draw(st.integers(1, max_agents))
    worlds = tuple(f"w{i}" for i in range(n))
    agents = AGENTS[:k]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    closure = draw(st.sampled_from(closures))
    edges = {}
    for agent in agents:
        pairs = draw(st.sets(pair, max_size=n * n))
        edges[agent] = [(worlds[i], worlds[j]) for i, j in pairs]
    valuation = {atom: [w for i, w in enumerate(worlds)
                        if draw(st.booleans())]
                 for atom in atoms}
    return KripkeModel.from_edges(worlds, agents, edges, valuation,
                                  closure=closure)


def kt_models(**kw):
    return models(closures=(("reflexive",),
                            ("reflexive", "transitive"),
                            ("reflexive", "symmetric", "transitive")), **kw)


def s5_models(**kw):
    return models(closures=(("reflexive", "symmetric", "transitive"),), **kw)


def formulas_over(agents, atoms=("p", "q", "r"), max_leaves=10):
    """Random formulas restricted to the given agents and atom names."""
    agent = st.sampled_from(list(agents))
    groups = st.sets(agent, min_size=1,
                     max_size=min(3, len(agents))).map(Group)
    base = st.one_of(
        st.sampled_from(list(atoms)).map(Atom),
        st.builds(Cmp, st.sampled_from(list(CmpOp)), groups, groups))

    def compound(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Imp, children, children),
            st.builds(Iff, children, children),
            st.builds(DK, groups, children),
            st.builds(CK, groups, children),
            st.builds(IndK, agent, children),
            st.builds(CDK,
                      st.sets(groups, min_size=1, max_size=2)
                      .map(Supergroup),
                      children),
        )

    return st.recursive(base, compound, max_leaves=max_leaves)


@st.composite
def model_formula_pairs(draw, max_worlds=4, max_agents=3,
                        atoms=("p", "q"), extra_atoms=("r",), **kw):
    """A random model plus a formula speaking only about its agents; the
    formula may also use atoms the model does not declare."""
    m = draw(models(max_worlds=max_worlds, max_agents=max_agents,
                    atoms=atoms, **kw))
    f = draw(formulas_over(m.agents, atoms=tuple(atoms) + tuple(extra_atoms)))
    return m, f


# --- pair-set oracles (independent re-implementations) -------------------

def rel_pairs(rel: Relation) -> set[tuple[int, int]]:
    return {(i, j) for i in range(rel.size) for j in range(rel.size)
            if rel.rows[i] >> j & 1}


def oracle_reflexive_transitive_closure(pairs, n):
    out = set(pairs) | {(i, i) for i in range(n)}
    while True:
        extra = {(i, l) for i, j in out for jj, l in out if j == jj} - out
        if not extra:
            return out
        out |= extra


class _PairSetEvaluator:
    """Formula extensions over one model, from relations as pair sets."""

    def __init__(self, m: KripkeModel):
        self.m = m
        self.worlds = frozenset(range(m.n_worlds))
        self.memo = {}

    def pairs(self, agent):
        return rel_pairs(self.m.relation(agent))

    def joint(self, group):
        return set.intersection(*(self.pairs(a) for a in group.agents))

    def common(self, group):
        union = set.union(*(self.pairs(a) for a in group.agents))
        return oracle_reflexive_transitive_closure(union, self.m.n_worlds)

    def cdk(self, groups):
        union = set.union(*(self.joint(g) for g in groups.groups))
        return oracle_reflexive_transitive_closure(union, self.m.n_worlds)

    def box(self, pairs, ext):
        return frozenset(w for w in self.worlds
                         if all(v in ext for u, v in pairs if u == w))

    def leq(self, left, right):
        a, b = self.joint(left), self.joint(right)
        return frozenset(w for w in self.worlds
                         if {v for u, v in a if u == w}
                         <= {v for u, v in b if u == w})

    def ext(self, f):
        if f in self.memo:
            return self.memo[f]
        if isinstance(f, Atom):
            mask = self.m.atom_mask(f.name) or 0
            out = frozenset(w for w in self.worlds if mask >> w & 1)
        elif isinstance(f, Not):
            out = self.worlds - self.ext(f.sub)
        elif isinstance(f, And):
            out = self.ext(f.left) & self.ext(f.right)
        elif isinstance(f, Or):
            out = self.ext(f.left) | self.ext(f.right)
        elif isinstance(f, Imp):
            out = (self.worlds - self.ext(f.left)) | self.ext(f.right)
        elif isinstance(f, Iff):
            a, b = self.ext(f.left), self.ext(f.right)
            out = (a & b) | (self.worlds - (a | b))
        elif isinstance(f, IndK):
            out = self.box(self.pairs(f.agent), self.ext(f.sub))
        elif isinstance(f, DK):
            out = self.box(self.joint(f.group), self.ext(f.sub))
        elif isinstance(f, CK):
            out = self.box(self.common(f.group), self.ext(f.sub))
        elif isinstance(f, CDK):
            out = self.box(self.cdk(f.groups), self.ext(f.sub))
        elif isinstance(f, Cmp):
            leq = self.leq(f.left, f.right)
            geq = self.leq(f.right, f.left)
            out = {CmpOp.LEQ: leq, CmpOp.LT: leq - geq, CmpOp.EQV: leq & geq,
                   CmpOp.INCOMP: self.worlds - (leq | geq)}[f.op]
        else:
            raise TypeError(f"not a formula node: {f!r}")
        self.memo[f] = out
        return out


def oracle_extension(m: KripkeModel, f) -> set[str]:
    """Names of the worlds of m where f holds; undeclared atoms are false."""
    return {m.worlds[w] for w in _PairSetEvaluator(m).ext(f)}


# --- plain enumeration and canonical forms --------------------------------

_ENCODE_MAX_WORLDS = 8  # packed relation must fit one 64-bit field


def encode_model(m: KripkeModel, atom_pool: Sequence[str]) -> bytes:
    """Pack world count, relation masks (agent order), valuation masks
    (atom_pool order) into bytes; byte order sorts the way enumeration does.
    """
    n = m.n_worlds
    if n > _ENCODE_MAX_WORLDS:
        raise ModelError(f"encoding supports up to {_ENCODE_MAX_WORLDS} "
                         f"worlds, got {n}")
    rel_ints = [_rel_int(rel.rows, n) for rel in m.relations]
    val_ints = [m.atom_mask(a) or 0 for a in atom_pool]
    return struct.pack(">B" + "Q" * len(rel_ints) + "H" * len(val_ints),
                       n, *rel_ints, *val_ints)


def _rel_int(rows: Sequence[int], n: int) -> int:
    out = 0
    for i, row in enumerate(rows):
        out |= row << (i * n)
    return out


def canonicalize(m: KripkeModel, atom_pool: Sequence[str] | None = None) \
        -> bytes:
    """Isomorphism-invariant key: minimal encoding over world relabelings.

    Two models give equal keys iff some world bijection carries relations
    and valuations (over atom_pool, default the model's atoms) across.
    Agent and atom names are matched positionally, not renamed.
    """
    if atom_pool is None:
        atom_pool = m.atoms
    n = m.n_worlds
    if n > _ENCODE_MAX_WORLDS:  # n! blowup guard; 8! = 40320 is the ceiling
        raise ModelError(f"canonicalize supports up to {_ENCODE_MAX_WORLDS} "
                         f"worlds, got {n}")
    masks = [m.atom_mask(a) or 0 for a in atom_pool]
    best: bytes | None = None
    for perm in itertools.permutations(range(n)):
        # perm[new] = old; new-index i relates to j iff old perm[i] -> perm[j]
        rel_ints = []
        for rel in m.relations:
            out = 0
            for i in range(n):
                old_row = rel.rows[perm[i]]
                row = 0
                for j in range(n):
                    if old_row >> perm[j] & 1:
                        row |= 1 << j
                out |= row << (i * n)
            rel_ints.append(out)
        val_ints = []
        for mask in masks:
            out = 0
            for i in range(n):
                if mask >> perm[i] & 1:
                    out |= 1 << i
            val_ints.append(out)
        enc = struct.pack(">B" + "Q" * len(rel_ints) + "H" * len(val_ints),
                          n, *rel_ints, *val_ints)
        if best is None or enc < best:
            best = enc
    assert best is not None
    return best


def enumerate_models(bounds: SearchBounds) -> Iterator[KripkeModel]:
    """Yield every model within bounds in the search order, one
    `KripkeModel` at a time.  With mod_iso, only the first member of each
    isomorphism class is yielded, found by `canonicalize`."""
    agents = bounds.agents
    k = len(bounds.atoms)
    for n in range(1, bounds.max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(n))
        pool = relation_pool(bounds.frame, n)
        seen: set[bytes] | None = set() if bounds.mod_iso else None
        for combo in itertools.product(pool, repeat=len(agents)):
            relations = tuple(Relation(rows) for rows in combo)
            for masks in itertools.product(range(1 << n), repeat=k):
                m = KripkeModel(worlds=worlds, agents=agents,
                                relations=relations, atoms=bounds.atoms,
                                valuation=tuple(masks))
                if seen is not None:
                    key = canonicalize(m, bounds.atoms)
                    if key in seen:
                        continue
                    seen.add(key)
                yield m


@lru_cache(maxsize=None)
def relation_pool(frame: FrameClass, n: int) -> tuple[tuple[int, ...], ...]:
    """Every relation of the frame class over n worlds, as a tuple of row
    masks, ascending by the row masks packed row 0 lowest (row i at bits
    i*n and up).  Candidates are plain ints, every relation for KT and S4
    and every symmetric one for S5; `Relation`'s own checks filter them."""
    if frame is FrameClass.S5:
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        pairs = list(itertools.product(range(n), repeat=2))
    pool = []
    for chosen in range(1 << len(pairs)):
        rows = [0] * n
        for t, (i, j) in enumerate(pairs):
            if chosen >> t & 1:
                rows[i] |= 1 << j
                if frame is FrameClass.S5:
                    rows[j] |= 1 << i
        rel = Relation(tuple(rows))
        if rel.is_reflexive() \
                and (frame is FrameClass.KT or rel.is_transitive()) \
                and (frame is not FrameClass.S5 or rel.is_symmetric()):
            pool.append(rel.rows)
    pool.sort(key=lambda rows: sum(row << (i * n)
                                   for i, row in enumerate(rows)))
    return tuple(pool)


def relabel_rows(rows: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """A relation's row masks with every world i renamed perm[i]: row i
    becomes row perm[i], and bit j bit perm[j]."""
    new = [0] * len(rows)
    for i, row in enumerate(rows):
        new[perm[i]] = sum(1 << perm[j] for j in range(len(rows))
                           if row >> j & 1)
    return tuple(new)


def lex_min_frames(frame, n: int, n_agents: int) -> list[tuple[int, ...]]:
    """Every n-world frame, as a tuple of pool indices (one per agent),
    that no world relabeling maps to a lexicographically smaller tuple,
    ascending."""
    pool = relation_pool(frame, n)
    index = {rows: i for i, rows in enumerate(pool)}
    images = [[index[relabel_rows(rows, perm)] for rows in pool]
              for perm in itertools.permutations(range(n))]
    return [combo for combo in itertools.product(range(len(pool)),
                                                 repeat=n_agents)
            if all(tuple(image[i] for i in combo) >= combo
                   for image in images)]
