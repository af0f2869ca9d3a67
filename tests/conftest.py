"""Shared strategies and pair-set oracles for the property tests.

The oracles work on relations as sets of pairs and extensions as
frozensets of world indices, independently of the numpy evaluator in
`epicmp.semantics`, so tests that compare the two are real cross-checks."""

import hypothesis.strategies as st

from epicmp.kripke import KripkeModel, Relation
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
