"""Evaluator tests: frozen model facts, agreement with the pair-set oracle
(also on 9-16-world models), desugaring soundness, operator oracles, and
semantic properties that hold on every model, among them that isolated
worlds leave every extension on the other worlds as it was.

One model is evaluated on world bitmasks (`epicmp.semantics`), and blocks
of frames by the search's numpy `Block`; both are checked against the
pair-set oracle in conftest, and against each other on seeded random
models of up to 16 worlds and 8 agents."""

import itertools
import random

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

import epicmp.search as search
from conftest import enumerate_models, kt_models, model_formula_pairs, \
    models, oracle_extension, rel_pairs, s5_models
from epicmp.corpus import fixtures
from epicmp.kripke import (MAX_AGENTS, MAX_WORLDS, FrameClass, KripkeModel,
                           Relation, UnknownWorldError, classify_frame,
                           load_model)
from epicmp.search import SearchBounds
from epicmp.semantics import (UnknownAtomError, extension, satisfies,
                              valid_in_model)
from epicmp.syntax import (And, Atom, CDK, CK, Cmp, CmpOp, DK, Group, Iff,
                           Imp, IndK, Not, Or, Supergroup, atom_names,
                           expand_sugar, parse, post_order, singletons)


@pytest.fixture(scope="module")
def figs():
    return fixtures()


# --- frozen single-world facts -------------------------------------------

def test_fig3_comparison_facts(figs):
    fig3 = figs["fig3"]
    assert satisfies(fig3, "s", parse("[{b} < {a}]"))
    assert satisfies(fig3, "t", parse("[{a} # {b}]"))
    assert satisfies(fig3, "u", parse("[{a} < {b}]"))
    assert satisfies(fig3, "u", parse("[{a} < {c}]"))
    assert satisfies(fig3, "t", parse("[{a,c} == {b,c}]"))


def test_fig1_joint_knowledge(figs):
    assert satisfies(figs["fig1"], "HH", parse("D{a,b} (H1 & H2)"))


def test_fig2_unknown_ignorance(figs):
    assert satisfies(figs["fig2"], "s", parse("~K{a} ~K{a} (T1 & T2)"))
    assert satisfies(figs["fig2"], "s", parse("D{a,b} ~(T1 & T2)"))
    assert satisfies(figs["fig2"], "s", parse("[{b} < {a}]"))
    assert satisfies(figs["fig2"], "u", parse("[{a} < {b}]"))


def test_model_level_validity(figs):
    assert valid_in_model(figs["fig1"], parse("[{a,b} < {c}]"))
    assert valid_in_model(figs["fig1"], parse("C{a,b,c} [{a,b} < {c}]"))
    assert valid_in_model(figs["fig2"],
                          parse("C{a,b} (K{b} (T1 & T2) | "
                                "K{b} ~(T1 & T2))"))
    assert valid_in_model(figs["fig3"], parse("[{a,b} == {c,b}]"))
    assert valid_in_model(figs["fig3"], parse("p -> p"))
    assert not valid_in_model(figs["fig3"], parse("[{b} < {a}]"))


def test_extensions(figs):
    assert extension(figs["fig3"], parse("[{b} < {a}]")) == {"s"}
    assert extension(figs["fig2"], parse("[{b} < {a}]")) == {"s"}
    assert extension(figs["fig3"], parse("p & ~p")) == set()
    assert extension(figs["fig3"], parse("H1 | T1")) == {"s", "t", "u"}


def test_known_superiority_failure_witness(figs):
    fig2 = figs["fig2"]
    assert satisfies(fig2, "s", parse("[{b} <= {a}]"))
    assert not satisfies(fig2, "s", parse("K{b} [{b} <= {a}]"))
    assert not satisfies(fig2, "s",
                         parse("[{b} <= {a}] -> D{b} [{b} <= {a}]"))


def _marked(m, world):
    """m with its atoms replaced by one atom x, true at world only."""
    return KripkeModel(worlds=m.worlds, agents=m.agents,
                       relations=m.relations, atoms=("x",),
                       valuation=(1 << m.world_index(world),))


def test_fixture_group_relations_through_d_c_cd(figs):
    # a relation R is the identity iff box_R {w} = {w} for every w, and
    # total iff box_R (W - {w}) is empty for every w
    fig1, fig3 = figs["fig1"], figs["fig3"]
    for w in fig1.worlds:
        assert extension(_marked(fig1, w), parse("D{a,b} x")) == {w}
        assert extension(_marked(fig1, w), parse("C{a,b,c} ~x")) == set()
    for w in fig3.worlds:
        for group in ("{a,b}", "{a,c}", "{b,c}"):
            assert extension(_marked(fig3, w),
                             parse(f"D{group} x")) == {w}
        assert extension(_marked(fig3, w),
                         parse("CD[{a,b};{b,c}] x")) == {w}


# --- the evaluators against the pair-set oracle --------------------------

def _block_extension(m, f):
    """f's extension in m as `search.Block` evaluates it: m as a block of
    one prefix, one frame and one valuation, each agent's rows uint32,
    world axis first, and an undeclared atom false everywhere."""
    atom_ext = {atom: search.Block.atom_words(
        np.array([m.atom_mask(atom) or 0]), m.n_worlds)
        for atom in atom_names(f)}
    rows = {agent: np.array(rel.rows, dtype=np.uint32)[:, None, None]
            for agent, rel in zip(m.agents, m.relations)}
    block = search.Block(rows, atom_ext, (1, 1, 1))
    mask = block.world_mask(block.evaluate(f), 0, 0, 0)
    return {w for i, w in enumerate(m.worlds) if mask >> i & 1}


@given(model_formula_pairs())
def test_extension_matches_pair_set_oracle(mf):
    m, f = mf
    want = oracle_extension(m, f)
    assert extension(m, f) == want
    # a block's box covers k worlds per pass, k set by _BOX_CELLS and the
    # block size; a one-frame block takes every world at once, and one
    # world, or a few with a short last pass, must give the same extension
    for cells in (1, 2, 3, search._BOX_CELLS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_BOX_CELLS", cells)
            assert _block_extension(m, f) == want


def _random_group(rng, agents):
    return Group(rng.sample(agents, rng.randint(1, min(3, len(agents)))))


def _random_formula(rng, agents, atoms, depth):
    """Every operator and all four comparisons; C and CD over groups drawn
    from the same few agents, so they overlap."""
    if depth == 0 or rng.random() < 0.15:
        if rng.random() < 0.6:
            return Atom(rng.choice(atoms))
        return Cmp(rng.choice(list(CmpOp)), _random_group(rng, agents),
                   _random_group(rng, agents))
    kind = rng.choice((Not, And, Or, Imp, Iff, IndK, DK, CK, CDK))
    sub = _random_formula(rng, agents, atoms, depth - 1)
    if kind is Not:
        return Not(sub)
    if kind is IndK:
        return IndK(rng.choice(agents), sub)
    if kind in (DK, CK):
        return kind(_random_group(rng, agents), sub)
    if kind is CDK:
        return CDK(Supergroup(_random_group(rng, agents)
                              for _ in range(rng.randint(1, 3))), sub)
    return kind(sub, _random_formula(rng, agents, atoms, depth - 1))


def _random_model(rng, n, k):
    """n worlds, k agents, atoms p and q; each relation drawn at its own
    density and closed under a random choice of properties."""
    worlds = [f"w{i}" for i in range(n)]
    agents = [f"a{j}" for j in range(k)]
    edges = {}
    for agent in agents:
        density = rng.choice((0.05, 0.2, 0.5))
        edges[agent] = [(u, v) for u in worlds for v in worlds
                        if rng.random() < density]
    closure = rng.choice(((), ("reflexive",), ("reflexive", "transitive"),
                          ("reflexive", "symmetric", "transitive")))
    valuation = {atom: [w for w in worlds if rng.random() < 0.5]
                 for atom in ("p", "q")}
    return KripkeModel.from_edges(worlds, agents, edges, valuation,
                                  closure=closure)


def test_world_masks_block_and_oracle_agree_on_seeded_models():
    """The two evaluators cannot drift apart: on 1,024 seeded models, 8 of
    each size from 1 to MAX_WORLDS worlds and 1 to MAX_AGENTS agents, the
    world-mask evaluator, a one-frame `search.Block` and the pair-set
    oracle give the same extension for formulas over every operator, the
    four comparisons, overlapping C / CD groups and the undeclared atoms
    r and s.  With
    `strict_atoms`, a formula with undeclared atoms is an error naming the
    smallest of them, and any other formula keeps its extension."""
    rng = random.Random(20261020)
    seen = set()
    for i in range(8 * MAX_WORLDS * MAX_AGENTS):
        n = i % MAX_WORLDS + 1
        k = i // MAX_WORLDS % MAX_AGENTS + 1
        m = _random_model(rng, n, k)
        for _ in range(2):
            f = _random_formula(rng, m.agents, ("p", "q", "r", "s"), 4)
            want = oracle_extension(m, f)
            assert extension(m, f) == want, f
            assert _block_extension(m, f) == want, f
            stray = sorted(atom_names(f) - set(m.atoms))
            if stray:
                with pytest.raises(UnknownAtomError) as err:
                    extension(m, f, strict_atoms=True)
                assert str(err.value) == f"unknown atom {stray[0]!r}"
            else:
                assert extension(m, f, strict_atoms=True) == want
            for g in post_order([f]):
                seen.add(g.op if isinstance(g, Cmp) else type(g))
                if isinstance(g, CDK) and len(g.groups.groups) > 1:
                    seen.add("CD over several groups")
            seen.add(("declared atoms only", "undeclared atom",
                      "undeclared atoms")[min(len(stray), 2)])
    assert seen == {Atom, Not, And, Or, Imp, Iff, IndK, DK, CK, CDK,
                    *CmpOp, "CD over several groups", "declared atoms only",
                    "undeclared atom", "undeclared atoms"}


def _one_operator_formulas(agents):
    """Every modality over every group (and every pair of groups for CD)
    applied to p, and every comparison between two groups."""
    groups = [Group(c) for k in range(1, len(agents) + 1)
              for c in itertools.combinations(agents, k)]
    p = parse("p")
    out = [IndK(a, p) for a in agents]
    for g in groups:
        out += [DK(g, p), CK(g, p)]
        for h in groups:
            out.append(CDK(Supergroup([g, h]), p))
            out += [Cmp(op, g, h) for op in CmpOp]
    return out


@settings(max_examples=30)
@given(models(atoms=("p",)))
def test_every_operator_matches_pair_set_oracle(m):
    for f in _one_operator_formulas(m.agents):
        assert extension(m, f) == oracle_extension(m, f), f


@settings(max_examples=40, deadline=None)
@given(model_formula_pairs(min_worlds=9, max_worlds=16, max_agents=2))
def test_extension_matches_oracle_on_9_to_16_worlds(mf):
    # comparison masks must hold all n bits, not 8
    m, f = mf
    assert extension(m, f) == oracle_extension(m, f)
    for op in ("<=", "<", "==", "#"):
        g = parse(f"[{{{m.agents[-1]}}} {op} {{{m.agents[0]}}}]")
        assert extension(m, g) == oracle_extension(m, g)


_SIXTEEN_WORLDS = "\n".join([
    "agents: a b",
    "worlds: " + " ".join(f"w{i}" for i in range(16)),
    "atoms: p",
    # a: a chain through every world, with w0 -> w15 and w15 -> w0
    "rel a: " + " ".join(f"(w{i},w{i}) (w{i},w{(i + 1) % 16})"
                         for i in range(16)) + " (w0,w15)",
    # b: w15 alone sees w0, and w8 sees w15
    "rel b: " + " ".join(f"(w{i},w{i})" for i in range(16))
    + " (w15,w0) (w8,w15)",
    "val p: " + " ".join(f"w{i}" for i in range(15)),
    ""])


def test_sixteen_world_model_keeps_rows_past_the_eighth_world():
    """A single model keeps its rows wide: on 16 worlds, the edges into
    and out of w15 decide the answer, and every operator agrees with the
    pair-set oracle."""
    m = load_model(_SIXTEEN_WORLDS)
    texts = ["K{a} p", "K{b} p", "D{a,b} p", "C{a,b} p", "CD[{a};{b}] p",
             "~K{b} ~p", "[{a} <= {b}]", "[{b} <= {a}]", "[{a} < {b}]",
             "[{a} == {b}]", "[{a} # {b}]", "[{a,b} <= {b}]",
             "D{b} [{a} # {b}]", "C{a} [{b} <= {a}]"]
    for text in texts:
        f = parse(text)
        assert extension(m, f) == oracle_extension(m, f), text
    # the w15 edges matter: p fails only at w15, which w0 and w14 see
    # through a and w8 through b
    assert "w0" not in extension(m, parse("K{a} p"))
    assert "w14" not in extension(m, parse("K{a} p"))
    assert "w8" not in extension(m, parse("K{b} p"))
    assert extension(m, parse("C{a,b} p")) == set()


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_group_relations_keep_the_dtype_of_their_rows(dtype):
    """joint, common and cdk rows are built in the dtype of the agents'
    rows, so search rows stay one byte and wider rows stay wide."""
    rows = {"a": np.array([0b011, 0b110, 0b100], dtype=dtype)[:, None, None],
            "b": np.array([0b001, 0b010, 0b101], dtype=dtype)[:, None, None]}
    block = search.Block(rows, {}, (1, 1, 1))
    ab = Group(["a", "b"])
    for out in (block.joint(ab), block.cdk(singletons(ab)),
                block.cdk(Supergroup([ab, Group(["a"])]))):
        assert out.dtype == dtype
    assert block.cdk(singletons(ab))[:, 0, 0].tolist() \
        == [0b111, 0b111, 0b111]


def test_boxes_over_one_relation_share_one_complement_table():
    """A box's complement rows are kept per relation, not per operator:
    C{a,b} is CD[{a};{b}], and K{a} is D{a}."""
    rows = {"a": np.array([0b011, 0b011, 0b100], np.uint8)[:, None, None],
            "b": np.array([0b001, 0b110, 0b110], np.uint8)[:, None, None]}
    p = search.Block.atom_words(np.array([0b011]), 3)
    block = search.Block(rows, {"p": p}, (1, 1, 1))
    for same, tables in ((("C{a,b} p", "CD[{a};{b}] p"), 1),
                         (("K{a} p", "D{a} p"), 2)):
        left, right = (block.evaluate(parse(text)) for text in same)
        assert (left == right).all()
        assert len(block._misses) == tables


# --- atoms and worlds -----------------------------------------------------

def test_undeclared_atom_defaults_to_false(figs):
    assert not satisfies(figs["fig3"], "s", parse("zzz"))
    assert satisfies(figs["fig3"], "s", parse("~zzz"))


def test_strict_atoms_raises(figs):
    with pytest.raises(UnknownAtomError, match="zzz"):
        satisfies(figs["fig3"], "s", parse("zzz"), strict_atoms=True)
    assert satisfies(figs["fig3"], "s", parse("H1"), strict_atoms=True)


def test_unknown_world(figs):
    with pytest.raises(UnknownWorldError, match="'x'"):
        satisfies(figs["fig3"], "x", parse("p"))


# --- desugaring soundness -------------------------------------------------

@given(model_formula_pairs())
def test_sugar_and_core_forms_agree(mf):
    m, f = mf
    core = expand_sugar(f)
    for w in m.worlds:
        assert satisfies(m, w, f) == satisfies(m, w, core)


@given(models(max_agents=2))
def test_individual_knowledge_is_singleton_joint(m):
    f_k = parse("K{a} (p | ~q)")
    f_d = parse("D{a} (p | ~q)")
    for w in m.worlds:
        assert satisfies(m, w, f_k) == satisfies(m, w, f_d)


# --- operator oracles -----------------------------------------------------

def _nested_box_sequences(groups, length):
    return itertools.product(groups, repeat=length)


@settings(max_examples=60)
@given(models(max_worlds=3, max_agents=3, atoms=("p",)))
def test_cdk_equals_all_finite_box_sequences(m):
    """The groups-as-agents common knowledge operator agrees with the
    conjunction of every nested joint-knowledge sequence (depth 0..n-1
    reaches everything a reflexive-transitive closure can)."""
    groups = [Group([m.agents[0]]), Group(m.agents)]
    phi = parse("p")
    target = CDK(Supergroup(groups), phi)
    for w in m.worlds:
        expect = True
        for length in range(m.n_worlds):
            for seq in _nested_box_sequences(groups, length):
                nested = phi
                for g in reversed(seq):
                    nested = DK(g, nested)
                if not satisfies(m, w, nested):
                    expect = False
                    break
            if not expect:
                break
        assert satisfies(m, w, target) == expect


@given(models(max_worlds=4, max_agents=2, atoms=("p",)))
def test_common_knowledge_via_nested_everyone_knows(m):
    """C{...} p agrees with all finite nestings of per-agent boxes."""
    phi = parse("p")
    target = parse("C{" + ",".join(m.agents) + "} p")
    singles = [Group([a]) for a in m.agents]
    for w in m.worlds:
        expect = True
        for length in range(m.n_worlds):
            for seq in _nested_box_sequences(singles, length):
                nested = phi
                for g in reversed(seq):
                    nested = DK(g, nested)
                if not satisfies(m, w, nested):
                    expect = False
                    break
            if not expect:
                break
        assert satisfies(m, w, target) == expect


# --- properties true on all models ---------------------------------------

@given(models(atoms=()))
def test_subgroup_is_always_dominated(m):
    # the whole pool knows at least as much as any subgroup
    whole = Group(m.agents)
    for a in m.agents:
        f = Cmp(CmpOp.LEQ, whole, Group([a]))
        assert valid_in_model(m, f)


@given(model_formula_pairs(max_agents=3))
def test_knowledge_transfer_bridge(mf):
    m, phi = mf
    groups = [Group([a]) for a in m.agents] + [Group(m.agents)]
    for left, right in itertools.product(groups, repeat=2):
        f = Imp(And(Cmp(CmpOp.LEQ, left, right), DK(right, phi)),
                DK(left, phi))
        assert valid_in_model(m, f)


@given(models(max_agents=3, atoms=("p",)))
def test_larger_group_knows_more(m):
    if len(m.agents) < 2:
        return
    phi = parse("p")
    small = Group([m.agents[0]])
    large = Group(m.agents)
    f = Imp(DK(small, phi), DK(large, phi))
    assert valid_in_model(m, f)


@given(kt_models(atoms=("p",)))
def test_joint_knowledge_truthful_on_reflexive_models(m):
    assert valid_in_model(m, parse("D{" + ",".join(m.agents) + "} p -> p"))


@given(s5_models(atoms=("p",)))
def test_negative_introspection_on_equivalence_models(m):
    a = m.agents[0]
    f = parse(f"~D{{{a}}} p -> D{{{a}}} ~D{{{a}}} p")
    assert valid_in_model(m, f)


# --- strict/incomparable forms match their definitions on small sweeps ---

def test_comparability_trichotomy_on_enumerated_models():
    checked = 0
    for bounds in (SearchBounds(FrameClass.KT, 2, 2),
                   SearchBounds(FrameClass.KT, 1, 3)):
        pairs = [("{a}", "{b}"), ("{a}", "{a,b}")] \
            if bounds.n_agents == 2 else [("{a}", "{a}")]
        for m in enumerate_models(bounds):
            for left, right in pairs:
                for text in (
                        f"~[{left} <= {right}] <-> "
                        f"([{right} < {left}] | [{left} # {right}])",
                        f"~[{left} < {right}] <-> "
                        f"([{right} <= {left}] | [{left} # {right}])",
                        f"~[{left} # {right}] <-> "
                        f"([{left} <= {right}] | [{right} <= {left}])"):
                    assert valid_in_model(m, parse(text))
            checked += 1
    assert checked == 16 + 1 + 64 + 4 + 1  # 2-agent n<=2 plus 1-agent n<=3


# --- invariance -----------------------------------------------------------

def test_satisfaction_invariant_under_relabeling(figs):
    fig3 = figs["fig3"]
    relabeled = KripkeModel.from_edges(
        ("u", "t", "s"), ("a", "b", "c"),
        {a: [(fig3.worlds[i], fig3.worlds[j])
             for i, j in rel_pairs(fig3.relation(a))]
         for a in fig3.agents},
        {atom: [w for w in fig3.worlds
                if fig3.atom_mask(atom) >> fig3.world_index(w) & 1]
         for atom in fig3.atoms})
    for text in ("[{b} < {a}]", "C{a,b,c} [{a,b} == {b,c}]",
                 "D{a,b} H1", "CD[{a,b};{b,c}] (H1 | T1)"):
        f = parse(text)
        for w in fig3.worlds:
            assert satisfies(fig3, w, f) == satisfies(relabeled, w, f)


def _with_isolated_worlds(m, k):
    """m joined by k reflexive worlds that see only themselves and where
    every atom is false."""
    n = m.n_worlds
    rows = tuple(Relation(rel.rows + tuple(1 << j for j in range(n, n + k)))
                 for rel in m.relations)
    return KripkeModel(worlds=m.worlds + tuple(f"w{j}"
                                               for j in range(n, n + k)),
                       agents=m.agents, relations=rows, atoms=m.atoms,
                       valuation=m.valuation)


@settings(max_examples=60)
@given(model_formula_pairs(), st.integers(1, 2))
def test_isolated_reflexive_worlds_change_no_extension(mf, k):
    """Every operator at a world reads only the worlds it reaches and its
    own rows, so joining isolated reflexive worlds with every atom false
    leaves each formula's extension on the original worlds as it was.  A
    model of KT, S4 or S5 so joined is one of the same class, which is
    why a formula that holds at the search's largest world count holds at
    every smaller one, and `search.check_formulas` sweeps the smaller
    counts only for the formulas refuted at the largest."""
    m, f = mf
    big = _with_isolated_worlds(m, k)
    assert classify_frame(big).overall is classify_frame(m).overall
    for g in [f] + _one_operator_formulas(m.agents):
        want = oracle_extension(m, g)
        assert extension(m, g) == want, g
        assert oracle_extension(big, g) & set(m.worlds) == want, g
        assert extension(big, g) & set(m.worlds) == want, g
