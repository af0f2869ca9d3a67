"""Relations, closures, classification, group relations, model files.

The group relations (joint, common, group-as-agent common) are computed by
the search's block evaluator (`epicmp.search.Block`); here they are read
off a one-model block and checked against fixture facts and the pair-set
oracles."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (canonicalize, models,
                      oracle_reflexive_transitive_closure, rel_pairs,
                      s5_models)
from epicmp.corpus import fixtures
from epicmp.kripke import (FrameClass, KripkeModel, ModelError,
                           ModelFormatError, Relation, UnknownAgentError,
                           UnknownWorldError, apply_closure, classify_frame,
                           load_model, load_model_witness, save_model)
from epicmp.search import Block
from epicmp.semantics import extension
from epicmp.syntax import Group, Supergroup, parse


def rel(n, pairs):
    return Relation.from_pairs(n, pairs)


def total(n):
    return Relation(((1 << n) - 1,) * n)


# --- closures -------------------------------------------------------------

def test_equivalence_closure_merges_classes():
    r = rel(3, [(0, 1)])
    closed = r.reflexive_closure().symmetric_closure().transitive_closure()
    assert rel_pairs(closed) == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}


def test_transitive_closure_fixes_loops():
    r = rel(2, [(0, 0), (1, 1)])
    assert r.transitive_closure() == r


def test_transitive_closure_chains():
    r = rel(3, [(0, 1), (1, 2)])
    assert rel_pairs(r.transitive_closure()) == {(0, 1), (1, 2), (0, 2)}


def test_reflexive_closure_of_raw_edges_gives_fig2():
    raw = KripkeModel.from_edges(
        ("s", "t", "u", "v"), ("a", "b"),
        {"a": [("s", "t"), ("s", "u"), ("s", "v")],
         "b": [("s", "u"), ("s", "v"), ("u", "v")]},
        {"H1": ["s", "v"], "T1": ["t", "u"],
         "H2": ["s", "u"], "T2": ["t", "v"]})
    assert apply_closure(raw, ("reflexive",)) == fixtures()["fig2"]


@given(models(atoms=()))
def test_closure_idempotent(m):
    for props in ((), ("reflexive",), ("reflexive", "symmetric"),
                  ("reflexive", "symmetric", "transitive")):
        once = apply_closure(m, props)
        assert apply_closure(once, props) == once


@given(models(atoms=()))
def test_full_closure_yields_s5(m):
    closed = apply_closure(m, ("reflexive", "symmetric", "transitive"))
    assert classify_frame(closed).overall is FrameClass.S5


def test_unknown_closure_property():
    with pytest.raises(ModelError, match="unknown closure"):
        apply_closure(fixtures()["fig3"], ("serial",))


_PROPERTY_CHECKS = {"reflexive": Relation.is_reflexive,
                    "symmetric": Relation.is_symmetric,
                    "transitive": Relation.is_transitive}


@pytest.mark.parametrize("props", [
    c for k in range(4) for c in itertools.combinations(_PROPERTY_CHECKS, k)],
    ids=lambda props: "-".join(props) or "none")
def test_one_closure_pass_has_every_property_asked_for(props):
    """Every relation on up to 3 worlds, closed under each subset of the
    properties in one pass, contains the relation and has each property
    asked for."""
    for n in (1, 2, 3):
        worlds = tuple(f"w{i}" for i in range(n))
        for rows in itertools.product(range(1 << n), repeat=n):
            r = Relation(rows)
            m = KripkeModel(worlds, ("a",), (r,), (), ())
            closed = apply_closure(m, props).relation("a")
            assert all(c | row == c for c, row in zip(closed.rows, rows))
            for prop in props:
                assert _PROPERTY_CHECKS[prop](closed), (rows, prop)


# --- relation predicates --------------------------------------------------

def test_euclidean_without_symmetry():
    r = rel(2, [(0, 1), (1, 1)])
    assert r.is_euclidean()
    assert not r.is_symmetric()


def test_equivalence_is_euclidean():
    assert total(3).is_euclidean()
    assert Relation.identity(3).is_euclidean()


def test_fig2_agent_a_not_euclidean():
    r = fixtures()["fig2"].relation("a")
    # s reaches t and u, but t does not reach u
    assert not r.is_euclidean()


# --- classification -------------------------------------------------------

def test_classify_identity_is_s5():
    m = KripkeModel(("w0",), ("a",), (Relation.identity(1),), (), ())
    assert classify_frame(m).overall is FrameClass.S5


def test_classify_preorder_is_s4():
    m = KripkeModel(("w0", "w1"), ("a",),
                    (rel(2, [(0, 0), (0, 1), (1, 1)]),), (), ())
    rep = classify_frame(m)
    assert rep.overall is FrameClass.S4
    assert not rep.flags_for("a").symmetric


def test_classify_reflexive_only_is_kt():
    m = KripkeModel(("w0", "w1", "w2"), ("a",),
                    (rel(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]),),
                    (), ())
    assert classify_frame(m).overall is FrameClass.KT


def test_classify_missing_loop_is_none():
    m = KripkeModel(("w0", "w1"), ("a",), (rel(2, [(0, 1)]),), (), ())
    assert classify_frame(m).overall is FrameClass.NONE


def test_classify_weakest_agent_wins():
    m = KripkeModel(("w0", "w1"), ("a", "b"),
                    (total(2), rel(2, [(0, 0), (0, 1), (1, 1)])),
                    (), ())
    rep = classify_frame(m)
    assert rep.overall is FrameClass.S4
    assert rep.flags_for("a").symmetric
    assert not rep.flags_for("b").symmetric


def test_flags_for_unknown_agent():
    with pytest.raises(UnknownAgentError):
        classify_frame(fixtures()["fig3"]).flags_for("z")


# --- group relations ------------------------------------------------------

def _block(m):
    """m as a block of one frame, each agent's rows world axis first."""
    rows = {a: np.array(rel.rows, dtype=np.uint32)[:, None, None]
            for a, rel in zip(m.agents, m.relations)}
    return Block(rows, {}, (1, 1, 1))


def _relation(rows):
    return Relation(tuple(int(x) for x in rows[:, 0, 0]))


def joint_relation(m, group):
    return _relation(_block(m).joint(group))


def common_relation(m, group):
    return _relation(_block(m).common(group))


def cdk_relation(m, groups):
    return _relation(_block(m).cdk(groups))


def test_fig3_pair_groups_are_identity():
    fig3 = fixtures()["fig3"]
    for pair in (("a", "b"), ("a", "c"), ("b", "c")):
        assert joint_relation(fig3, Group(pair)) == Relation.identity(3)


def test_fig1_pairs_identity_and_triple_total():
    fig1 = fixtures()["fig1"]
    assert joint_relation(fig1, Group(["a", "b"])) == Relation.identity(4)
    assert common_relation(fig1, Group(["a", "b", "c"])) == total(4)


def test_fig3_cdk_relation_identity():
    fig3 = fixtures()["fig3"]
    sg = Supergroup([Group(["a", "b"]), Group(["b", "c"])])
    assert cdk_relation(fig3, sg) == Relation.identity(3)


def test_singleton_joint_is_the_relation():
    fig2 = fixtures()["fig2"]
    assert joint_relation(fig2, Group(["a"])) == fig2.relation("a")


def test_singleton_common_closes_non_transitive():
    m = KripkeModel.from_edges(
        ("s", "t", "u"), ("a",),
        {"a": [("s", "t"), ("t", "u")]}, closure=("reflexive",))
    assert classify_frame(m).overall is FrameClass.KT
    assert common_relation(m, Group(["a"])) != m.relation("a")
    assert common_relation(m, Group(["a"])) == \
        m.relation("a").transitive_closure()


def test_unknown_agent_in_group():
    for text in ("D{z} H1", "K{z} H1", "C{a,z} H1", "CD[{a};{z}] H1",
                 "[{a} <= {z}]"):
        with pytest.raises(UnknownAgentError, match="unknown agent 'z'"):
            extension(fixtures()["fig3"], parse(text))


@given(models(atoms=(), max_agents=4))
def test_joint_is_pairwise_intersection(m):
    for size in range(1, len(m.agents) + 1):
        for combo in itertools.combinations(m.agents, size):
            expect = set.intersection(
                *(rel_pairs(m.relation(a)) for a in combo))
            assert rel_pairs(joint_relation(m, Group(combo))) == expect


@given(models(atoms=(), max_agents=3))
def test_common_matches_pair_oracle(m):
    for size in range(1, len(m.agents) + 1):
        for combo in itertools.combinations(m.agents, size):
            union = set.union(*(rel_pairs(m.relation(a)) for a in combo))
            expect = oracle_reflexive_transitive_closure(union, m.n_worlds)
            assert rel_pairs(common_relation(m, Group(combo))) == expect


@given(models(atoms=(), max_agents=3))
def test_cdk_matches_pair_oracle(m):
    groups = [Group(c) for size in (1, 2)
              for c in itertools.combinations(m.agents, size)]
    for pick in itertools.combinations(groups, min(2, len(groups))):
        sg = Supergroup(pick)
        union = set.union(*(rel_pairs(joint_relation(m, g))
                            for g in sg.groups))
        expect = oracle_reflexive_transitive_closure(union, m.n_worlds)
        assert rel_pairs(cdk_relation(m, sg)) == expect


@given(models(atoms=(), max_agents=3))
def test_joint_antitone_in_group(m):
    # pooling more agents can only sharpen the joint relation
    whole = rel_pairs(joint_relation(m, Group(m.agents)))
    for a in m.agents:
        assert whole <= rel_pairs(m.relation(a))


@given(models(atoms=(), max_agents=3))
def test_cdk_between_joint_and_common(m):
    if len(m.agents) < 2:
        return
    sg = Supergroup([Group([a]) for a in m.agents])
    cdk = cdk_relation(m, sg)
    assert cdk == common_relation(m, Group(m.agents))
    pooled = Supergroup([Group(m.agents)])
    deep = cdk_relation(m, pooled)
    assert rel_pairs(deep) <= rel_pairs(cdk)


# --- model construction ---------------------------------------------------

def test_world_cap():
    with pytest.raises(ModelError, match="worlds"):
        KripkeModel(tuple(f"w{i}" for i in range(17)), ("a",),
                    (Relation.identity(17),), (), ())


def test_agent_cap():
    with pytest.raises(ModelError, match="agents"):
        KripkeModel(("w0",), tuple(f"a{i}" for i in range(9)),
                    (Relation.identity(1),) * 9, (), ())


def test_duplicate_world_name():
    with pytest.raises(ModelError, match="duplicate"):
        KripkeModel(("s", "s"), ("a",), (Relation.identity(2),), (), ())


def test_from_edges_unknown_world():
    with pytest.raises(UnknownWorldError):
        KripkeModel.from_edges(("s",), ("a",), {"a": [("s", "x")]})


# --- text format ----------------------------------------------------------

def test_save_load_round_trip_fixtures():
    for m in fixtures().values():
        assert load_model(save_model(m)) == m


@given(models())
def test_save_load_round_trip_random(m):
    assert load_model(save_model(m)) == m


def test_witness_round_trip():
    fig3 = fixtures()["fig3"]
    text = save_model(fig3, witness="t")
    assert text.endswith("witness: t\n")
    m, witness = load_model_witness(text)
    assert (m, witness) == (fig3, "t")
    assert load_model(text) == fig3


def test_save_omits_all_false_atoms():
    m = KripkeModel(("w0",), ("a",), (Relation.identity(1),),
                    ("p", "q"), (1, 0))
    text = save_model(m)
    assert "val p: w0" in text
    assert "val q" not in text
    assert load_model(text) == m


def test_load_applies_closure_directive():
    text = """\
agents: a
worlds: s t
atoms:
closure: reflexive symmetric
rel a: (s,t)
"""
    m = load_model(text)
    assert rel_pairs(m.relation("a")) == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("text, line, section", [
    ("agents: a\nworlds: s t\natoms:\nclosure: reflexive\n"
     "closure: symmetric\nrel a: (s,t)\n", 5, "closure"),
    ("agents: a\nworlds: s t\natoms:\nclosure:\nclosure: reflexive\n",
     5, "closure"),
    ("agents: a\nworlds: s t\natoms:\nwitness: s\nwitness: t\n",
     5, "witness")], ids=["closure-twice", "closure-after-an-empty-one",
                          "witness-twice"])
def test_load_rejects_a_second_closure_or_witness(text, line, section):
    """A second `closure:` or `witness:` line is an error, as a second
    line of every other header section is, not a silent replacement."""
    with pytest.raises(ModelFormatError,
                       match=f"^line {line}: duplicate {section}:$"):
        load_model_witness(text)


def test_load_accepts_comments_and_blanks():
    text = """\
# a tiny model
agents: a   # one agent

worlds: s
atoms: p
rel a: (s,s)
val p: s
"""
    m = load_model(text)
    assert m.worlds == ("s",)
    assert m.atom_mask("p") == 1


def test_load_error_messages_carry_line_numbers():
    with pytest.raises(ModelFormatError, match="line 3"):
        load_model("agents: a\nworlds: s\nrel b: (s,s)\n")
    with pytest.raises(ModelFormatError, match="line 4"):
        load_model("agents: a\nworlds: s\natoms:\nval p: s\n")
    with pytest.raises(ModelFormatError, match="line 4"):
        load_model("agents: a\nworlds: s\natoms:\nrel a: (s,x)\n")


def test_load_rejects_out_of_order_sections():
    with pytest.raises(ModelFormatError, match="out of order"):
        load_model("worlds: s\nagents: a\natoms:\nrel a: (s,s)\n")
    with pytest.raises(ModelFormatError, match="out of order"):
        load_model("agents: a\nworlds: s\natoms: p\n"
                   "val p: s\nrel a: (s,s)\n")


def test_load_rejects_bad_pair_syntax():
    with pytest.raises(ModelFormatError, match="expected '\\(s,t\\)'"):
        load_model("agents: a\nworlds: s\natoms:\nrel a: s->s\n")


def test_load_rejects_unknown_witness():
    with pytest.raises(ModelFormatError, match="witness"):
        load_model("agents: a\nworlds: s\natoms:\nrel a: (s,s)\n"
                   "witness: x\n")


def test_load_requires_header_sections():
    with pytest.raises(ModelFormatError, match="missing atoms"):
        load_model("agents: a\nworlds: s\nrel a: (s,s)\n")


_HEAD = "agents: a\nworlds: s t\natoms: p\n"


_LOAD_ERRORS = [
    ("agents a\n", "line 1: expected 'section: ...'"),
    ("agents: a\nfoo bar: x\n", "line 2: unknown section 'foo bar'"),
    (": a\n", "line 1: unknown section ''"),
    ("worlds: s\nagents: a\n", "line 2: 'agents' section out of order"),
    ("agents: a\nagents: b\n", "line 2: duplicate agents:"),
    ("agents: a\nworlds: s\nworlds: t\n", "line 3: duplicate worlds:"),
    (_HEAD + "atoms: q\n", "line 4: duplicate atoms:"),
    (_HEAD + "closure:\nclosure:\n", "line 5: duplicate closure:"),
    (_HEAD + "witness: s\nwitness: s\n", "line 5: duplicate witness:"),
    ("agents: a 1b\n", "line 1: bad agent name '1b'"),
    ("agents: a\nworlds: s t-u\n", "line 2: bad world name 't-u'"),
    ("agents: a\nworlds: s\natoms: p _q\n", "line 3: bad atom name '_q'"),
    (_HEAD + "closure: reflexive euclidean\n",
     "line 4: unknown closure property 'euclidean'"),
    (_HEAD + "rel: (s,t)\n", "line 4: expected 'rel <agent>:'"),
    (_HEAD + "rel a b: (s,t)\n", "line 4: expected 'rel <agent>:'"),
    (_HEAD + "rel b: (s,t)\n", "line 4: unknown agent 'b'"),
    ("worlds: s\natoms:\nrel a: (s,s)\n", "line 3: unknown agent 'a'"),
    (_HEAD + "rel a: (s,t)\nrel a: (t,s)\n",
     "line 5: duplicate rel line for 'a'"),
    (_HEAD + "rel a: (s,t) s->t\n",
     "line 4: expected '(s,t)' pairs, got 's->t'"),
    (_HEAD + "rel a: (s,u) (s,\n", "line 4: unknown world 'u'"),
    ("agents: a\natoms:\nrel a: (s,s)\n", "line 3: unknown world 's'"),
    (_HEAD + "val: s\n", "line 4: expected 'val <atom>:'"),
    (_HEAD + "val p q: s\n", "line 4: expected 'val <atom>:'"),
    (_HEAD + "val q: s\n", "line 4: unknown atom 'q'"),
    ("agents: a\nworlds: s\nval p: s\n", "line 3: unknown atom 'p'"),
    (_HEAD + "val p: s\nval p: t\n", "line 5: duplicate val line for 'p'"),
    (_HEAD + "val p: u 1v\n", "line 4: bad world name '1v'"),
    (_HEAD + "val p: s u\n", "line 4: unknown world 'u'"),
    (_HEAD + "witness: 1s\n", "line 4: bad world name '1s'"),
    (_HEAD + "witness: s t\n", "line 4: witness takes one world"),
    (_HEAD + "witness:\n", "line 4: witness takes one world"),
    ("worlds: s\natoms:\n", "missing agents: section"),
    ("agents: a\natoms:\n", "missing worlds: section"),
    ("agents: a\nworlds: s\n", "missing atoms: section"),
    ("agents: a\nworlds:\natoms:\n", "need 1..16 worlds, got 0"),
    ("agents: a a\nworlds: s\natoms:\n", "duplicate agent name"),
    ("agents: a\nworlds: s t\natoms: p p\nval p: s\n", "duplicate atom name"),
    (_HEAD + "witness: u\n", "witness names unknown world 'u'"),
]


@pytest.mark.parametrize("text, message", _LOAD_ERRORS,
                         ids=[message for _, message in _LOAD_ERRORS])
def test_load_error_message_per_raise_site(text, message):
    """Each way a model text can be malformed has its own message: the
    exact text, with the line number where the reader stopped."""
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        load_model_witness(text)


# --- canonical encoding ---------------------------------------------------

def test_canonicalize_detects_relabeling():
    fig3 = fixtures()["fig3"]
    relabeled = KripkeModel.from_edges(
        ("w1", "w2", "w3"), ("a", "b", "c"),
        {"a": [("w1", "w2")], "b": [("w2", "w3")], "c": [("w1", "w3")]},
        {"H1": ["w1", "w2"], "T1": ["w3"], "H2": ["w2", "w3"],
         "T2": ["w1"]},
        closure=("reflexive", "symmetric"))
    assert canonicalize(fig3) == canonicalize(relabeled)


def test_canonicalize_separates_non_isomorphic():
    a = KripkeModel(("w0", "w1"), ("a",), (Relation.identity(2),), (), ())
    b = KripkeModel(("w0", "w1"), ("a",), (total(2),), (), ())
    assert canonicalize(a) != canonicalize(b)


@settings(max_examples=60)
@given(models(max_worlds=3), st.permutations([0, 1, 2]))
def test_canonicalize_invariant_under_permutation(m, perm):
    perm = perm[:m.n_worlds]
    order = sorted(range(m.n_worlds), key=lambda i: perm[i % len(perm)] if
                   m.n_worlds > 1 else 0)
    shuffled = KripkeModel.from_edges(
        tuple(m.worlds[i] for i in order), m.agents,
        {a: [(m.worlds[i], m.worlds[j])
             for i, j in rel_pairs(m.relation(a))] for a in m.agents},
        {atom: [w for w in m.worlds
                if m.atom_mask(atom) >> m.world_index(w) & 1]
         for atom in m.atoms})
    assert canonicalize(shuffled, m.atoms) == canonicalize(m, m.atoms)


def test_canonicalize_pads_missing_pool_atoms_as_false():
    bare = KripkeModel(("w0", "w1"), ("a",), (total(2),), (), ())
    declared = KripkeModel(("w0", "w1"), ("a",), (total(2),),
                           ("p",), (0,))
    assert canonicalize(bare, ("p",)) == canonicalize(declared, ("p",))
