"""Parser, renderer, desugaring and interning tests."""

import copy
import gc
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from epicmp import syntax
from epicmp.corpus import instantiate_schema
from epicmp.syntax import (And, Atom, CDK, CK, Cmp, CmpOp, DK,
                           EmptyGroupError, Formula, FormulaError, Group, Iff,
                           Imp, IndK, LexError, Not, Or, ParseError,
                           Supergroup, agent_names, atom_names, expand_sugar,
                           fold, parse, render)


def test_atom_and_precedence():
    f = parse("~p & q")
    assert f == And(Not(Atom("p")), Atom("q"))


def test_imp_right_assoc():
    assert parse("p -> q -> r") == \
        Imp(Atom("p"), Imp(Atom("q"), Atom("r")))


def test_iff_left_assoc():
    assert parse("p <-> q <-> r") == \
        Iff(Iff(Atom("p"), Atom("q")), Atom("r"))


def test_or_binds_tighter_than_imp():
    assert parse("p | q -> r") == Imp(Or(Atom("p"), Atom("q")), Atom("r"))


def test_and_binds_tighter_than_or():
    assert parse("p | q & r") == Or(Atom("p"), And(Atom("q"), Atom("r")))


def test_modal_prefix_binds_like_negation():
    f = parse("D{a} p & q")
    assert f == And(DK(Group(["a"]), Atom("p")), Atom("q"))


def test_nested_modalities():
    f = parse("C{a,b} D{b} ~p")
    assert f == CK(Group(["a", "b"]), DK(Group(["b"]), Not(Atom("p"))))


def test_comparison_forms():
    assert parse("[{a} <= {b}]") == \
        Cmp(CmpOp.LEQ, Group(["a"]), Group(["b"]))
    assert parse("[{a,b} < {c}]") == \
        Cmp(CmpOp.LT, Group(["a", "b"]), Group(["c"]))
    assert parse("[{a} == {b}]").op is CmpOp.EQV
    assert parse("[{a} # {b}]").op is CmpOp.INCOMP


def test_cdk_groups():
    f = parse("CD[{a,b};{c}] p")
    assert f == CDK(Supergroup([Group(["a", "b"]), Group(["c"])]), Atom("p"))


def test_group_order_is_canonical():
    assert parse("[{b,a} <= {c}]") == parse("[{a,b} <= {c}]")
    assert parse("CD[{c};{a,b}] p") == parse("CD[{a,b};{c}] p")


def test_keywords_need_group_brace():
    # D/C/K/CD not followed by their bracket are ordinary atoms
    assert parse("Kp") == Atom("Kp")
    assert parse("D & C") == And(Atom("D"), Atom("C"))
    assert parse("CD -> p") == Imp(Atom("CD"), Atom("p"))


def test_k_takes_single_agent():
    assert parse("K{a} p") == IndK("a", Atom("p"))
    with pytest.raises(ParseError, match="single agent"):
        parse("K{a,b} p")


def test_empty_group_rejected():
    with pytest.raises(EmptyGroupError):
        parse("D{} p")
    with pytest.raises(EmptyGroupError):
        parse("[{} <= {a}]")


def test_duplicate_agent_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse("D{a,a} p")


def test_lex_error_positions():
    with pytest.raises(LexError, match="column 3"):
        parse("p $ q")


def test_parse_error_on_trailing_input():
    with pytest.raises(ParseError, match="unexpected"):
        parse("p q")


_MESSAGES = [
    (parse, ("(p q",), ParseError, "expected ')', got 'q' (column 4)"),
    (parse, ("((p)",), ParseError,
     "expected ')', got end of input (column 5)"),
    (parse, ("(p))",), ParseError, "unexpected ')' after formula (column 4)"),
    (parse, ("-> p",), ParseError, "unexpected '->' (column 1)"),
    (parse, ("p & & q",), ParseError, "unexpected '&' (column 5)"),
    (parse, ("p ->",), ParseError, "unexpected end of input (column 5)"),
    (parse, ("CD[{a};{b} p",), ParseError,
     "expected ']', got 'p' (column 12)"),
    (parse, ("C{a} (p) (q)",), ParseError,
     "unexpected '(' after formula (column 10)"),
    (parse, ("D{a}",), ParseError, "unexpected end of input (column 5)"),
    (parse, ("{a}",), ParseError, "unexpected '{' (column 1)"),
    (parse, ("K{a,b} p & q",), ParseError,
     "K takes a single agent, got {a,b} (column 1)"),
    (parse, ("[{a} -> {b}]",), ParseError,
     "expected comparison operator, got '->' (column 6)"),
    (parse, ("D{a,a} p",), ParseError,
     "duplicate agent 'a' in group (column 5)"),
    (parse, ("D{} p",), EmptyGroupError, "empty group at column 2"),
    (parse, ("p $ q",), LexError, "unexpected character '$' (column 3)"),
    (render, ("p",), TypeError, "not a formula node: 'p'"),
    (expand_sugar, ("p",), TypeError, "not a formula node: 'p'"),
    (instantiate_schema, ("p", {}, {}), TypeError,
     "not a formula node: 'p'"),
]


@pytest.mark.parametrize("fn, args, error, message", _MESSAGES,
                         ids=[f"{fn.__name__}:{args[0]}"
                              for fn, args, _, _ in _MESSAGES])
def test_error_messages(fn, args, error, message):
    """The exact text of each parse error, and a non-formula given to a
    formula operation is a TypeError."""
    with pytest.raises(error) as exc:
        fn(*args)
    assert str(exc.value) == message


def test_parse_error_on_missing_operand():
    with pytest.raises(ParseError):
        parse("p &")
    with pytest.raises(ParseError):
        parse("[{a} <= ]")


def test_group_constructor_rejects_empty():
    with pytest.raises(EmptyGroupError):
        Group([])
    with pytest.raises(EmptyGroupError):
        Supergroup([])


def test_group_size_cap():
    with pytest.raises(FormulaError, match="limit"):
        Group([f"x{i}" for i in range(9)])


def test_render_examples():
    assert render(parse("[{a}<={b}]")) == "[{a} <= {b}]"
    assert render(parse("p&q")) == "p & q"
    assert render(parse("CD[{a,b};{c}]p")) == "CD[{a,b};{c}] p"
    assert render(parse("~(p & q)")) == "~(p & q)"
    assert render(parse("(p -> q) -> r")) == "(p -> q) -> r"
    assert render(parse("p -> (q -> r)")) == "p -> q -> r"


def test_collectors():
    f = parse("CD[{a,b};{c}] (K{d} p -> [{a} # {b}] & q)")
    assert atom_names(f) == {"p", "q"}
    assert agent_names(f) == {"a", "b", "c", "d"}


def test_expand_sugar_core_examples():
    assert expand_sugar(parse("K{a} p")) == parse("D{a} p")
    assert expand_sugar(parse("[{a} < {b}]")) == \
        parse("[{a} <= {b}] & ~[{b} <= {a}]")
    assert expand_sugar(parse("[{a} == {b}]")) == \
        parse("[{a} <= {b}] & [{b} <= {a}]")
    assert expand_sugar(parse("[{a} # {b}]")) == \
        parse("~[{a} <= {b}] & ~[{b} <= {a}]")
    assert expand_sugar(parse("p | q")) == parse("~(~p & ~q)")
    assert expand_sugar(parse("p -> q")) == parse("~(p & ~q)")


# --- random formulas ------------------------------------------------------

_agents = st.sampled_from(["a", "b", "c"])
_groups = st.sets(_agents, min_size=1, max_size=3).map(Group)
_atoms = st.sampled_from(["p", "q", "H1", "Kp", "D"]).map(Atom)
_cmp = st.builds(Cmp, st.sampled_from(list(CmpOp)), _groups, _groups)


def _compound(children):
    return st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Imp, children, children),
        st.builds(Iff, children, children),
        st.builds(DK, _groups, children),
        st.builds(CK, _groups, children),
        st.builds(IndK, _agents, children),
        st.builds(CDK,
                  st.sets(_groups, min_size=1, max_size=2).map(Supergroup),
                  children),
    )


formulas = st.recursive(st.one_of(_atoms, _cmp), _compound, max_leaves=12)


@given(formulas)
def test_render_parse_round_trip(f):
    assert parse(render(f)) == f


@given(formulas)
def test_expand_sugar_idempotent(f):
    core = expand_sugar(f)
    assert expand_sugar(core) == core


@given(formulas)
def test_expand_sugar_leaves_only_core_nodes(f):
    def check(node):
        assert not isinstance(node, (Or, Imp, Iff, IndK))
        if isinstance(node, Cmp):
            assert node.op is CmpOp.LEQ
        if isinstance(node, Not):
            check(node.sub)
        elif isinstance(node, And):
            check(node.left)
            check(node.right)
        elif isinstance(node, (DK, CK, CDK)):
            check(node.sub)

    check(expand_sugar(f))


@given(formulas)
def test_collectors_survive_desugar(f):
    assert atom_names(expand_sugar(f)) == atom_names(f)
    assert agent_names(expand_sugar(f)) == agent_names(f)


@given(formulas)
def test_rebuild_replaces_the_children_in_order(f):
    assert f.rebuild(*f.children) is f
    g = f.rebuild(*map(Not, f.children))
    assert type(g) is type(f)
    assert g.children == tuple(map(Not, f.children))
    for name in f._fields:
        if not isinstance(getattr(f, name), Formula):
            assert getattr(g, name) is getattr(f, name)


@given(formulas)
def test_fold_visits_each_subformula_once_after_its_children(f):
    visited = []

    def step(g, *subs):
        assert subs == tuple(map(render, g.children))
        assert set(g.children) <= set(visited)
        visited.append(g)
        return render(g)

    assert fold(f, step) == render(f)
    assert len(visited) == len(set(visited)) == len(set(_subformulas(f)))
    assert visited[-1] is f


def test_a_folded_formula_holds_no_reference_cycle():
    """With the cyclic collector off, only reference counts free a
    formula: one that fold left in a cycle would stay in the table."""
    gc.collect()
    gc.disable()
    try:
        f = parse("D{a} fold_atom & ~fold_atom -> fold_atom")
        fold(f, lambda g, *subs: g)
        assert (Atom, "fold_atom") in syntax._nodes
        del f
        assert (Atom, "fold_atom") not in syntax._nodes
    finally:
        gc.enable()


# --- interning -------------------------------------------------------------

_TEXT = "D{a} p & [{b,a} < {c}] -> CD[{c};{a,b}] ~K{a} (q <-> C{b} p)"


def test_parsing_one_text_twice_gives_one_object():
    assert parse(_TEXT) is parse(_TEXT)
    assert parse("[{b,a} <= {c}]") is parse("[{a,b} <= {c}]")
    assert Group(["b", "a"]) is Group(("a", "b", "a"))


def test_a_schema_instance_is_its_parsed_rendering():
    schema = parse("[{A} <= {B}] -> (D{B} phi -> D{A} phi) & K{E} psi")
    inst = instantiate_schema(
        schema, {"A": Group(["a"]), "B": Group(["a", "b"]),
                 "E": Group(["c"])},
        {"phi": parse("p & ~q"), "psi": parse("C{a,c} r")})
    assert inst is parse(render(inst))


def _rebuilt(f):
    """A structural copy of f, built bottom-up through the constructors
    from fresh strings and groups."""
    def group(g):
        return Group(["".join(a) for a in g.agents])

    if isinstance(f, Atom):
        return Atom("".join(f.name))
    if isinstance(f, Cmp):
        return Cmp(f.op, group(f.left), group(f.right))
    if isinstance(f, Not):
        return Not(_rebuilt(f.sub))
    if isinstance(f, (And, Or, Imp, Iff)):
        return type(f)(_rebuilt(f.left), _rebuilt(f.right))
    if isinstance(f, (DK, CK)):
        return type(f)(group(f.group), _rebuilt(f.sub))
    if isinstance(f, IndK):
        return IndK("".join(f.agent), _rebuilt(f.sub))
    return CDK(Supergroup(group(g) for g in f.groups.groups),
               _rebuilt(f.sub))


def _subformulas(f):
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        out.append(g)
        todo.extend(g.children)
    return out


@given(st.data())
def test_equal_rendering_iff_same_object(data):
    f = data.draw(formulas)
    g = data.draw(st.one_of(formulas, st.just(_rebuilt(f)),
                            st.sampled_from(_subformulas(f))))
    assert (render(f) == render(g)) == (f is g)
    assert (f == g) == (f is g)
    assert _rebuilt(f) is f


def test_nodes_are_immutable():
    f = parse(_TEXT)
    with pytest.raises(AttributeError):
        f.left = Atom("p")
    with pytest.raises(AttributeError):
        setattr(f.left.left, "sub", Atom("q"))
    with pytest.raises(AttributeError):
        del f.right
    with pytest.raises(AttributeError):
        Group(["a"]).agents = ("b",)
    with pytest.raises(AttributeError):
        Atom("p").extra = 1
    assert render(f) == render(parse(_TEXT))


def test_the_table_drops_a_formula_nothing_references():
    gc.collect()
    before = len(syntax._nodes)
    f = parse("D{a} throwaway_atom & ~throwaway_atom")
    assert (Atom, "throwaway_atom") in syntax._nodes
    assert len(syntax._nodes) == before + 4
    del f
    gc.collect()
    assert (Atom, "throwaway_atom") not in syntax._nodes
    assert len(syntax._nodes) == before


def test_threads_parsing_one_text_get_one_object():
    """8 threads parse each of 200 new texts at once, with a short switch
    interval so they interleave inside the table: each text gives one
    object."""
    texts = [f"D{{a,b}} (t{i} -> ~[{{a}} < {{b}}]) & C{{a}} t{i} | u{i}"
             for i in range(200)]
    barrier = threading.Barrier(8)
    results = [[] for _ in range(8)]

    def work(k):
        for text in texts:
            barrier.wait(timeout=30)
            results[k].append(parse(text))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(r) == len(texts) for r in results)
    for i, text in enumerate(texts):
        first = results[0][i]
        assert all(r[i] is first for r in results)
        assert parse(text) is first


def test_copy_and_pickle_return_the_interned_object():
    f = parse(_TEXT)
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert copy.deepcopy([f, f.left])[1] is f.left
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) is f
    g = Supergroup([Group(["b", "a"]), Group(["c"])])
    assert pickle.loads(pickle.dumps(g)) is g
    assert copy.deepcopy(g) is g


# --- depth ----------------------------------------------------------------

def _right_nested_and(leaf, depth):
    f = leaf
    for _ in range(depth - 1):
        f = And(leaf, f)
    return f


_DEEP = {
    "5000-conjuncts": lambda leaf: parse(" & ".join([leaf] * 5000)),
    "5000-right-nested": lambda leaf: _right_nested_and(Atom(leaf), 5000),
}


@pytest.mark.parametrize("shape", sorted(_DEEP))
def test_deep_formulas_desugar_and_instantiate(shape):
    """5,000 nested `&` are rewritten and instantiated: the conjuncts
    are the placeholder phi, then p, then p | q desugared."""
    f = _DEEP[shape]("p")
    assert expand_sugar(f) is f
    schema = _DEEP[shape]("phi")
    assert instantiate_schema(schema, {}, {"phi": Atom("p")}) is f
    sugared = instantiate_schema(schema, {}, {"phi": parse("p | q")})
    assert expand_sugar(sugared) is instantiate_schema(
        schema, {}, {"phi": parse("~(~p & ~q)")})


def test_deep_formulas_parse_and_round_trip():
    f = _right_nested_and(Atom("p"), 5000)
    assert parse(render(f)) is f
    assert parse("(" * 5000 + "p" + ")" * 5000) is Atom("p")
    chain = parse(" -> ".join(f"p{i}" for i in range(5000)))
    for i in range(4999):
        assert chain.left is Atom(f"p{i}")
        chain = chain.right
    assert chain is Atom("p4999")
    assert parse("~" * 2000 + "p") is _not_chain(2000)


def _not_chain(depth):
    f = Atom("p")
    for _ in range(depth):
        f = Not(f)
    return f


def test_deep_formulas_copy_and_repr():
    f = _not_chain(900)
    assert copy.deepcopy(f) is f
    assert copy.copy(f) is f
    assert repr(f) == "parse(" + repr("~" * 900 + "p") + ")"
    assert eval(repr(f), {"parse": parse}) is f
