"""First-order term machinery: positions, substitution, unification."""

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (CORPUS_GOALS, IDENTITY, ParentFreshVars,
                      below_recursion_limit, generic_calls, is_idempotent,
                      is_variant, load, parent_linear_walk, parent_match,
                      parent_solve, random_program, random_term, ref_str,
                      renaming, restrict)
from nspec.program import Signature
from nspec.syntax import parse_term
from nspec.terms import (
    App,
    Chain,
    Demand,
    Fail,
    FreshVars,
    Substitution,
    Succ,
    Symbol,
    Var,
    canonical_rename,
    compose,
    flatten,
    is_constructor_term,
    is_linear,
    linear_overlay,
    linear_unify,
    linear_walk,
    match,
    replace_at,
    resolve_chain,
    subterm_at,
    subterms,
    unify,
    variant_key,
    vars_of,
    _preorder,
    _solve,
    _width,
)

ZERO = Symbol("0", 0, "constructor")
S = Symbol("s", 1, "constructor")
LEQ = Symbol("leq", 2, "operation")
ADD = Symbol("add", 2, "operation")


def num(n):
    t = App(ZERO)
    for _ in range(n):
        t = App(S, (t,))
    return t


def leq(a, b):
    return App(LEQ, (a, b))


def add(a, b):
    return App(ADD, (a, b))


X, Y, N, M = Var("X"), Var("Y"), Var("N"), Var("M")


class TestSymbolsAndTerms:
    def test_symbol_str(self):
        assert str(S) == "s/1"
        assert str(LEQ) == "leq/2"

    def test_symbol_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            Symbol("f", 1, "function")

    def test_symbol_rejects_negative_arity(self):
        with pytest.raises(ValueError):
            Symbol("f", -1, "operation")

    def test_app_arity_checked(self):
        with pytest.raises(ValueError):
            App(S, (num(0), num(0)))

    def test_term_str(self):
        assert str(leq(X, add(num(0), Y))) == "leq(X, add(0, Y))"
        assert str(num(2)) == "s(s(0))"
        assert str(X) == "X"

    def test_terms_hashable_and_equal_by_value(self):
        assert leq(X, Y) == leq(X, Y)
        assert hash(num(1)) == hash(num(1))
        assert num(1) != num(2)


# Builders of values that are equal each time, one per value class.
EQUAL_VALUES = {
    "Var": lambda: Var("X"),
    "Symbol": lambda: Symbol("s", 1, "constructor"),
    "App": lambda: leq(Var("X"), add(num(1), Var("Y"))),
    "Demand": lambda: Demand(((1,), (2, 1))),
    "Fail": Fail,
}


class TestValueClasses:
    @pytest.mark.parametrize("make", EQUAL_VALUES.values(), ids=EQUAL_VALUES)
    def test_separately_built_values_are_equal_and_hash_alike(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)

    @pytest.mark.parametrize("a, b", [
        (Var("X"), Var("Y")), (S, Symbol("s", 1, "operation")),
        (num(1), num(2)), (X, num(0)),
        (Demand(((1,),)), Demand(((2,),))), (Fail(), Demand(((1,),)))])
    def test_different_values_differ(self, a, b):
        assert a != b and b != a

    def test_a_variable_is_not_its_name(self):
        assert Var("X") != "X" and "X" != Var("X")

    @pytest.mark.parametrize("value, name", [
        (Var("X"), "name"), (S, "arity"), (num(1), "args"), (num(1), "ground"),
        (num(1), "root"), (num(1), "constructor_term"), (Var("X"), "_hash"),
        (num(1), "_width"), (Var("X"), "other")])
    def test_assignment_raises(self, value, name):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)

    def test_printed_forms(self):
        assert repr(X) == "Var(name='X')"
        assert repr(S) == "Symbol(name='s', arity=1, kind='constructor')"
        assert repr(add(X, num(1))) == "App('add(X, s(0))')"
        assert repr(Demand(((1,),))) == "Demand(positions=((1,),))"
        assert repr(num(sys.getrecursionlimit() + 10)).startswith("App('s(s(")


class TestPositions:
    def test_subterms_preorder(self):
        t = leq(X, add(num(0), Y))
        assert [(p, str(s)) for p, s in subterms(t)] == [
            ((), "leq(X, add(0, Y))"),
            ((1,), "X"),
            ((2,), "add(0, Y)"),
            ((2, 1), "0"),
            ((2, 2), "Y"),
        ]

    def test_subterm_at(self):
        t = leq(X, add(num(0), Y))
        assert subterm_at(t, ()) is t
        assert subterm_at(t, (2, 2)) == Y

    def test_subterm_at_bad_position(self):
        with pytest.raises(ValueError):
            subterm_at(num(1), (2,))

    def test_replace_at(self):
        t = leq(X, add(num(0), Y))
        assert str(replace_at(t, (2,), num(1))) == "leq(X, s(0))"
        assert replace_at(t, (), num(0)) == num(0)

    def test_var_positions(self):
        t = leq(X, add(num(0), Y))
        assert [p for p, u in subterms(t) if isinstance(u, Var)] == [(1,), (2, 2)]

    def test_term_size(self):
        """The preorder walker visits each node once: its count is the
        size of the term."""
        assert sum(1 for _ in _preorder(leq(X, add(num(0), Y)))) == 5
        assert sum(1 for _ in _preorder(X)) == 1

    def test_vars_of_first_occurrence_order(self):
        assert [v.name for v in vars_of(add(X, add(Y, X)))] == ["X", "Y"]

    def test_classification(self):
        assert is_linear(leq(X, Y))
        assert not is_linear(leq(X, X))


class TestSubstitution:
    def test_repr_sorted(self):
        s = Substitution({Y: num(1), X: num(0)})
        assert repr(s) == "{X -> 0, Y -> s(0)}"
        assert repr(IDENTITY) == "{}"

    def test_identity_is_falsy(self):
        assert not IDENTITY
        assert len(IDENTITY) == 0

    def test_domain_must_be_vars(self):
        with pytest.raises(TypeError):
            Substitution({"X": num(0)})

    def test_immutable(self):
        s = Substitution({X: num(0)})
        with pytest.raises(AttributeError):
            s.mapping = {}

    def test_apply(self):
        s = Substitution({X: App(S, (Y,))})
        assert str(s.apply(add(X, X))) == "add(s(Y), s(Y))"

    def test_restrict(self):
        """The test reference `restrict` keeps only the named variables."""
        s = Substitution({X: App(S, (Y,))})
        assert repr(restrict(s, [X])) == "{X -> s(Y)}"
        assert repr(restrict(s, [Var("Z")])) == "{}"

    def test_idempotence_check(self):
        assert is_idempotent(Substitution({X: App(S, (Y,))}))
        assert not is_idempotent(Substitution({X: App(S, (X,))}))

    def test_compose_applies_outer_to_inner_images(self):
        outer = Substitution({Var("Y1"): num(0)})
        inner = Substitution({Y: App(S, (Var("Y1"),))})
        assert repr(compose(outer, inner)) == "{Y -> s(0), Y1 -> 0}"

    def test_compose_keeps_outer_extra_bindings(self):
        outer = Substitution({X: num(0)})
        inner = Substitution({N: X})
        assert repr(compose(outer, inner)) == "{N -> 0, X -> 0}"


class TestUnifyAndMatch:
    def test_unify_success(self):
        s = unify(leq(num(0), N), leq(X, Y))
        assert repr(s) == "{N -> Y, X -> 0}"

    def test_unify_clash(self):
        assert unify(num(0), App(S, (X,))) is None

    def test_unify_same_var(self):
        assert repr(unify(X, X)) == "{}"

    def test_unify_occurs_check(self):
        assert unify(X, App(S, (X,))) is None

    def test_match_success(self):
        s = match(leq(X, Y), leq(num(0), add(num(0), num(0))))
        assert repr(s) == "{X -> 0, Y -> add(0, 0)}"

    def test_match_is_literal(self):
        assert match(num(0), X) is None
        assert match(leq(X, X), leq(num(0), num(1))) is None

    def test_is_variant(self):
        assert is_variant(leq(X, add(X, Y)), leq(M, add(M, N)))
        assert not is_variant(leq(X, add(X, Y)), leq(M, add(N, N)))
        assert not is_variant(leq(X, Y), leq(num(0), Y))


class TestSolve:
    def test_occurs_check_through_a_binding_chain(self):
        assert _solve([(X, Y), (Y, App(S, (X,)))]) is None

    def test_variable_pair_binds_the_left_variable(self):
        assert _solve([(X, Y)]).mapping == {X: Y}
        assert _solve([(Y, X)]).mapping == {Y: X}

    def test_long_variable_chain_resolves_to_its_end(self):
        xs = [Var(f"X{i}") for i in range(2001)]
        sigma = _solve(list(zip(xs, xs[1:])))
        assert is_idempotent(sigma)
        assert sigma.mapping == {x: xs[-1] for x in xs[:-1]}

    def test_later_bindings_resolve_earlier_images(self):
        sigma = _solve([(X, App(S, (Y,))), (Y, App(S, (N,))), (N, num(0))])
        assert repr(sigma) == "{N -> 0, X -> s(s(0)), Y -> s(0)}"
        assert list(sigma.mapping) == [X, Y, N]


class TestResolveChain:
    def test_later_bindings_resolve_earlier_images(self):
        chain: Chain = None
        for sigma in (Substitution({X: App(S, (Y,))}),
                      Substitution({Y: App(S, (N,))}),
                      Substitution({N: num(0), M: num(1)})):
            chain = (sigma, chain)
        assert repr(resolve_chain(chain, [X, M])) == "{M -> s(0), X -> s(s(0))}"


class TestLinearUnify:
    def test_demand(self):
        r = linear_unify(leq(Var("V1"), App(S, (Var("V2"),))),
                         leq(num(0), add(num(0), num(0))))
        assert r == Demand(positions=((2,),))

    def test_demand_first_argument(self):
        r = linear_unify(leq(App(S, (M,)), N),
                         leq(add(num(0), num(0)), add(num(0), num(0))))
        assert r == Demand(positions=((1,),))

    def test_success(self):
        r = linear_unify(leq(X, N), leq(num(0), add(num(0), num(0))))
        assert isinstance(r, Succ)
        assert repr(r.subst) == "{N -> add(0, 0), X -> 0}"

    def test_success_instantiates_goal_vars(self):
        r = linear_unify(leq(num(0), N), leq(X, Y))
        assert isinstance(r, Succ)
        assert repr(r.subst) == "{N -> Y, X -> 0}"

    def test_fail(self):
        assert linear_unify(leq(num(0), N), leq(num(1), num(0))) == Fail()

    @pytest.mark.parametrize("pattern, goal", [
        (X, leq(num(0), N)), (leq(X, N), Y), (leq(X, N), add(X, N))])
    def test_roots_must_agree(self, pattern, goal):
        with pytest.raises(ValueError, match="root mismatch"):
            linear_unify(pattern, goal)

    def test_pattern_must_be_linear(self):
        with pytest.raises(ValueError, match="not linear"):
            linear_unify(leq(X, X), leq(num(0), num(0)))

    def test_pattern_and_goal_must_not_share_variables(self):
        with pytest.raises(ValueError, match=r"share variables: \['N', 'X'\]"):
            linear_unify(leq(X, N), leq(N, X))


    def test_overlay_of_a_nonlinear_goal(self):
        """A goal variable met by several constructor patterns: their
        equations unify iff the patterns overlay without a clash."""
        a, b = Var("A"), Var("B")
        # f(s(X), s(0), pr(s(Y), N))
        lhs = App(F3, (App(S, (X,)), num(1), App(PAIR, (App(S, (Y,)), N))))
        for goal_args, unifies in [
                ((a, a, App(PAIR, (b, b))), True),  # s(X) ~ s(0) for A
                ((a, num(1), App(PAIR, (a, b))), True),  # s(X) ~ s(Y)
                ((a, App(S, (a,)), App(PAIR, (b, b))), False),  # s(X) ~ 0
                ((a, App(S, (b,)), App(PAIR, (b, num(0)))), False)]:  # 0 ~ s(Y)
            assert linear_overlay(linear_walk(flatten(lhs), App(F3, goal_args))) is unifies
        # f(s(0), s(s(X)), Y): a pattern variable constrains nothing.
        lhs = App(F3, (num(1), App(S, (App(S, (X,)),)), Y))
        for goal_args, unifies in [((a, b, a), True), ((a, a, b), False),
                                   ((a, b, App(PAIR, (a, a))), True)]:
            assert linear_overlay(linear_walk(flatten(lhs), App(F3, goal_args))) is unifies


class TestFreshVars:
    def test_sequential_names(self):
        g = FreshVars()
        assert [g.fresh().name for _ in range(3)] == ["V1", "V2", "V3"]

    def test_avoid(self):
        g = FreshVars(avoid=[Var("V2")])
        assert [g.fresh().name for _ in range(3)] == ["V1", "V3", "V4"]

    def test_start(self):
        assert FreshVars(start=3).fresh().name == "V4"

    def test_renaming_suffixes(self):
        r = renaming(FreshVars(), [Var("A"), Var("B")])
        assert repr(r) == "{A -> A_1, B -> B_1}"

    def test_skipping_a_renaming_advances_as_drawing_it(self):
        # X_3 is taken, so the renaming of X that would get suffix _3
        # moves on to _4, with or without being built.
        avoid = [Var("X_3"), Var("V9")]
        lists = [[X], [X, Y], [X], [], [N, X], [Var("V")], [X]]
        drawn, skipped = FreshVars(avoid), FreshVars(avoid)
        names = []
        for variables in lists:
            theta = renaming(drawn, variables)
            assert list(theta.mapping) == variables
            names.append([theta.apply(v).name for v in variables])
            skipped.skip(variables)
            assert skipped._avoid == drawn._avoid
            assert skipped._counter == drawn._counter
        assert names[2] == ["X_4"]
        assert names[-1] == ["X_8"]
        assert skipped.fresh() == drawn.fresh() == Var("V10")

    def test_skip_advances_as_suffixed(self):
        """Only an avoided name whose text after its last underscore is
        the next suffix's number makes `skip` build names: X_3 and Xs_12
        collide with renamings of X and Xs, X_03 and _7 with none, and
        Y_9 is reserved after drawing has begun."""
        xs = Var("Xs")
        avoid = [Var(n) for n in ("X_3", "Xs_12", "X_03", "_7")]
        drawn, skipped = FreshVars(avoid), FreshVars(avoid)
        built = []
        suffixed = skipped.suffixed
        skipped.suffixed = lambda variables: built.append(
            skipped._counter + 1) or suffixed(variables)
        lists = [[X], [X, Y], [X], [], [N], [X], [xs], [Y], [Y], [xs],
                 [X, xs], [xs], [Y], [X]]
        for k, variables in enumerate(lists):
            if k == 5:
                drawn.reserve([Var("Y_9")])
                skipped.reserve([Var("Y_9")])
            names = drawn.suffixed(variables)
            skipped.skip(variables)
            assert skipped._counter == drawn._counter, (k, names)
        assert built == [3, 7, 9, 12]
        assert drawn._counter == 17  # _3, _9 and _12 were passed over
        assert skipped.fresh() == drawn.fresh() == Var("V18")

    def test_a_renaming_equals_the_checked_substitution(self):
        variables = [X, Y, N]
        theta = renaming(FreshVars([Var("Y_1")]), variables)
        checked = Substitution(dict(zip(variables, map(theta.apply, variables))))
        assert theta == checked and repr(theta) == repr(checked)
        assert list(theta.mapping) == list(checked.mapping) == variables

    def test_fresh_tuple(self):
        assert [v.name for v in FreshVars().fresh_tuple(2)] == ["V1", "V2"]

    def test_drawing_agrees_with_recording_every_drawn_name(self):
        """Seeded sequences of draws and reservations against the parent
        class, which also skips every name it drew before.  The avoided
        names look like drawn ones (V3, X_4, A_1_2, V1_7), and some
        reservations take names drawn earlier, as `msg` operands do."""
        pool = [Var(n) for n in ("X", "A", "A_1", "V", "V1", "Y_2")]
        for seed in range(300):
            rng = random.Random(seed)

            def looks_drawn():
                k = rng.randint(1, 12)
                return Var(rng.choice([f"V{k}", f"X_{k}", f"A_1_{k}",
                                       f"V1_{k}", f"Y_2_{k}", f"A_{k}"]))

            avoid = [looks_drawn() for _ in range(rng.randint(0, 6))]
            start = rng.randint(0, 4)
            gen, ref = FreshVars(avoid, start), ParentFreshVars(avoid, start)
            reserved, drawn = {v.name for v in avoid}, []
            for _ in range(40):
                op = rng.randrange(4)
                if op == 0:
                    got, want = gen.fresh(), ref.fresh()
                    drawn.append(got)
                elif op == 1:
                    n = rng.randint(0, 3)
                    got, want = gen.fresh_tuple(n), ref.fresh_tuple(n)
                    drawn.extend(got)
                elif op == 2:
                    variables = rng.sample(pool, rng.randint(0, 3))
                    got, want = gen.suffixed(variables), ref.suffixed(variables)
                    drawn.extend(map(Var, got))
                else:
                    names = [looks_drawn() for _ in range(rng.randint(1, 3))]
                    names += rng.sample(drawn, min(len(drawn), 2))
                    gen.reserve(names)
                    ref.reserve(names)
                    reserved.update(v.name for v in names)
                    got = want = None
                assert got == want, seed
                assert gen._counter == ref._counter, seed
            assert gen._avoid == reserved, seed
            assert gen.fresh() == ref.fresh(), seed


class TestCanonicalRename:
    def test_first_occurrence_numbering(self):
        a, b = Var("A"), Var("B")
        out = canonical_rename([add(a, App(S, (b,))), a])
        assert [str(t) for t in out] == ["add(V1, s(V2))", "V1"]

    def test_keep(self):
        a, b = Var("A"), Var("B")
        out = canonical_rename([add(a, b)], keep=[a])
        assert str(out[0]) == "add(A, V1)"

    def test_prefix(self):
        out = canonical_rename([add(Var("A"), Var("B"))], prefix="U")
        assert str(out[0]) == "add(U1, U2)"


# --- randomized laws -------------------------------------------------------

VARS = st.sampled_from([X, Y, N, M])


def _terms(max_depth):
    if max_depth == 0:
        return st.one_of(VARS, st.just(num(0)))
    sub = _terms(max_depth - 1)
    return st.one_of(
        VARS,
        st.just(num(0)),
        st.builds(lambda a: App(S, (a,)), sub),
        st.builds(add, sub, sub),
        st.builds(leq, sub, sub),
    )


TERMS = _terms(3)


PAIR = Symbol("pr", 2, "constructor")
F3 = Symbol("f", 3, "operation")
HOLE = Var("_")


def _shapes(max_depth):
    """Constructor patterns with holes for the variables."""
    leaf = st.sampled_from([HOLE, num(0)])
    if max_depth == 0:
        return leaf
    sub = _shapes(max_depth - 1)
    return st.one_of(leaf, st.builds(lambda a: App(S, (a,)), sub),
                     st.builds(lambda a, b: App(PAIR, (a, b)), sub, sub))


def _fill_holes(t, names):
    """t with each hole replaced by the next variable of `names`."""
    if t == HOLE:
        return Var(next(names))
    return App(t.root, tuple(_fill_holes(a, names) for a in t.args))


def _goal_args(max_depth):
    """Goal arguments over two variables, constructors and, rarely, an
    operation call that the walk demands."""
    leaf = st.sampled_from([Var("A"), Var("B"), Var("A"), Var("B"), num(0)])
    if max_depth == 0:
        return leaf
    sub = _goal_args(max_depth - 1)
    return st.one_of(leaf, leaf, st.builds(lambda a: App(S, (a,)), sub),
                     st.builds(lambda a, b: App(PAIR, (a, b)), sub, sub),
                     st.builds(add, leaf, leaf))


def _walk_goal_args(max_depth):
    """Goal arguments over two variables, which repeat, and
    constructors, with an operation call possible at every depth."""
    leaf = st.sampled_from([Var("A"), Var("B"), num(0)])
    if max_depth == 0:
        return leaf
    sub = _walk_goal_args(max_depth - 1)
    return st.one_of(leaf, st.builds(lambda a: App(S, (a,)), sub),
                     st.builds(lambda a, b: App(PAIR, (a, b)), sub, sub),
                     st.builds(add, sub, sub))


def _assert_walks_agree(lhs, goal):
    """The walk over lhs's shape gives the stack walk's Fail, Demand
    positions in order, or equations in order with the very subterms of
    both terms; a demand hands back the goal subterms at its positions."""
    walked, reference = linear_walk(flatten(lhs), goal), parent_linear_walk(lhs, goal)
    assert walked.__class__ is reference.__class__, (lhs, goal)
    if isinstance(walked, Demand):
        assert walked.positions == reference.positions, (lhs, goal)
        assert len(walked.subterms) == len(walked.positions)
        assert all(subterm_at(goal, q) is u
                   for q, u in zip(walked.positions, walked.subterms))
    elif isinstance(walked, list):
        assert len(walked) == len(reference), (lhs, goal)
        assert all(p is q and g is h
                   for (p, g), (q, h) in zip(walked, reference)), (lhs, goal)
    return walked


@settings(max_examples=500)
@given(st.tuples(*[_shapes(3)] * 3), st.tuples(*[_walk_goal_args(3)] * 3))
def test_walk_over_a_shape_agrees_with_the_stack_walk(shapes, goal_args):
    names = (f"X{i}" for i in itertools.count(1))
    lhs = App(F3, tuple(_fill_holes(shape, names) for shape in shapes))
    _assert_walks_agree(lhs, App(F3, goal_args))


class TestShape:
    # f(pr(s(X1), 0), X2, 0)
    LHS = App(F3, (App(PAIR, (App(S, (Var("X1"),)), num(0))), Var("X2"), num(0)))

    def test_entries_in_preorder(self):
        pr, s_x1, x1, zero, x2 = (
            self.LHS.args[0], self.LHS.args[0].args[0], Var("X1"), num(0), Var("X2"))
        assert flatten(self.LHS) == (
            (-1, 1, (1,), pr, 4), (0, 1, (1, 1), s_x1, 3), (1, 1, (1, 1, 1), x1, 3),
            (0, 2, (1, 2), zero, 4), (-1, 2, (2,), x2, 5), (-1, 3, (3,), zero, 6))
        assert flatten(App(ZERO)) == ()

    def test_a_clash_after_a_demand_fails(self):
        a, b = Var("A"), Var("B")
        call = add(a, b)
        for first, third in [(App(PAIR, (call, App(S, (a,)))), num(0)),
                             (App(PAIR, (call, num(0))), App(S, (b,))),
                             (App(PAIR, (App(S, (a,)), call)), App(S, (b,)))]:
            assert _assert_walks_agree(self.LHS, App(F3, (first, a, third))) == Fail()
        walked = _assert_walks_agree(
            self.LHS, App(F3, (App(PAIR, (call, call)), a, call)))
        assert walked == Demand(((1, 1), (1, 2), (3,)))


@settings(max_examples=300)
@given(st.tuples(*[_shapes(3)] * 3), st.tuples(*[_goal_args(2)] * 3))
def test_overlay_decides_linear_unification(shapes, goal_args):
    """On a linear constructor pattern and a goal, nonlinear ones
    included, the overlay test of the walk's equations agrees with
    solving them with the pattern renamed apart, and with
    `linear_unify` of the renamed pattern."""
    names = (f"X{i}" for i in itertools.count(1))
    lhs = App(F3, tuple(_fill_holes(shape, names) for shape in shapes))
    goal = App(F3, goal_args)
    walked = linear_walk(flatten(lhs), goal)
    theta = renaming(FreshVars(vars_of(goal)), vars_of(lhs))
    result = linear_unify(theta.apply(lhs), goal)
    if not isinstance(walked, list):
        assert result == walked
        return
    sigma = _solve([(theta.apply(p), g) for p, g in walked])
    assert linear_overlay(walked) == (sigma is not None)
    assert isinstance(result, Succ) == (sigma is not None)


@given(TERMS, TERMS)
def test_unifier_unifies_and_is_idempotent(s, t):
    sigma = unify(s, t)
    if sigma is not None:
        assert sigma.apply(s) == sigma.apply(t)
        assert is_idempotent(sigma)


def derivation_chain(maps):
    """The chain of the substitutions of maps, and their composition.
    Along a derivation a bound variable never occurs again; maps that
    would break this are left out."""
    chain: Chain = None
    acc = IDENTITY
    bound = set()
    for m in maps:
        sigma = Substitution(m)
        image_vars = {v for u in m.values() for v in vars_of(u)}
        if bound & (set(sigma.domain()) | image_vars) or not is_idempotent(sigma):
            continue
        bound |= set(sigma.domain())
        chain = (sigma, chain)
        acc = compose(sigma, acc)
    return chain, acc


@given(st.lists(st.dictionaries(VARS, TERMS, max_size=2), max_size=4), TERMS)
def test_resolve_chain_agrees_with_eager_composition(maps, t):
    chain, acc = derivation_chain(maps)
    variables = vars_of(t)
    assert resolve_chain(chain, variables) == restrict(acc, variables)


def _solved_view(sigma):
    if sigma is None:
        return None
    return repr(sigma), [(x.name, str(t)) for x, t in sigma.mapping.items()]


@given(st.lists(st.tuples(TERMS, TERMS), max_size=4))
def test_solve_agrees_with_the_parent_solver(pairs):
    assert _solved_view(_solve(pairs)) == _solved_view(parent_solve(pairs))


def test_solve_agrees_with_the_parent_solver_on_each_outcome():
    occurs = [(X, Y), (Y, App(S, (X,)))]
    clash = [(leq(X, num(0)), leq(Y, num(1)))]
    variables = [(leq(X, Y), leq(Y, N)), (add(N, M), add(M, X))]
    nested = [(leq(X, add(Y, N)), leq(App(S, (M,)), add(M, num(0))))]
    for pairs in (occurs, clash, variables, nested):
        assert _solved_view(_solve(pairs)) == _solved_view(parent_solve(pairs))
    assert _solve(occurs) is None and _solve(clash) is None
    assert _solved_view(_solve(variables))[1] == [("X", "M"), ("Y", "M"), ("N", "M")]


@given(TERMS, TERMS, TERMS)
def test_compose_agrees_with_sequential_application(t, u, v):
    outer = Substitution({X: u})
    inner = Substitution({Y: v})
    assert compose(outer, inner).apply(t) == outer.apply(inner.apply(t))


@given(TERMS)
def test_replace_subterm_roundtrip(t):
    for p, _ in subterms(t):
        assert replace_at(t, p, subterm_at(t, p)) == t


@given(TERMS)
def test_canonical_rename_produces_variant(t):
    out = canonical_rename([t])[0]
    assert is_variant(out, t)
    assert canonical_rename([out])[0] == out


RENAMINGS = st.dictionaries(VARS, st.sampled_from([X, Y, Var("V1"), Var("V2")]))


@given(TERMS, TERMS, RENAMINGS)
def test_variant_key_decides_is_variant(s, t, renaming):
    """Keys are equal exactly for variants: against an unrelated term,
    and against a renamed copy, where a renaming that merges variables
    makes a proper instance instead."""
    renamed = Substitution(renaming).apply(s)
    for u in (t, renamed):
        assert is_variant(s, u) == (variant_key(s) == variant_key(u))
    assert variant_key(s) == canonical_rename([s])[0]


@given(TERMS, TERMS)
def test_match_recovers_instance(pattern, t):
    sigma = match(pattern, t)
    if sigma is not None:
        assert sigma.apply(pattern) == t


def _same_match(pattern, t):
    """`match` gives what the checked constructor gives: the same
    bindings, in the same order, or None."""
    got, ref = match(pattern, t), parent_match(pattern, t)
    assert (got is None) == (ref is None), (pattern, t)
    if got is not None:
        assert got == ref and list(got.mapping.items()) == list(
            ref.mapping.items()), (pattern, t)
    return got


@given(TERMS, TERMS, st.dictionaries(VARS, TERMS, max_size=3))
def test_match_agrees_with_the_checked_constructor(pattern, t, mapping):
    _same_match(pattern, t)
    _same_match(pattern, Substitution(mapping).apply(pattern))


def test_match_agrees_with_the_checked_constructor_on_the_corpus():
    """Every rule's left-hand side against every subterm of the rules
    and of the corpus goals' search trees, and against instances of
    itself."""
    from nspec.narrowing import Bounds, search

    matched = 0
    for name in sorted({name for name, _ in CORPUS_GOALS}):
        program = load(f"{name}.flp")
        terms = [u for rule in program.rules for u in (rule.lhs, rule.rhs)]
        for _, source in (g for g in CORPUS_GOALS if g[0] == name):
            result = search(parse_term(source, program.signature), program,
                            "needed", Bounds(max_steps=6, max_nodes=200))
            terms += [node.term for node in result.root.nodes()]
        subs = [u for t in terms for _, u in subterms(t)]
        for rule in program.rules:
            for u in subs:
                matched += _same_match(rule.lhs, u) is not None
            for u in subs[::7]:
                _same_match(u, rule.lhs)
            # Instances that bind a variable to itself, swap variables
            # or bind them to corpus subterms.
            xs = vars_of(rule.lhs)
            rotated = dict(zip(xs, xs[1:] + xs[:1]))
            for u in subs[::5]:
                for images in (rotated, {**rotated, xs[0]: u} if xs else {},
                               dict.fromkeys(xs, u)):
                    instance = Substitution(images).apply(rule.lhs)
                    matched += _same_match(rule.lhs, instance) is not None
    assert matched > 1000


def test_match_keeps_a_swap_and_drops_identities():
    swap = _same_match(leq(X, Y), leq(Y, X))
    assert swap.mapping == {X: Y, Y: X}
    kept = _same_match(leq(X, Y), leq(X, num(0)))
    assert kept.mapping == {Y: num(0)}
    assert match(leq(X, X), leq(X, X)) == IDENTITY
    assert match(leq(X, add(Y, Y)), leq(X, add(Y, Y))) == IDENTITY
    assert match(leq(X, X), leq(X, Y)) is None


@given(TERMS)
def test_size_counts_subterm_occurrences(t):
    assert sum(1 for _ in _preorder(t)) == len(list(subterms(t)))


# --- iterative walkers against recursive references ------------------------
#
# The walkers in nspec.terms loop over explicit stacks.  These recursive
# versions are the reference they must agree with on shallow terms.


def ref_vars_of(t):
    if isinstance(t, Var):
        return (t,)
    return tuple(dict.fromkeys(v for a in t.args for v in ref_vars_of(a)))


def ref_term_size(t):
    return 1 if isinstance(t, Var) else 1 + sum(ref_term_size(a) for a in t.args)


def ref_is_constructor_term(t):
    return isinstance(t, Var) or t.root.kind == "constructor" and all(
        ref_is_constructor_term(a) for a in t.args)


def ref_is_linear(t):
    occurrences = []

    def walk(u):
        if isinstance(u, Var):
            occurrences.append(u)
        else:
            for a in u.args:
                walk(a)

    walk(t)
    return len(occurrences) == len(set(occurrences))


def ref_apply(mapping, t):
    if isinstance(t, Var):
        return mapping.get(t, t)
    return App(t.root, tuple(ref_apply(mapping, a) for a in t.args))


def ref_replace_at(t, pos, s):
    if not pos:
        return s
    args = list(t.args)
    args[pos[0] - 1] = ref_replace_at(args[pos[0] - 1], pos[1:], s)
    return App(t.root, tuple(args))


def ref_canonical_rename(terms, keep=(), prefix="V"):
    taken = {v.name for v in keep}
    mapping, counter = {}, 0

    def walk(t):
        nonlocal counter
        if isinstance(t, Var):
            if t in keep:
                return t
            if t not in mapping:
                counter += 1
                while f"{prefix}{counter}" in taken:
                    counter += 1
                mapping[t] = Var(f"{prefix}{counter}")
            return mapping[t]
        return App(t.root, tuple(walk(a) for a in t.args))

    return [walk(t) for t in terms]


@given(TERMS)
def test_preorder_walkers_agree_with_recursive_references(t):
    assert vars_of(t) == ref_vars_of(t)
    assert sum(1 for _ in _preorder(t)) == ref_term_size(t)
    assert is_constructor_term(t) == ref_is_constructor_term(t)
    assert is_linear(t) == ref_is_linear(t)
    assert str(t) == ref_str(t)


def test_printer_agrees_with_the_reference_on_random_terms():
    """`App.__str__` prints first arguments in place and batches the
    closing parentheses of unary runs; symbols of arity 0 to 3, mixed,
    exercise every order of the text it keeps on its stack."""
    rng = random.Random(7)
    symbols = [Symbol(f"{kind[0]}{n}", n, kind) for n in range(4)
               for kind in ("constructor", "operation")]
    variables = [X, Y]

    def grow(depth):
        if depth == 0 or rng.random() < 0.15:
            return rng.choice(variables + [App(symbols[0]), App(symbols[1])])
        f = rng.choice(symbols)
        return App(f, tuple(grow(depth - 1) for _ in range(f.arity)))

    for _ in range(3000):
        t = grow(rng.randint(1, 8))
        assert str(t) == ref_str(t)


def test_width_is_the_length_of_the_printed_term():
    """`_width` measures without printing: the corpus goals, and calls
    of random programs on variables and on random arguments, each
    subterm measured after one other subterm was."""
    rng = random.Random(5)
    goals = [parse_term(source, load(f"{name}.flp").signature)
             for name, source in CORPUS_GOALS]
    for seed in range(60):
        program = random_program(seed)
        ops = [sym for sym in program.signature if sym.kind == "operation"]
        goals += generic_calls(program)
        goals += [App(f, tuple(random_term(rng, [X, Y], ops, 3)
                               for _ in range(f.arity))) for f in ops]
    for t in goals:
        parts = [u for _, u in subterms(t)]
        _width(rng.choice(parts))
        assert [_width(u) for u in parts] == [len(str(u)) for u in parts], t


@given(TERMS, st.dictionaries(VARS, TERMS, max_size=3))
def test_apply_agrees_with_recursive_reference(t, mapping):
    assert Substitution(mapping).apply(t) == ref_apply(mapping, t)


@given(TERMS, TERMS)
def test_replace_at_agrees_with_recursive_reference(t, s):
    for p, _ in subterms(t):
        assert replace_at(t, p, s) == ref_replace_at(t, p, s)


@given(st.lists(TERMS, max_size=3), st.sets(VARS))
def test_canonical_rename_agrees_with_recursive_reference(terms, keep):
    keep = frozenset(keep) | {Var("V2")}
    assert canonical_rename(terms, keep) == ref_canonical_rename(terms, keep)


def ref_is_ground(t):
    return not isinstance(t, Var) and all(ref_is_ground(a) for a in t.args)


SIGNATURE = Signature([ZERO, S, LEQ, ADD])


@given(TERMS, TERMS, st.lists(st.dictionaries(VARS, TERMS, max_size=2), max_size=3))
def test_cached_facts_agree_with_recursive_references(t, s, maps):
    chain, _ = derivation_chain(maps)
    built = [t, parse_term(str(t), SIGNATURE), *canonical_rename([t, s])]
    built += [Substitution(m).apply(t) for m in maps]
    built += [replace_at(t, p, s) for p, _ in subterms(t)]
    built += resolve_chain(chain, vars_of(t) + vars_of(s)).mapping.values()
    for u in built:
        for _, v in subterms(u):
            assert v.ground == ref_is_ground(v)
            assert v.constructor_term == ref_is_constructor_term(v)


@given(TERMS, TERMS, st.lists(st.dictionaries(VARS, TERMS, max_size=2), max_size=3))
def test_equal_terms_built_apart_hash_equal(t, s, maps):
    """An `App` stores its hash on first use, so two equal terms must
    hash equal however each was built and whichever of their subterms
    were hashed before."""
    chain, acc = derivation_chain(maps)
    z = Var("Z")  # occurs in no generated term
    pairs = [(t, parse_term(str(t), SIGNATURE)),
             (t, Substitution({z: X}).apply(Substitution({X: z}).apply(t))),
             (variant_key(t), canonical_rename([Substitution({X: z, Y: X}).apply(t)])[0])]
    pairs += [(t, replace_at(t, p, parse_term(str(u), SIGNATURE)))
              for p, u in subterms(t)]
    pairs += [(acc.apply(u), resolve_chain(chain, vars_of(u)).apply(u)) for u in (t, s)]
    for a, b in pairs:
        for u in getattr(b, "args", ()):
            hash(u)
        assert a == b and hash(a) == hash(b) and b in {a}


def test_cached_facts_take_no_part_in_equality_or_printing():
    t = add(num(1), X)
    assert (t.ground, t.constructor_term) == (False, False)
    assert (num(2).ground, num(2).constructor_term) == (True, True)
    assert (X.ground, X.constructor_term) == (False, True)
    assert "ground" not in repr(t) and "constructor_term" not in repr(t)
    assert t == add(num(1), X) and hash(t) == hash(add(num(1), X))


def test_ground_subterms_are_shared_not_rebuilt():
    big = num(50)
    t = leq(X, big)
    assert Substitution({X: Y}).apply(t).args[1] is big
    assert canonical_rename([t])[0].args[1] is big
    sigma = resolve_chain((Substitution({X: leq(Y, big)}), None), [X])
    assert sigma.apply(X).args[1] is big


@given(TERMS)
def test_apply_returns_the_term_itself_when_nothing_is_bound(t):
    assert Substitution({Var("Unbound"): num(1)}).apply(t) is t


def test_apply_shares_the_arguments_it_does_not_change():
    t = leq(add(num(2), Y), X)
    out = Substitution({X: num(0)}).apply(t)
    assert str(out) == "leq(add(s(s(0)), Y), 0)"
    assert out.args[0] is t.args[0]


# --- terms deeper than the recursion limit ---------------------------------

DEEP = 10 ** 5


def tower(n, base):
    """s^n(base), built bottom-up."""
    t = base
    for _ in range(n):
        t = App(S, (t,))
    return t


def text(n, base):
    return "s(" * n + base + ")" * n


class TestDeepTerms:
    """Walks of a 10^5-deep term."""

    deep = tower(DEEP, X)

    def test_print(self):
        assert str(self.deep) == text(DEEP, "X")

    def test_preorder_walkers(self):
        assert vars_of(self.deep) == (X,)
        assert sum(1 for _ in _preorder(self.deep)) == DEEP + 1
        assert is_constructor_term(self.deep)
        assert not is_constructor_term(tower(DEEP, add(X, Y)))
        assert is_linear(leq(self.deep, Y))
        assert not is_linear(leq(self.deep, X))

    def test_positions(self):
        bottom = (1,) * DEEP
        assert subterm_at(self.deep, bottom) is X
        assert str(replace_at(self.deep, bottom, num(0))) == text(DEEP, "0")

    def test_apply(self):
        assert str(Substitution({X: Y}).apply(self.deep)) == text(DEEP, "Y")
        assert Substitution({Y: X}).apply(self.deep) is self.deep

    def test_canonical_rename(self):
        [out] = canonical_rename([self.deep])
        assert str(out) == text(DEEP, "V1")

    def test_equality_below_a_recursion_limit_of_100(self):
        """Compared in a new thread, whose stack starts empty, with the
        limit lowered to 100: equal towers built apart, towers that
        differ only at the bottom, and towers sharing a deep subterm."""
        a, b = tower(DEEP, X), tower(DEEP, X)
        shared = tower(DEEP // 2, X)
        c, d = tower(DEEP // 2, shared), tower(DEEP // 2, shared)
        results = []
        thread = threading.Thread(target=lambda: results.extend((
            a == b, a != b, a == tower(DEEP, Y), a == tower(DEEP - 1, X),
            leq(a, Y) == leq(b, Y), c == d, c == a, a == X)))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setrecursionlimit(limit)
        assert not thread.is_alive()
        assert results == [True, False, False, False, True, True, True, False]

    def test_print_below_a_recursion_limit_of_100(self):
        """Printed in a new thread, whose stack starts empty, with the
        limit lowered to 100: a chain of first arguments f(f(..., 0), 0)
        and a cons list, each 10^5 deep."""
        f = Symbol("f", 2, "operation")
        cons, nil = Symbol("cons", 2, "constructor"), App(Symbol("nil", 0, "constructor"))
        chain, items = App(ZERO), nil
        for _ in range(DEEP):
            chain = App(f, (chain, App(ZERO)))
            items = App(cons, (App(ZERO), items))
        printed = []
        thread = threading.Thread(target=lambda: printed.extend((str(chain), str(items))))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setrecursionlimit(limit)
        assert not thread.is_alive()
        assert printed == ["f(" * DEEP + "0" + ", 0)" * DEEP,
                           "cons(0, " * DEEP + "nil" + ")" * DEEP]

    def test_width_below_a_recursion_limit_of_100(self):
        """Measured with the limit lowered to 100; one of the two towers
        is partly measured."""
        t = leq(tower(DEEP, X), tower(DEEP, add(X, Y)))
        assert _width(subterm_at(t, (2,) + (1,) * (DEEP // 2))) == len(
            text(DEEP // 2, "add(X, Y)"))
        assert below_recursion_limit(lambda: _width(t)) == len(
            f"leq({text(DEEP, 'X')}, {text(DEEP, 'add(X, Y)')})")

    def test_hash_below_a_recursion_limit_of_100(self):
        """Hashed in a new thread, whose stack starts empty, with the
        limit lowered to 100; one of the two towers is partly hashed."""
        a, b = tower(DEEP, X), tower(DEEP, X)
        hash(subterm_at(b, (1,) * (DEEP // 2)))
        hashes = []
        thread = threading.Thread(target=lambda: hashes.extend((hash(a), hash(b))))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setrecursionlimit(limit)
        assert not thread.is_alive()
        assert len(hashes) == 2 and hashes[0] == hashes[1]
