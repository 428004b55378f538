"""Partial evaluation: embedding, generalization, unfolding, closedness,
renaming, and the control loop."""

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import (
    CORPUS_GOALS,
    ParentFreshVars,
    answer_set,
    eager_leaves,
    generic_calls,
    is_variant,
    load,
    random_program,
    restrict,
    resultants_for,
)
from nspec import peval
from nspec.deftree import ProgramClassError, is_inductively_sequential
from nspec.narrowing import FAILING, Bounds, node_to_dict, search
from nspec.peval import (
    PEControlError,
    UnfoldPolicy,
    _covering,
    abstract_add,
    closed,
    embeds,
    independent_renaming,
    msg,
    outermost_operation_subterms,
    partial_evaluate,
    pe_control,
    rename_term,
    resultants,
    unfold,
)
from nspec.program import AND, EQ, ProgramError, Rule, add_strict_equality
from nspec.syntax import parse_program, parse_term
from nspec.terms import (
    App,
    CONSTRUCTOR,
    OPERATION,
    FreshVars,
    Substitution,
    Symbol,
    Var,
    is_constructor_term,
    is_operation_rooted,
    match,
    subterms,
    variant_key,
    vars_of,
)

BENCH_PROGRAMS = Path(__file__).resolve().parent.parent / "bench" / "programs"


def goal(prog, text):
    return parse_term(text, prog.signature)


class TestUnfoldPolicy:
    def test_defaults(self):
        policy = UnfoldPolicy()
        assert (policy.depth, policy.whistle, policy.strategy) == (2, True, "needed")

    @pytest.mark.parametrize("args", [{}, {"depth": 3, "whistle": False,
                                          "strategy": "lazy"}])
    def test_equal_policies_hash_alike(self, args):
        a, b = UnfoldPolicy(**args), UnfoldPolicy(**args)
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != UnfoldPolicy(depth=a.depth + 1)

    def test_assignment_raises(self):
        with pytest.raises(AttributeError):
            UnfoldPolicy().depth = 3

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            UnfoldPolicy(depth=0)

    def test_strategy_checked(self):
        with pytest.raises(ValueError):
            UnfoldPolicy(strategy="eager")


class TestEmbedding:
    def test_variables_embed_into_each_other(self, leq_prog):
        assert embeds(Var("X"), Var("Y"))

    def test_variable_does_not_embed_into_ground_term(self, leq_prog):
        assert not embeds(Var("X"), goal(leq_prog, "0"))

    def test_variable_embeds_wherever_a_variable_occurs(self, leq_prog):
        assert embeds(Var("X"), goal(leq_prog, "s(M)"))

    def test_diving(self, leq_prog):
        assert embeds(goal(leq_prog, "0"), goal(leq_prog, "s(0)"))

    def test_coupling(self, leq_prog):
        assert embeds(goal(leq_prog, "add(X, Y)"), goal(leq_prog, "add(s(X), Y)"))
        assert embeds(goal(leq_prog, "leq(X, Y)"), goal(leq_prog, "leq(s(X), s(Y))"))

    def test_not_antisymmetric_noise(self, leq_prog):
        assert not embeds(goal(leq_prog, "s(s(0))"), goal(leq_prog, "s(0)"))


class TestMostSpecificGeneralization:
    def test_clash_becomes_fresh_variable(self, leq_prog):
        w, th1, th2 = msg(goal(leq_prog, "leq(0, N)"),
                          goal(leq_prog, "leq(s(M), N)"), FreshVars())
        assert str(w) == "leq(V1, N)"
        assert repr(th1) == "{V1 -> 0}"
        assert repr(th2) == "{V1 -> s(M)}"

    def test_identical_terms_generalize_to_themselves(self, leq_prog):
        t = goal(leq_prog, "leq(X, add(X, X))")
        w, th1, th2 = msg(t, t, FreshVars())
        assert w == t
        assert repr(th1) == repr(th2) == "{}"

    def test_root_clash(self, leq_prog):
        w, th1, th2 = msg(goal(leq_prog, "0"), goal(leq_prog, "s(0)"), FreshVars())
        assert str(w) == "V1"
        assert (repr(th1), repr(th2)) == ("{V1 -> 0}", "{V1 -> s(0)}")

    def test_repeated_clash_pairs_share_one_variable(self, leq_prog):
        w, th1, th2 = msg(goal(leq_prog, "add(0, s(0))"),
                          goal(leq_prog, "add(s(0), s(s(0)))"), FreshVars())
        assert str(w) == "add(V1, s(V1))"
        assert (repr(th1), repr(th2)) == ("{V1 -> 0}", "{V1 -> s(0)}")

    def test_images_reconstruct_the_operands(self, leq_prog):
        t1 = goal(leq_prog, "leq(0, add(X, 0))")
        t2 = goal(leq_prog, "leq(s(X), add(X, s(0)))")
        w, th1, th2 = msg(t1, t2, FreshVars())
        assert th1.apply(w) == t1
        assert th2.apply(w) == t2


# --- explicit-stack embeds and msg against recursive references -----------


def ref_embeds(s, t):
    """The recursive definition that `embeds` decides from a stack."""
    if isinstance(s, Var) and isinstance(t, Var):
        return True
    if isinstance(t, App) and any(ref_embeds(s, a) for a in t.args):
        return True
    return (isinstance(s, App) and isinstance(t, App) and s.root == t.root
            and all(ref_embeds(x, y) for x, y in zip(s.args, t.args)))


def ref_msg(t1, t2, gen):
    """The recursive most specific generalization that `msg` computes
    from a stack, drawing fresh variables in the same order."""
    gen.reserve(vars_of(t1) + vars_of(t2))
    pairs = {}

    def walk(a, b):
        if a == b:
            return a
        if isinstance(a, App) and isinstance(b, App) and a.root == b.root:
            return App(a.root, tuple(walk(x, y) for x, y in zip(a.args, b.args)))
        if (a, b) not in pairs:
            pairs[(a, b)] = gen.fresh()
        return pairs[(a, b)]

    w = walk(t1, t2)
    return (w, Substitution({v: a for (a, _), v in pairs.items()}),
            Substitution({v: b for (_, b), v in pairs.items()}))


_Z = Symbol("z", 0, CONSTRUCTOR)
_SC = Symbol("sc", 1, CONSTRUCTOR)
_PR = Symbol("pr", 2, CONSTRUCTOR)
_F = Symbol("f", 2, OPERATION)
_G = Symbol("g", 1, OPERATION)
PE_TERMS = st.recursive(
    st.one_of(st.sampled_from([Var("X"), Var("Y"), Var("V1")]), st.just(App(_Z))),
    lambda sub: st.one_of(
        st.builds(lambda a: App(_SC, (a,)), sub),
        st.builds(lambda a: App(_G, (a,)), sub),
        st.builds(lambda a, b: App(_PR, (a, b)), sub, sub),
        st.builds(lambda a, b: App(_F, (a, b)), sub, sub)),
    max_leaves=12)


@given(PE_TERMS, PE_TERMS)
def test_embeds_agrees_with_the_recursive_definition(s, t):
    assert embeds(s, t) == ref_embeds(s, t)
    assert embeds(s, s) and ref_embeds(s, s)
    for _, u in subterms(t):
        assert embeds(u, t) == ref_embeds(u, t)


@given(PE_TERMS, PE_TERMS)
def test_msg_agrees_with_the_recursive_generalization(t1, t2):
    gen, ref_gen = FreshVars(), FreshVars()
    w, th1, th2 = msg(t1, t2, gen)
    rw, rth1, rth2 = ref_msg(t1, t2, ref_gen)
    assert (str(w), repr(th1), repr(th2)) == (str(rw), repr(rth1), repr(rth2))
    assert w == rw and th1.apply(w) == t1 and th2.apply(w) == t2
    assert gen.fresh() == ref_gen.fresh()  # the same names were drawn


def s_chain(program, k, bottom):
    """s^k(bottom)."""
    succ = program.signature.get("s")
    for _ in range(k):
        bottom = App(succ, (bottom,))
    return bottom


def test_embeds_of_long_chains_takes_polynomial_time(leq_prog):
    """s^k(X) against s^(k-1)(Y): the dives and couplings reach the same
    pairs of subterms exponentially often in k, so each pair must be
    decided once."""

    def chain(k, bottom):
        return s_chain(leq_prog, k, bottom)

    assert not embeds(chain(200, Var("X")), chain(199, Var("Y")))
    assert embeds(chain(199, Var("X")), chain(200, Var("Y")))
    for k in range(1, 9):
        for j in range(1, 9):
            s, t = chain(k, Var("X")), chain(j, Var("Y"))
            assert embeds(s, t) == ref_embeds(s, t) == (k <= j)


def test_embeds_and_msg_walk_deep_terms(leq_prog):
    """Neither walk recurses per term level.  (Equal but distinct deep
    subterms are still compared, and clash pairs hashed, by the
    recursive generated `App.__eq__`/`__hash__`.)"""
    leq = leq_prog.signature.get("leq")

    def spine(bottom, k=5000):
        return s_chain(leq_prog, k, bottom)

    ground = spine(goal(leq_prog, "0"))
    assert embeds(App(leq, (Var("X"), ground)), App(leq, (Var("Y"), ground)))
    assert embeds(spine(Var("X"), 10), spine(Var("Y")))
    assert not embeds(spine(Var("X")), spine(goal(leq_prog, "0")))
    w, th1, th2 = msg(App(leq, (Var("X"), ground)),
                      App(leq, (goal(leq_prog, "0"), ground)), FreshVars())
    assert w == App(leq, (Var("V1"), ground))
    assert (repr(th1), repr(th2)) == ("{V1 -> X}", "{V1 -> 0}")


class TestUnfold:
    def test_two_level_append_tree(self, append_prog):
        root = goal(append_prog, "append(append(Xs, Ys), Zs)")
        tree = unfold(root, append_prog, UnfoldPolicy(depth=2))
        assert [(str(n.term), n.status) for n in tree.nodes()] == [
            ("append(append(Xs, Ys), Zs)", "inner"),
            ("append(Ys, Zs)", "inner"),
            ("Zs", "success"),
            ("cons(V6, append(V7, Zs))", "incomplete"),
            ("append(cons(V2, append(V3, Ys)), Zs)", "inner"),
            ("cons(V2, append(append(V3, Ys), Zs))", "incomplete"),
        ]

    def test_append_resultants(self, append_prog):
        root = goal(append_prog, "append(append(Xs, Ys), Zs)")
        tree = unfold(root, append_prog, UnfoldPolicy(depth=2))
        out = [(str(r.lhs), str(r.rhs), repr(r.subst), len(r.steps))
               for r in resultants(tree)]
        assert out == [
            ("append(append(nil, nil), Zs)", "Zs",
             "{Xs -> nil, Ys -> nil}", 2),
            ("append(append(nil, cons(V6, V7)), Zs)",
             "cons(V6, append(V7, Zs))", "{Xs -> nil, Ys -> cons(V6, V7)}", 2),
            ("append(append(cons(V2, V3), Ys), Zs)",
             "cons(V2, append(append(V3, Ys), Zs))", "{Xs -> cons(V2, V3)}", 2),
        ]

    def test_root_stable_result_is_never_unfolded(self, gfh_prog):
        tree = unfold(goal(gfh_prog, "g(X)"), gfh_prog, UnfoldPolicy())
        assert [(str(n.term), n.status) for n in tree.nodes()] == [
            ("g(X)", "inner"),
            ("s(f(X))", "incomplete"),
        ]
        assert [(str(r.lhs), str(r.rhs)) for r in resultants(tree)] == [
            ("g(X)", "s(f(X))"),
        ]

    def test_depth_bound(self, leq_prog):
        tree = unfold(goal(leq_prog, "leq(X, add(X, Y))"), leq_prog,
                      UnfoldPolicy(depth=1))
        assert [(str(n.term), n.status) for n in tree.nodes()] == [
            ("leq(X, add(X, Y))", "inner"),
            ("true", "success"),
            ("leq(s(V2), s(add(V2, Y)))", "incomplete"),
        ]

    def test_stop_set_matches_variants_below_the_root(self, leq_prog):
        tree = unfold(goal(leq_prog, "leq(X, add(X, Y))"), leq_prog,
                      UnfoldPolicy(depth=5),
                      stop_keys={variant_key(goal(leq_prog, "leq(A, add(A, B))"))})
        assert [(str(n.term), n.status) for n in tree.nodes()] == [
            ("leq(X, add(X, Y))", "inner"),
            ("true", "success"),
            ("leq(s(V2), s(add(V2, Y)))", "inner"),
            ("leq(V2, add(V2, Y))", "incomplete"),
        ]

    def test_whistle_stops_repeating_calls(self, loop_prog):
        tree = unfold(goal(loop_prog, "g(0)"), loop_prog,
                      UnfoldPolicy(depth=5, whistle=True))
        assert [(str(n.term), n.status) for n in tree.nodes()] == [
            ("g(0)", "inner"), ("g(0)", "inner"), ("g(0)", "incomplete")]

    def test_whistle_off_runs_to_depth(self, loop_prog):
        tree = unfold(goal(loop_prog, "g(0)"), loop_prog,
                      UnfoldPolicy(depth=3, whistle=False))
        assert [n.status for n in tree.nodes()] == [
            "inner", "inner", "inner", "incomplete"]

    def test_unnarrowable_root_is_failing(self, loop_prog):
        tree = unfold(goal(loop_prog, "h(0)"), loop_prog, UnfoldPolicy())
        assert [(str(n.term), n.status) for n in tree.nodes()] == [
            ("h(0)", "failing")]
        assert resultants(tree) == []

    def test_lazy_program_class_is_checked_once_per_unfold(
            self, leq_prog, monkeypatch):
        calls = []
        checked = Rule.is_left_linear
        monkeypatch.setattr(
            Rule, "is_left_linear", lambda r: calls.append(r) or checked(r))
        tree = unfold(goal(leq_prog, "leq(X, add(X, Y))"), leq_prog,
                      UnfoldPolicy(depth=3, whistle=False, strategy="lazy"))
        assert len(tree.nodes()) > 3
        assert len(calls) == len(leq_prog.rules)

    def test_lazy_unfold_rejects_non_left_linear_programs(self):
        p = parse_program(
            "constructors a/0 ;\noperations same/2 ;\n"
            "same(X, X) -> a ;\n")
        with pytest.raises(ProgramClassError,
                           match="lazy narrowing requires left-linear "
                                 "constructor-based rules"):
            unfold(parse_term("same(a, a)", p.signature), p,
                   UnfoldPolicy(strategy="lazy"))

    @pytest.mark.parametrize("program, source, policy, stop, causes", [
        ("gfh", "g(X)", UnfoldPolicy(), None, [None, "root-stable"]),
        ("leq", "leq(X, add(X, Y))", UnfoldPolicy(depth=5), "leq(A, add(A, B))",
         [None, "success", None, "stop"]),
        ("loop", "g(0)", UnfoldPolicy(depth=5), None, [None, None, "whistle"]),
        ("leq", "leq(X, add(X, Y))", UnfoldPolicy(depth=1), None,
         [None, "success", "depth"]),
    ])
    def test_each_local_control_cause_ends_an_unfold(
            self, request, program, source, policy, stop, causes):
        prog = request.getfixturevalue(f"{program}_prog")
        keys = {variant_key(goal(prog, stop))} if stop else frozenset()
        tree = unfold(goal(prog, source), prog, policy, stop_keys=keys)
        assert [n.cause for n in tree.nodes()] == causes

    def test_unfold_depth_is_not_limited_by_recursion(self, loop_prog):
        tree = unfold(goal(loop_prog, "g(0)"), loop_prog,
                      UnfoldPolicy(depth=3000, whistle=False))
        nodes = tree.nodes()
        assert len(nodes) == 3001
        assert nodes[-1].status == "incomplete"
        [r] = resultants(tree)
        assert (str(r.lhs), str(r.rhs), len(r.steps)) == ("g(0)", "g(0)", 3000)


def closure_sets(S, t):
    """Every way of proving t closed, as ordered (position, covering
    element) pairs; empty list iff t is not S-closed: the exhaustive
    reference for `closed`.

    Positions of entries under an instance step extend the covering
    element's variable positions, mirroring how the images sit inside
    the covered call.
    """
    S = list(S)

    def prefix(p, sets):
        return [tuple((p + q, s) for q, s in O) for O in sets]

    def product(parts):
        acc = [()]
        for alternatives in parts:
            acc = [done + extra for done in acc for extra in alternatives]
        return acc

    def derive(u):
        if isinstance(u, Var):
            return [()]
        out = []
        if u.root.kind == CONSTRUCTOR or u.root.name in (EQ, AND):
            per_arg = [prefix((i,), derive(a))
                       for i, a in enumerate(u.args, start=1)]
            if all(per_arg):
                out.extend(product(per_arg))
        if u.root.kind == OPERATION:
            for s in S:
                theta = match(s, u)
                if theta is None:
                    continue
                parts = []
                viable = True
                for q, sub in subterms(s):
                    if not isinstance(sub, Var):
                        continue
                    image_sets = derive(theta.apply(sub))
                    if not image_sets:
                        viable = False
                        break
                    parts.append(prefix(q, image_sets))
                if viable:
                    out.extend((((), s),) + rest for rest in product(parts))
        seen = {}
        for O in out:
            seen.setdefault(tuple(sorted(O, key=lambda e: (e[0], str(e[1])))))
        return list(seen)

    return derive(t)


def _eager_resultants(tree):
    """Resultants of an unfold tree by eager composition along each path:
    the reference for the chains `resultants` resolves at its leaves."""
    call_vars = vars_of(tree.term)
    out = []
    for leaf, path, acc in eager_leaves(tree):
        if leaf.status != FAILING and path:
            sigma = restrict(acc, call_vars)
            out.append((sigma.apply(tree.term), leaf.term, path, sigma))
    return out


def _resultant_view(tree):
    return [(r.lhs, r.rhs, r.steps, r.subst) for r in resultants(tree)]


class TestResultantsAgreeWithEagerComposition:
    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    @pytest.mark.parametrize("name, source", CORPUS_GOALS)
    def test_corpus_calls(self, name, source, strategy):
        program = load(f"{name}.flp")
        for depth in (1, 2, 3):
            tree = unfold(goal(program, source), program,
                          UnfoldPolicy(depth=depth, strategy=strategy))
            assert _resultant_view(tree) == _eager_resultants(tree)

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    def test_random_programs(self, strategy):
        count = 0
        for seed in range(60):
            program = random_program(seed)
            for call in generic_calls(program):
                tree = unfold(call, program,
                              UnfoldPolicy(depth=3, strategy=strategy))
                view = _resultant_view(tree)
                assert view == _eager_resultants(tree), (seed, call)
                count += len(view)
        assert count >= 100


class TestClosedness:
    def test_append_rhss_are_closed(self, append_prog):
        root = goal(append_prog, "append(append(Xs, Ys), Zs)")
        S = [root, goal(append_prog, "append(Xs, Ys)")]
        tree = unfold(root, append_prog, UnfoldPolicy(depth=2))
        assert all(closed(S, r.rhs) for r in resultants(tree))

    def test_closure_sets_enumerate_both_covers(self, append_prog):
        S = [goal(append_prog, "append(append(Xs, Ys), Zs)"),
             goal(append_prog, "append(Xs, Ys)")]
        t = goal(append_prog, "cons(X, append(append(Xs, Ys), Zs))")
        sets = [tuple((pos, str(term)) for pos, term in cs)
                for cs in closure_sets(S, t)]
        assert sets == [
            (((2,), "append(append(Xs, Ys), Zs)"),),
            (((2,), "append(Xs, Ys)"), ((2, 1), "append(Xs, Ys)")),
        ]

    def test_instance_closed_through_images(self, double_prog):
        S = [goal(double_prog, "add(X, Y)")]
        t = goal(double_prog, "s(add(0, s(0)))")
        assert closed(S, t)
        assert [tuple((pos, str(term)) for pos, term in cs)
                for cs in closure_sets(S, t)] == [(((1,), "add(X, Y)"),)]

    def test_uncovered_call_is_not_closed(self, append_prog):
        S = [goal(append_prog, "append(append(Xs, Ys), Zs)")]
        assert not closed(S, goal(append_prog, "append(Xs, Ys)"))
        assert closure_sets(S, goal(append_prog, "append(Xs, Ys)")) == []

    def test_constructor_terms_and_variables_are_closed(self, append_prog):
        S = [goal(append_prog, "append(Xs, Ys)")]
        assert closed(S, Var("X"))
        assert closed(S, goal(append_prog, "nil"))


class TestRenaming:
    def test_fresh_operations_per_call(self, append_prog):
        S = [goal(append_prog, "append(append(Xs, Ys), Zs)"),
             goal(append_prog, "append(Xs, Ys)")]
        rho = independent_renaming(S, append_prog.signature)
        assert [(str(s), str(p)) for s, p in rho.items()] == [
            ("append(append(Xs, Ys), Zs)", "append_pe0(Xs, Ys, Zs)"),
            ("append(Xs, Ys)", "append_pe1(Xs, Ys)")]
        assert len(rho) == 2
        assert S[0] in rho
        assert [str(p.root) for p in rho.values()] == ["append_pe0/3", "append_pe1/2"]

    def test_repeated_variables_collapse_in_pattern(self, leq_prog):
        S = [goal(leq_prog, "leq(X, add(X, Y))")]
        rho = independent_renaming(S, leq_prog.signature)
        assert [(str(s), str(p)) for s, p in rho.items()] == [
            ("leq(X, add(X, Y))", "leq_pe0(X, Y)")]

    def test_name_collisions_are_skipped(self, append_prog):
        from nspec.program import Signature
        from nspec.terms import Symbol
        sig = Signature(list(append_prog.signature))
        sig.declare(Symbol("append_pe0", 1, "operation"))
        rho = independent_renaming([goal(append_prog, "append(Xs, Ys)")], sig)
        assert [(str(s), str(p)) for s, p in rho.items()] == [
            ("append(Xs, Ys)", "append_pe1(Xs, Ys)")]

    def test_rename_term_rewrites_instances_recursively(self, append_prog):
        S = [goal(append_prog, "append(append(Xs, Ys), Zs)"),
             goal(append_prog, "append(Xs, Ys)")]
        rho = independent_renaming(S, append_prog.signature)
        t = goal(append_prog, "cons(X, append(append(Xs, Ys), Zs))")
        assert str(rename_term(rho, t)) == "cons(X, append_pe0(Xs, Ys, Zs))"
        assert str(rename_term(rho, goal(append_prog, "append(Ys, Zs)"))
                   ) == "append_pe1(Ys, Zs)"

    def test_rename_term_leaves_uncovered_calls_alone(self, leq_prog):
        rho = independent_renaming(
            [goal(leq_prog, "leq(X, add(X, Y))")], leq_prog.signature)
        assert str(rename_term(rho, goal(leq_prog, "add(X, Y)"))) == "add(X, Y)"

    def test_empty(self, append_prog):
        assert len(independent_renaming([], append_prog.signature)) == 0


class TestOutermostOperationSubterms:
    def test_crosses_equality_and_conjunction(self, leq_prog):
        t = goal(leq_prog, "eq(leq(X, Y), and(true, add(X, Y)))")
        assert [str(u) for u in outermost_operation_subterms(t)] == [
            "leq(X, Y)", "add(X, Y)"]

    def test_stops_at_outermost_operation(self, leq_prog):
        t = goal(leq_prog, "leq(add(0, 0), 0)")
        assert [str(u) for u in outermost_operation_subterms(t)] == [
            "leq(add(0, 0), 0)"]

    def test_collects_under_constructors(self, append_prog):
        t = goal(append_prog, "cons(X, append(Xs, Ys))")
        assert [str(u) for u in outermost_operation_subterms(t)] == [
            "append(Xs, Ys)"]

    def test_nothing_in_constructor_terms(self, leq_prog):
        assert outermost_operation_subterms(Var("X")) == []
        assert outermost_operation_subterms(goal(leq_prog, "s(0)")) == []


class TestAbstractAdd:
    def test_variant_is_dropped(self, leq_prog):
        S = [goal(leq_prog, "leq(X, Y)")]
        assert not abstract_add(S, goal(leq_prog, "leq(A, B)"), FreshVars())
        assert [str(s) for s in S] == ["leq(X, Y)"]

    def test_new_call_is_appended(self, leq_prog):
        S = [goal(leq_prog, "leq(X, Y)")]
        assert abstract_add(S, goal(leq_prog, "add(X, Y)"), FreshVars())
        assert [str(s) for s in S] == ["leq(X, Y)", "add(X, Y)"]

    def test_growing_call_generalizes_in_place(self, leq_prog):
        S = [goal(leq_prog, "add(X, s(0))")]
        gen = FreshVars()
        assert abstract_add(S, goal(leq_prog, "add(s(X), s(s(0)))"), gen)
        assert [str(s) for s in S] == ["add(V1, s(V2))"]

    def test_covered_growing_call_is_dropped(self, leq_prog):
        S = [goal(leq_prog, "add(X, s(X))")]
        assert not abstract_add(S, goal(leq_prog, "add(s(X), s(s(X)))"),
                                FreshVars())
        assert [str(s) for s in S] == ["add(X, s(X))"]

    def test_variable_collapsing_instance_is_dropped(self, leq_prog):
        S = [goal(leq_prog, "add(X, Y)")]
        assert not abstract_add(S, goal(leq_prog, "add(X, X)"), FreshVars())
        assert [str(s) for s in S] == ["add(X, Y)"]

    @pytest.mark.parametrize("element, instance", [
        ("f(X, Y)", "f(Z, Z)"),
        ("f(g(X), Y)", "f(g(Z), Z)"),
        ("f(X, s(Y))", "f(W, s(W))"),
    ])
    def test_variable_collapsing_instances_leave_s_and_keys(self, element, instance):
        """The element embeds into such an instance, so the embedding
        branch takes it, and their generalization is a variant of the
        element."""
        program = parse_program("constructors 0/0 s/1 g/1 ;\noperations f/2 ;\n"
                                "f(X, Y) -> 0 ;")
        S = [goal(program, element)]
        keys = {variant_key(S[0])}
        assert embeds(S[0], goal(program, instance))
        assert not abstract_add(S, goal(program, instance), FreshVars(), keys)
        assert [str(s) for s in S] == [element]
        assert keys == {variant_key(S[0])}

    def test_ground_refinement_is_kept(self, loop_prog):
        S = [goal(loop_prog, "h(f(X, g(Y)))")]
        assert abstract_add(S, goal(loop_prog, "h(f(0, g(0)))"), FreshVars())
        assert [str(s) for s in S] == ["h(f(X, g(Y)))", "h(f(0, g(0)))"]

    def test_operation_rooted_images_are_decomposed(self, gfh_prog):
        S = [goal(gfh_prog, "h(X)")]
        assert abstract_add(S, goal(gfh_prog, "h(g(X))"), FreshVars())
        assert [str(s) for s in S] == ["h(X)", "g(X)"]

    def test_rejects_constructor_rooted_candidates(self, leq_prog):
        with pytest.raises(ValueError, match="operation-rooted"):
            abstract_add([], goal(leq_prog, "s(0)"), FreshVars())


class TestPartialEvaluate:
    def test_the_uncovered_calls_of_an_open_specialization(self):
        """Each outermost call of each right-hand side is tested on its
        own and reported once, in rule order."""
        program = _bench_program("double_app.flp")
        result = partial_evaluate(
            program, [goal(program, "append(append(Xs, Ys), Zs)")],
            UnfoldPolicy(depth=1))
        assert not result.report.closed
        assert [str(u) for u in result.report.uncovered] == [
            "append(Ys, Zs)", "append(cons(V2, append(V3, Ys)), Zs)"]

    def test_leq_specialization(self, leq_prog):
        result = partial_evaluate(leq_prog,
                                  [goal(leq_prog, "leq(X, add(X, Y))")])
        assert [f"{r.label}: {r}" for r in result.rules] == [
            "P1: leq_pe0(0, Y) -> true",
            "P2: leq_pe0(s(V2), Y) -> leq_pe0(V2, Y)",
        ]
        assert result.report.closed
        assert result.report.uncovered == ()
        assert is_inductively_sequential(result.program).ok

    def test_specialized_program_keeps_builtin_equality(self, leq_prog):
        result = partial_evaluate(leq_prog,
                                  [goal(leq_prog, "leq(X, add(X, Y))")])
        ops = [s.name for s in result.program.signature.operations()]
        assert ops == ["leq_pe0", "eq", "and"]
        assert result.program.has_strict_equality

    def test_lazy_twin_produces_duplicate_rules(self, leq_prog):
        result = partial_evaluate(leq_prog,
                                  [goal(leq_prog, "leq(X, add(X, Y))")],
                                  UnfoldPolicy(strategy="lazy"))
        assert [f"{r.label}: {r}" for r in result.rules] == [
            "P1: leq_pe0(0, Y) -> true",
            "P2: leq_pe0(0, Y) -> true",
            "P3: leq_pe0(s(M_5), Y) -> leq_pe0(M_5, Y)",
        ]

    def test_empty_call_set_rejected(self, leq_prog):
        with pytest.raises(ValueError):
            partial_evaluate(leq_prog, [])

    def test_constructor_rooted_call_rejected(self, leq_prog):
        with pytest.raises(ValueError, match="operation-rooted"):
            partial_evaluate(leq_prog, [goal(leq_prog, "s(0)")])

    def test_a_user_defined_eq_is_not_taken_for_the_builtin(self):
        """Without `add_strict_equality`, eq is the program's own
        operation, and a residual that calls it is refused as a program
        with user eq/and rules is."""
        program = parse_program(
            "constructors true/0 zero/0 ;\noperations eq/2 f/1 ;\n"
            "eq(zero, zero) -> true ;\nf(X) -> eq(X, zero) ;\n")
        with pytest.raises(ProgramError, match="eq/and rules are user-defined"):
            partial_evaluate(program, [goal(program, "f(X)")],
                             UnfoldPolicy(depth=1))


class TestControlLoop:
    def test_append_reaches_closedness_by_generalizing(self, append_prog):
        outcome = pe_control(append_prog,
                             [goal(append_prog, "append(append(Xs, Ys), Zs)")])
        assert outcome.iterations == 2
        assert [str(s) for s in outcome.S] == [
            "append(append(Xs, Ys), Zs)", "append(V7, Zs)"]
        assert [f"{r.label}: {r}" for r in outcome.result.rules] == [
            "P1: append_pe0(nil, Ys, Zs) -> append_pe1(Ys, Zs)",
            "P2: append_pe0(cons(V2, V3), Ys, Zs) -> "
            "cons(V2, append_pe0(V3, Ys, Zs))",
            "P3: append_pe1(nil, Zs) -> Zs",
            "P4: append_pe1(cons(V2, V3), Zs) -> cons(V2, append_pe1(V3, Zs))",
        ]
        assert outcome.result.report.closed
        assert is_inductively_sequential(outcome.result.program).ok

    def test_ground_loop_stays_sequential(self, loop_prog):
        outcome = pe_control(loop_prog, [goal(loop_prog, "h(f(X, g(Y)))")])
        assert [str(s) for s in outcome.S] == [
            "h(f(X, g(Y)))", "h(f(0, g(0)))"]
        assert [f"{r.label}: {r}" for r in outcome.result.rules] == [
            "P1: h_pe0(0, 0) -> h_pe1",
            "P2: h_pe0(s(V2), Y) -> 0",
            "P3: h_pe1 -> h_pe1",
        ]
        assert is_inductively_sequential(outcome.result.program).ok

    def test_lazy_twin_breaks_sequentiality(self, loop_prog):
        result = partial_evaluate(loop_prog, [goal(loop_prog, "h(f(X, g(Y)))")],
                                  UnfoldPolicy(strategy="lazy"))
        assert [f"{r.label}: {r}" for r in result.rules] == [
            "P1: h_pe0(s(N_3), Y) -> 0",
            "P2: h_pe0(s(N_8), 0) -> h(s(f(N_8, g(0))))",
            "P3: h_pe0(X, 0) -> h_pe0(X, 0)",
        ]
        report = is_inductively_sequential(result.program)
        assert not report.ok
        assert report.failures == ("h_pe0",)

    def test_chained_calls_close_over_helpers(self, gfh_prog):
        outcome = pe_control(gfh_prog, [goal(gfh_prog, "g(X)"),
                                        goal(gfh_prog, "h(X)")])
        assert [str(s) for s in outcome.S] == ["g(X)", "h(X)", "f(X)"]
        assert [f"{r.label}: {r}" for r in outcome.result.rules] == [
            "P1: g_pe0(X) -> s(f_pe2(X))",
            "P2: h_pe1(s(V1)) -> s(0)",
            "P3: f_pe2(0) -> 0",
        ]

    def test_specialization_preserves_answers(self, gfh_prog):
        outcome = pe_control(gfh_prog, [goal(gfh_prog, "g(X)"),
                                        goal(gfh_prog, "h(X)")])
        g = goal(gfh_prog, "eq(h(g(s(0))), X)")
        renamed = rename_term(outcome.result.renaming, g)
        assert str(renamed) == "eq(h_pe1(g_pe0(s(0))), X)"
        original = search(g, gfh_prog, bounds=Bounds(max_steps=12))
        special = search(renamed, outcome.result.program,
                         bounds=Bounds(max_steps=12))
        assert answer_set(original) == answer_set(special) == {
            ("{X -> s(0)}", "true")}
        assert original.complete and special.complete

    def test_self_feeding_calls_converge(self, double_prog):
        outcome = pe_control(double_prog, [goal(double_prog, "double(X)")])
        assert [str(s) for s in outcome.S] == ["double(X)", "add(V1, s(V4))"]
        assert [f"{r.label}: {r}" for r in outcome.result.rules] == [
            "P1: double_pe0(0) -> 0",
            "P2: double_pe0(s(V3)) -> s(add_pe1(V3, V3))",
            "P3: add_pe1(0, V4) -> s(V4)",
            "P4: add_pe1(s(V2), V4) -> s(add_pe1(V2, V4))",
        ]

    def test_iteration_budget_is_enforced(self, append_prog):
        with pytest.raises(PEControlError) as err:
            pe_control(append_prog,
                       [goal(append_prog, "append(append(Xs, Ys), Zs)")],
                       max_iters=1)
        assert "no closed specialization after 1 iterations" in str(err.value)
        assert [str(t) for t in err.value.uncovered] == [
            "append(V7, Zs)", "append(append(V3, Ys), Zs)"]

    def test_definitional_trees_are_built_once_per_pe_control(self, monkeypatch):
        # Every module that holds the builder is patched, so the count
        # includes calls made through any import of it.
        from nspec import deftree, narrowing, peval
        calls = []
        build = deftree.is_inductively_sequential
        for module in (deftree, narrowing, peval):
            if hasattr(module, "is_inductively_sequential"):
                monkeypatch.setattr(
                    module, "is_inductively_sequential",
                    lambda p, *rest: calls.append(p) or build(p, *rest))
        program = load("append.flp")
        outcome = pe_control(program,
                             [goal(program, "append(append(Xs, Ys), Zs)")])
        assert outcome.iterations == 2
        assert calls == [program]


EQUATION_GOALS = [(name, source) for name, source in CORPUS_GOALS
                  if source.startswith("eq(")] + [
    ("append", "append(Xs, Ys) ~ Zs"), ("leq", "(X + X) ~ s(s(0))"),
    ("leq", "(X + Y) ~ s(s(0))")]


class TestEquationGoals:
    """Equation goals specialize: the residual calls the builtin eq/and
    that `add_strict_equality` writes after the specialized rules."""

    @pytest.mark.parametrize("name, source", EQUATION_GOALS)
    def test_closed_sequential_and_answer_preserving(self, name, source):
        """Unfold depths 1-3, whistle on and off.  The answer set of
        `append(Xs, Ys) ~ Zs` is infinite, so neither search completes."""
        program = load(f"{name}.flp")
        g = goal(program, source)
        original = search(g, program)
        compared = 0
        for depth in (1, 2, 3):
            for whistle in (True, False):
                policy = UnfoldPolicy(depth=depth, whistle=whistle)
                result = pe_control(program, [g], policy).result
                assert result.report.closed, policy
                assert is_inductively_sequential(result.program).ok, policy
                assert result.program.has_strict_equality
                special = search(rename_term(result.renaming, g), result.program)
                if original.complete and special.complete:
                    assert answer_set(special) == answer_set(original), policy
                    compared += 1
        assert compared == (0 if "~ Zs" in source else 6)


class TestClosednessAgainstClosureSets:
    """`closed` against the exhaustive enumeration of `closure_sets`."""

    @pytest.mark.parametrize("name", ["leq", "append", "double", "gfh", "loop"])
    def test_corpus_programs(self, name):
        program = load(f"{name}.flp")
        calls = generic_calls(program)
        call_sets = [calls, calls[:1]]
        for call in calls:
            outcome = pe_control(program, [call], UnfoldPolicy(depth=2))
            call_sets.append(list(outcome.S))
        terms = [r.rhs for r in program.rules]
        for call in calls:
            for depth in (1, 2):
                tree = unfold(call, program, UnfoldPolicy(depth=depth))
                terms += [r.rhs for r in resultants(tree)]
        checked = 0
        for S in call_sets:
            for t in terms:
                for _, u in subterms(t):
                    assert closed(S, u) == bool(closure_sets(S, u)), (S, u)
                    checked += 1
        assert checked >= 50


# --- the incremental control loop against the parent's ---------------------
#
# The control loop before unfold trees were kept across passes: every
# pass runs `partial_evaluate` over all of S, and `abstract_add` and its
# most-specific match scan S with `is_variant` and `match`.


def ref_most_specific_match(S, t):
    candidates = [s for s in S if match(s, t) is not None]
    if not candidates:
        return None
    best = []
    for s in candidates:
        dominated = any(
            other is not s and match(s, other) is not None
            and not is_variant(s, other)
            for other in candidates)
        if not dominated:
            best.append(s)
    return best[0]


def ref_abstract_add(S, u, gen):
    if any(is_variant(s, u) for s in S):
        return False
    for i, s in enumerate(S):
        if isinstance(s, App) and s.root == u.root and embeds(s, u):
            w, th_u, th_s = msg(u, s, gen)
            changed = False
            if not is_variant(w, s) and not any(is_variant(other, w) for other in S):
                S[i] = w
                changed = True
            for theta in (th_u, th_s):
                for img in theta.mapping.values():
                    for v in outermost_operation_subterms(img):
                        changed = ref_abstract_add(S, v, gen) or changed
            return changed
    covering = ref_most_specific_match(S, u)
    if covering is not None:
        images = list(match(covering, u).mapping.values())
        if all(isinstance(img, Var) for img in images):
            return False
        if all(is_constructor_term(img) for img in images):
            S.append(u)
            return True
        changed = False
        for img in images:
            for v in outermost_operation_subterms(img):
                changed = ref_abstract_add(S, v, gen) or changed
        return changed
    S.append(u)
    return True


def ref_pe_control(program, roots, policy, max_iters=32):
    """(S, result, iterations) of the parent's control loop."""
    gen = FreshVars(avoid=program.all_variables())
    for r in roots:
        gen.reserve(vars_of(r))
    S = []
    for r in roots:
        ref_abstract_add(S, r, gen)
    for iteration in range(1, max_iters + 1):
        result = partial_evaluate(program, S, policy)
        candidates = [u for _, rs in result.report.resultants for r in rs
                      for u in outermost_operation_subterms(r.rhs)]
        changed = False
        for u in candidates:
            changed = ref_abstract_add(S, u, gen) or changed
        if not changed:
            return tuple(S), result, iteration
    leftovers = tuple(u for u in candidates
                      if not any(is_variant(s, u) for s in S))
    raise PEControlError(
        "no closed specialization after "
        f"{max_iters} iterations; uncovered calls: "
        + ", ".join(str(u) for u in (leftovers or candidates)),
        leftovers or tuple(candidates))


def _control_view(run):
    """What a control loop returned or raised, as comparable text."""
    try:
        S, result, iterations = run()
    except Exception as exc:  # the error and its uncovered calls
        return (type(exc).__name__, str(exc),
                [str(u) for u in getattr(exc, "uncovered", ())])
    report = result.report
    return ([str(s) for s in S], iterations, repr(result.renaming),
            [f"{r.label}: {r}" for r in result.rules],
            report.closed, [str(u) for u in report.uncovered],
            [(str(call), [(str(r.lhs), str(r.rhs), repr(r.subst), len(r.steps))
                          for r in rs]) for call, rs in report.resultants])


def _outcome(program, roots, policy, max_iters=32):
    outcome = pe_control(program, roots, policy, max_iters)
    return outcome.S, outcome.result, outcome.iterations


POLICIES = [(strategy, whistle) for strategy in ("needed", "lazy")
            for whistle in (True, False)]


def _assert_same_control(program, roots, depths=(1, 2, 3), max_iters=32):
    for strategy, whistle in POLICIES:
        for depth in depths:
            policy = UnfoldPolicy(depth=depth, whistle=whistle, strategy=strategy)
            got = _control_view(lambda: _outcome(program, roots, policy, max_iters))
            want = _control_view(
                lambda: ref_pe_control(program, roots, policy, max_iters))
            assert got == want, ([str(r) for r in roots], policy)


def _bench_program(name):
    text = (BENCH_PROGRAMS / name).read_text(encoding="utf-8")
    return add_strict_equality(parse_program(text))


def _kmp_call(program, pattern):
    text = "nil"
    for c in reversed(pattern):
        text = f"cons({c}, {text})"
    return goal(program, f"match({text}, S)")


BENCH_TASKS = [("double_app.flp", "append(append(Xs, Ys), Zs)"),
               ("length_app.flp", "length(append(Xs, Ys))"),
               ("rev_acc.flp", "rev(append(Xs, Ys), nil)"),
               ("allones.flp", "length(allones(Xs))")]
KMP_PATTERNS = ["ab", "ba", "aab", "bba", "aaab", "bbbba"]


class TestIncrementalControlMatchesTheParentLoop:
    @pytest.mark.parametrize("name, call", BENCH_TASKS)
    def test_classic_bench_tasks(self, name, call):
        program = _bench_program(name)
        _assert_same_control(program, [goal(program, call)])

    @pytest.mark.parametrize("pattern", KMP_PATTERNS)
    def test_kmp_patterns(self, pattern):
        """The benchmark's a^(n-1)b patterns of lengths 2-5, a and b
        swapped by a coin; the swap changes no shape, so lengths 4 and 5
        run one of the two."""
        program = _bench_program("kmp.flp")
        _assert_same_control(program, [_kmp_call(program, pattern)])

    def test_a_stop_term_generalized_away(self):
        """With the whistle off, `next(G1, G2)` of the KMP matcher at
        depth 3 cuts trees at calls that a later pass generalizes in
        place: those trees must grow again past the former stop."""
        program = _bench_program("kmp.flp")
        _assert_same_control(program, [goal(program, "next(G1, G2)")],
                             depths=(3,))

    @pytest.mark.parametrize("name", ["leq", "append", "double", "gfh", "loop"])
    def test_generic_calls_of_the_corpus(self, name):
        program = load(f"{name}.flp")
        calls = generic_calls(program)
        for call in calls:
            _assert_same_control(program, [call])
        _assert_same_control(program, calls)

    @pytest.mark.parametrize("name, source", CORPUS_GOALS)
    def test_corpus_goals_and_the_iteration_cap(self, name, source):
        """Goals under eq assemble like the others, and a small cap ends
        both loops at the same pass with the same error."""
        program = load(f"{name}.flp")
        for max_iters in (1, 2, 32):
            _assert_same_control(program, [goal(program, source)],
                                 max_iters=max_iters)

    def test_random_programs(self):
        runs = 0
        for seed in range(60):
            program = random_program(seed)
            for call in generic_calls(program):
                _assert_same_control(program, [call], depths=(1, 2))
                runs += 1
        assert runs >= 100


def _resultants_view(rs):
    return [(str(r.lhs), str(r.rhs), repr(r.subst)) for r in rs]


def _check_reuse(monkeypatch, program, roots, depths=(1, 2, 3)):
    """Run pe_control under every policy and check each reuse of a kept
    unfolding against a fresh unfold of its call against that pass's
    stop keys, fresh names included.  Returns the number of reuses
    checked and the calls unfolded again although S still held them."""
    real = peval._Unfolded.reusable
    checked, rebuilt = 0, []
    for strategy, whistle in POLICIES:
        for depth in depths:
            policy = UnfoldPolicy(depth=depth, whistle=whistle, strategy=strategy)

            def reusable(entry, call, stop_keys):
                nonlocal checked
                if not real(entry, call, stop_keys):
                    if entry.call is call:
                        rebuilt.append((str(call), policy))
                    return False
                fresh = resultants(unfold(call, program, policy, stop_keys=stop_keys))
                assert _resultants_view(fresh) == _resultants_view(
                    entry.resultants), (str(call), policy)
                checked += 1
                return True

            monkeypatch.setattr(peval._Unfolded, "reusable", reusable)
            pe_control(program, roots, policy)
    return checked, rebuilt


class TestReuseMatchesAFreshUnfold:
    @pytest.mark.parametrize("name, call", BENCH_TASKS)
    def test_classic_bench_tasks(self, monkeypatch, name, call):
        """`allones` reuses nothing: at depths 2 and 3 it closes after
        one pass, and at depth 1 its first pass generalizes the root
        call in place."""
        program = _bench_program(name)
        checked, _ = _check_reuse(monkeypatch, program, [goal(program, call)])
        assert checked > 0 or name == "allones.flp"

    @pytest.mark.parametrize("pattern", KMP_PATTERNS)
    def test_kmp_patterns(self, monkeypatch, pattern):
        program = _bench_program("kmp.flp")
        checked, _ = _check_reuse(monkeypatch, program, [_kmp_call(program, pattern)])
        assert checked > 0

    def test_a_bound_node_before_a_later_step_is_unfolded_again(self, monkeypatch):
        """The call of `test_a_bound_node_before_a_later_step_keeps_its_test`:
        under needed narrowing with the whistle on, a pass adds its stop
        term to S, and the call is unfolded again."""
        program = _bench_program("kmp.flp")
        checked, rebuilt = _check_reuse(
            monkeypatch, program, [goal(program, "next(G1, G2)")], depths=(3,))
        assert checked > 0
        call = ("if(eqc(V1, V2), loop(V3, V4, cons(V5, V12), cons(V15, V16)), "
                "next(cons(V5, V12), cons(V15, V16)))")
        assert (call, UnfoldPolicy(depth=3)) in rebuilt


class TestUnfoldCache:
    def test_stop_tests_are_recorded_as_probes(self, append_prog):
        root = goal(append_prog, "append(append(Xs, Ys), Zs)")
        inner = goal(append_prog, "append(Ys, Zs)")
        probes = []
        unfold(root, append_prog, UnfoldPolicy(depth=2),
               stop_keys={variant_key(root)}, probes=probes)
        assert (variant_key(inner), False) in probes
        probes = []
        unfold(root, append_prog, UnfoldPolicy(depth=2),
               stop_keys={variant_key(root),
                          variant_key(goal(append_prog, "append(A, B)"))},
               probes=probes)
        assert (variant_key(inner), True) in probes

    def test_a_new_variant_of_an_inner_node_unfolds_the_call_again(
            self, append_prog):
        """Pass 1 unfolds the root, whose tree expands append(Ys, Zs).
        The pass adds append(V7, Zs), a variant of that inner node, to S;
        so pass 2 must unfold the root again, now stopping there."""
        root = goal(append_prog, "append(append(Xs, Ys), Zs)")
        outcome = pe_control(append_prog, [root], UnfoldPolicy(depth=2))
        assert [str(s) for s in outcome.S] == [
            "append(append(Xs, Ys), Zs)", "append(V7, Zs)"]
        assert (outcome.unfolds_built, outcome.unfolds_reused) == (3, 0)
        assert [str(r.rhs) for r in resultants_for(outcome.result.report, root)
                ] == ["append(Ys, Zs)", "cons(V2, append(append(V3, Ys), Zs))"]

    def test_unchanged_calls_are_reused(self, double_prog):
        outcome = pe_control(double_prog, [goal(double_prog, "double(X)")])
        assert outcome.iterations == 3
        assert (outcome.unfolds_built, outcome.unfolds_reused) == (3, 2)

    def test_kmp_counts(self):
        """KMP `bbbba` at unfold depth 2: 226 unfolds over 14 passes
        before unfold trees were kept, 70 while every stop test was
        kept, 50 now that misses on the depth bound after the last
        applied step are left out."""
        program = _bench_program("kmp.flp")
        outcome = pe_control(program, [_kmp_call(program, "bbbba")],
                             UnfoldPolicy(depth=2))
        assert (len(outcome.S), outcome.iterations) == (34, 14)
        assert (outcome.unfolds_built, outcome.unfolds_reused) == (50, 176)

    def test_a_bound_node_before_a_later_step_keeps_its_test(self):
        """In `next(G1, G2)` of the KMP matcher at depth 3, this call's
        tree has two incomplete leaves on the depth bound, variants of
        `stop` with two steps each, before a node that applies steps.
        Cutting them keeps the tree's shape but spares the fresh names
        their steps draw, so the later steps draw other names: the last
        leaf and the last two resultants differ (V19 where the uncut
        tree has V28).  The miss must stay a probe, so that adding
        `stop` to S unfolds the call again."""
        program = _bench_program("kmp.flp")
        call = goal(program, "if(eqc(V1, V2), loop(V3, V4, cons(V5, V12), "
                             "cons(V15, V16)), next(cons(V5, V12), cons(V15, V16)))")
        stop = goal(program, "loop(cons(V1, V2), V3, cons(V1, V2), V3)")
        policy = UnfoldPolicy(depth=3)
        probes = []
        tree = unfold(call, program, policy, probes=probes)
        cut = unfold(call, program, policy, stop_keys={variant_key(stop)})
        at_stop = [node for node in tree.nodes() if is_variant(node.term, stop)]
        assert [(node.offered, node.children) for node in at_stop] == [(2, []), (2, [])]
        assert [n.status for n in tree.nodes()] == [n.status for n in cut.nodes()]
        assert [str(n.term) for n in tree.nodes()][:-1] == [
            str(n.term) for n in cut.nodes()][:-1]
        assert (variant_key(stop), False) in probes
        before = [r.lhs for r in resultants(tree)]
        after = [r.lhs for r in resultants(cut)]
        assert all(is_variant(a, b) for a, b in zip(before, after))
        assert before[:-2] == after[:-2]
        assert "V28" in str(before[-1]) and "V19" in str(after[-1])

    def test_most_specific_match_ignores_other_roots(self, leq_prog):
        S = [goal(leq_prog, "add(X, Y)"), goal(leq_prog, "leq(X, Y)"),
             goal(leq_prog, "leq(0, Y)")]
        assert _covering(S, goal(leq_prog, "leq(0, s(0))"))[0] is S[2]
        assert _covering(S, goal(leq_prog, "add(0, 0)"))[0] is S[0]


@given(PE_TERMS, PE_TERMS)
def test_abstract_add_keys_stay_in_step(t1, t2):
    S = []
    keys = set()
    gen = FreshVars()
    for u in (t1, t2, App(_F, (t1, t2)), App(_G, (t2,))):
        if is_operation_rooted(u):
            ref_S = list(S)
            changed = abstract_add(S, u, gen, keys)
            assert keys == {variant_key(s) for s in S}
            assert len(keys) == len(S)
            assert changed == (S != ref_S)


def _unfold_views(program, calls):
    """The tree and resultants of every call under every policy."""
    views = []
    for strategy, whistle in POLICIES:
        for depth in (1, 2, 3):
            policy = UnfoldPolicy(depth=depth, whistle=whistle, strategy=strategy)
            for call in calls:
                root = unfold(call, program, policy)
                views.append((node_to_dict(root),
                              _resultants_view(resultants(root))))
    return views


def _control_views(program, roots):
    return [_control_view(lambda: _outcome(
                program, roots, UnfoldPolicy(depth=depth, whistle=whistle,
                                             strategy=strategy)))
            for strategy, whistle in POLICIES for depth in (1, 2, 3)]


class TestDrawnNamesNeedNoRecord:
    """Unfolding and control draw the same names with the parent
    `FreshVars`, which also skipped every name it drew."""

    @pytest.mark.parametrize("name, call", BENCH_TASKS + [
        ("kmp.flp", pattern) for pattern in KMP_PATTERNS])
    def test_bench_tasks(self, monkeypatch, name, call):
        program = _bench_program(name)
        roots = [_kmp_call(program, call) if name == "kmp.flp"
                 else goal(program, call)]
        views = _unfold_views(program, roots), _control_views(program, roots)
        monkeypatch.setattr(peval, "FreshVars", ParentFreshVars)
        assert (_unfold_views(program, roots),
                _control_views(program, roots)) == views

    @pytest.mark.parametrize("name", ["leq", "append", "double", "gfh", "loop"])
    def test_generic_calls_of_the_corpus(self, monkeypatch, name):
        program = load(f"{name}.flp")
        calls = generic_calls(program)
        views = (_unfold_views(program, calls),
                 [_control_views(program, [call]) for call in calls])
        monkeypatch.setattr(peval, "FreshVars", ParentFreshVars)
        assert (_unfold_views(program, calls),
                [_control_views(program, [call]) for call in calls]) == views


# The interpreter task: times(N, C, X) runs the code list C on X, N
# times, and times_hand.flp is its program for C = [inc, dbl] written
# by hand.  Per unfold depth: the residual rules without eq/and, and the
# needed-narrowing steps of times(s^n(0), [inc, dbl], X) for n = 1-3 and
# X = 0, s(0), as (original, specialized, hand-written).
INTERP_CODE = "cons(inc, cons(dbl, nil))"
INTERP_COUNTS = {
    1: (12, [(10, 10, 4), (11, 11, 5), (29, 29, 11), (33, 33, 15),
             (70, 70, 28), (82, 82, 40)]),
    2: (8, [(10, 5, 4), (11, 6, 5), (29, 16, 11), (33, 20, 15),
            (70, 40, 28), (82, 52, 40)]),
    3: (10, [(10, 5, 4), (11, 6, 5), (29, 15, 11), (33, 19, 15),
             (70, 38, 28), (82, 50, 40)]),
    4: (9, [(10, 4, 4), (11, 5, 5), (29, 14, 11), (33, 18, 15),
            (70, 35, 28), (82, 47, 40)]),
}


def _interp_counts(depth):
    """The residual rules and the step triples of INTERP_COUNTS at one
    depth; the three programs give the same answers on every goal."""
    original, hand = load("interp/times.flp"), load("interp/times_hand.flp")
    call = parse_term(f"times(N, {INTERP_CODE}, X)", original.signature)
    result = pe_control(original, [call], UnfoldPolicy(depth=depth)).result
    bounds = Bounds(max_steps=5000, max_nodes=10 ** 5)

    def run(goal, program):
        done = search(goal, program, "needed", bounds)
        assert done.complete
        return len(done.root.nodes()) - 1, answer_set(done)

    triples = []
    for n in (1, 2, 3):
        for x in ("0", "s(0)"):
            nat = "s(" * n + "0" + ")" * n
            goal = parse_term(f"times({nat}, {INTERP_CODE}, {x})", original.signature)
            runs = [run(goal, original),
                    run(rename_term(result.renaming, goal), result.program),
                    run(parse_term(f"times({nat}, {x})", hand.signature), hand)]
            assert runs[0][1] == runs[1][1] == runs[2][1], (depth, n, x)
            triples.append(tuple(steps for steps, _ in runs))
    rules = [r for r in result.program.rules if r.lhs.root.name not in (EQ, AND)]
    return len(rules), triples


class TestInterpreterTask:
    @pytest.mark.parametrize("depth", sorted(INTERP_COUNTS))
    def test_counts_are_pinned(self, depth):
        assert _interp_counts(depth) == INTERP_COUNTS[depth]

    @pytest.mark.xfail(strict=True, reason="target of ROADMAP items 1 and 10")
    @pytest.mark.parametrize("depth", sorted(INTERP_COUNTS))
    def test_jones_optimal(self, depth):
        """The specialized interpreter takes no more steps than the
        program written by hand."""
        _, triples = _interp_counts(depth)
        assert all(spec <= hand for _, spec, hand in triples)
