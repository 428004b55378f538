"""Partial evaluation: embedding, generalization, unfolding, closedness,
renaming, and the control loop."""

import pytest

from conftest import (
    CORPUS_GOALS,
    answer_set,
    eager_leaves,
    generic_calls,
    load,
    random_program,
)
from nspec.deftree import ProgramClassError, is_inductively_sequential
from nspec.narrowing import FAILING, Bounds, search
from nspec.peval import (
    PEControlError,
    UnfoldPolicy,
    abstract_add,
    closed,
    closure_sets,
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
from nspec.program import Rule
from nspec.syntax import parse_program, parse_term
from nspec.terms import FreshVars, Var, vars_of


def goal(prog, text):
    return parse_term(text, prog.signature)


class TestUnfoldPolicy:
    def test_defaults(self):
        policy = UnfoldPolicy()
        assert (policy.depth, policy.whistle, policy.strategy) == (2, True, "needed")

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
                      stop=(goal(leq_prog, "leq(A, add(A, B))"),))
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

    def test_unfold_depth_is_not_limited_by_recursion(self, loop_prog):
        tree = unfold(goal(loop_prog, "g(0)"), loop_prog,
                      UnfoldPolicy(depth=3000, whistle=False))
        nodes = tree.nodes()
        assert len(nodes) == 3001
        assert nodes[-1].status == "incomplete"
        [r] = resultants(tree)
        assert (str(r.lhs), str(r.rhs), len(r.steps)) == ("g(0)", "g(0)", 3000)


def _eager_resultants(tree):
    """Resultants of an unfold tree by eager composition along each path:
    the reference for the chains `resultants` resolves at its leaves."""
    call_vars = vars_of(tree.term)
    out = []
    for leaf, path, acc in eager_leaves(tree):
        if leaf.status != FAILING and path:
            sigma = acc.restrict(call_vars)
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
        assert repr(rho) == ("{append(append(Xs, Ys), Zs) |-> "
                             "append_pe0(Xs, Ys, Zs), "
                             "append(Xs, Ys) |-> append_pe1(Xs, Ys)}")
        assert len(rho) == 2
        assert S[0] in rho
        assert [str(s) for s in rho.symbols()] == ["append_pe0/3", "append_pe1/2"]

    def test_repeated_variables_collapse_in_pattern(self, leq_prog):
        S = [goal(leq_prog, "leq(X, add(X, Y))")]
        rho = independent_renaming(S, leq_prog.signature)
        assert repr(rho) == "{leq(X, add(X, Y)) |-> leq_pe0(X, Y)}"

    def test_name_collisions_are_skipped(self, append_prog):
        from nspec.program import Signature
        from nspec.terms import Symbol
        sig = Signature(list(append_prog.signature))
        sig.declare(Symbol("append_pe0", 1, "operation"))
        rho = independent_renaming([goal(append_prog, "append(Xs, Ys)")], sig)
        assert repr(rho) == "{append(Xs, Ys) |-> append_pe1(Xs, Ys)}"

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
