"""Brute-force oracles: enumeration, exhaustive rewriting, independence."""

import pytest

from conftest import load
from nspec.oracle import (
    ground_solutions,
    ground_terms,
    independent,
    one_step_rewrites,
    rewrites_to,
)
from nspec.syntax import parse_program, parse_term
from nspec.terms import App, Substitution, Symbol, Var


def goal(prog, text):
    return parse_term(text, prog.signature)


UNSOUND_CHAIN = (
    "constructors 0/0 s/1 ;\noperations f/1 g/1 h/1 ;\n"
    "g(0) -> s(0) ;\nh(s(X)) -> s(0) ;\nf(X) -> h(g(X)) ;\n")


class TestGroundTerms:
    def test_peano_terms_by_size(self, leq_prog):
        sig = leq_prog.signature
        out = ground_terms([sig.get("0"), sig.get("s")], 3)
        assert [str(t) for t in out] == ["0", "s(0)", "s(s(0))"]

    def test_all_constructors(self, leq_prog):
        out = ground_terms(leq_prog.signature.constructors(), 2)
        assert [str(t) for t in out] == [
            "0", "true", "false", "s(0)", "s(true)", "s(false)"]

    def test_zero_budget(self, leq_prog):
        sig = leq_prog.signature
        assert ground_terms([sig.get("0")], 0) == []

    def test_binary_constructor_combinations(self, append_prog):
        sig = append_prog.signature
        out = ground_terms([sig.get("nil"), sig.get("cons")], 3)
        assert [str(t) for t in out] == ["nil", "cons(nil, nil)"]

    def test_rejects_operations(self, leq_prog):
        with pytest.raises(ValueError, match="not a constructor"):
            ground_terms([leq_prog.signature.get("add")], 2)


class TestOneStepRewrites:
    def test_innermost_and_outermost_positions(self, leq_prog):
        t = goal(leq_prog, "leq(add(0, 0), s(add(0, 0)))")
        assert [str(u) for u in one_step_rewrites(leq_prog, t)] == [
            "leq(0, s(add(0, 0)))",
            "leq(add(0, 0), s(0))",
        ]

    def test_single_redex(self, leq_prog):
        t = goal(leq_prog, "add(s(0), s(0))")
        assert [str(u) for u in one_step_rewrites(leq_prog, t)] == [
            "s(add(0, s(0)))"]

    def test_normal_form_has_no_successors(self, leq_prog):
        assert one_step_rewrites(leq_prog, goal(leq_prog, "s(0)")) == []


class TestRewritesTo:
    def test_reachable_normal_form(self, leq_prog):
        assert rewrites_to(leq_prog, goal(leq_prog, "add(s(0), s(0))"),
                           goal(leq_prog, "s(s(0))"))

    def test_unreachable_term(self, leq_prog):
        assert not rewrites_to(leq_prog, goal(leq_prog, "add(s(0), s(0))"),
                               goal(leq_prog, "s(0)"))

    def test_equation_to_true(self, leq_prog):
        assert rewrites_to(leq_prog, goal(leq_prog, "leq(0, 0) ~ true"),
                           goal(leq_prog, "true"))

    def test_chained_calls(self, gfh_prog):
        assert rewrites_to(gfh_prog, goal(gfh_prog, "h(g(s(0)))"),
                           goal(gfh_prog, "s(0)"))

    def test_detects_unsound_specialization_shapes(self):
        """A program that only defines g on 0 cannot push other arguments
        through h(g(..)); the oracle distinguishes the reachable case."""
        p = parse_program(UNSOUND_CHAIN)
        assert rewrites_to(p, goal(p, "f(0)"), goal(p, "s(0)"))
        assert not rewrites_to(p, goal(p, "f(s(0))"), goal(p, "s(0)"))
        assert not rewrites_to(p, goal(p, "h(g(s(0)))"), goal(p, "s(0)"))


class TestGroundSolutions:
    def test_restricted_constructor_pool(self, leq_prog):
        sig = leq_prog.signature
        sols = ground_solutions(leq_prog, goal(leq_prog, "leq(X, Y) ~ true"),
                                2, constructors=[sig.get("0"), sig.get("s")])
        assert sorted(str(s) for s in sols) == [
            "{X -> 0, Y -> 0}",
            "{X -> 0, Y -> s(0)}",
            "{X -> s(0), Y -> s(0)}",
        ]

    def test_default_pool_is_the_whole_signature(self, leq_prog):
        sols = ground_solutions(leq_prog, goal(leq_prog, "leq(0, Y) ~ true"), 1)
        assert sorted(str(s) for s in sols) == [
            "{Y -> 0}", "{Y -> false}", "{Y -> true}"]

    def test_nonlinear_equation(self, leq_prog):
        sig = leq_prog.signature
        sols = ground_solutions(leq_prog,
                                goal(leq_prog, "leq(X, add(X, X)) ~ true"),
                                2, constructors=[sig.get("0"), sig.get("s")])
        assert sorted(str(s) for s in sols) == ["{X -> 0}", "{X -> s(0)}"]

    def test_unsatisfiable_equation(self, leq_prog):
        assert ground_solutions(leq_prog, goal(leq_prog, "0 ~ s(0)"), 2) == []

    def test_solutions_actually_rewrite_to_true(self, leq_prog):
        equation = goal(leq_prog, "leq(X, Y) ~ true")
        true = goal(leq_prog, "true")
        for sigma in ground_solutions(leq_prog, equation, 2):
            assert rewrites_to(leq_prog, sigma.apply(equation), true)

    def test_requires_an_equation(self, leq_prog):
        with pytest.raises(ValueError, match="expected an eq"):
            ground_solutions(leq_prog, goal(leq_prog, "leq(X, Y)"), 1)

    def test_requires_a_true_constructor(self):
        program = parse_program("constructors 0/0 ;\noperations f/1 ;\nf(X) -> 0 ;")
        x = Var("X")
        equation = App(Symbol("eq", 2, "operation"), (x, x))
        with pytest.raises(ValueError, match="no 'true' constructor"):
            ground_solutions(program, equation, 1)


class TestIndependence:
    def test_distinct_constructors_disagree(self, leq_prog):
        X = Var("X")
        s1 = Substitution({X: goal(leq_prog, "0")})
        s2 = Substitution({X: goal(leq_prog, "s(Y)")})
        assert independent(s1, s2, [X])

    def test_instance_overlap_is_dependent(self, leq_prog):
        X = Var("X")
        s1 = Substitution({X: goal(leq_prog, "s(Y)")})
        s2 = Substitution({X: goal(leq_prog, "s(0)")})
        assert not independent(s1, s2, [X])

    def test_identity_overlaps_everything(self, leq_prog):
        X = Var("X")
        assert not independent(Substitution({}),
                               Substitution({X: goal(leq_prog, "0")}), [X])

    def test_disagreement_on_any_variable_suffices(self, leq_prog):
        X, Y = Var("X"), Var("Y")
        s1 = Substitution({X: goal(leq_prog, "0"), Y: goal(leq_prog, "s(0)")})
        s2 = Substitution({X: goal(leq_prog, "0"), Y: goal(leq_prog, "0")})
        assert independent(s1, s2, [X, Y])
        assert not independent(s1, s2, [X])

    def test_equal_ground_answers_are_dependent(self, leq_prog):
        X = Var("X")
        s1 = Substitution({X: goal(leq_prog, "0")})
        assert not independent(s1, Substitution({X: goal(leq_prog, "0")}), [X])
