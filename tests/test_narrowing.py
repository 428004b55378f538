"""Narrowing strategies and the bounded search engine."""

import itertools
import random
from pathlib import Path

import pytest

from conftest import (
    CORPUS_GOALS,
    IDENTITY,
    ParentFreshVars,
    answer_set,
    below_recursion_limit,
    deterministically_evaluable,
    eager_leaves,
    generic_calls,
    list_text,
    load,
    nat_text,
    parent_linear_walk,
    parent_narrow,
    parent_renamed,
    parent_rewrite_step,
    parent_solve,
    random_program,
    random_term,
    renaming,
    restrict,
    steps_view,
    traced_peak,
)
from nspec import narrowing, program as program_module
from nspec.oracle import one_step_rewrites
from nspec.peval import UnfoldPolicy, unfold
from nspec.deftree import (Leaf, ProgramClassError, is_inductively_sequential, preorder,
                           require_class)
from nspec.narrowing import (
    SUCCESS,
    Bounds,
    Step,
    expand,
    lns,
    narrow,
    nns,
    node_to_dict,
    rewrite_normalize,
    search,
    strategy_steps,
)
from nspec.syntax import parse_program, parse_term
from nspec.program import Rule, add_strict_equality
from nspec.terms import (
    App,
    Demand,
    FreshVars,
    Substitution,
    Succ,
    Symbol,
    Var,
    canonical_rename,
    compose,
    flatten,
    is_constructor_term,
    is_operation_rooted,
    linear_unify,
    match,
    replace_at,
    subterm_at,
    variant_key,
    vars_of,
)


@pytest.fixture(scope="module")
def leq_trees(leq_prog):
    report = is_inductively_sequential(leq_prog)
    assert report.ok
    return report.trees


def goal(prog, text):
    return parse_term(text, prog.signature)


X = Var("X")


def _a_step():
    """A step built from scratch, the same each time."""
    f = Symbol("f", 1, "operation")
    rule = Rule(App(f, (Var("X_1"),)), Var("X_1"), "R1")
    sigma = Substitution({Var("Y"): App(Symbol("0", 0, "constructor"))})
    return Step((1,), rule, sigma)


class TestRecords:
    @pytest.mark.parametrize("make", [
        Bounds, lambda: Bounds(10, max_solutions=3), _a_step],
        ids=["Bounds", "Bounds-args", "Step"])
    def test_separately_built_records_are_equal_and_hash_alike(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)

    def test_bounds_defaults(self):
        assert Bounds() == Bounds(max_steps=25, max_nodes=2000, max_solutions=None)

    def test_a_step_prints_its_label(self):
        assert str(_a_step()) == "([1], R1, {Y -> 0})"


class TestNeededSteps:
    def test_two_steps_for_leq_of_add(self, leq_prog, leq_trees):
        steps = nns(goal(leq_prog, "leq(X, add(X, X))"), leq_trees, FreshVars())
        assert steps_view(steps, [X]) == [
            ((), "R1", "{X -> 0}"),
            ((2,), "R5", "{X -> s(V1)}"),
        ]

    def test_step_rendering(self, leq_prog, leq_trees):
        steps = nns(goal(leq_prog, "leq(X, add(X, X))"), leq_trees, FreshVars())
        assert [str(s) for s in steps] == [
            "([], R1, {X -> 0})",
            "([2], R5, {X -> s(V2)})",
        ]

    def test_no_instantiation_when_not_needed(self, leq_prog, leq_trees):
        steps = nns(goal(leq_prog, "leq(0, add(X, X))"), leq_trees, FreshVars())
        assert steps_view(steps, [X]) == [((), "R1", "{}")]

    def test_generic_call_reduces_without_binding(self, double_prog):
        trees = is_inductively_sequential(double_prog).trees
        steps = nns(goal(double_prog, "double(W)"), trees, FreshVars())
        assert steps_view(steps, [Var("W")]) == [((), "R3", "{}")]

    def test_rejects_constructor_rooted_terms(self, leq_prog, leq_trees):
        with pytest.raises(ValueError, match="operation-rooted"):
            nns(goal(leq_prog, "s(0)"), leq_trees, FreshVars())
        with pytest.raises(ValueError, match="operation-rooted"):
            nns(X, leq_trees, FreshVars())

    def test_a_symbol_of_another_signature_has_no_step(self, leq_prog, leq_trees):
        """A unary leq is not the program's leq/2: its tree is not entered,
        at the root or under another call."""
        other = App(Symbol("leq", 1, "operation"), (goal(leq_prog, "0"),))
        assert nns(other, leq_trees, FreshVars()) == []
        assert strategy_steps(other, leq_prog, "needed", leq_trees,
                              FreshVars()) == []
        nested = App(leq_prog.signature.get("add"), (other, goal(leq_prog, "0")))
        assert nns(nested, leq_trees, FreshVars()) == []
        assert strategy_steps(nested, leq_prog, "needed", leq_trees,
                              FreshVars(), count=True) == 0

    def test_an_operation_without_rules_has_no_step(self):
        program = parse_program("constructors 0/0 ;\noperations f/1 g/1 ;\n"
                                "f(X) -> g(X) ;")
        trees = is_inductively_sequential(program).trees
        assert "g" not in trees
        t = goal(program, "g(X)")
        assert nns(t, trees, FreshVars()) == []
        assert strategy_steps(t, program, "needed", trees, FreshVars()) == []
        assert strategy_steps(t, program, "needed", trees, FreshVars(),
                              count=True) == 0


class TestLazySteps:
    def test_three_steps_with_redundant_inner(self, leq_prog):
        steps = lns(goal(leq_prog, "leq(X, add(X, X))"), leq_prog, FreshVars())
        assert steps_view(steps, [X]) == [
            ((), "R1", "{X -> 0}"),
            ((2,), "R4", "{X -> 0}"),
            ((2,), "R5", "{X -> s(V1)}"),
        ]

    def test_root_step_without_demand(self, leq_prog):
        steps = lns(goal(leq_prog, "leq(0, 0)"), leq_prog, FreshVars())
        assert steps_view(steps, []) == [((), "R1", "{}")]

    def test_rejects_constructor_rooted_terms(self, leq_prog):
        with pytest.raises(ValueError, match="operation-rooted"):
            lns(goal(leq_prog, "s(0)"), leq_prog, FreshVars())

    def test_a_symbol_of_another_signature_has_no_step(self, leq_prog):
        """A unary leq is not the program's leq/2: no rule is walked."""
        other = App(Symbol("leq", 1, "operation"), (goal(leq_prog, "0"),))
        assert lns(other, leq_prog, FreshVars()) == []


def rewrite_step(t, position, rule):
    """A rewrite step: the narrowing step that binds nothing."""
    return narrow(t, Step(position, rule, IDENTITY))


class TestRewriteStep:
    def test_reduces_at_position(self, leq_prog):
        r1 = leq_prog.rules[0]
        r4 = leq_prog.rules[3]
        assert str(rewrite_step(goal(leq_prog, "add(0, s(0))"), (), r4)) == "s(0)"
        assert str(rewrite_step(goal(leq_prog, "leq(0, add(0, 0))"), (), r1)) == "true"
        assert str(rewrite_step(goal(leq_prog, "s(add(0, 0))"), (1,), r4)) == "s(0)"

    def test_mismatch_rejected(self, leq_prog):
        r4 = leq_prog.rules[3]
        with pytest.raises(ValueError, match="does not match"):
            rewrite_step(goal(leq_prog, "add(s(0), 0)"), (), r4)


def _hand_step(prog, position, label, bindings):
    """A step built by hand: a program rule by label, and a substitution
    given as {variable name: term text}."""
    rule = next(r for r in prog.rules if r.label == label)
    return Step(tuple(position), rule, Substitution(
        {Var(x): goal(prog, u) for x, u in bindings.items()}))


def _raised(call, *args):
    with pytest.raises(ValueError) as raised:
        call(*args)
    return str(raised.value)


class TestNarrowInOneWalk:
    """`narrow` matches the rule through the step's substitution and
    rebuilds only the path above the redex; `parent_narrow`, which
    applies the substitution to the whole term first, is the reference."""

    @pytest.mark.parametrize("source, position, label, bindings, expected", [
        # Non-idempotent: sigma(X) mentions Y, which sigma binds too.
        ("add(X, Y)", (), "R5", {"X": "s(Y)", "Y": "0"}, "s(add(Y, 0))"),
        ("add(X, Y)", (), "R4", {"X": "0", "Y": "X"}, "X"),
        ("leq(X, Y)", (), "R3", {"X": "s(Y)", "Y": "s(0)"}, "leq(Y, 0)"),
        # A variable of sigma also occurs outside the redex.
        ("leq(add(X, Y), X)", (1,), "R4", {"X": "0"}, "leq(Y, 0)"),
        ("leq(s(X), add(X, X))", (2,), "R5", {"X": "s(Z)"},
         "leq(s(s(Z)), s(add(Z, s(Z))))"),
        # Below the root, under a constructor.
        ("leq(s(X), s(add(X, Y)))", (2, 1), "R5", {"X": "s(Z)"},
         "leq(s(s(Z)), s(s(add(Z, Y))))"),
        # The redex is a variable of t that sigma binds.
        ("leq(X, 0)", (1,), "R4", {"X": "add(0, 0)"}, "leq(0, 0)"),
        # Nothing bound.
        ("leq(0, add(0, s(X)))", (2,), "R4", {}, "leq(0, s(X))"),
    ])
    def test_hand_built_steps(self, leq_prog, source, position, label,
                              bindings, expected):
        t = goal(leq_prog, source)
        step = _hand_step(leq_prog, position, label, bindings)
        reached = narrow(t, step)
        assert reached == parent_narrow(t, step)
        assert str(reached) == expected

    def test_siblings_that_sigma_leaves_alone_are_shared(self, leq_prog):
        t = goal(leq_prog, "leq(s(add(X, Y)), add(Z, s(Z)))")
        reached = narrow(t, _hand_step(leq_prog, (1, 1), "R4", {"X": "0"}))
        assert reached == goal(leq_prog, "leq(s(Y), add(Z, s(Z)))")
        assert reached.args[1] is t.args[1]
        t = goal(leq_prog, "leq(add(s(X), Y), add(X, Z))")
        reached = narrow(t, _hand_step(leq_prog, (1,), "R5", {"Y": "0"}))
        assert str(reached) == "leq(s(add(X, 0)), add(X, Z))"
        assert reached.args[1] is t.args[1]
        t = goal(leq_prog, "leq(add(0, s(0)), add(X, Z))")
        reached = rewrite_step(t, (1,), leq_prog.rules[3])
        assert str(reached) == "leq(s(0), add(X, Z))"
        assert reached.args[1] is t.args[1]

    @pytest.mark.parametrize("source, position, label, bindings", [
        ("add(X, Y)", (), "R4", {"X": "s(0)"}),
        ("leq(add(X, Y), X)", (1,), "R5", {"X": "0"}),
        ("leq(X, Y)", (), "R3", {"X": "s(Y)", "Y": "0"}),
        ("leq(s(X), s(X))", (), "R2", {"X": "s(Y)"}),
        ("add(X, Y)", (2,), "R4", {"Y": "s(0)"}),
        ("add(X, Y)", (3,), "R4", {}),
        ("leq(X, Y)", (1, 1), "R4", {"X": "0"}),
    ])
    def test_the_error_text_is_the_parent_one(self, leq_prog, source, position,
                                              label, bindings):
        t = goal(leq_prog, source)
        step = _hand_step(leq_prog, position, label, bindings)
        if position == (1, 1):
            # A position of sigma(t) only is not a step of t: it is read
            # on t, where the parent built sigma(t) and read it there.
            expected = ("invalid position (1, 1) in leq(X, Y): index 1 "
                        "(component 2) is out of range")
        else:
            expected = _raised(parent_narrow, t, step)
        assert _raised(narrow, t, step) == expected
        if not bindings:
            assert (_raised(rewrite_step, t, step.position, step.rule)
                    == _raised(parent_narrow, t, step))

    def test_rewrite_step_error_text(self, leq_prog):
        t = goal(leq_prog, "leq(s(X), add(s(0), 0))")
        for position, rule in (((2,), leq_prog.rules[3]), ((), leq_prog.rules[0]),
                               ((2, 3), leq_prog.rules[3])):
            assert _raised(rewrite_step, t, position, rule) == _raised(
                parent_narrow, t, Step(position, rule, IDENTITY))
        assert _raised(rewrite_step, t, (2,), leq_prog.rules[3]) == (
            "rule add(0, N) -> N does not match add(s(0), 0)")

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    @pytest.mark.parametrize("name, source", CORPUS_GOALS + [
        ("leq", "leq(Y, Y) ~ true"), ("append", "append(Xs, Xs) ~ Xs")])
    def test_every_step_of_a_search(self, name, source, strategy):
        program = load(f"{name}.flp")
        result = search(goal(program, source), program, strategy,
                        Bounds(max_steps=6, max_nodes=300))
        for node in result.root.nodes():
            for step, child in node.children:
                assert child.term == parent_narrow(node.term, step), step

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    def test_every_step_is_at_an_operation_rooted_position_of_t(self, strategy):
        """`narrow` reads a step's position on t, not on sigma(t): every
        step that a strategy builds addresses an operation-rooted subterm
        of t itself, on the corpus goals and on random programs."""
        searches = [(load(f"{name}.flp"), name, source)
                    for name, source in CORPUS_GOALS]
        for seed in range(60):
            program = random_program(seed)
            searches += [(program, seed, call) for call in generic_calls(program)]
        steps = 0
        for program, origin, source in searches:
            t = goal(program, source) if isinstance(source, str) else source
            result = search(t, program, strategy, Bounds(max_steps=5, max_nodes=150))
            for node in result.root.nodes():
                for step, _ in node.children:
                    redex = subterm_at(node.term, step.position)
                    assert is_operation_rooted(redex), (origin, node.term, step)
                    steps += 1
        assert steps >= 500, steps


class TestSearch:
    def test_enumerates_independent_answers(self, leq_prog):
        result = search(goal(leq_prog, "leq(s(X), Y) ~ true"), leq_prog)
        answers = answer_set(result)
        assert ("{X -> 0, Y -> s(V1)}", "true") in answers
        assert ("{X -> s(0), Y -> s(s(V1))}", "true") in answers
        assert not result.complete
        assert len(result.answers) == 23

    def test_deterministic_goal_has_single_branchless_answer(self, leq_prog):
        result = search(goal(leq_prog, "leq(0, add(X, X)) ~ true"), leq_prog)
        assert answer_set(result) == {("{}", "true")}
        assert result.complete
        assert len(result.root.children) == 1

    def test_answers_stream_smallest_first(self, leq_prog):
        result = search(goal(leq_prog, "leq(X, add(X, X)) ~ true"), leq_prog)
        assert [str(a) for a, _ in result.answers[:3]] == [
            "{X -> 0}", "{X -> s(0)}", "{X -> s(s(0))}"]
        assert len(result.answers) == 12
        assert not result.complete

    def test_lazy_strategy(self, leq_prog):
        result = search(goal(leq_prog, "add(0, 0)"), leq_prog, "lazy")
        assert answer_set(result) == {("{}", "0")}
        assert result.complete

    def test_max_solutions_cuts_enumeration(self, leq_prog):
        result = search(goal(leq_prog, "leq(X, s(0)) ~ true"), leq_prog,
                        bounds=Bounds(max_solutions=2))
        assert answer_set(result) == {("{X -> 0}", "true"),
                                      ("{X -> s(0)}", "true")}
        assert not result.complete

    def test_answers_do_not_depend_on_generator_state(self, leq_prog):
        g = goal(leq_prog, "leq(s(X), Y) ~ true")
        seeded = search(g, leq_prog, gen=FreshVars(start=50))
        assert answer_set(seeded) == answer_set(search(g, leq_prog))

    def test_unknown_strategy_rejected(self, leq_prog):
        with pytest.raises(ValueError, match="unknown strategy"):
            search(goal(leq_prog, "leq(X, Y) ~ true"), leq_prog, "optimal")

    def test_unknown_strategy_rejected_before_a_constructor_goal(self, leq_prog):
        with pytest.raises(ValueError, match="unknown strategy 'optimal'"):
            search(goal(leq_prog, "s(0)"), leq_prog, "optimal")

    def test_needed_requires_sequential_program(self):
        p = parse_program(
            "constructors a/0 b/0 ;\noperations f3/3 ;\n"
            "f3(a, b, X) -> a ;\nf3(b, X, a) -> a ;\nf3(X, a, b) -> a ;\n")
        with pytest.raises(ProgramClassError, match="no definitional tree "
                                                    "for: f3"):
            search(parse_term("f3(X, Y, Z)", p.signature), p)
        lazy = search(parse_term("f3(a, b, a)", p.signature), p, "lazy")
        assert answer_set(lazy) == {("{}", "a")}

    def test_failing_branch_is_recorded(self, leq_prog):
        result = search(goal(leq_prog, "leq(s(X), 0) ~ true"), leq_prog)
        assert result.answers == []
        assert result.complete
        assert [(str(n.term), n.status) for n in result.root.nodes()] == [
            ("eq(leq(s(X), 0), true)", "inner"),
            ("eq(false, true)", "failing"),
        ]

    def test_tree_statuses(self, leq_prog):
        result = search(goal(leq_prog, "leq(X, s(0)) ~ true"), leq_prog)
        assert [(str(n.term), n.status) for n in result.root.nodes()] == [
            ("eq(leq(X, s(0)), true)", "inner"),
            ("eq(true, true)", "inner"),
            ("true", "success"),
            ("eq(leq(V2, 0), true)", "inner"),
            ("eq(true, true)", "inner"),
            ("true", "success"),
            ("eq(false, true)", "failing"),
        ]
        assert result.root.offered == 2

    def test_node_bound_truncates(self, leq_prog):
        result = search(goal(leq_prog, "leq(X, Y) ~ true"), leq_prog,
                        bounds=Bounds(max_steps=2, max_nodes=4))
        assert not result.complete
        assert len(list(result.root.nodes())) == 4

    def test_derivation_length_is_not_limited_by_recursion(self, loop_prog):
        result = search(goal(loop_prog, "g(0)"), loop_prog,
                        bounds=Bounds(max_steps=5000, max_nodes=10000))
        assert result.answers == []
        assert not result.complete
        nodes = result.root.nodes()
        assert len(nodes) == 5001
        assert [n.status for n in nodes[-2:]] == ["inner", "incomplete"]

    def test_lazy_program_class_is_checked_once_per_search(
            self, leq_prog, monkeypatch):
        calls = []
        checked = Rule.is_left_linear
        monkeypatch.setattr(
            Rule, "is_left_linear", lambda r: calls.append(r) or checked(r))
        result = search(goal(leq_prog, "leq(X, add(X, X)) ~ true"), leq_prog,
                        "lazy", Bounds(max_steps=4))
        assert len(result.root.nodes()) > 10
        assert len(calls) == len(leq_prog.rules)

    def test_lazy_search_rejects_non_left_linear_programs(self):
        p = parse_program(
            "constructors a/0 ;\noperations same/2 ;\n"
            "same(X, X) -> a ;\n")
        with pytest.raises(ProgramClassError,
                           match="lazy narrowing requires left-linear "
                                 "constructor-based rules"):
            search(parse_term("same(a, a)", p.signature), p, "lazy")

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    def test_program_class_is_checked_before_a_constructor_goal(self, strategy):
        # Both strategies check the program up front, even when the goal
        # is already a value and no step is computed.
        p = parse_program(
            "constructors a/0 ;\noperations same/2 ;\n"
            "same(X, X) -> a ;\n")
        with pytest.raises(ProgramClassError, match=f"{strategy} narrowing requires"):
            search(parse_term("a", p.signature), p, strategy)

    def test_node_to_dict(self, leq_prog):
        result = search(goal(leq_prog, "leq(0, 0)"), leq_prog)
        assert node_to_dict(result.root) == {
            "term": "leq(0, 0)",
            "status": "inner",
            "arcs": [{
                "position": [],
                "rule": "R1",
                "subst": {},
                "node": {"term": "true", "status": "success", "arcs": []},
            }],
        }


# The status that each leaf cause stands for, written out apart from
# `narrowing.STATUS_OF`; None is a node that is being expanded.
STATUS_OF_CAUSE = {None: "inner", "success": "success", "failing": "failing",
                   "depth": "incomplete", "budget": "incomplete",
                   "cap": "incomplete", "root-stable": "incomplete",
                   "stop": "incomplete", "whistle": "incomplete"}


def check_causes(root, seen=None):
    """Every node's status is the one its cause stands for, every leaf
    has a cause, and a node with children is being expanded or was
    stopped by the node budget or the solution cap.  Returns whether
    some node is incomplete; `seen`, if given, collects the causes."""
    incomplete = False
    for node in root.nodes():
        if seen is not None:
            seen.add(node.cause)
        assert node.cause in STATUS_OF_CAUSE, node.cause
        assert node.status == STATUS_OF_CAUSE[node.cause]
        if node.children:
            assert node.cause in (None, "budget", "cap"), node.cause
        else:
            assert node.cause is not None, str(node.term)
        incomplete |= node.status == "incomplete"
    return incomplete


class TestLeafCauses:
    @pytest.mark.parametrize("source, bounds, causes, complete", [
        ("h(X)", Bounds(max_solutions=1), [None, "success"], True),
        ("h(0)", Bounds(max_solutions=1), ["failing"], True),
        ("g(0)", Bounds(max_steps=2, max_solutions=1), [None, None, "depth"], False),
        ("g(0)", Bounds(max_nodes=2, max_solutions=1), [None, "budget"], False),
        ("eq(X, Y)", Bounds(max_nodes=4, max_solutions=1), ["cap", "success"], False),
    ])
    def test_each_cause_ends_a_search(self, loop_prog, source, bounds, causes,
                                      complete):
        result = search(goal(loop_prog, source), loop_prog, bounds=bounds)
        assert [node.cause for node in result.root.nodes()] == causes
        assert result.complete is complete
        assert check_causes(result.root) is not complete

    def test_a_callback_cause_makes_an_incomplete_leaf(self, loop_prog):
        trees = require_class(loop_prog, "needed", "")
        seen = []

        def cut(node, ancestors):
            seen.append((str(node.term), list(ancestors)))
            return "stop" if ancestors else None

        root, successes, complete = expand(
            goal(loop_prog, "g(0)"), loop_prog, "needed", trees, None, 5, cut=cut)
        assert [(str(n.term), n.cause, n.offered) for n in root.nodes()] == [
            ("g(0)", None, 1), ("g(0)", "stop", 0)]
        assert (successes, complete) == ([], False)
        assert [(t, [str(a) for a in path]) for t, path in seen] == [
            ("g(0)", []), ("g(0)", ["g(0)"])]

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    def test_causes_agree_with_status_on_random_programs(self, strategy):
        """On the random programs of acceptance criterion 9, under bounds
        that stop searches in each way, and on unfold trees that stop at
        the calls themselves: every cause occurs."""
        seen = set()
        for seed in range(200):
            program = random_program(seed)
            calls = generic_calls(program)
            stop_keys = {variant_key(call) for call in calls}
            for call in calls:
                for bounds in (Bounds(max_steps=6, max_nodes=200),
                               Bounds(max_steps=4, max_nodes=12),
                               Bounds(max_steps=6, max_nodes=200, max_solutions=1)):
                    result = search(call, program, strategy, bounds)
                    assert check_causes(result.root, seen) is not result.complete
                for depth in (1, 3):
                    check_causes(unfold(call, program, UnfoldPolicy(
                        depth=depth, strategy=strategy), stop_keys=stop_keys), seen)
        assert seen == set(STATUS_OF_CAUSE)


class TestDeterministicEvaluation:
    """The test reference `deterministically_evaluable`, which acceptance
    criterion 11 relies on."""

    def test_ground_goal(self, leq_prog):
        assert deterministically_evaluable(
            goal(leq_prog, "add(s(0), s(0))"), leq_prog) is True

    def test_branching_goal(self, leq_prog):
        assert deterministically_evaluable(
            goal(leq_prog, "leq(X, add(X, X))"), leq_prog) is False

    def test_equation_goal(self, leq_prog):
        assert deterministically_evaluable(
            goal(leq_prog, "leq(0, 0) ~ true"), leq_prog) is True


class TestRewriteNormalize:
    def test_trace_to_normal_form(self, leq_prog):
        final, trace, suspended = rewrite_normalize(
            goal(leq_prog, "add(s(0), s(0))"), leq_prog)
        assert str(final) == "s(s(0))"
        assert trace == ["add(s(0), s(0))", "s(add(0, s(0)))", "s(s(0))"]
        assert not suspended

    def test_suspends_instead_of_guessing(self, leq_prog):
        t = goal(leq_prog, "leq(X, add(0, 0))")
        final, trace, suspended = rewrite_normalize(t, leq_prog)
        assert final == t
        assert trace == [str(t)]
        assert suspended

    def test_step_bound_is_not_a_suspension(self, leq_prog):
        t = goal(leq_prog, "add(" + "s(" * 150 + "0" + ")" * 150 + ", 0)")
        final, trace, suspended = rewrite_normalize(t, leq_prog, max_steps=25)
        assert not suspended
        assert len(trace) - 1 == 25 and str(final) == trace[-1]
        assert str(final).startswith("s(" * 25 + "add(")

    def test_equation_normalizes_to_true(self, leq_prog):
        final, trace, suspended = rewrite_normalize(
            goal(leq_prog, "leq(0, 0) ~ true"), leq_prog)
        assert str(final) == "true"
        assert trace == ["eq(leq(0, 0), true)", "eq(true, true)", "true"]
        assert not suspended

    def test_root_redex(self, leq_prog):
        final, trace, suspended = rewrite_normalize(goal(leq_prog, "leq(0, 0)"), leq_prog)
        assert trace == ["leq(0, 0)", "true"]
        assert str(final) == trace[-1] and not suspended

    def test_demanded_inner_redex(self, leq_prog):
        for source, first in [("leq(add(0, 0), 0)", "leq(0, 0)"),
                              ("add(add(0, 0), add(0, 0))", "add(0, add(0, 0))")]:
            _, trace, suspended = rewrite_normalize(goal(leq_prog, source), leq_prog)
            assert trace[1] == first, source
            assert not suspended

    def test_suspends_on_demanded_variable(self, leq_prog):
        t = goal(leq_prog, "leq(X, 0)")
        assert rewrite_normalize(t, leq_prog) == (t, [str(t)], True)

    def test_final_term_is_plugged_from_the_frames(self, append_prog):
        """A run that stops inside a constructor prefix returns the whole
        term, built from the finished arguments left of the call in
        focus and the pending ones right of it."""
        xs, ys = ["0", "s(0)"], ["s(0)", "0", "s(0)"]
        pending = f"append({list_text(['0'])}, nil)"
        t = goal(append_prog, f"cons(append({list_text(xs)}, nil), "
                              f"cons(append({list_text(ys)}, nil), {pending}))")
        final, trace, suspended = rewrite_normalize(t, append_prog, max_steps=5)
        reached = (f"cons({list_text(xs)}, cons(cons(s(0), cons(0, "
                   f"append({list_text(ys[2:])}, nil))), {pending}))")
        assert (final, trace[-1], suspended) == (
            goal(append_prog, reached), reached, False)
        t = goal(append_prog, f"cons({list_text(xs)}, "
                              f"cons(append(X, nil), {pending}))")
        assert rewrite_normalize(t, append_prog) == (t, [str(t)], True)

    def test_rewriting_draws_no_names_and_builds_no_variants(
            self, monkeypatch, leq_prog, loop_prog):
        """A rewrite step binds nothing, so the redex descent draws no
        fresh variable, no renaming suffix and no rule variant.  The
        program-class gate, whose tree builder draws the variables of
        its patterns, is not counted."""
        calls, counting = [], [True]
        for owner, name in [(Rule, "renamed"), (FreshVars, "fresh"),
                            (FreshVars, "suffixed")]:
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, _f=original, _n=name: (
                counting[0] and calls.append(_n), _f(*args))[1])
        gate = narrowing.require_class

        def uncounted_gate(*args):
            counting[0] = False
            try:
                return gate(*args)
            finally:
                counting[0] = True

        monkeypatch.setattr(narrowing, "require_class", uncounted_gate)
        two = "s(s(0))"
        final, trace, suspended = rewrite_normalize(
            goal(leq_prog, f"leq({two}, add({two}, {two}))"), leq_prog)
        assert (str(final), len(trace) - 1, suspended) == ("true", 5, False)
        final, trace, suspended = rewrite_normalize(
            goal(loop_prog, "g(0)"), loop_prog, max_steps=1000)
        assert (str(final), len(trace) - 1, suspended) == ("g(0)", 1000, False)
        assert calls == []


class TestAnswerShape:
    def test_values_are_constructor_terms(self, leq_prog):
        result = search(goal(leq_prog, "leq(X, s(0)) ~ true"), leq_prog)
        for sigma, value in result.answers:
            assert is_constructor_term(value)
            assert set(sigma.domain()) <= set(vars_of(goal(leq_prog,
                                                           "leq(X, s(0)) ~ true")))


def _eager_answers(result, goal_term):
    """The answers of a search tree by eager composition along each path:
    the reference for the chains the search resolves at its leaves."""
    goal_vars = vars_of(goal_term)
    out = []
    for leaf, _, acc in eager_leaves(result.root):
        if leaf.status != SUCCESS:
            continue
        answer = restrict(acc, goal_vars)
        renamed = canonical_rename(
            [answer.apply(v) for v in goal_vars] + [leaf.term], keep=goal_vars)
        out.append((Substitution(dict(zip(goal_vars, renamed[:-1]))),
                    renamed[-1]))
    return out


class TestAnswersAgreeWithEagerComposition:
    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    @pytest.mark.parametrize("name, source", CORPUS_GOALS)
    def test_corpus_goals(self, name, source, strategy):
        program = load(f"{name}.flp")
        g = goal(program, source)
        result = search(g, program, strategy, Bounds(max_steps=8, max_nodes=400))
        assert result.answers == _eager_answers(result, g)

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    def test_random_programs(self, strategy):
        answers = 0
        for seed in range(60):
            program = random_program(seed)
            for call in generic_calls(program):
                result = search(call, program, strategy,
                                Bounds(max_steps=6, max_nodes=200))
                assert result.answers == _eager_answers(result, call), (seed, call)
                answers += len(result.answers)
        assert answers >= 100


# --- the needed descent against the apply-based recursive reference ---------


PEANO = Path(__file__).parent.parent / "bench" / "programs" / "peano.flp"
# The program files of the tests and of the benchmark.
PROGRAM_FILES = [path for folder in ("tests/data", "tests/data/interp",
                                     "bench/programs")
                 for path in sorted((Path(__file__).parent.parent / folder)
                                    .glob("*.flp"))]

# The algebraic laws of the benchmark's narrow_wide workload, on peano.flp.
WIDE_LAWS = (
    "add(X, Y) ~ add(Y, X)",
    "add(add(X, Y), Z) ~ add(X, add(Y, Z))",
    "append(Xs, Ys) ~ append(Ys, Xs)",
    "append(append(Xs, Ys), Zs) ~ append(Xs, append(Ys, Zs))",
    "length(append(Xs, Ys)) ~ add(length(Ys), length(Xs))",
    "double(X) ~ add(Y, Y)",
)


# Goals of the benchmark's narrow_deep workload at k = 6, on peano.flp.
DEEP_GOALS = (
    "add(X, Y) ~ s(s(s(s(s(s(0))))))",
    "leq(X, s(s(s(s(s(s(0))))))) ~ true",
    "double(X) ~ s(s(s(s(s(s(0))))))",
    "append(Xs, Ys) ~ cons(0, cons(s(0), cons(0, nil)))",
)


# Goals whose first conjunct has dead children under the look-ahead of
# the needed descent: `s` and `cons` against 0, `cons` against s(0),
# each drawing the names of its image without being entered.  The goal
# variables V2 and V3 (against 0) or V3 (against s(0)) fall in the range
# of names those draws skip.
DEAD_CHILD_GOALS = (
    "and(eq(Y, 0), eq(V2, V3))",
    "and(eq(Y, s(0)), eq(V2, V3))",
)


# A tree that branches at 2, then at 1, then at [2, 1].  The look-ahead
# of the branch at 1 reads [2, 1] through the binding that the branch at
# 2 made; under f(A, A) the look-ahead at 2 reads A, the variable being
# bound; under f(A, s(s(A))) the child of 0 at 1 is dead.
STAGED = parse_program("constructors 0/0 s/1 ;\noperations f/2 ;\n"
                       "f(X, 0) -> 0 ;\nf(0, s(0)) -> s(0) ;\n"
                       "f(s(Z), s(s(Y))) -> Y ;")
STAGED_GOALS = ("f(A, B)", "f(A, A)", "f(s(A), A)", "f(A, s(s(A)))")


def peano():
    """peano.flp with strict equality: 6 constructors, so eq branches 6 ways."""
    return add_strict_equality(parse_program(PEANO.read_text()))


def ref_nns(t, node, trees, gen):
    """The recursive descent that `nns` replaced: a variable
    branch applies each child's instantiation to the whole term and
    descends into the result; rule variants are built eagerly."""
    if isinstance(node, Leaf):
        return [((), parent_renamed(node.rule, gen), [IDENTITY])]
    sub = subterm_at(t, node.position)
    results = []
    if isinstance(sub, Var):
        for child in node.children:
            ctor = subterm_at(child.pattern, node.position).root
            tau = Substitution({sub: App(ctor, gen.fresh_tuple(ctor.arity))})
            for pos, rule, parts in ref_nns(tau.apply(t), child, trees, gen):
                results.append((pos, rule, [tau] + parts))
    elif sub.root.kind == "constructor":
        for child in node.children:
            if subterm_at(child.pattern, node.position).root == sub.root:
                for pos, rule, parts in ref_nns(t, child, trees, gen):
                    results.append((pos, rule, [IDENTITY] + parts))
                break
    else:
        inner = trees.get(sub.root.name)
        if inner is not None:
            for pos, rule, parts in ref_nns(sub, inner, trees, gen):
                results.append((node.position + pos, rule, [IDENTITY] + parts))
    return results


def parent_compose_canonical(parts):
    """The composition of the reference descent's elementary parts, each
    binding one variable to a shallow constructor pattern, as a left
    fold of `compose`, cubic in the number of parts: the reference for
    a needed step's substitution, which `nns` reads off its bindings."""
    acc = IDENTITY
    for phi in parts:
        if phi:
            acc = compose(phi, acc)
    return acc


def _subst_view(sigma):
    """A substitution as printed, and its bindings in insertion order."""
    return repr(sigma), [(x.name, str(t)) for x, t in sigma.mapping.items()]


def _step_view(position, rule, subst):
    return position, str(rule), rule.label, rule.variables, _subst_view(subst)


def _descent_goals(program, call, strategy="needed"):
    """The operation-rooted terms of a bounded search tree from call:
    instantiated, nested and non-linear goals for the descent."""
    root = search(call, program, strategy, Bounds(max_steps=5, max_nodes=80)).root
    return [node.term for node in root.nodes() if is_operation_rooted(node.term)]


def _assert_descent_matches_reference(t, trees):
    tree = trees[t.root.name]
    gen, ref_gen = FreshVars(vars_of(t)), FreshVars(vars_of(t))
    new = [_step_view(s.position, s.rule, s.subst) for s in nns(t, trees, gen)]
    ref = [_step_view(pos, rule, parent_compose_canonical(parts))
           for pos, rule, parts in ref_nns(t, tree, trees, ref_gen)]
    assert new == ref, t
    # The same names were drawn: the same next suffix and fresh name.
    probe = (Var("M"), Var("V1"))
    assert renaming(gen, probe) == renaming(ref_gen, probe), t
    assert gen.fresh() == ref_gen.fresh(), t


class TestNeededDescentAgreesWithReference:
    @pytest.mark.parametrize("name, source", CORPUS_GOALS)
    def test_corpus_goals(self, name, source):
        program = load(f"{name}.flp")
        trees = is_inductively_sequential(program).trees
        for t in _descent_goals(program, goal(program, source)):
            _assert_descent_matches_reference(t, trees)

    def test_random_programs(self):
        checked = 0
        for seed in range(60):
            program = random_program(seed)
            trees = is_inductively_sequential(program).trees
            for call in generic_calls(program):
                for t in _descent_goals(program, call):
                    if t.root.name in trees:
                        _assert_descent_matches_reference(t, trees)
                        checked += 1
        assert checked >= 300

    @pytest.mark.parametrize("source", DEEP_GOALS + DEAD_CHILD_GOALS)
    def test_deep_goals(self, source):
        program = peano()
        trees = is_inductively_sequential(program).trees
        for t in _descent_goals(program, goal(program, source)):
            _assert_descent_matches_reference(t, trees)

    def test_a_bound_variable_is_read_through_its_binding(self, leq_prog):
        # X is instantiated at position 1 and read again at position 2.
        trees = is_inductively_sequential(leq_prog).trees
        _assert_descent_matches_reference(goal(leq_prog, "leq(X, X)"), trees)
        _assert_descent_matches_reference(
            goal(leq_prog, "leq(add(X, Y), add(Y, X))"), trees)

    @pytest.mark.parametrize("source", STAGED_GOALS)
    def test_a_look_ahead_reads_through_an_ancestor_binding(self, source):
        trees = is_inductively_sequential(STAGED).trees
        assert [node.position for node, _ in preorder(trees["f"])
                if not isinstance(node, Leaf)] == [(2,), (1,), (2, 1), (2, 1)]
        for t in _descent_goals(STAGED, goal(STAGED, source)):
            _assert_descent_matches_reference(t, trees)


def ref_lns(t, at, program, gen):
    """The recursive lazy descent that `lns` replaced, with eager rule
    variants."""
    sub = subterm_at(t, at)
    steps, demanded = [], {}
    for rule in program.rules:
        if not isinstance(sub, App) or rule.lhs.root != sub.root:
            continue
        variant = parent_renamed(rule, gen)
        outcome = linear_unify(variant.lhs, sub)
        if isinstance(outcome, Succ):
            steps.append(Step(at, variant, outcome.subst))
        elif isinstance(outcome, Demand):
            for q in outcome.positions:
                demanded.setdefault(at + q)
    for q in sorted(demanded):
        steps.extend(ref_lns(t, q, program, gen))
    return steps


def parent_lns(t, program, gen):
    """The lazy descent that `lns` replaced: a rule whose walk neither
    clashes nor demands is renamed, walked again and solved by the
    replaced unifier, as `linear_unify` did; any other rule draws its
    renaming without using it.  Variants are built eagerly."""
    steps = []
    stack = [((), t)]
    while stack:
        at, sub = stack.pop()
        demanded = {}
        for rule in program.rules_for(sub.root.name):
            if rule.lhs.root != sub.root:
                continue
            walked = parent_linear_walk(rule.lhs, sub)
            if isinstance(walked, list):
                variant = parent_renamed(rule, gen)
                sigma = parent_solve(parent_linear_walk(variant.lhs, sub))
                if sigma is not None:
                    steps.append(Step(at, variant, sigma))
                continue
            gen.suffixed(rule.variables)
            if isinstance(walked, Demand):
                for q in walked.positions:
                    demanded.setdefault(q)
        stack.extend((at + q, subterm_at(sub, q)) for q in sorted(demanded, reverse=True))
    return steps


def _assert_lazy_descent_matches_reference(t, program):
    gen, ref_gen, parent_gen = (FreshVars(vars_of(t)) for _ in range(3))
    new, ref, parent = (
        [_step_view(s.position, s.rule, s.subst) for s in steps]
        for steps in (lns(t, program, gen), ref_lns(t, (), program, ref_gen),
                      parent_lns(t, program, parent_gen)))
    assert new == ref == parent, t
    assert gen.fresh() == ref_gen.fresh() == parent_gen.fresh(), t


def _wide_signature(n):
    """Strict equality over n constructors, 0/0, s/1, true/0 (added with
    eq) and others of arities 0, 1 and 2 in turn: eq branches n ways."""
    ctors = " ".join(f"c{i}/{i % 3}" for i in range(n - 3))
    return add_strict_equality(parse_program(
        f"constructors 0/0 s/1 {ctors} ;\noperations id/1 ;\nid(X) -> X ;"))


class TestLookAhead:
    """At a variable, the needed descent reads each child's inductive
    position before entering it: a child that meets a constructor it
    does not accept only draws its image's names."""

    @pytest.mark.parametrize("program, width", [
        (peano(), 6), (_wide_signature(20), 20)])
    def test_one_binding_image_per_step(self, monkeypatch, program, width):
        """eq(Y, s^k(0)) has one step; only its binding of Y is built,
        not one per constructor of the signature."""
        trees = is_inductively_sequential(program).trees
        assert len(trees["eq"].children) == width
        y = Var("Y")
        for k in (1, 5):
            t = goal(program, f"eq(Y, {'s(' * k}0{')' * k})")
            steps = []
            # The one term built is the binding of Y, not one binding
            # per constructor of the signature.
            assert _terms_built(monkeypatch, lambda: steps.extend(
                nns(t, trees, FreshVars()))) == 1, k
            [step] = steps
            assert step.subst.mapping == {y: App(program.signature.get("s"),
                                                 (Var("V1"),))}


class TestLazyDescentAgreesWithReference:
    def test_several_demanded_positions_in_order(self, leq_prog):
        t = goal(leq_prog, "leq(add(X, Y), add(Y, add(X, 0)))")
        positions = [s.position for s in lns(t, leq_prog, FreshVars(vars_of(t)))]
        assert positions == [(1,), (1,), (2,), (2,)]
        _assert_lazy_descent_matches_reference(t, leq_prog)

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    @pytest.mark.parametrize("name, source", CORPUS_GOALS + [
        ("leq", "leq(Y, Y) ~ true"), ("append", "append(Xs, Xs) ~ Xs")])
    def test_corpus_goals(self, name, source, strategy):
        program = load(f"{name}.flp")
        for t in _descent_goals(program, goal(program, source), strategy):
            _assert_lazy_descent_matches_reference(t, program)

    @pytest.mark.parametrize("law", WIDE_LAWS)
    def test_wide_laws(self, law):
        program = peano()
        for strategy in ("needed", "lazy"):
            for t in _descent_goals(program, goal(program, law), strategy):
                _assert_lazy_descent_matches_reference(t, program)

    def test_random_programs(self):
        for seed in range(60):
            program = random_program(seed)
            for call in generic_calls(program):
                for strategy in ("needed", "lazy"):
                    for t in _descent_goals(program, call, strategy):
                        _assert_lazy_descent_matches_reference(t, program)


class TestShapesAreBuiltOnce:
    """A rule's left-hand side is flattened on its first lazy walk and
    kept (`Rule.shape`); parsing flattens nothing, and rewriting
    flattens the two sides of a rule when it first fires it."""

    @pytest.fixture
    def built(self, monkeypatch):
        out = []
        monkeypatch.setattr(program_module, "flatten",
                            lambda lhs: out.append(lhs) or flatten(lhs))
        return out

    def test_parse_builds_no_shape_and_rewriting_each_once(self, built):
        program = peano()
        t = goal(program, "length(append(Xs, Ys)) ~ add(length(Ys), length(Xs))")
        final, trace, suspended = rewrite_normalize(t, program)
        assert suspended and trace == [str(t)] and built == []  # no rule fired
        t = goal(program, "double(s(s(0))) ~ s(s(s(s(0))))")
        final, _, _ = rewrite_normalize(t, program)
        assert str(final) == "true"
        fired = len(built)
        assert 0 < fired <= 2 * len(program.rules)
        assert len({id(side) for side in built}) == fired
        rewrite_normalize(t, program)
        assert len(built) == fired

    @pytest.mark.parametrize("max_nodes", [30, 1500])
    def test_a_lazy_search_flattens_each_rule_at_most_once(self, built, max_nodes):
        program = peano()
        result = search(goal(program, WIDE_LAWS[1]), program, "lazy",
                        Bounds(max_steps=12, max_nodes=max_nodes))
        assert sum(1 for _ in result.root.nodes()) == max_nodes
        assert 0 < len(built) <= len(program.rules)
        assert len({id(lhs) for lhs in built}) == len(built)
        assert {id(lhs) for lhs in built} <= {id(r.lhs) for r in program.rules}


# The first read of a lazy variant, taken in turn from step to step:
# each one builds all of its parts.
FIRST_READS = (str, lambda rule: rule.variables, lambda rule: rule == rule, hash)


def _assert_variants_equal_the_eager_ones(t, program, strategy, trees, reads):
    """Each step's rule, first read through the next of `reads`, equals
    the eager variant of the parent's descent in text, variables, `==`
    and hash; `narrow` gives the contractum of the eager variant; and
    the next fresh name is the parent's."""
    gen, ref_gen = FreshVars(vars_of(t)), FreshVars(vars_of(t))
    steps = strategy_steps(t, program, strategy, trees, gen)
    if strategy == "lazy":
        eager = [s.rule for s in parent_lns(t, program, ref_gen)]
    elif t.root.name in trees:
        eager = [rule for _, rule, _ in
                 ref_nns(t, trees[t.root.name], trees, ref_gen)]
    else:
        eager = []
    assert len(steps) == len(eager), t
    for step, reference in zip(steps, eager):
        reached = narrow(t, step)  # before any read of the variant
        assert reached == parent_rewrite_step(
            step.subst.apply(t), step.position, reference), (t, step)
        lazy = step.rule
        next(reads)(lazy)
        assert (str(lazy), lazy.label, lazy.variables, repr(lazy)) == (
            str(reference), reference.label, reference.variables,
            repr(reference)), (t, step)
        assert lazy == reference and hash(lazy) == hash(reference), (t, step)
    assert gen.fresh() == ref_gen.fresh(), t
    return len(steps)


class TestLazyVariantsEqualTheEagerOnes:
    """Steps hold variants that build their parts on the first read, and
    `narrow` rewrites with their source rule; the eager `parent_variant`
    and the parent's `rewrite_step` are the reference."""

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    @pytest.mark.parametrize("name, source", CORPUS_GOALS + [
        ("leq", "leq(Y, Y) ~ true"), ("append", "append(Xs, Xs) ~ Xs")])
    def test_corpus_goals(self, name, source, strategy):
        program = load(f"{name}.flp")
        trees = is_inductively_sequential(program).trees
        reads = itertools.cycle(FIRST_READS)
        for t in _descent_goals(program, goal(program, source), strategy):
            _assert_variants_equal_the_eager_ones(t, program, strategy, trees, reads)

    @pytest.mark.parametrize("law", WIDE_LAWS)
    def test_wide_laws(self, law):
        program = peano()
        trees = is_inductively_sequential(program).trees
        reads = itertools.cycle(FIRST_READS)
        for strategy in ("needed", "lazy"):
            for t in _descent_goals(program, goal(program, law), strategy):
                _assert_variants_equal_the_eager_ones(
                    t, program, strategy, trees, reads)

    def test_random_programs(self):
        reads = itertools.cycle(FIRST_READS)
        checked = 0
        for seed in range(60):
            program = random_program(seed)
            trees = is_inductively_sequential(program).trees
            for call in generic_calls(program):
                for strategy in ("needed", "lazy"):
                    for t in _descent_goals(program, call, strategy):
                        checked += _assert_variants_equal_the_eager_ones(
                            t, program, strategy, trees, reads)
        assert checked >= 1000

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    @pytest.mark.parametrize("source", [
        "add(M, N)", "add(s(N), M)", "add(add(N, M), M)", "leq(s(N), s(M))"])
    def test_goal_variables_named_like_the_rule_variables(
            self, leq_prog, leq_trees, source, strategy):
        # The rules of add and leq are over M and N: matching the source
        # rule binds M or N to itself, or swaps them.
        t = goal(leq_prog, source)
        reads = itertools.cycle(FIRST_READS)
        for u in [t] + _descent_goals(leq_prog, t, strategy):
            _assert_variants_equal_the_eager_ones(
                u, leq_prog, strategy, leq_trees, reads)

    def test_a_lazy_search_builds_no_side_of_a_variant(self):
        """A lazy step solves its walk with its variant's renaming, and
        `narrow` rewrites with the source rule: neither side is built."""
        program = peano()
        result = search(goal(program, WIDE_LAWS[1]), program, "lazy",
                        Bounds(max_steps=4))
        rules = [step.rule for node in result.root.nodes()
                 for step, _ in node.children]
        assert len(rules) > 20
        assert all(rule.source is not rule for rule in rules)
        assert not any({"lhs", "rhs"} & set(vars(rule)) for rule in rules)


def parent_leftmost_operation_position(t):
    """`narrowing._leftmost_operation_position` as it was: the
    leftmost-outermost operation-rooted subterm's position; constructor
    terms are not entered."""
    stack = [((), t)]
    while stack:
        pos, u = stack.pop()
        if is_constructor_term(u):
            continue
        if u.root.kind != "constructor":
            return pos
        stack.extend((pos + (i,), u.args[i - 1]) for i in range(len(u.args), 0, -1))
    return None


def parent_outermost_needed_redex(t, trees):
    """The redex search that `rewrite_normalize` had of its own: the
    position the definitional trees send rewriting to, or None when a
    variable or a constructor without a matching child is demanded."""
    node = trees.get(t.root.name)
    segments = []
    while node is not None:
        if isinstance(node, Leaf):
            return tuple(itertools.chain.from_iterable(segments))
        sub = subterm_at(t, node.position)
        if isinstance(sub, Var):
            return None
        if sub.root.kind == "constructor":
            node = next((child for child, ctor
                         in zip(node.children, node.constructors)
                         if ctor == sub.root), None)
        else:
            segments.append(node.position)
            t, node = sub, trees.get(sub.root.name)
    return None


def _spine(k, inner):
    """add(...add(inner, 0)..., 0), k calls deep."""
    return "add(" * k + inner + ", 0)" * k


def parent_rewrite_normalize(t, program, max_steps):
    """`rewrite_normalize` as it was: cross the constructor prefix, search
    the redex, scan the operation's rules for the one that matches."""
    trees = require_class(program, "needed", narrowing._NEEDED_CLASS)
    trace = []
    current = t
    for _ in range(max_steps):
        if is_constructor_term(current):
            return current, trace, False
        prefix = ()
        if current.root.kind == "constructor":
            prefix = parent_leftmost_operation_position(current)
        pos = parent_outermost_needed_redex(subterm_at(current, prefix), trees)
        if pos is None:
            return current, trace, True
        redex = subterm_at(current, prefix + pos)
        for rule in program.rules_for(redex.root.name):
            theta = match(rule.lhs, redex)
            if theta is not None:
                break
        else:
            return current, trace, True
        current = replace_at(current, prefix + pos, theta.apply(rule.rhs))
        trace.append(current)
    return current, trace, False


def _random_goals(program, rng):
    """Generic calls, and per operation a ground and a non-ground call
    with random arguments, each also under a constructor; then those
    calls as siblings under a two-level constructor prefix, where a
    rewritten call can turn constructor-rooted while the calls to its
    right are still to be crossed."""
    ops = [sym for sym in program.signature if sym.kind == "operation"]
    goals = generic_calls(program)
    calls = []
    for op in ops:
        for variables in ([], [Var("G1"), Var("G2")]):
            call = App(op, tuple(random_term(rng, variables, ops, 2)
                                 for _ in range(op.arity)))
            wrapper = rng.choice([c for c in program.signature
                                  if c.kind == "constructor" and c.arity])
            goals += [call, App(wrapper, (call,) * wrapper.arity)]
            calls.append(call)
    pr, sc = program.signature.get("pr"), program.signature.get("sc")
    for _ in range(3):
        a, b, c = (rng.choice(calls) for _ in range(3))
        goals += [App(pr, (App(pr, (a, b)), c)), App(sc, (App(pr, (a, b)),)),
                  App(pr, (App(sc, (a,)), App(pr, (b, c))))]
    return goals


class TestRewriteAgreesWithTheParentLoop:
    """`rewrite_normalize` takes the needed narrowing step and suspends
    when there is none or it binds a variable; the parent's loop, with
    its own redex search and rule scan, is the reference."""

    def test_random_programs(self):
        runs = suspended = steps = 0
        for seed in range(200):
            program = random_program(seed)
            rng = random.Random(seed)
            for t in _random_goals(program, rng):
                for max_steps in (1, 3, 40):
                    final, lines, stuck = rewrite_normalize(t, program, max_steps)
                    reached, trace, parent_stuck = parent_rewrite_normalize(
                        t, program, max_steps)
                    assert (final, lines, stuck) == (
                        reached, [str(u) for u in [t] + trace], parent_stuck), (
                        seed, t, max_steps)
                    for before, after in zip([t] + trace, trace):
                        assert after in one_step_rewrites(program, before), (seed, t)
                    runs += 1
                    suspended += stuck
                    steps += len(trace)
        assert runs >= 5000 and suspended >= 2000 and steps >= 10000, (
            runs, suspended, steps)

    @pytest.mark.parametrize("name, source, steps, stuck", [
        # Nested call spines: a frame per call, plugged as each finishes.
        ("leq", _spine(1, nat_text(1)), 2, False),
        ("leq", _spine(6, nat_text(1)), 12, False),
        ("leq", _spine(40, nat_text(2)), 120, False),
        ("leq", _spine(30, "0"), 30, False),
        ("leq", f"leq({_spine(5, nat_text(2))}, {nat_text(8)})", 18, False),
        ("leq", f"add({nat_text(4)}, {_spine(5, nat_text(1))})", 15, False),
        ("leq", f"s(add({_spine(3, '0')}, {_spine(3, nat_text(1))}))", 10, False),
        # Matched subterms that are not last and larger than their
        # siblings, cut out of a text kept whole.
        ("append", f"append(cons({nat_text(30)}, nil), nil)", 2, False),
        ("append", f"append(cons({nat_text(30)}, cons(0, nil)), "
                   f"cons({nat_text(5)}, nil))", 3, False),
        ("append", f"append(append(cons({nat_text(9)}, nil), "
                   f"cons({nat_text(3)}, nil)), cons(0, nil))", 5, False),
        ("leq", f"leq(s({nat_text(30)}), s(add({nat_text(3)}, 0)))", 9, False),
        # A suspension inside a nested call.
        ("leq", "leq(add(X, 0), s(0))", 0, True),
        ("leq", "leq(add(add(s(0), 0), X), s(0))", 5, True),
        ("leq", f"s(leq({_spine(4, nat_text(1))}, add(Y, 0)))", 4, True),
        # Equations through eq and and.
        ("leq", f"{_spine(3, nat_text(1))} ~ s(0)", 8, False),
        ("append", f"append(cons(0, nil), Xs) ~ cons(0, append(nil, nil))", 5, True),
        ("leq", f"eq({_spine(2, '0')}, add(0, 0)) ~ true", 5, False),
    ])
    def test_shapes(self, name, source, steps, stuck):
        program = load(f"{name}.flp")
        t = goal(program, source)
        final, lines, suspended = rewrite_normalize(t, program, 10 ** 4)
        assert (len(lines) - 1, suspended) == (steps, stuck)
        # Stops at 1, at 2, in the middle of the run and at its end.
        for max_steps in sorted({1, 2, steps // 2, steps, steps + 1}):
            reached, trace, parent_stuck = parent_rewrite_normalize(
                t, program, max_steps)
            assert rewrite_normalize(t, program, max_steps) == (
                reached, [str(u) for u in [t] + trace], parent_stuck), max_steps

    @pytest.mark.parametrize("path", PROGRAM_FILES, ids=lambda path: path.stem)
    def test_rule_instances_of_every_program_file(self, path):
        """Each rule's sides, and instances of its left-hand side by
        small ground constructor terms, alone and under a constructor,
        stopped at the first step, the third and the sixtieth."""
        program = add_strict_equality(parse_program(path.read_text()))
        ctors = [c for c in program.signature if c.kind == "constructor"]
        rng = random.Random(path.stem)

        def ground(depth):
            c = rng.choice([c for c in ctors if depth and c.arity or not c.arity])
            return App(c, tuple(ground(depth - 1) for _ in range(c.arity)))

        wrap = max(ctors, key=lambda c: c.arity)
        goals = []
        for rule in program.rules:
            goals += [rule.lhs, rule.rhs]
            for _ in range(3):
                t = Substitution({x: ground(rng.randint(0, 2))
                                  for x in vars_of(rule.lhs)}).apply(rule.lhs)
                goals += [t, App(wrap, (t,) * wrap.arity)]
        for t in goals:
            for max_steps in (1, 3, 60):
                reached, trace, parent_stuck = parent_rewrite_normalize(
                    t, program, max_steps)
                assert rewrite_normalize(t, program, max_steps) == (
                    reached, [str(u) for u in [t] + trace], parent_stuck), (t, max_steps)


def _tree_terms(program, call, strategy):
    """Every node term of a bounded search tree from call, constructor
    prefixes included."""
    root = search(call, program, strategy, Bounds(max_steps=5, max_nodes=80)).root
    return [node.term for node in root.nodes()]


def _assert_count_equals_steps(t, program, strategy, trees):
    """Counting the steps at t gives their number and leaves `gen` as
    building them does: the same next fresh variable and the same next
    renaming suffix."""
    counted, built = FreshVars(vars_of(t)), FreshVars(vars_of(t))
    n = strategy_steps(t, program, strategy, trees, counted, count=True)
    assert n == len(strategy_steps(t, program, strategy, trees, built)), t
    probe = (Var("M"), Var("V1"))
    assert renaming(counted, probe) == renaming(built, probe), t
    assert counted.fresh() == built.fresh(), t
    return n


class TestCountingSteps:
    """`strategy_steps(..., count=True)`, which `expand` asks at a node
    that a bound stops, agrees with the steps it does not build."""

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    @pytest.mark.parametrize("name, source", CORPUS_GOALS + [
        ("leq", "leq(Y, Y) ~ true"), ("append", "append(Xs, Xs) ~ Xs")])
    def test_corpus_goals(self, name, source, strategy):
        program = load(f"{name}.flp")
        trees = is_inductively_sequential(program).trees
        for t in _tree_terms(program, goal(program, source), strategy):
            _assert_count_equals_steps(t, program, strategy, trees)

    @pytest.mark.parametrize("law", WIDE_LAWS)
    def test_wide_laws(self, law):
        program = peano()
        trees = is_inductively_sequential(program).trees
        for strategy in ("needed", "lazy"):
            for t in _tree_terms(program, goal(program, law), strategy):
                _assert_count_equals_steps(t, program, strategy, trees)

    @pytest.mark.parametrize("source", DEEP_GOALS + DEAD_CHILD_GOALS)
    def test_deep_goals(self, source):
        program = peano()
        trees = is_inductively_sequential(program).trees
        for t in _tree_terms(program, goal(program, source), "needed"):
            _assert_count_equals_steps(t, program, "needed", trees)

    @pytest.mark.parametrize("source", STAGED_GOALS)
    def test_a_look_ahead_reads_through_an_ancestor_binding(self, source):
        trees = is_inductively_sequential(STAGED).trees
        for t in _tree_terms(STAGED, goal(STAGED, source), "needed"):
            _assert_count_equals_steps(t, STAGED, "needed", trees)

    def test_random_programs(self):
        counted = 0
        for seed in range(60):
            program = random_program(seed)
            trees = is_inductively_sequential(program).trees
            for call in generic_calls(program):
                for strategy in ("needed", "lazy"):
                    for t in _tree_terms(program, call, strategy):
                        counted += _assert_count_equals_steps(
                            t, program, strategy, trees)
        assert counted >= 1000

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    def test_frontier_steps_are_not_built(self, monkeypatch, leq_prog, strategy):
        """At max_steps 1 only the root is expanded: only its two steps
        draw a rule variant, under either strategy through `Rule.renamed`,
        and the lazy ones alone are solved."""
        variants, solved = [], []
        renamed, solve = Rule.renamed, narrowing._solve
        monkeypatch.setattr(Rule, "renamed", lambda rule, gen: (
            variants.append(rule), renamed(rule, gen))[1])
        monkeypatch.setattr(narrowing, "_solve", lambda pairs: (
            solved.append(pairs), solve(pairs))[1])
        result = search(goal(leq_prog, "leq(add(X, Y), Z)"), leq_prog,
                        strategy, Bounds(max_steps=1))
        assert [(node.status, node.offered) for node in result.root.nodes()] == [
            ("inner", 2), ("incomplete", 3), ("incomplete", 2)]
        assert len(variants) == 2
        assert len(solved) == (2 if strategy == "lazy" else 0)

    def test_a_spent_node_budget_counts(self):
        """A node made with the budget spent is counted: incomplete when
        it has steps, failing when it has none."""
        program = parse_program("constructors 0/0 s/1 ;\noperations f/1 g/1 ;\n"
                                "f(X) -> g(X) ;\ng(0) -> 0 ;\ng(s(0)) -> f(0) ;")
        for strategy in ("needed", "lazy"):
            views = []
            for source in ("f(s(X))", "f(s(s(X)))"):
                result = search(goal(program, source), program, strategy,
                                Bounds(max_nodes=2))
                views.append([(node.status, node.offered)
                              for node in result.root.nodes()] + [result.complete])
            assert views == [[("inner", 1), ("incomplete", 1), False],
                             [("inner", 1), ("failing", 0), True]], strategy


def test_nested_calls_deeper_than_the_recursion_limit(leq_prog, leq_trees):
    depth = 3000
    t = goal(leq_prog, "add(" * depth + "0" + ", 0)" * depth)
    [step] = nns(t, leq_trees, FreshVars())
    assert step.position == (1,) * (depth - 1)
    _, [_, reached], suspended = rewrite_normalize(t, leq_prog, max_steps=1)
    assert reached == str(narrow(t, step)) and not suspended
    [step] = lns(t, leq_prog, FreshVars())
    assert step.position == (1,) * (depth - 1)


def _nest(sym, depth, base, other=None):
    """sym applied depth times around base, bottom-up: s^depth(base)
    for a unary sym, or sym(...sym(base, other)..., other)."""
    for _ in range(depth):
        base = App(sym, (base,) if other is None else (base, other))
    return base


class TestDeepSteps:
    """`narrow` and `rewrite_step` loop: a step 10^4 positions deep, or
    beside a sibling nesting 10^5 deep, raises no RecursionError and
    gives the two-pass reference's term."""

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    def test_a_step_ten_thousand_positions_deep(self, leq_prog, leq_trees,
                                                strategy):
        add, s = leq_prog.signature.get("add"), leq_prog.signature.get("s")
        x = Var("X")
        for t in (_nest(add, 10 ** 4, App(add, (x, x)), x),
                  _nest(s, 10 ** 4, App(add, (x, Var("Y"))))):
            steps = strategy_steps(t, leq_prog, strategy, leq_trees,
                                   FreshVars(vars_of(t)))
            assert len(steps) == 2
            for step in steps:
                assert len(step.position) == 10 ** 4
                assert narrow(t, step) == parent_narrow(t, step)

    def test_a_rewrite_ten_thousand_positions_deep(self, leq_prog):
        add, zero = leq_prog.signature.get("add"), App(leq_prog.signature.get("0"))
        r4 = leq_prog.rules[3]
        position = (1,) * 10 ** 4
        for t in (_nest(add, 10 ** 4, App(add, (zero, Var("Y"))), Var("Y")),
                  _nest(leq_prog.signature.get("s"), 10 ** 4,
                        App(add, (zero, zero)))):
            assert rewrite_step(t, position, r4) == parent_narrow(
                t, Step(position, r4, IDENTITY))

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    def test_a_redex_beside_a_sibling_a_hundred_thousand_deep(
            self, leq_prog, leq_trees, strategy):
        sig = leq_prog.signature
        redex = App(sig.get("add"), (Var("X"), Var("Y")))
        for name in ("X", "Z"):  # a sibling that sigma rebuilds or leaves
            t = App(sig.get("leq"),
                    (redex, _nest(sig.get("s"), 10 ** 5, Var(name))))
            steps = strategy_steps(t, leq_prog, strategy, leq_trees,
                                   FreshVars(vars_of(t)))
            assert [step.position for step in steps] == [(1,), (1,)]
            for step in steps:
                reached = narrow(t, step)
                assert reached == parent_narrow(t, step)
                assert (reached.args[1] is t.args[1]) == (name == "Z")
        t = App(sig.get("leq"), (App(sig.get("add"), (App(sig.get("0")), Var("Y"))),
                             _nest(sig.get("s"), 10 ** 5, Var("Y"))))
        reached = rewrite_step(t, (1,), leq_prog.rules[3])
        assert reached == parent_narrow(t, Step((1,), leq_prog.rules[3], IDENTITY))
        assert reached.args[1] is t.args[1]


# Calls nested n deep, under each strategy, such that every level leaves
# a sibling on the descent's stack: a variable branch's second child (a
# leaf of g) under needed narrowing, a second demanded argument of h
# under lazy narrowing.  `pr` builds constructor prefixes.
NEST = parse_program("""constructors 0/0 s/1 pr/2 ;
operations g/2 h/2 ;
g(0, 0) -> 0 ;
g(0, s(Y)) -> 0 ;
g(s(X), Y) -> 0 ;
h(0, 0) -> 0 ;
h(s(X), s(Y)) -> 0 ;""")


def _nested_calls(strategy, n):
    sig = NEST.signature
    zero = App(sig.get("0"))
    if strategy == "lazy":
        h00 = App(sig.get("h"), (zero, zero))
        return _nest(sig.get("h"), n, h00, h00)
    t = zero
    for i in range(n, 0, -1):  # g(X1, g(X2, ... g(Xn, 0)))
        t = App(sig.get("g"), (Var(f"X{i}"), t))
    return t


def _terms_built(monkeypatch, run):
    """How many terms (`App`) run() builds."""
    built = []
    init = App.__init__
    with monkeypatch.context() as patched:
        patched.setattr(App, "__init__", lambda term, *args: (
            built.append(None), init(term, *args))[1])
        run()
    return len(built)


# Goals whose rewriting takes about k steps (2k on the spine), with the
# text of their normal form.
REWRITE_SHAPES = [
    ("leq", lambda k: f"add({nat_text(k)}, 0)", nat_text),
    ("double", lambda k: f"double({nat_text(k)})", lambda k: nat_text(2 * k)),
    ("append", lambda k: f"append({list_text(['0'] * k)}, nil)",
     lambda k: list_text(['0'] * k)),
    ("leq", lambda k: _spine(k, nat_text(1)), lambda k: nat_text(1)),
    ("append", lambda k: list_text(["append(nil, nil)"] * k),
     lambda k: list_text(["nil"] * k)),
]


class TestStepCostFollowsTheWalk:
    """A step costs about its walk, so its work grows linearly with the
    depth of the pattern or of the nested calls.  The work is counted:
    terms built, or the peak of the memory allocated (`traced_peak`),
    never a wall time.  Composing the k parts of a needed step one
    `compose` at a time was cubic in k; copying the position at every
    nested call or prefix level was quadratic in the nesting."""

    def test_needed_step_against_a_deep_pattern(self, monkeypatch):
        per_part = {}
        for k in (100, 400):
            program = parse_program(
                "constructors 0/0 s/1 ;\noperations f/1 ;\n"
                f"f({'s(' * k}0{')' * k}) -> 0 ;")
            trees = is_inductively_sequential(program).trees
            t = goal(program, "f(X)")
            [step] = nns(t, trees, FreshVars())
            assert step.subst.apply(X) == goal(program, f"{'s(' * k}0{')' * k}")
            per_part[k] = _terms_built(
                monkeypatch, lambda: nns(t, trees, FreshVars())) / k
        # Linear growth gives 1; the cubic fold gave about 16.
        assert per_part[400] < 1.5 * per_part[100], per_part

    @pytest.mark.parametrize("name, source, value", REWRITE_SHAPES,
                             ids=["add", "double", "append", "nested add",
                                  "prefix of calls"])
    def test_rewriting_builds_no_constructor_prefix(
            self, monkeypatch, name, source, value):
        """A rewrite step builds its contractum, and each constructor of
        the prefix above it, or call of an operation frame, is built
        once, when its arguments are finished: at most 4 terms per step
        at every depth (about 3 on the prefixes, as each step's
        right-hand side builds 2, and 2 on the spine of calls).
        Rebuilding the prefix at every step built k/2 per step, and
        descending the spine from its root at every step k/2 as well."""
        program = load(f"{name}.flp")
        for k in (250, 500, 1000, 2000):
            t = goal(program, source(k))
            runs = []
            built = _terms_built(monkeypatch, lambda: runs.append(
                rewrite_normalize(t, program, max_steps=10 ** 4)))
            [(final, trace, suspended)] = runs
            assert trace[-1] == value(k) and not suspended
            steps = len(trace) - 1
            assert built <= 4 * steps, (k, built / steps)

    @pytest.mark.parametrize("name, source, value", REWRITE_SHAPES,
                             ids=["add", "double", "append", "nested add",
                                  "prefix of calls"])
    def test_rewriting_prints_a_constant_per_step(
            self, monkeypatch, name, source, value):
        """After the goal, the printer returns at most a few characters
        per step: a step splices its contractum's text into the line,
        joined from its right-hand side and the texts of its matched
        subterms, sliced at offsets counted from measured widths, so
        only ground parts of right-hand sides are printed.  Printing the
        rewritten call at each step printed about a whole line per step,
        and cutting kept texts printed, at each call of the prefix of
        calls, every call to its right."""
        program = load(f"{name}.flp")
        printed = []
        text = App.__str__
        for k in (250, 1000, 2000):
            t = goal(program, source(k))
            with monkeypatch.context() as patched:
                patched.setattr(App, "__str__", lambda term: (
                    lambda out: printed.append(len(out)) or out)(text(term)))
                del printed[:]
                final, trace, suspended = rewrite_normalize(t, program, 10 ** 4)
            assert trace[-1] == value(k) and not suspended
            assert sum(printed) - len(str(t)) <= 4 * (len(trace) - 1), (
                k, sum(printed), len(trace) - 1)

    @pytest.mark.parametrize("source, value", [
        (lambda k: _spine(k, nat_text(1)), lambda k: nat_text(1)),
        (lambda k: f"leq({_spine(k, nat_text(1))}, {nat_text(k + 100)})",
         lambda k: "true"),
    ], ids=["nested add", "leq over a spine"])
    def test_one_tree_lookup_per_rewrite_step(self, monkeypatch, source, value):
        """The loop looks a call's definitional tree up once, when the
        call comes into focus, and walks it from there; an operation
        frame resumes the walk at its own branch once the argument it
        waits for is in head normal form.  Restarting the descent at the
        root of the call's tree after each plug looked it up twice per
        step."""
        program = load("leq.flp")
        lookups = []
        lookup = narrowing._tree_of
        monkeypatch.setattr(narrowing, "_tree_of", lambda *args: (
            lookups.append(None), lookup(*args))[1])
        for k in (250, 1000, 2000):
            t = goal(program, source(k))
            del lookups[:]
            final, trace, suspended = rewrite_normalize(t, program, 10 ** 5)
            assert trace[-1] == value(k) and not suspended
            steps = len(trace) - 1
            assert len(lookups) == steps, (k, len(lookups) / steps)

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    def test_step_cost_per_nested_call_is_flat(self, strategy):
        """Counted, not built, steps: the positions that the pending
        siblings keep are all that grows."""
        trees = is_inductively_sequential(NEST).trees
        per_level = {}
        for depth in (250, 2000):
            t = _nested_calls(strategy, depth)
            assert strategy_steps(t, NEST, strategy, trees, FreshVars(),
                                  count=True) == depth + 1
            per_level[depth] = traced_peak(lambda: strategy_steps(
                t, NEST, strategy, trees, FreshVars(), count=True)) / depth
        steps = strategy_steps(_nested_calls(strategy, 250), NEST, strategy,
                               trees, FreshVars())
        deepest = (2,) * 249 if strategy == "needed" else (1,) * 250
        assert max(steps, key=lambda step: len(step.position)).position == deepest
        # Flat gives about 1; copying the position at each call gave 6 to 7.
        assert per_level[2000] < 1.5 * per_level[250], per_level

    @pytest.mark.parametrize("strategy", ["needed", "lazy"])
    def test_prefix_cost_per_level_is_flat(self, strategy):
        """Crossing a constructor prefix to the call below it costs one
        parent-pointer segment per level, for each right sibling that
        waits to be crossed too."""
        trees = is_inductively_sequential(NEST).trees
        sig = NEST.signature
        zero = App(sig.get("0"))
        per_level = {}
        for depth in (250, 2000):
            t = _nest(sig.get("pr"), depth, App(sig.get("h"), (zero, zero)), zero)
            [step] = strategy_steps(t, NEST, strategy, trees, FreshVars())
            assert step.position == (1,) * depth
            per_level[depth] = traced_peak(lambda: strategy_steps(
                t, NEST, strategy, trees, FreshVars(), count=True)) / depth
        # Flat gives about 1; extending a position tuple at each level
        # gave about 7.
        assert per_level[2000] < 1.5 * per_level[250], per_level


def _search_view(program, source, strategy):
    result = search(goal(program, source), program, strategy,
                    Bounds(max_steps=8, max_nodes=400))
    return (node_to_dict(result.root), result.complete,
            [(str(sigma), str(value)) for sigma, value in result.answers])


class TestDrawnNamesNeedNoRecord:
    """`FreshVars` skips only the names it is told to avoid: every name
    it draws is new by construction.  The parent class, which also
    skipped every name it drew, gives the same trees and answers."""

    @pytest.mark.parametrize("name, source", CORPUS_GOALS + [
        ("peano", g) for g in WIDE_LAWS + DEEP_GOALS + DEAD_CHILD_GOALS])
    def test_search_as_with_the_parent_class(self, monkeypatch, name, source):
        program = peano() if name == "peano" else load(f"{name}.flp")
        views = [_search_view(program, source, strategy)
                 for strategy in ("needed", "lazy")]
        monkeypatch.setattr(narrowing, "FreshVars", ParentFreshVars)
        assert [_search_view(program, source, strategy)
                for strategy in ("needed", "lazy")] == views

    def test_a_search_avoids_only_the_goal_and_program_variables(self):
        program = peano()
        t = goal(program, WIDE_LAWS[1])
        gen = FreshVars()
        result = search(t, program, "needed",
                        Bounds(max_steps=12, max_nodes=1500), gen)
        assert sum(1 for _ in result.root.nodes()) >= 1000
        assert gen._avoid == {v.name for v in vars_of(t)} | {
            v.name for v in program.all_variables()}


class TestPreorder:
    """`Node.preorder`, the walker that every reader of a narrowing tree
    uses: (step, node, depth) in preorder, children in step order."""

    def test_order_steps_and_depths(self, leq_prog):
        result = search(goal(leq_prog, "leq(X, add(Y, 0))"), leq_prog,
                        bounds=Bounds(max_steps=2))
        walked = [(step and step.rule.label, str(node.term), depth)
                  for step, node, depth in result.root.preorder()]
        assert walked == [
            (None, "leq(X, add(Y, 0))", 0),
            ("R1", "true", 1),
            ("R4", "leq(s(V2), 0)", 1),
            ("R2", "false", 2),
            ("R5", "leq(s(V2), s(add(V4, 0)))", 1),
            ("R3", "leq(V2, add(V4, 0))", 2),
        ]
        arcs = {id(child): step for _, node, _ in result.root.preorder()
                for step, child in node.children}
        assert all(step is arcs[id(node)]
                   for step, node, _ in result.root.preorder() if step)
        assert [node for _, node, _ in result.root.preorder()] == result.root.nodes()

    def test_a_tree_deeper_than_the_recursion_limit(self, leq_prog):
        """The needed tree of leq(s^2000(0), s^2000(0)) is one path of
        2,001 steps, each at the root, walked and dumped with the
        recursion limit at 100.  (A goal of add nested 2,000 deep also
        gives a path of 2,000 steps, but each step rebuilds the spine,
        so the search alone takes seconds.)"""
        depth = 2001
        n = "s(" * (depth - 1) + "0" + ")" * (depth - 1)
        t = goal(leq_prog, f"leq({n}, {n})")
        root = search(t, leq_prog, bounds=Bounds(depth, depth + 1)).root

        def read():
            walked = [(step is None, node.status, d)
                      for step, node, d in root.preorder()]
            dump = node_to_dict(root)
            for _ in range(depth):
                [arc] = dump["arcs"]
                dump = arc["node"]
            return walked, dump

        walked, leaf = below_recursion_limit(read)
        assert walked == [(d == 0, "inner" if d < depth else SUCCESS, d)
                          for d in range(depth + 1)]
        assert leaf == {"term": "true", "status": SUCCESS, "arcs": []}
