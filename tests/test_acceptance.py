"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Each test prints `criterion N: PASS/FAIL - <what it checks>` and covers
one externally meaningful behaviour: the two worked step sets, the
definitional tree and uniform transformation of leq, the three
specialization walkthroughs (append, leq2, h2), pre-specialization
unfolding safety, a randomized property suite, brute-force solution
coverage, and determinism preservation.
"""

from contextlib import contextmanager

import pytest

from conftest import (
    CORPUS_GOALS,
    answer_set,
    deterministically_evaluable,
    generic_calls,
    is_instance_of,
    is_uniform,
    is_variant,
    load,
    random_program,
    steps_view,
)
from nspec import (
    Bounds,
    Branch,
    FreshVars,
    Leaf,
    UnfoldPolicy,
    Var,
    canonical_rename,
    ground_solutions,
    independent,
    is_inductively_sequential,
    lns,
    nns,
    parse_program,
    parse_term,
    partial_evaluate,
    pe_control,
    rename_term,
    resultants,
    search,
    unfold,
    uniform_transform,
    vars_of,
)

X = Var("X")


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {description}")
        raise
    print(f"criterion {num}: PASS - {description}")


@pytest.fixture(scope="module")
def leq():
    return load("leq.flp")


@pytest.fixture(scope="module")
def append():
    return load("append.flp")


@pytest.fixture(scope="module")
def double():
    return load("double.flp")


@pytest.fixture(scope="module")
def gfh():
    return load("gfh.flp")


@pytest.fixture(scope="module")
def loop():
    return load("loop.flp")


@pytest.fixture(scope="module")
def pe_leq(leq):
    return pe_control(leq, [parse_term("leq(X, add(X, Y))", leq.signature)])


@pytest.fixture(scope="module")
def pe_append(append):
    return pe_control(
        append, [parse_term("append(append(Xs, Ys), Zs)", append.signature)])


@pytest.fixture(scope="module")
def pe_double(double):
    return pe_control(double, [parse_term("double(X)", double.signature)])


@pytest.fixture(scope="module")
def pe_gfh(gfh):
    return pe_control(gfh, [parse_term("g(X)", gfh.signature),
                            parse_term("h(X)", gfh.signature)])


def test_criterion_01_needed_steps_of_shared_addition_goal(leq):
    with criterion(1, "nns on leq(X, add(X, X)) yields exactly the two "
                      "needed steps at [] and [2]"):
        goal = parse_term("leq(X, add(X, X))", leq.signature)
        trees = is_inductively_sequential(leq).trees
        steps = nns(goal, trees, FreshVars(avoid=vars_of(goal)))
        assert steps_view(steps, [X]) == [
            ((), "R1", "{X -> 0}"),
            ((2,), "R5", "{X -> s(V1)}"),
        ]


def test_criterion_02_lazy_steps_include_redundant_instantiation(leq):
    with criterion(2, "lns on leq(X, add(X, X)) yields three steps "
                      "including the redundant inner {X -> 0} step"):
        goal = parse_term("leq(X, add(X, X))", leq.signature)
        steps = lns(goal, leq, FreshVars(avoid=vars_of(goal)))
        assert steps_view(steps, [X]) == [
            ((), "R1", "{X -> 0}"),
            ((2,), "R4", "{X -> 0}"),
            ((2,), "R5", "{X -> s(V1)}"),
        ]


def test_criterion_03_leq_definitional_tree_shape(leq):
    with criterion(3, "definitional tree of leq branches on argument 1, "
                      "then on argument 2 below s"):
        tree = is_inductively_sequential(leq).trees["leq"]
        assert isinstance(tree, Branch) and tree.position == (1,)
        assert str(tree.pattern) == "leq(V1, V2)"
        zero_child, succ_child = tree.children
        assert isinstance(zero_child, Leaf)
        assert zero_child.rule.label == "R1"
        assert isinstance(succ_child, Branch) and succ_child.position == (2,)
        assert [leaf.rule.label for leaf in succ_child.children] == ["R2", "R3"]
        assert all(isinstance(leaf, Leaf) for leaf in succ_child.children)


def test_criterion_04_uniform_transformation_of_leq():
    with criterion(4, "uniform transformation of leq yields the four-rule "
                      "program, uniform and inductively sequential"):
        program = parse_program(
            "constructors 0/0 s/1 true/0 false/0 ;\n"
            "operations leq/2 ;\n"
            "leq(0, N) -> true ;\n"
            "leq(s(M), 0) -> false ;\n"
            "leq(s(M), s(N)) -> leq(M, N) ;\n")
        flat = uniform_transform(program)
        helper = flat.rules[1].rhs.root.name
        assert [str(r) for r in flat.rules] == [
            "leq(0, V2) -> true",
            f"leq(s(V3), V2) -> {helper}(V3, V2)",
            f"{helper}(V3, 0) -> false",
            f"{helper}(V3, s(V4)) -> leq(V3, V4)",
        ]
        assert is_uniform(flat)
        assert is_inductively_sequential(flat).ok


def test_criterion_05_append_specialization(pe_append):
    with criterion(5, "specializing append(append(Xs, Ys), Zs) produces the "
                      "four-rule closed inductively sequential program"):
        result = pe_append.result
        assert [str(r) for r in result.rules] == [
            "append_pe0(nil, Ys, Zs) -> append_pe1(Ys, Zs)",
            "append_pe0(cons(V2, V3), Ys, Zs) -> cons(V2, append_pe0(V3, Ys, Zs))",
            "append_pe1(nil, Zs) -> Zs",
            "append_pe1(cons(V2, V3), Zs) -> cons(V2, append_pe1(V3, Zs))",
        ]
        assert result.report.closed
        assert is_inductively_sequential(result.program).ok


def test_criterion_06_leq2_specialization_rule_counts(leq):
    with criterion(6, "needed-step specialization of leq(X, add(X, Y)) has 2 "
                      "rules; the lazy-step one has 3 with two variants"):
        call = parse_term("leq(X, add(X, Y))", leq.signature)
        needed = pe_control(leq, [call]).result
        assert [str(r) for r in needed.rules] == [
            "leq_pe0(0, Y) -> true",
            "leq_pe0(s(V2), Y) -> leq_pe0(V2, Y)",
        ]
        lazy = partial_evaluate(leq, [call], UnfoldPolicy(strategy="lazy"))
        assert len(lazy.rules) == 3
        first, second, third = lazy.rules
        assert is_variant(first.lhs, second.lhs)
        assert is_variant(first.rhs, second.rhs)
        assert str(first) == str(second) == "leq_pe0(0, Y) -> true"
        assert canonical_rename([third.lhs, third.rhs]) == canonical_rename(
            [parse_term(s, lazy.program.signature)
             for s in ("leq_pe0(s(M), Y)", "leq_pe0(M, Y)")])


def test_criterion_07_h2_sequentiality_counterexample(loop):
    with criterion(7, "needed-step specialization of h(f(X, g(Y))) stays "
                      "inductively sequential; the lazy-step one does not"):
        call = parse_term("h(f(X, g(Y)))", loop.signature)
        needed = pe_control(loop, [call]).result
        assert [str(r) for r in needed.rules] == [
            "h_pe0(0, 0) -> h_pe1",
            "h_pe0(s(V2), Y) -> 0",
            "h_pe1 -> h_pe1",
        ]
        assert is_inductively_sequential(needed.program).ok

        lazy = partial_evaluate(loop, [call], UnfoldPolicy(strategy="lazy"))
        assert len(lazy.rules) == 3
        report = is_inductively_sequential(lazy.program)
        assert not report.ok
        assert report.failures == ("h_pe0",)


def test_criterion_08_root_stable_unfolding_safety(gfh, pe_gfh):
    with criterion(8, "unfolding g(X) stops at the root-stable s(f(X)); the "
                      "specialized program preserves the original answer"):
        call = parse_term("g(X)", gfh.signature)
        tree = unfold(call, gfh)
        assert [(str(n.term), n.status) for n in tree.nodes()] == [
            ("g(X)", "inner"), ("s(f(X))", "incomplete")]
        extracted = resultants(tree)
        assert [str(r.lhs) for r in extracted] == ["g(X)"]
        assert [str(r.rhs) for r in extracted] == ["s(f(X))"]

        goal = parse_term("eq(h(g(s(0))), X)", gfh.signature)
        renamed = rename_term(pe_gfh.result.renaming, goal)
        assert str(renamed) == "eq(h_pe1(g_pe0(s(0))), X)"
        bounds = Bounds(max_steps=12)
        original = search(goal, gfh, bounds=bounds)
        specialized = search(renamed, pe_gfh.result.program, bounds=bounds)
        assert original.complete and specialized.complete
        assert answer_set(original) == answer_set(specialized) == {
            ("{X -> s(0)}", "true")}


def test_criterion_09_property_suite_corpus_and_random(
        leq, append, double, gfh, loop,
        pe_leq, pe_append, pe_double, pe_gfh):
    with criterion(9, "specializations stay inductively sequential, needed "
                      "steps are pairwise disjoint, answers are pairwise "
                      "independent, and answer sets survive specialization "
                      "(corpus + 200 random programs)"):
        problems = []

        # (a) every needed-step specialization is inductively sequential —
        # the four corpus specializations, h(f(X, g(Y))), and one
        # specialization per random program from its generic calls.
        corpus_pe = [pe_leq, pe_append, pe_double, pe_gfh,
                     pe_control(loop, [parse_term("h(f(X, g(Y)))",
                                                  loop.signature)])]
        for ctl in corpus_pe:
            if not is_inductively_sequential(ctl.result.program).ok:
                problems.append(f"corpus PE not sequential: {ctl.S}")
            if not ctl.result.report.closed:
                problems.append(f"corpus PE not closed: {ctl.S}")

        multi_step = multi_answer = 0
        bounds = Bounds(max_steps=6, max_nodes=200)
        for seed in range(200):
            program = random_program(seed)
            calls = generic_calls(program)
            ctl = pe_control(program, calls)
            if not is_inductively_sequential(ctl.result.program).ok:
                problems.append(f"seed {seed}: PE output not sequential")
            if not ctl.result.report.closed:
                problems.append(f"seed {seed}: PE output not closed")

            trees = is_inductively_sequential(program).trees
            for call in calls:
                # (b) distinct needed steps are disjoint: their
                # substitutions disagree non-unifiably on the call's
                # variables.
                steps = nns(call, trees, FreshVars(avoid=vars_of(call)))
                if len(steps) >= 2:
                    multi_step += 1
                for i in range(len(steps)):
                    for j in range(i + 1, len(steps)):
                        if not independent(steps[i].subst, steps[j].subst,
                                           vars_of(call)):
                            problems.append(
                                f"seed {seed}: steps not disjoint on {call}:"
                                f" {steps[i]} vs {steps[j]}")
                # (c) computed answers of one goal are pairwise independent.
                answers = search(call, program, bounds=bounds).answers
                if len(answers) >= 2:
                    multi_answer += 1
                goal_vars = vars_of(call)
                for i in range(len(answers)):
                    for j in range(i + 1, len(answers)):
                        if not independent(answers[i][0], answers[j][0],
                                           goal_vars):
                            problems.append(
                                f"seed {seed}: dependent answers on {call}: "
                                f"{answers[i][0]} vs {answers[j][0]}")
        assert multi_step >= 150, "too few multi-step cases to be meaningful"
        assert multi_answer >= 150, "too few multi-answer goals to be meaningful"

        # (b)+(c) on corpus goals as well.
        programs = {"leq": leq, "append": append, "double": double, "gfh": gfh}
        for name, source in CORPUS_GOALS:
            program = programs[name]
            goal = parse_term(source, program.signature)
            trees = is_inductively_sequential(program).trees
            steps = nns(goal, trees, FreshVars(avoid=vars_of(goal)))
            for i in range(len(steps)):
                for j in range(i + 1, len(steps)):
                    if not independent(steps[i].subst, steps[j].subst,
                                       vars_of(goal)):
                        problems.append(f"corpus steps not disjoint: {source}")
            answers = search(goal, program,
                             bounds=Bounds(max_steps=8, max_nodes=400)).answers
            goal_vars = vars_of(goal)
            for i in range(len(answers)):
                for j in range(i + 1, len(answers)):
                    if not independent(answers[i][0], answers[j][0], goal_vars):
                        problems.append(f"corpus dependent answers: {source}")

        # (d) strong correctness: bounded answer sets agree before and
        # after specialization on 50 corpus goals with finite trees.
        nat = ["0", "s(0)", "s(s(0))"]
        lists = ["nil", "cons(0, nil)"]
        goals = []
        for a in nat:
            for b in nat:
                goals.append((leq, pe_leq, f"eq(leq({a}, add({a}, {b})), true)"))
                goals.append((leq, pe_leq, f"eq(leq({a}, add({a}, {b})), false)"))
                goals.append((leq, pe_leq, f"eq(leq({a}, add({a}, {b})), Z)"))
        for a in lists:
            for b in lists:
                for c in lists:
                    goals.append((append, pe_append,
                                  f"eq(append(append({a}, {b}), {c}), Ls)"))
        goals.append((append, pe_append,
                      "eq(append(append(Xs, Ys), Zs), cons(0, nil))"))
        goals.append((append, pe_append, "eq(append(append(Xs, Ys), Zs), nil)"))
        for k in ["0", "s(0)", "s(s(0))", "s(s(s(0)))"]:
            goals.append((double, pe_double, f"eq(double({k}), X)"))
        goals.append((double, pe_double, "eq(double(X), s(s(0)))"))
        goals.append((double, pe_double, "eq(double(X), s(0))"))
        goals.append((double, pe_double, "eq(double(X), s(s(s(s(0)))))"))
        for k in ["0", "s(0)"]:
            goals.append((gfh, pe_gfh, f"eq(g({k}), X)"))
            goals.append((gfh, pe_gfh, f"eq(h(g({k})), X)"))
            goals.append((gfh, pe_gfh, f"eq(f({k}), X)"))
        goals.append((gfh, pe_gfh, "eq(h(g(s(0))), s(0))"))
        assert len(goals) >= 50

        bounds = Bounds(max_steps=25)
        for program, ctl, source in goals:
            goal = parse_term(source, program.signature)
            renamed = rename_term(ctl.result.renaming, goal)
            original = search(goal, program, bounds=bounds)
            specialized = search(renamed, ctl.result.program, bounds=bounds)
            if not (original.complete and specialized.complete):
                problems.append(f"search not complete within bounds: {source}")
            elif answer_set(original) != answer_set(specialized):
                problems.append(
                    f"answer mismatch on {source}: {answer_set(original)} "
                    f"vs {answer_set(specialized)}")

        assert not problems, "; ".join(problems[:10])


def test_criterion_10_ground_solution_coverage(leq):
    with criterion(10, "every brute-force ground solution (size <= 3) of 15 "
                       "leq/add equations is an instance of a computed "
                       "answer"):
        equations = [
            "(X <= Y) ~ true", "(X <= Y) ~ false", "(X + Y) ~ s(s(0))",
            "(X + X) ~ s(s(0))", "(s(X) + Y) ~ s(s(s(0)))",
            "(X <= X + Y) ~ true", "(X <= s(X)) ~ true",
            "((X + Y) <= s(0)) ~ true", "(X + 0) ~ X", "(X <= X) ~ true",
            "(0 + X) ~ Y", "(X + s(0)) ~ s(s(0))", "(s(0) <= X) ~ true",
            "(X <= 0) ~ Y", "(X + Y) ~ 0",
        ]
        misses = []
        covered = 0
        for source in equations:
            equation = parse_term(source, leq.signature)
            solutions = ground_solutions(leq, equation, 3)
            result = search(equation, leq, bounds=Bounds(max_steps=25))
            goal_vars = vars_of(equation)
            for solution in solutions:
                if any(is_instance_of(sigma, solution, goal_vars)
                       for sigma, _ in result.answers):
                    covered += 1
                else:
                    misses.append(f"{source}: {solution}")
        assert covered >= 90, "too few ground solutions to be meaningful"
        assert not misses, "; ".join(misses)


def test_criterion_11_determinism_preservation(
        leq, append, double, gfh, pe_leq, pe_append, pe_double, pe_gfh):
    with criterion(11, "20 deterministic ground goals stay deterministic "
                       "with the identity answer after specialization"):
        nat = ["0", "s(0)", "s(s(0))"]
        lists = ["nil", "cons(0, nil)"]
        goals = []
        for a in nat:
            for b in nat:
                goals.append((leq, pe_leq, f"eq(leq({a}, add({a}, {b})), true)"))
        for a in lists:
            for b in lists:
                goals.append((append, pe_append,
                              f"eq(append(append({a}, {b}), nil), "
                              f"append({a}, {b}))"))
        goals += [
            (double, pe_double, "eq(double(0), 0)"),
            (double, pe_double, "eq(double(s(0)), s(s(0)))"),
            (double, pe_double, "eq(double(s(s(0))), s(s(s(s(0)))))"),
            (gfh, pe_gfh, "eq(h(g(0)), s(0))"),
            (gfh, pe_gfh, "eq(h(g(s(0))), s(0))"),
            (gfh, pe_gfh, "eq(g(0), s(0))"),
            (gfh, pe_gfh, "eq(f(0), 0)"),
        ]
        assert len(goals) == 20
        # The check can fail: the needed tree of this goal branches.
        assert deterministically_evaluable(
            parse_term("leq(X, add(X, X))", leq.signature), leq) is False

        violations = []
        for program, ctl, source in goals:
            goal = parse_term(source, program.signature)
            if deterministically_evaluable(goal, program) is not True:
                violations.append(f"{source}: not deterministic originally")
                continue
            if answer_set(search(goal, program)) != {("{}", "true")}:
                violations.append(f"{source}: original answer not identity")
                continue
            renamed = rename_term(ctl.result.renaming, goal)
            if deterministically_evaluable(
                    renamed, ctl.result.program) is not True:
                violations.append(f"{source}: specialization lost determinism")
                continue
            if answer_set(search(renamed, ctl.result.program)) != {
                    ("{}", "true")}:
                violations.append(f"{source}: specialized answer not identity")
        assert not violations, "; ".join(violations)
