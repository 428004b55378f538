"""Definitional trees, inductive sequentiality, and pattern flattening."""

import itertools
import random
import sys
from pathlib import Path

import pytest

from conftest import (below_recursion_limit, calls_counted, is_uniform,
                      is_variant, parent_leaf_rule, random_program,
                      trees_isomorphic)
from nspec import cli, deftree, terms
from nspec.deftree import (
    Branch,
    Leaf,
    ProgramClassError,
    build_tree,
    is_inductively_sequential,
    uniform_transform,
)
from nspec.program import Rule, add_strict_equality
from nspec.syntax import parse_program, print_program
from nspec.terms import (
    App,
    FreshVars,
    Symbol,
    Var,
    match,
    replace_at,
    subterm_at,
    subterms,
)

PARALLEL_OR_STYLE = (
    "constructors a/0 b/0 ;\noperations f3/3 ;\n"
    "f3(a, b, X) -> a ;\nf3(b, X, a) -> a ;\nf3(X, a, b) -> a ;\n")

LEQ_ONLY = (
    "constructors 0/0 s/1 true/0 false/0 ;\noperations leq/2 ;\n"
    "leq(0, N) -> true ;\nleq(s(M), 0) -> false ;\n"
    "leq(s(M), s(N)) -> M <= N ;\n")


def shape(tree):
    if isinstance(tree, Leaf):
        return ("leaf", str(tree.pattern), tree.rule.label)
    return ("branch", str(tree.pattern), tree.position,
            [shape(c) for c in tree.children])


class TestBuildTree:
    def test_leq_tree(self, leq_prog):
        sym = leq_prog.signature.get("leq")
        tree = build_tree(sym, leq_prog.rules_for("leq"))
        assert shape(tree) == (
            "branch", "leq(V1, V2)", (1,), [
                ("leaf", "leq(0, V2)", "R1"),
                ("branch", "leq(s(V3), V2)", (2,), [
                    ("leaf", "leq(s(V3), 0)", "R2"),
                    ("leaf", "leq(s(V3), s(V4))", "R3"),
                ]),
            ])

    def test_leaf_rules_are_realigned_to_patterns(self, leq_prog):
        tree = build_tree(leq_prog.signature.get("leq"),
                          leq_prog.rules_for("leq"))
        inner = tree.children[1]
        leaf = inner.children[1]
        assert str(leaf.rule) == "leq(s(V3), s(V4)) -> leq(V3, V4)"
        assert leaf.rule.lhs == leaf.pattern

    def test_child_constructor(self, leq_prog):
        tree = build_tree(leq_prog.signature.get("leq"),
                          leq_prog.rules_for("leq"))
        assert str(tree.constructors[0]) == "0/0"
        assert str(tree.constructors[1]) == "s/1"

    @pytest.mark.parametrize("name", sorted(
        p.stem for p in (Path(__file__).parent / "data").glob("*.flp")))
    def test_child_constructors_equal_the_pattern_lookup(self, name):
        program = parse_program(
            (Path(__file__).parent / "data" / f"{name}.flp").read_text())
        branches = 0
        for tree in is_inductively_sequential(program).trees.values():
            stack = [tree]
            while stack:
                node = stack.pop()
                if isinstance(node, Branch):
                    branches += 1
                    assert [node.constructors[i]
                            for i in range(len(node.children))] == [
                        subterm_at(child.pattern, node.position).root
                        for child in node.children]
                    stack.extend(node.children)
        assert branches > 0

    def test_add_tree(self, leq_prog):
        tree = build_tree(leq_prog.signature.get("add"),
                          leq_prog.rules_for("add"))
        assert isinstance(tree, Branch) and tree.position == (1,)
        assert all(isinstance(c, Leaf) for c in tree.children)

    def test_equality_tree_nests_once_per_argument(self, leq_prog):
        tree = build_tree(leq_prog.signature.get("eq"),
                          leq_prog.rules_for("eq"))
        assert tree.position == (1,)
        assert len(tree.children) == 4
        assert all(isinstance(c, Branch) and c.position == (2,)
                   for c in tree.children)

    def test_no_tree_for_parallel_patterns(self):
        p = parse_program(PARALLEL_OR_STYLE)
        assert build_tree(p.signature.get("f3"), p.rules_for("f3")) is None

    def test_no_tree_for_nonlinear_rules(self):
        p = parse_program(
            "constructors 0/0 ;\noperations f/2 ;\nf(X, X) -> 0 ;\n")
        assert build_tree(p.signature.get("f"), p.rules_for("f")) is None

    def test_no_tree_for_duplicate_lhs_variants(self):
        p = parse_program(
            "constructors 0/0 ;\noperations f/1 ;\nf(X) -> 0 ;\nf(Y) -> 0 ;\n")
        assert build_tree(p.signature.get("f"), p.rules_for("f")) is None

    def test_no_rules_means_no_tree(self, leq_prog):
        assert build_tree(leq_prog.signature.get("leq"), []) is None

    def test_a_rule_of_another_operation_is_rejected(self, leq_prog):
        with pytest.raises(ProgramClassError, match="does not define leq/2"):
            build_tree(leq_prog.signature.get("leq"), leq_prog.rules_for("add"))

    def test_unknown_tie_break_rejected(self, leq_prog):
        with pytest.raises(ValueError, match="unknown tie break"):
            build_tree(leq_prog.signature.get("leq"),
                       leq_prog.rules_for("leq"), "middle")

    def test_shared_prefix_patterns(self):
        p = parse_program(
            "constructors a/0 b/0 ;\noperations f/3 ;\n"
            "f(a, a, a) -> b ;\nf(b, b, X) -> b ;\n")
        tree = build_tree(p.signature.get("f"), p.rules_for("f"))
        assert isinstance(tree, Branch) and tree.position == (1,)


class TestForestAndReport:
    @pytest.mark.parametrize("fixture", [
        "leq_prog", "append_prog", "double_prog", "gfh_prog", "loop_prog"])
    def test_examples_are_inductively_sequential(self, fixture, request):
        program = request.getfixturevalue(fixture)
        report = is_inductively_sequential(program)
        assert report.ok
        assert report.failures == ()
        assert set(report.trees) == {s.name for s in program.defined_operations()}

    def test_failure_names_the_operation(self):
        report = is_inductively_sequential(parse_program(PARALLEL_OR_STYLE))
        assert not report.ok
        assert report.failures == ("f3",)
        assert "f3" not in report.trees

    def test_forest_returns_trees_and_failures(self, leq_prog):
        report = is_inductively_sequential(leq_prog)
        assert report.failures == ()
        assert sorted(report.trees) == ["add", "and", "eq", "leq"]

    def test_forest_time_grows_linearly_in_the_rules(self):
        """The generated `eq` of n unary constructors has n + 1 rules and
        a tree of n + 1 leaves under one branch.  The work is counted in
        function calls, not timed."""
        calls = {}
        for n in (100, 400):
            names = " ".join(f"c{i}/1" for i in range(n))
            program = add_strict_equality(parse_program(
                f"constructors {names} ;\noperations id/1 ;\nid(X) -> X ;"))
            report = is_inductively_sequential(program)
            assert report.ok and len(report.trees["eq"].children) == n + 1
            calls[n] = calls_counted(lambda: is_inductively_sequential(program))
        # Linear growth gives 4; a pairwise scan of the left-hand sides
        # for duplicates gives about 12.
        assert calls[400] < 6 * calls[100], calls


def _leaves(tree):
    return [node for node, _ in deftree.preorder(tree) if isinstance(node, Leaf)]


def _calls_of(functions, run):
    """How many times `run()` calls each of the Python functions."""
    codes = {f.__code__: f for f in functions}
    counts = dict.fromkeys(functions, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


class TestLeavesAreVariants:
    """Each leaf's rule is a variant of its program rule over the
    variables of the leaf's pattern, built without a `match`, a
    right-hand side or the checks of `Rule.__init__`, and equal to the
    rule the leaf had when it was built that way."""

    @staticmethod
    def _programs():
        files = sorted((Path(__file__).parent / "data").glob("*.flp"))
        files += sorted((Path(__file__).parents[1] / "bench" / "programs").glob("*.flp"))
        programs = [add_strict_equality(parse_program(f.read_text())) for f in files]
        return programs + [random_program(seed) for seed in range(60)]

    def test_leaf_rules_are_unbuilt_variants_of_the_program_rules(self):
        checked = 0
        for program in self._programs():
            by_label = {rule.label: rule for rule in program.rules}
            trees = is_inductively_sequential(program).trees
            leaves = [leaf for tree in trees.values() for leaf in _leaves(tree)]
            assert not any({"lhs", "rhs"} & set(vars(leaf.rule)) for leaf in leaves)
            for leaf in leaves:
                source = by_label[leaf.rule.label]
                assert leaf.rule.source is source
                assert leaf.rule.lhs == leaf.pattern
                assert leaf.rule.rhs == parent_leaf_rule(leaf.pattern, source).rhs
                checked += 1
        assert checked >= 300

    def test_a_forest_calls_neither_match_nor_the_rule_checks(self):
        for program in self._programs():
            counts = _calls_of([terms.match, Rule.__init__],
                               lambda: is_inductively_sequential(program))
            assert counts == {terms.match: 0, Rule.__init__: 0}


class TestTieBreak:
    def test_rightmost_moves_ambiguous_pivot(self, leq_prog):
        left = build_tree(leq_prog.signature.get("eq"),
                          leq_prog.rules_for("eq"), "leftmost")
        right = build_tree(leq_prog.signature.get("eq"),
                           leq_prog.rules_for("eq"), "rightmost")
        assert left.position == (1,)
        assert right.position == (2,)
        assert not trees_isomorphic(left, right)

    def test_forced_pivot_is_tie_break_independent(self, leq_prog):
        left = build_tree(leq_prog.signature.get("leq"),
                          leq_prog.rules_for("leq"), "leftmost")
        right = build_tree(leq_prog.signature.get("leq"),
                           leq_prog.rules_for("leq"), "rightmost")
        assert left.position == right.position == (1,)
        assert trees_isomorphic(left, right)

    def test_trees_deeper_than_the_recursion_limit(self):
        def tree(k, tie_break):
            program = parse_program("constructors 0/0 s/1 ;\noperations f/1 ;\n"
                                    f"f({'s(' * k}0{')' * k}) -> 0 ;")
            return is_inductively_sequential(program, tie_break).trees["f"]

        deep = tree(600, "leftmost")
        assert trees_isomorphic(deep, tree(600, "rightmost"))
        assert not trees_isomorphic(deep, tree(599, "leftmost"))



class TestPreorder:
    """`deftree.preorder`, the walker that every reader of a whole
    definitional tree uses: (node, depth) in preorder, children in tree
    order."""

    def test_order_and_depths(self, leq_prog):
        tree = build_tree(leq_prog.signature.get("leq"), leq_prog.rules_for("leq"))
        walked = [(node.__class__.__name__, str(node.pattern), depth)
                  for node, depth in deftree.preorder(tree)]
        assert walked == [
            ("Branch", "leq(V1, V2)", 0),
            ("Leaf", "leq(0, V2)", 1),
            ("Branch", "leq(s(V3), V2)", 1),
            ("Leaf", "leq(s(V3), 0)", 2),
            ("Leaf", "leq(s(V3), s(V4))", 2),
        ]
        leaf = tree.children[0]
        assert list(deftree.preorder(leaf)) == [(leaf, 0)]

    def test_trees_whose_nodes_differ_only_in_depth_differ(self):
        """f(X) split at 1 over f(s(Y)) split at 1.1 and f(s(s(Z))): the
        last node is the root's second child in one tree and the inner
        branch's second child in the other, so the preorders differ only
        in its depth."""
        program = parse_program("constructors 0/0 s/1 ;\noperations f/1 ;\n"
                                "f(s(0)) -> 0 ;\nf(s(s(Z))) -> 0 ;")
        f, s, zero = (program.signature.get(name) for name in ("f", "s", "0"))
        one, two = (Leaf(r.lhs, r) for r in program.rules)
        inner = App(f, (App(s, (Var("Y"),)),))
        a = Branch(App(f, (Var("X"),)), (1,),
                   (Branch(inner, (1, 1), (one,), (zero,)), two), (s, s))
        b = Branch(App(f, (Var("X"),)), (1,),
                   (Branch(inner, (1, 1), (one, two), (zero, s)),), (s,))
        def heads(tree):
            return [(type(node), node.pattern, getattr(node, "position", None))
                    for node, _ in deftree.preorder(tree)]

        assert heads(a) == heads(b)
        assert not trees_isomorphic(a, b) and trees_isomorphic(b, b)

    def test_a_tree_deeper_than_the_recursion_limit(self):
        """The tree of f(s^1500(0)) -> 0 is a path of 1,501 branches and a
        leaf, walked and printed with the recursion limit at 100."""
        k = 1500
        program = parse_program("constructors 0/0 s/1 ;\noperations f/1 ;\n"
                                f"f({'s(' * k}0{')' * k}) -> 0 ;")
        tree = build_tree(program.signature.get("f"), program.rules_for("f"))

        def read():
            return ([(type(node), depth) for node, depth in deftree.preorder(tree)],
                    cli._tree_lines(tree))

        walked, lines = below_recursion_limit(read)
        assert walked == [(Branch, d) for d in range(k + 1)] + [(Leaf, k + 1)]
        assert len(lines) == k + 2
        assert lines[-1] == "  " * (k + 1) + f"leaf f({'s(' * k}0{')' * k}) -> 0"


class TestIdentity:
    """A definitional tree is a plain slots object: it compares and
    hashes by identity, so no comparison walks its children."""

    def test_two_builds_are_isomorphic_but_distinct(self, leq_prog):
        for name in ("leq", "add", "eq"):
            build = lambda: build_tree(leq_prog.signature.get(name),
                                       leq_prog.rules_for(name))
            tree, again = build(), build()
            assert not hasattr(tree, "__dict__")
            assert trees_isomorphic(tree, again)
            assert tree == tree and tree != again
            assert len({tree, again}) == 2 and {tree: name}[tree] == name

    def test_a_tree_deeper_than_the_recursion_limit_compares_and_hashes(self):
        k = 1500
        program = parse_program("constructors 0/0 s/1 ;\noperations f/1 ;\n"
                                f"f({'s(' * k}0{')' * k}) -> 0 ;")
        build = lambda: build_tree(program.signature.get("f"), program.rules_for("f"))
        tree, again = build(), build()

        def compare():
            return (tree == tree, tree == again, tree == tree.children[0],
                    len({tree, again, tree.children[0]}))

        assert below_recursion_limit(compare) == (True, False, False, 3)
        assert trees_isomorphic(tree, again)


class TestUniform:
    def test_flat_patterns_are_uniform(self):
        src = (Path(__file__).parent / "data" / "uniform_fg.flp").read_text()
        assert is_uniform(parse_program(src))

    def test_nested_patterns_are_not_uniform(self):
        assert not is_uniform(parse_program(LEQ_ONLY))

    def test_generic_single_rule_is_uniform(self):
        p = parse_program("constructors a/0 ;\noperations f/1 ;\nf(X) -> X ;\n")
        assert is_uniform(p)

    def test_an_operation_in_a_pattern_is_not_uniform(self):
        """Uniform patterns are constructor patterns: `f(g(X))` with g
        an operation has no definitional tree, so the transform rejects
        it too."""
        p = parse_program("constructors a/0 ;\noperations f/1 g/1 ;\n"
                          "f(g(X)) -> X ;\ng(X) -> X ;\n")
        assert not is_uniform(p)
        with pytest.raises(ProgramClassError, match="not inductively sequential: f"):
            uniform_transform(p)

    def test_transform_output(self):
        program = parse_program(LEQ_ONLY)
        assert not is_uniform(program)
        out = uniform_transform(program)
        assert [f"{r.label}: {r}" for r in out.rules] == [
            "U1: leq(0, V2) -> true",
            "U2: leq(s(V3), V2) -> leq_1(V3, V2)",
            "U3: leq_1(V3, 0) -> false",
            "U4: leq_1(V3, s(V4)) -> leq(V3, V4)",
        ]
        assert is_uniform(out)
        assert is_inductively_sequential(out).ok

    def test_transform_of_full_program(self, leq_prog):
        out = uniform_transform(leq_prog)
        assert len(out.rules) == 15
        assert is_uniform(out)
        assert parse_program(print_program(out)) == out

    def test_transform_requires_sequential_program(self):
        with pytest.raises(ProgramClassError,
                           match="not inductively sequential: f3"):
            uniform_transform(parse_program(PARALLEL_OR_STYLE))

    def test_helper_names_avoid_existing_symbols(self):
        src = LEQ_ONLY.replace("operations leq/2 ;",
                               "operations leq/2 leq_1/1 ;") + "leq_1(X) -> X ;\n"
        out = uniform_transform(parse_program(src))
        helper = [s.name for s in out.signature.operations()
                  if s.name.startswith("leq_") and s.arity == 2]
        assert helper == ["leq_2"]


# --- the builder against the recursive one it replaced ----------------------


def parent_build(pattern, rules, gen, tie_break):
    """The recursive builder that `deftree._build` replaced: each level
    re-lists the pattern's variable positions, reads every left-hand
    side there, and tests a single rule for variance."""
    if len(rules) == 1:
        rule = rules[0]
        if is_variant(rule.lhs, pattern):
            theta = match(rule.lhs, pattern)
            return Leaf(pattern, Rule(pattern, theta.apply(rule.rhs), rule.label))
    candidates = [p for p in sorted(q for q, u in subterms(pattern)
                                    if isinstance(u, Var))
                  if all(isinstance(subterm_at(r.lhs, p), App) for r in rules)]
    if tie_break == "rightmost":
        candidates.reverse()
    for pos in candidates:
        groups = {}
        for r in rules:
            groups.setdefault(subterm_at(r.lhs, pos).root, []).append(r)
        children = []
        for ctor, group in groups.items():
            child_pattern = replace_at(pattern, pos,
                                       App(ctor, gen.fresh_tuple(ctor.arity)))
            child = parent_build(child_pattern, group, gen, tie_break)
            if child is None:
                break
            children.append(child)
        else:
            return Branch(pattern, pos, tuple(children), tuple(
                subterm_at(child.pattern, pos).root for child in children))
    return None


def parent_build_root(f, rules, tie_break):
    """`parent_build` from the root pattern f(V1..Vn), names drawn from
    a new `FreshVars`, in the place of `deftree._build(f, rules,
    tie_break)`."""
    gen = FreshVars()
    return parent_build(App(f, gen.fresh_tuple(f.arity)), rules, gen, tie_break)


def full_shape(tree):
    """Every node in preorder with its depth: patterns (so the fresh
    names), positions, constructors and the realigned leaf rules."""
    if tree is None:
        return None
    out, stack = [], [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Leaf):
            out.append((depth, str(node.pattern), str(node.rule), node.rule.label))
        else:
            out.append((depth, str(node.pattern), node.position,
                        [str(c) for c in node.constructors]))
            stack.extend((c, depth + 1) for c in reversed(node.children))
    return out


_CTORS = (Symbol("a", 0, "constructor"), Symbol("b", 0, "constructor"),
          Symbol("c", 1, "constructor"), Symbol("d", 2, "constructor"))
_WIDE_CTORS = _CTORS + (Symbol("e", 3, "constructor"),)


def _random_lhs_rules(seed, rules=(1, 4), arity=(1, 3), max_depth=3,
                      ctors=_CTORS):
    """1-4 rules of an operation of arity 1-3 with random linear
    constructor patterns up to depth 3 (by default): many are not
    inductively sequential, overlap or repeat a left-hand side."""
    rng = random.Random(seed)
    f = Symbol("f", rng.randint(*arity), "operation")
    out = []
    for r in range(rng.randint(*rules)):
        counter = 0

        def pattern(depth):
            nonlocal counter
            if depth == 0 or rng.random() < 0.35:
                counter += 1
                return Var(f"X{counter}")
            c = rng.choice(ctors)
            return App(c, tuple(pattern(depth - 1) for _ in range(c.arity)))

        lhs = App(f, tuple(pattern(max_depth) for _ in range(f.arity)))
        rhs = rng.choice([App(_CTORS[0])] + list(lhs.args))
        out.append(Rule(lhs, rhs, f"R{r + 1}"))
    return f, out


class TestBuilderAgreesWithTheRecursiveOne:
    def _assert_same(self, f, rules, monkeypatch):
        """Both builders give the same tree or none, and none when two
        left-hand sides are variants."""
        duplicate = any(is_variant(a.lhs, b.lhs)
                        for a, b in itertools.combinations(rules, 2))
        for tie_break in ("leftmost", "rightmost"):
            new = full_shape(build_tree(f, rules, tie_break))
            with monkeypatch.context() as patched:
                patched.setattr(deftree, "_build", parent_build_root)
                ref = full_shape(build_tree(f, rules, tie_break))
            assert new == ref, (f, [str(r) for r in rules], tie_break)
            assert new is None or not duplicate, [str(r) for r in rules]

    def test_random_left_hand_sides(self, monkeypatch):
        built = 0
        for seed in range(600):
            f, rules = _random_lhs_rules(seed)
            self._assert_same(f, rules, monkeypatch)
            built += build_tree(f, rules) is not None
        assert 150 <= built <= 450  # with and without a tree

    def test_wide_random_left_hand_sides(self, monkeypatch):
        """2-7 rules of arity up to 4, patterns up to depth 4 with a
        ternary constructor: the single-pass builder takes the first
        qualifying position, and the backtracking reference tries them
        all, so they agree only if no retry ever succeeds."""
        built = 0
        for seed in range(1500):
            f, rules = _random_lhs_rules(seed, rules=(2, 7), arity=(1, 4),
                                         max_depth=4, ctors=_WIDE_CTORS)
            self._assert_same(f, rules, monkeypatch)
            built += build_tree(f, rules) is not None
        assert 200 <= built <= 600, built  # with and without a tree

    def test_corpus_and_random_programs(self, monkeypatch):
        data = Path(__file__).parent / "data"
        programs = [parse_program(p.read_text()) for p in sorted(data.glob("*.flp"))]
        programs += [random_program(seed) for seed in range(60)]
        for program in programs:
            for op in program.defined_operations():
                self._assert_same(op, program.rules_for(op.name), monkeypatch)
