"""Programs: rule well-formedness, validation, strict equality."""

from pathlib import Path

import pytest

from conftest import renaming, traced_peak
from nspec import program as program_module
from nspec.program import (
    Program,
    ProgramError,
    Rule,
    Signature,
    add_strict_equality,
    validate,
)
from nspec.syntax import ParseError, parse_program
from nspec.terms import App, FreshVars, Substitution, Symbol, Var, unify


ZERO = Symbol("0", 0, "constructor")
F1 = Symbol("f", 1, "operation")
X, Y = Var("X"), Var("Y")
BENCH = Path(__file__).parent.parent / "bench" / "programs"


class TestRule:
    def test_str(self):
        r = Rule(App(F1, (X,)), X, "R1")
        assert str(r) == "f(X) -> X"

    def test_variable_lhs_rejected(self):
        with pytest.raises(ProgramError, match="must not be a variable"):
            Rule(X, X)

    def test_invented_rhs_variable_rejected(self):
        with pytest.raises(ProgramError, match="introduces variables Y"):
            Rule(App(F1, (X,)), Y)

    def test_renamed_apart(self):
        r = Rule(App(F1, (X,)), X, "R1")
        r2 = r.renamed(FreshVars())
        assert str(r2) == "f(X_1) -> X_1"
        assert r2.label == "R1"

    def test_a_variant_builds_its_parts_on_the_first_read(self):
        g = Symbol("g", 2, "operation")
        r = Rule(App(g, (Y, X)), App(F1, (X,)), "R1")
        gen = FreshVars()
        variant = r.renamed(gen)
        # The names are drawn when the variant is made, not when read.
        assert renaming(gen, (X,)).apply(X) == Var("X_2")
        assert variant.source is r and r.source is r
        assert not {"lhs", "rhs", "variables", "_renaming"} & set(vars(variant))
        assert variant.label == "R1"
        assert variant.variables == (Var("Y_1"), Var("X_1"))
        assert {"variables", "_renaming"} <= set(vars(variant))
        assert not {"lhs", "rhs"} & set(vars(variant))
        assert variant.lhs == App(g, (Var("Y_1"), Var("X_1")))
        assert "lhs" in vars(variant) and "rhs" not in vars(variant)
        assert str(variant) == "g(Y_1, X_1) -> f(X_1)"
        with pytest.raises(AttributeError, match="no attribute 'other'"):
            variant.other

    def test_the_renaming_of_a_variant_is_built_on_the_first_read(self):
        r = Rule(App(Symbol("g", 2, "operation"), (Y, X)), App(F1, (X,)), "R1")
        variant = r.renamed(FreshVars())
        assert "_renaming" not in vars(variant)
        assert variant.rhs == App(F1, (Var("X_1"),))
        assert vars(variant)["_renaming"] == Substitution(
            {Y: Var("Y_1"), X: Var("X_1")})

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_a_variant_equals_the_rule_built_from_its_parts(self, lazy):
        g = Symbol("g", 2, "operation")
        source = Rule(App(g, (Y, X)), App(F1, (X,)), "R1")
        variant = source.renamed(FreshVars()) if lazy else source
        names = ("Y_1", "X_1") if lazy else ("Y", "X")
        y, x = map(Var, names)
        built = Rule(App(g, (y, x)), App(F1, (x,)), "R1")
        assert variant is not built
        assert variant == built and not variant != built
        assert hash(variant) == hash(built)
        assert repr(variant) == repr(built) == (
            f"Rule(lhs=App('g({y}, {x})'), rhs=App('f({x})'), label='R1')")

    @pytest.mark.parametrize("name", ["lhs", "rhs", "label", "variables", "other"])
    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_assignment_raises(self, name, lazy):
        rule = Rule(App(F1, (X,)), X, "R1")
        if lazy:
            rule = rule.renamed(FreshVars())
        with pytest.raises(AttributeError):
            setattr(rule, name, None)
        with pytest.raises(AttributeError):
            delattr(rule, name)
        assert str(rule) in ("f(X) -> X", "f(X_1) -> X_1")

    def test_variables_in_order_of_first_occurrence(self):
        g = Symbol("g", 2, "operation")
        assert Rule(App(g, (Y, X)), App(F1, (X,))).variables == (Y, X)

    @pytest.mark.parametrize("name", ["leq", "append", "double", "gfh", "loop"])
    def test_renamed_equals_the_validated_rule(self, name, request):
        program = request.getfixturevalue(f"{name}_prog")
        fast, checked = FreshVars(), FreshVars()
        for rule in program.rules:
            variant = rule.renamed(fast)
            theta = renaming(checked, rule.variables)
            reference = Rule(theta.apply(rule.lhs), theta.apply(rule.rhs), rule.label)
            assert variant == reference
            assert (str(variant), variant.label) == (str(reference), reference.label)
            assert variant.variables == reference.variables
            assert variant.variables == tuple(theta.apply(v) for v in rule.variables)


class TestSignature:
    def test_declare_get_contains_iter(self):
        sig = Signature([ZERO, F1])
        assert sig.get("f") == F1
        assert sig.get("nope") is None
        assert "f" in sig and "nope" not in sig
        assert [s.name for s in sig] == ["0", "f"]

    def test_conflicting_declaration_rejected(self):
        sig = Signature([F1])
        with pytest.raises(ProgramError, match="conflicting declarations"):
            sig.declare(Symbol("f", 2, "operation"))

    def test_redeclaring_same_symbol_is_fine(self):
        sig = Signature([F1])
        assert sig.declare(Symbol("f", 1, "operation")) == F1

    def test_kind_partition(self):
        sig = Signature([ZERO, F1])
        assert [s.name for s in sig.constructors()] == ["0"]
        assert [s.name for s in sig.operations()] == ["f"]

    def test_fresh_name_skips_declared_and_taken_names(self):
        """The one name drawer of `uniform_transform` and
        `peval.independent_renaming`: the first free index from k, the
        index after it, and the name added to `taken`."""
        sig = Signature([F1, Symbol("f_0", 1, "operation"),
                         Symbol("f_2", 0, "constructor")])
        taken = {"f_1"}
        assert sig.fresh_name("f_", 0, taken) == ("f_3", 4)
        assert sig.fresh_name("f_", 4, taken) == ("f_4", 5)
        assert sig.fresh_name("g", 1, taken) == ("g1", 2)
        assert taken == {"f_1", "f_3", "f_4", "g1"}
        assert "f_3" not in sig


class TestProgram:
    def test_constructor_root_rejected(self):
        sig = Signature([ZERO, F1])
        with pytest.raises(ProgramError, match="rewrites a constructor root"):
            Program(sig, [Rule(App(ZERO), App(ZERO))])

    def test_undeclared_symbol_rejected(self):
        sig = Signature([ZERO, F1])
        g = Symbol("g", 1, "operation")
        with pytest.raises(ProgramError, match="undeclared symbol g/1"):
            Program(sig, [Rule(App(F1, (App(g, (X,)),)), X)])

    def test_the_first_undeclared_symbol_in_preorder_is_reported(self):
        """The left-hand side is checked before the right-hand side, each
        in preorder."""
        sig = Signature([ZERO, F1])
        g, h = Symbol("g", 1, "operation"), Symbol("h", 1, "operation")
        with pytest.raises(ProgramError) as err:
            Program(sig, [Rule(App(F1, (App(g, (X,)),)), App(h, (X,)))])
        assert str(err.value) == "rule f(g(X)) -> h(X) uses undeclared symbol g/1"
        with pytest.raises(ProgramError) as err:
            Program(sig, [Rule(App(F1, (X,)), App(F1, (App(h, (App(g, (X,)),)),)))])
        assert str(err.value) == "rule f(X) -> f(h(g(X))) uses undeclared symbol h/1"

    def test_a_load_checks_each_rule_once(self, monkeypatch):
        """`cli._load` of `peano.flp` checks its 10 rules when it parses
        them and the 7 rules of strict equality when it adds them: the
        extended program does not check the parsed rules again."""
        from nspec import cli

        checked = []
        check = Program._check_symbols
        monkeypatch.setattr(Program, "_check_symbols",
                            lambda p, rule: (checked.append(rule), check(p, rule))[1])
        program = cli._load(str(BENCH / "peano.flp"))
        assert len(program.rules) == len(checked) == 17
        assert checked == list(program.rules)

    def test_a_rule_of_a_parsed_program_with_an_undeclared_symbol_fails(self):
        with pytest.raises(ParseError) as err:
            parse_program("constructors 0/0 ;\noperations f/1 ;\nf(0) -> g(0) ;\n")
        assert str(err.value) == "undeclared symbol 'g' (line 3, column 9)"

    def test_all_variables_in_order_of_first_occurrence(self, leq_prog):
        assert [v.name for v in leq_prog.all_variables()] == [
            "N", "M", "X1", "Y1", "X"]
        assert leq_prog.all_variables() is leq_prog.all_variables()  # computed once

    def test_rules_for_and_defined_operations(self, leq_prog):
        assert [str(r) for r in leq_prog.rules_for("add")] == [
            "add(0, N) -> N",
            "add(s(M), N) -> s(add(M, N))",
        ]
        assert [s.name for s in leq_prog.defined_operations()] == [
            "leq", "add", "eq", "and"]

    def test_rules_for_is_indexed_once(self, leq_prog):
        for name in ("leq", "add", "eq", "and"):
            rules = leq_prog.rules_for(name)
            assert rules is leq_prog.rules_for(name)  # computed once
            assert rules == tuple(r for r in leq_prog.rules
                                  if r.lhs.root.name == name)
        assert leq_prog.rules_for("true") == ()
        assert leq_prog.rules_for("undeclared") == ()

    def test_structural_equality_ignores_labels(self):
        src = "constructors 0/0 s/1 ;\noperations f/1 ;\nf(0) -> 0 ;\n"
        assert parse_program(src) == parse_program(src)

    def test_symbol_check_time_grows_linearly_in_rule_depth(self):
        """Every parse checks the symbols of each rule, here of a right-hand
        side nesting k calls: the parse and the check on its own.  The
        peak of the memory each allocates stands in for its time: it
        repeats from run to run, where a wall clock does not."""
        parse, check = {}, {}
        for k in (2000, 8000):
            source = ("constructors 0/0 s/1 ;\noperations add/2 f/1 ;\n"
                      "add(0, N) -> N ;\nadd(s(M), N) -> s(add(M, N)) ;\n"
                      f"f(X) -> {'add(' * k}X{', 0)' * k} ;")
            parse[k] = traced_peak(lambda: parse_program(source))
            p = parse_program(source)
            check[k] = traced_peak(lambda: Program(p.signature, p.rules))
        # Linear growth gives 4; a check that walks with `subterms`, which
        # keeps a position per pending subterm, gives about 15 and 16.
        assert parse[8000] < 6 * parse[2000], parse
        assert check[8000] < 6 * check[2000], check


class TestValidate:
    def test_orthogonal_program(self, leq_prog):
        report = validate(leq_prog)
        assert report.left_linear
        assert report.constructor_based
        assert report.overlaps == ()
        assert report.orthogonal

    def test_root_overlap_reported_once(self):
        p = parse_program(
            "constructors 0/0 s/1 ;\noperations f/1 ;\n"
            "f(0) -> 0 ;\nf(X) -> s(0) ;\n")
        report = validate(p)
        assert len(report.overlaps) == 1
        o = report.overlaps[0]
        assert (o.rule, o.other, o.position) == ("R1", "R2", ())
        assert repr(o.mgu) == "{X_2 -> 0}"
        assert not report.orthogonal

    def test_a_clash_at_an_argument_root_is_not_unified(self, monkeypatch):
        """No two rules of the generated eq of 200 constructors overlap,
        and no pair is unified: each clashes at its first argument (the
        unifier ran 20,100 times before the argument roots were read).
        Only a pair that reaches the unifier draws a variant; the others
        skip its names (41,209 variants were drawn before)."""
        calls = []
        monkeypatch.setattr(program_module, "unify",
                            lambda s, t: calls.append((s, t)) or unify(s, t))
        renamed = []
        original = Rule.renamed
        monkeypatch.setattr(Rule, "renamed",
                            lambda rule, gen: renamed.append(rule) or original(rule, gen))
        names = " ".join(f"c{i}/1" for i in range(200))
        report = validate(add_strict_equality(parse_program(
            f"constructors {names} ;\noperations id/1 ;\nid(X) -> X ;")))
        assert report.orthogonal and calls == [] and renamed == []
        # f(0, X) and f(Y, s(0)) overlap; f(s(X), 0) clashes with both.
        report = validate(parse_program(
            "constructors 0/0 s/1 ;\noperations f/2 ;\n"
            "f(0, X) -> 0 ;\nf(Y, s(0)) -> 0 ;\nf(s(X), 0) -> 0 ;\n"))
        assert [(o.rule, o.other, repr(o.mgu)) for o in report.overlaps] == [
            ("R1", "R2", "{X -> s(0), Y_2 -> 0}")]
        assert len(calls) == 1 and len(renamed) == 1

    def test_nonlinear_lhs_detected(self):
        p = parse_program("constructors 0/0 ;\noperations f/2 ;\nf(X, X) -> 0 ;\n")
        report = validate(p)
        assert not report.left_linear
        assert not report.orthogonal
        assert report.overlaps == ()

    def test_operation_in_lhs_argument_detected(self):
        p = parse_program(
            "constructors 0/0 ;\noperations f/1 g/1 ;\n"
            "f(g(X)) -> 0 ;\ng(X) -> 0 ;\n")
        assert not validate(p).constructor_based


class TestStrictEquality:
    def test_rule_shapes(self):
        p = parse_program(
            "constructors a/0 triple/3 ;\noperations f/1 ;\nf(a) -> a ;\n")
        extended = add_strict_equality(p)
        assert [f"{r.label}: {r}" for r in extended.rules] == [
            "R1: f(a) -> a",
            "E1: eq(a, a) -> true",
            "E2: eq(triple(X1, X2, X3), triple(Y1, Y2, Y3)) -> "
            "and(eq(X1, Y1), and(eq(X2, Y2), eq(X3, Y3)))",
            "E3: eq(true, true) -> true",
            "E4: and(true, X) -> X",
        ]
        assert extended.has_strict_equality
        assert str(extended.signature.get("true")) == "true/0"

    def test_single_argument_collapses(self, leq_prog):
        eq_s = [r for r in leq_prog.rules
                if r.label.startswith("E") and "s(" in str(r.lhs)]
        assert [str(r) for r in eq_s] == ["eq(s(X1), s(Y1)) -> eq(X1, Y1)"]

    def test_idempotent(self, leq_prog):
        assert add_strict_equality(leq_prog) is leq_prog

    def test_eq_name_clash_rejected(self):
        p = parse_program(
            "constructors a/0 ;\noperations eq/1 f/1 ;\n"
            "f(a) -> a ;\neq(a) -> a ;\n")
        with pytest.raises(ProgramError, match="already declared"):
            add_strict_equality(p)

    def test_user_defined_eq_rules_rejected(self):
        p = parse_program(
            "constructors a/0 true/0 ;\noperations eq/2 and/2 f/1 ;\n"
            "f(a) -> a ;\neq(a, a) -> true ;\n")
        with pytest.raises(ProgramError, match="user-defined"):
            add_strict_equality(p)

    def test_true_must_be_a_constructor(self):
        p = parse_program("constructors a/0 ;\noperations true/0 ;\ntrue -> true ;\n")
        with pytest.raises(ProgramError, match="true/0 as a constructor"):
            add_strict_equality(p)
