"""Concrete syntax: tokenizing, parsing, sugar, printing, round-trips."""

from pathlib import Path

import pytest

from nspec.program import Signature, add_strict_equality
from nspec.syntax import ParseError, parse_program, parse_term, print_program
from nspec.terms import Symbol

DATA = Path(__file__).parent / "data"
# Every infix form is declared here.
FULL = Signature([Symbol("0", 0, "constructor"), Symbol("s", 1, "constructor"),
                  Symbol("nil", 0, "constructor"), Symbol("cons", 2, "constructor"),
                  Symbol("add", 2, "operation"), Symbol("leq", 2, "operation"),
                  Symbol("eq", 2, "operation")])
DEEP = 10 ** 5


def source(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


class TestParseProgram:
    def test_declarations_and_labels(self):
        p = parse_program(source("leq.flp"))
        assert [f"{s}" for s in p.signature] == [
            "0/0", "s/1", "true/0", "false/0", "leq/2", "add/2"]
        assert [r.label for r in p.rules] == ["R1", "R2", "R3", "R4", "R5"]
        assert str(p.rules[2]) == "leq(s(M), s(N)) -> leq(M, N)"

    def test_comments_ignored(self):
        p = parse_program(
            "% a comment\nconstructors a/0 ;  % trailing\noperations f/1 ;\n"
            "f(a) -> a ; % done\n")
        assert len(p.rules) == 1

    def test_declarations_may_interleave_rules(self):
        p = parse_program(
            "constructors a/0 ;\noperations f/1 ;\nf(a) -> a ;\n"
            "operations g/1 ;\ng(a) -> f(a) ;\n")
        assert [r.label for r in p.rules] == ["R1", "R2"]


class TestSugar:
    def test_infix_forms(self, leq_prog):
        sig = leq_prog.signature
        assert str(parse_term("M <= N", sig)) == "leq(M, N)"
        assert str(parse_term("M + N", sig)) == "add(M, N)"
        assert str(parse_term("X ~ Y", sig)) == "eq(X, Y)"

    def test_plus_binds_tighter_than_leq(self, leq_prog):
        t = parse_term("X + Y <= Z", leq_prog.signature)
        assert str(t) == "leq(add(X, Y), Z)"

    def test_equation_binds_loosest(self, leq_prog):
        t = parse_term("X <= Y ~ Z", leq_prog.signature)
        assert str(t) == "eq(leq(X, Y), Z)"

    def test_plus_is_left_associative(self, leq_prog):
        t = parse_term("X + Y + Z", leq_prog.signature)
        assert str(t) == "add(add(X, Y), Z)"

    def test_cons_is_right_associative(self, append_prog):
        t = parse_term("X : Y : nil", append_prog.signature)
        assert str(t) == "cons(X, cons(Y, nil))"

    def test_parentheses_override(self, leq_prog):
        t = parse_term("X + (Y + Z)", leq_prog.signature)
        assert str(t) == "add(X, add(Y, Z))"

    def test_sugar_needs_declared_symbol(self):
        with pytest.raises(ParseError, match="infix '~' needs a declared "
                                             "binary symbol 'eq'"):
            parse_term("X ~ Y", Signature())

    def test_all_levels_together(self):
        t = parse_term("X : Y + Z + W <= V ~ U", FULL)
        assert str(t) == "eq(leq(cons(X, add(add(Y, Z), W)), V), U)"

    @pytest.mark.parametrize("text, message", [
        ("X <= Y <= Z", "trailing input '<=' (line 1, column 8)"),
        ("X ~ Y <= Z ~ W", "trailing input '~' (line 1, column 12)"),
        ("(X <= Y <= Z)", "expected ')', found '<=' (line 1, column 9)"),
        ("s(X ~ Y ~ Z)", "expected ')', found '~' (line 1, column 9)"),
    ])
    def test_leq_and_equation_do_not_chain(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_term(text, FULL)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        # the right operand is parsed before the infix symbol is looked up
        ("X + nil", "undeclared symbol 'nil' (line 1, column 5)"),
        # so a chain of `:` reports its last operator first
        ("X : Y : Z", "infix ':' needs a declared binary symbol 'cons' "
                      "(line 1, column 7)"),
        ("X + Y : Z", "infix '+' needs a declared binary symbol 'add' "
                      "(line 1, column 3)"),
    ])
    def test_infix_symbol_checked_after_its_right_operand(self, text, message):
        sig = Signature([Symbol("s", 1, "constructor")])
        with pytest.raises(ParseError) as err:
            parse_term(text, sig)
        assert str(err.value) == message


class TestDeepNesting:
    """Nesting depth costs the parser and the printer no Python frames."""

    def test_applications(self):
        text = "s(" * DEEP + "X" + ")" * DEEP
        assert str(parse_term(text, FULL)) == text

    def test_parentheses(self):
        assert str(parse_term("(" * DEEP + "0" + ")" * DEEP, FULL)) == "0"

    def test_left_associative_chain(self):
        t = parse_term("0" + " + 0" * DEEP, FULL)
        assert str(t) == "add(" * DEEP + "0" + ", 0)" * DEEP

    def test_right_associative_chain(self):
        t = parse_term("0 : " * DEEP + "nil", FULL)
        assert str(t) == "cons(0, " * DEEP + "nil" + ")" * DEEP

    def test_error_position_inside_deep_nesting(self):
        with pytest.raises(ParseError) as err:
            parse_term("s(" * 1000 + "foo", FULL)
        assert str(err.value) == "undeclared symbol 'foo' (line 1, column 2001)"


class TestParseErrors:
    def test_unexpected_character(self):
        with pytest.raises(ParseError, match=r"unexpected character '\{' "
                                              r"\(line 1, column 1\)"):
            parse_program("{")

    def test_position_reported(self):
        bad = "constructors a/0 ;\noperations f/1 ;\nf(a -> a ;\n"
        with pytest.raises(ParseError) as err:
            parse_program(bad)
        assert str(err.value) == "expected ')', found '->' (line 3, column 5)"
        assert (err.value.line, err.value.column) == (3, 5)

    def test_undeclared_symbol(self, leq_prog):
        with pytest.raises(ParseError, match="undeclared symbol 'nil'"):
            parse_term("nil", leq_prog.signature)

    def test_arity_mismatch(self, leq_prog):
        with pytest.raises(ParseError, match=r"s/1 applied to 2 argument\(s\)"):
            parse_term("s(0, 0)", leq_prog.signature)

    def test_uppercase_declaration_rejected(self):
        with pytest.raises(ParseError, match="must not start uppercase: 'F'"):
            parse_program("operations F/1 ;\n")

    def test_non_numeric_arity(self):
        with pytest.raises(ParseError, match="expected a numeric arity"):
            parse_program("operations f/x ;\n")

    def test_variable_lhs(self):
        with pytest.raises(ParseError, match="must not be a variable"):
            parse_program("constructors a/0 ;\nX -> a ;\n")

    def test_trailing_input(self, leq_prog):
        with pytest.raises(ParseError, match="trailing input ','"):
            parse_term("0, 0", leq_prog.signature)

    def test_missing_term(self, leq_prog):
        with pytest.raises(ParseError, match="expected a term, found 'end of input'"):
            parse_term("s(", leq_prog.signature)

    def test_conflicting_declaration_as_parse_error(self):
        with pytest.raises(ParseError, match="conflicting declarations"):
            parse_program("constructors a/0 ;\noperations a/1 ;\n")


class TestPrintProgram:
    def test_format(self):
        p = parse_program("constructors a/0 ;\noperations f/1 ;\nf(a) -> a ;\n")
        assert print_program(p) == (
            "constructors a/0 ;\noperations f/1 ;\n\nf(a) -> a ;\n")

    def test_printer_desugars(self):
        p = parse_program(source("leq.flp"))
        assert "leq(M, N)" in print_program(p)
        assert "<=" not in print_program(p)

    @pytest.mark.parametrize("name", [
        "leq.flp", "append.flp", "double.flp", "gfh.flp", "loop.flp",
        "uniform_fg.flp",
    ])
    def test_round_trip_is_structural_identity(self, name):
        p = parse_program(source(name))
        assert parse_program(print_program(p)) == p

    @pytest.mark.parametrize("name", ["leq.flp", "append.flp"])
    def test_round_trip_with_equality_rules(self, name):
        p = add_strict_equality(parse_program(source(name)))
        assert parse_program(print_program(p)) == p
