"""Concrete syntax: tokenizing, parsing, sugar, printing, round-trips."""

import random
import re
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple, Union

import pytest

from conftest import traced_peak
from nspec import syntax
from nspec.program import Program, ProgramError, Rule, Signature, add_strict_equality
from nspec.syntax import ParseError, parse_program, parse_term, print_program
from nspec.terms import App, CONSTRUCTOR, OPERATION, Symbol, Term, Var

DATA = Path(__file__).parent / "data"
BENCH_PROGRAMS = Path(__file__).parent.parent / "bench" / "programs"
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

    def test_a_goal_builds_one_term_per_application(self, monkeypatch):
        """`leq(s^k(0), 0)` builds its k + 3 applications and no other."""
        k = 2000
        built = []
        init = App.__init__
        monkeypatch.setattr(App, "__init__", lambda term, *args: (
            built.append(None), init(term, *args))[1])
        parse_term(f"leq({'s(' * k}0{')' * k}, 0)", FULL)
        assert len(built) == k + 3 == 2003

    def test_parse_memory_grows_linearly_in_the_nesting(self):
        """The peak of the memory a parse allocates (`traced_peak`, which
        repeats from run to run where a wall clock does not) grows with
        k as the tokens and the term do: 4 times the nesting stays under
        6 times the peak."""
        peak = {k: traced_peak(lambda: parse_term(
                    f"leq({'s(' * k}0{')' * k}, 0)", FULL))
                for k in (2000, 8000)}
        assert peak[8000] < 6 * peak[2000], peak

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


# --- differential: offsets against a tokenizer that counts lines --------

_REFERENCE_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<arrow>->)
    | (?P<leq><=)
    | (?P<punct>[(),;/~+:])
    | (?P<var>[A-Z][A-Za-z0-9_]*)
    | (?P<name>[a-z0-9][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


class _ReferenceToken(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def reference_tokenize(text: str) -> List[_ReferenceToken]:
    """The tokenizer that carried a line and column through every lexeme
    and stored both in each token, kept as the reference for locations."""
    tokens: List[_ReferenceToken] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_ReferenceToken(
                kind if kind not in ("arrow", "leq") else "punct", lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_ReferenceToken("eof", "", line, col))
    return tokens


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int  # here, the index among the reference tokens


class ReferenceParser:
    """The grammar of the parser that tokenized into `_Token`s, frozen
    as it was (`peek`/`advance`/`expect` over the token list), over the
    reference tokens: each error is placed at its token's counted line
    and column.  The reference tokens equal the ones that parser's
    tokenizer made, at every offset, over the corpora below."""

    def __init__(self, text: str, signature: Signature):
        self.located = reference_tokenize(text)
        self.tokens = [_Token(tok.kind, tok.text, i)
                       for i, tok in enumerate(self.located)]
        self.i = 0
        self.signature = signature

    def error(self, message, tok=None):
        located = self.located[(tok or self.peek()).pos]
        return ParseError(message, located.line, located.column)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            shown = tok.text or "end of input"
            raise self.error(f"expected {text!r}, found {shown!r}")
        return self.advance()

    def _sugar_symbol(self, op_text: str, tok: _Token) -> Symbol:
        name = _SUGAR[op_text]
        sym = self.signature.get(name)
        if sym is None or sym.arity != 2:
            raise self.error(
                f"infix {op_text!r} needs a declared binary symbol {name!r}", tok)
        return sym

    def _apply(self, tok: _Token, sym: Symbol, operands: List[Term], base: int) -> None:
        args = tuple(operands[base:])
        if len(args) != sym.arity:
            raise self.error(f"{sym} applied to {len(args)} argument(s)", tok)
        operands[base:] = [App(sym, args)]

    def term(self) -> Term:
        operands: List[Term] = []
        pending: List[Union[_Token, Tuple[_Token, Optional[Symbol], int]]] = []
        while True:
            tok = self.advance()
            if tok.text == "(":
                pending.append((tok, None, len(operands)))
                continue
            if tok.kind == "var":
                operands.append(Var(tok.text))
            elif tok.kind == "name":
                sym = self.signature.get(tok.text)
                if sym is None:
                    raise self.error(f"undeclared symbol {tok.text!r}", tok)
                if self.peek().text == "(":
                    self.advance()
                    pending.append((tok, sym, len(operands)))
                    continue
                self._apply(tok, sym, operands, len(operands))
            else:
                shown = tok.text or "end of input"
                raise self.error(f"expected a term, found {shown!r}", tok)
            while True:  # after an operand
                op = self.peek().text
                level = _LEVEL.get(op)
                while pending and isinstance(pending[-1], _Token):
                    top = pending[-1].text
                    if level is not None and (
                            _LEVEL[top] < level or top == op == ":"):
                        break
                    if top == op and op in ("~", "<="):
                        level = None  # the level ends here
                    right = operands.pop()
                    sym = self._sugar_symbol(top, pending.pop())
                    operands[-1] = App(sym, (operands[-1], right))
                if level is not None:
                    pending.append(self.advance())
                    break
                if not pending:
                    return operands.pop()
                tok, sym, base = pending[-1]
                if sym is not None and self.peek().text == ",":
                    self.advance()
                    break
                pending.pop()
                self.expect(")")
                if sym is not None:
                    self._apply(tok, sym, operands, base)


_SUGAR = {"+": "add", "<=": "leq", "~": "eq", ":": "cons"}
_LEVEL = {"~": 1, "<=": 2, ":": 3, "+": 4}


def _reference_declaration(parser: ReferenceParser, kind: str) -> None:
    parser.advance()  # the keyword
    while parser.peek().text != ";":
        tok = parser.peek()
        if tok.kind not in ("name", "var"):
            raise parser.error("expected NAME/ARITY in declaration")
        if tok.kind == "var":
            raise parser.error(
                f"symbol names must not start uppercase: {tok.text!r}", tok)
        parser.advance()
        parser.expect("/")
        num = parser.peek()
        if num.kind != "name" or not num.text.isdigit():
            raise parser.error("expected a numeric arity")
        parser.advance()
        try:
            parser.signature.declare(Symbol(tok.text, int(num.text), kind))
        except ProgramError as exc:
            raise parser.error(str(exc), tok) from exc
    parser.expect(";")


def reference_parse_program(text: str) -> Program:
    parser = ReferenceParser(text, Signature())
    rules: List[Rule] = []
    while parser.peek().kind != "eof":
        tok = parser.peek()
        if tok.kind == "name" and tok.text in ("constructors", "operations"):
            _reference_declaration(
                parser, CONSTRUCTOR if tok.text == "constructors" else OPERATION)
            continue
        lhs = parser.term()
        parser.expect("->")
        rhs = parser.term()
        parser.expect(";")
        if isinstance(lhs, Var):
            raise parser.error("rule left-hand side must not be a variable", tok)
        try:
            rules.append(Rule(lhs, rhs, label=f"R{len(rules) + 1}"))
        except ProgramError as exc:
            raise parser.error(str(exc), tok) from exc
    try:
        return Program(parser.signature, rules)
    except ProgramError as exc:
        raise parser.error(str(exc)) from exc


def reference_parse_term(text: str, signature: Signature) -> Term:
    parser = ReferenceParser(text, signature)
    t = parser.term()
    tok = parser.peek()
    if tok.kind != "eof":
        raise parser.error(f"trailing input {tok.text!r}")
    return t


# Inserted at random offsets: every punctuation, near misses of the
# two-character ones, comments, each kind of line break and Unicode
# whitespace, non-ASCII letters and a control character.
_PIECES = ["(", ")", ",", ";", "/", "~", "+", ":", "->", "<=", "-", "<", "=",
           "%", "% note\n", "\n", "\r\n", "\r", "\t", " ", "\u00a0", "\u2028",
           "\x85", "\x00", "\x1c", "é", "λ", "X", "Zs", "s", "0", "add", "{"]


def _mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        if chars and rng.random() < 0.4:
            del chars[min(i, len(chars) - 1)]
        else:
            chars.insert(i, rng.choice(_PIECES))
    return "".join(chars)


def _corpus(seed: int, bases: List[str], size: int) -> List[str]:
    """The bases, their `\\r\\n` forms, and `size` seeded mutants of both."""
    rng = random.Random(seed)
    bases = bases + [b.replace("\n", "\r\n") for b in bases]
    return bases + [_mutate(rng, rng.choice(bases)) for _ in range(size)]


PROGRAMS = _corpus(18, [path.read_text(encoding="utf-8") for path in
                        sorted(DATA.glob("*.flp")) + sorted(BENCH_PROGRAMS.glob("*.flp"))],
                   3000)
GOALS = _corpus(19, ["add(s(0), X) ~ s(s(0))", "X + Y <= s(0) ~ true",
                     "cons(0, nil) : Xs ~ Ys", "leq(add(X, 0),\n s(X)) % goal",
                     "((s(0)))", "add(X, Y)"], 3000)


def _outcome(parse, *args):
    """The rules of a parsed program, a parsed term, or the error text,
    line and column."""
    try:
        result = parse(*args)
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    if isinstance(result, Program):
        return list(result.signature), result.rules
    return result


class TestOffsetDifferential:
    def test_tokens_are_the_reference_tokens_at_their_offsets(self):
        """The tokens are the reference lexemes, then "", and an error at
        a token is placed at its line and column; a text with an
        unexpected character reports its first one."""
        for text in PROGRAMS + GOALS:
            try:
                expected = reference_tokenize(text)
            except ParseError as exc:
                with pytest.raises(ParseError) as err:
                    syntax._tokenize(text)
                assert (str(err.value), err.value.line, err.value.column) == (
                    str(exc), exc.line, exc.column), repr(text)
                continue
            tokens = syntax._tokenize(text)
            located = []
            for i, tok in enumerate(tokens[:len(expected)]):
                at = syntax._error(text, i, "")
                located.append((tok, at.line, at.column))
            assert located == [(tok.text, tok.line, tok.column)
                               for tok in expected], repr(text)
            assert set(tokens[len(expected) - 1:]) == {""}, repr(text)

    def test_programs_parse_to_the_reference_rules_or_error(self):
        expected = [_outcome(reference_parse_program, text) for text in PROGRAMS]
        got = [_outcome(parse_program, text) for text in PROGRAMS]
        for text, want, have in zip(PROGRAMS, expected, got):
            assert have == want, repr(text)
        parsed = sum(not isinstance(o[0], str) for o in got)
        assert 100 < parsed < len(PROGRAMS) - 100  # both kinds are exercised

    @pytest.mark.parametrize("signature", [
        FULL, add_strict_equality(parse_program(
            (BENCH_PROGRAMS / "peano.flp").read_text(encoding="utf-8"))).signature,
    ], ids=["full", "peano"])
    def test_goals_parse_to_the_reference_term_or_error(self, signature):
        expected = [_outcome(reference_parse_term, text, signature) for text in GOALS]
        got = [_outcome(parse_term, text, signature) for text in GOALS]
        for text, want, have in zip(GOALS, expected, got):
            assert have == want, repr(text)
        parsed = sum(not isinstance(o, tuple) for o in got)
        assert 100 < parsed < len(GOALS) - 100
