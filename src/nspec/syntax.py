"""Concrete syntax: parsing and printing of programs and terms.

Program files declare symbols, then give rules::

    % Peano naturals
    constructors 0/0 s/1 true/0 false/0 ;
    operations leq/2 add/2 ;

    leq(0, N) -> true ;
    leq(s(M), s(N)) -> M <= N ;

Variables start with an uppercase letter; every other identifier must be
declared with its arity.  `%` starts a comment.  Four infix forms are
accepted as sugar when the corresponding symbol is declared: `+` (add),
`<=` (leq), `~` (eq) and the right-associative `:` (cons).  The printer
always emits plain prefix applications, so print/parse round-trips are
exact.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple, Union

from .program import Program, ProgramError, Rule, Signature
from .terms import App, CONSTRUCTOR, OPERATION, Symbol, Term, Var

_TOKEN_RE = re.compile(
    r"""
      (?P<skip>\s+|%[^\n]*)
    | (?P<punct>->|<=|[(),;/~+:])
    | (?P<var>[A-Z][A-Za-z0-9_]*)
    | (?P<name>[a-z0-9][A-Za-z0-9_]*)
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _error_at(text: str, pos: int, message: str) -> ParseError:
    """A ParseError at offset `pos` of text; the line and column are
    counted only here, when an error is raised."""
    return ParseError(message, text.count("\n", 0, pos) + 1,
                      pos - text.rfind("\n", 0, pos))


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int  # offset in the source text


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "bad":
            raise _error_at(text, m.start(), f"unexpected character {m.group()!r}")
        tokens.append(_Token(kind, m.group(), m.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


_SUGAR = {"+": "add", "<=": "leq", "~": "eq", ":": "cons"}
_LEVEL = {"~": 1, "<=": 2, ":": 3, "+": 4}  # how tightly each infix binds


class _Parser:
    def __init__(self, text: str, signature: Signature):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.signature = signature

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

    def error(self, message: str, tok: Optional[_Token] = None) -> ParseError:
        """A ParseError at tok, by default at the next token."""
        return _error_at(self.text, (tok or self.peek()).pos, message)

    def _sugar_symbol(self, op_text: str, tok: _Token) -> Symbol:
        name = _SUGAR[op_text]
        sym = self.signature.get(name)
        if sym is None or sym.arity != 2:
            raise self.error(
                f"infix {op_text!r} needs a declared binary symbol {name!r}", tok)
        return sym

    def _apply(self, tok: _Token, sym: Symbol, operands: List[Term], base: int) -> None:
        """Replace the operands from `base` on by sym applied to them."""
        args = tuple(operands[base:])
        if len(args) != sym.arity:
            raise self.error(f"{sym} applied to {len(args)} argument(s)", tok)
        operands[base:] = [App(sym, args)]

    def term(self) -> Term:
        """One term, by precedence climbing over explicit stacks, so that
        nesting costs no Python frames.  Precedence: ~ < <= < : (right)
        < + (left); a second `~` or `<=` on one level ends the level.  An
        infix symbol is looked up once its right operand is parsed."""
        operands: List[Term] = []
        # Infix operator tokens, and per open bracket (its token, the
        # applied symbol or None for a parenthesis, the operands below).
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


def _parse_declaration(parser: _Parser, kind: str) -> None:
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


def parse_program(text: str) -> Program:
    """Parse a program file into a Program."""
    parser = _Parser(text, Signature())
    rules: List[Rule] = []
    while parser.peek().kind != "eof":
        tok = parser.peek()
        if tok.kind == "name" and tok.text in ("constructors", "operations"):
            _parse_declaration(
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


def parse_term(text: str, signature: Signature) -> Term:
    """Parse a single term (goal syntax) against a signature."""
    parser = _Parser(text, signature)
    t = parser.term()
    tok = parser.peek()
    if tok.kind != "eof":
        raise parser.error(f"trailing input {tok.text!r}")
    return t


def print_program(program: Program) -> str:
    """Canonical text for a program; parsing it back is structurally exact."""
    lines: List[str] = []
    ctors = program.signature.constructors()
    ops = program.signature.operations()
    if ctors:
        lines.append("constructors " + " ".join(str(s) for s in ctors) + " ;")
    if ops:
        lines.append("operations " + " ".join(str(s) for s in ops) + " ;")
    if program.rules:
        lines.append("")
    for r in program.rules:
        lines.append(f"{r.lhs} -> {r.rhs} ;")
    return "\n".join(lines) + "\n"
