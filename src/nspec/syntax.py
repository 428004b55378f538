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
from itertools import islice
from typing import Callable, List, Optional, Tuple, Union

from .program import Program, ProgramError, Rule, Signature
from .terms import App, CONSTRUCTOR, OPERATION, Symbol, Term, Var

# One match per token: the whitespace and comments before it, then the
# token as the group.  A character that starts no token is a token of
# its own, which `_tokenize` rejects; the text ends in "".
_TOKEN_RE = re.compile(
    r"(?:\s+|%[^\n]*)*(->|<=|[(),;/~+:]|[A-Za-z0-9][A-Za-z0-9_]*|[^\s%]|\Z)")
_VALID_RE = re.compile(r"->|<=|[(),;/~+:]|[A-Za-z0-9]|\Z")


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _error(text: str, i: int, message: str) -> ParseError:
    """A ParseError at token i of text: its offset, line and column are
    found only here, by matching the tokens again up to it."""
    pos = next(islice(_TOKEN_RE.finditer(text), i, None)).start(1)
    return ParseError(message, text.count("\n", 0, pos) + 1,
                      pos - text.rfind("\n", 0, pos))


def _tokenize(text: str) -> List[str]:
    """The tokens of text as strings, the last one "".  The first
    unexpected character is reported here, before any other error."""
    tokens = _TOKEN_RE.findall(text)
    if not all(map(_VALID_RE.match, set(tokens))):
        i = next(i for i, tok in enumerate(tokens) if not _VALID_RE.match(tok))
        raise _error(text, i, f"unexpected character {tokens[i]!r}")
    return tokens


_SUGAR = {"+": "add", "<=": "leq", "~": "eq", ":": "cons"}
_LEVEL = {"~": 1, "<=": 2, ":": 3, "+": 4}  # how tightly each infix binds


def _term(text: str, tokens: List[str], i: int,
          get: Callable[[str], Optional[Symbol]]) -> Tuple[Term, int]:
    """The term at token i, and the index of the token after it, by
    precedence climbing over explicit stacks, so that nesting costs no
    Python frames.  Precedence: ~ < <= < : (right) < + (left); a second
    `~` or `<=` on one level ends the level.  An infix symbol is looked
    up once its right operand is parsed; `get` looks up a symbol."""
    operands: List[Term] = []
    # The token indices of infix operators, and per open bracket (its
    # token index, the applied symbol or None for a parenthesis, the
    # operands below).
    pending: List[Union[int, Tuple[int, Optional[Symbol], int]]] = []
    while True:
        tok = tokens[i]
        i += 1
        if tok == "(":
            pending.append((i - 1, None, len(operands)))
            continue
        first = tok[:1]
        if "A" <= first <= "Z":
            operands.append(Var(tok))
        elif first.isalnum():  # a name: the tokens are checked
            sym = get(tok)
            if sym is None:
                raise _error(text, i - 1, f"undeclared symbol {tok!r}")
            if tokens[i] == "(":
                pending.append((i - 1, sym, len(operands)))
                i += 1
                continue
            if sym.arity:
                raise _error(text, i - 1,
                             f"{sym} applied to 0 argument(s)")
            operands.append(App(sym))
        else:
            raise _error(text, i - 1,
                         f"expected a term, found {tok or 'end of input'!r}")
        while True:  # after an operand
            op = tokens[i]
            level = _LEVEL.get(op)
            while pending and pending[-1].__class__ is int:
                top = tokens[pending[-1]]
                if level is not None and (
                        _LEVEL[top] < level or top == op == ":"):
                    break
                if top == op and op in ("~", "<="):
                    level = None  # the level ends here
                at = pending.pop()
                sym = get(_SUGAR[top])
                if sym is None or sym.arity != 2:
                    raise _error(text, at, f"infix {top!r} needs a "
                                 f"declared binary symbol {_SUGAR[top]!r}")
                right = operands.pop()
                operands[-1] = App(sym, (operands[-1], right))
            if level is not None:
                pending.append(i)
                i += 1
                break
            if not pending:
                return operands.pop(), i
            at, sym, base = pending[-1]
            if sym is not None and op == ",":
                i += 1
                break
            pending.pop()
            if op != ")":
                raise _error(text, i, f"expected ')', found "
                             f"{op or 'end of input'!r}")
            i += 1
            if sym is not None:
                args = tuple(operands[base:])
                if len(args) != sym.arity:
                    raise _error(text, at,
                                 f"{sym} applied to {len(args)} argument(s)")
                operands[base:] = [App(sym, args)]


def _expect(text: str, tokens: List[str], i: int, want: str) -> int:
    """The index after token i, which must be `want`."""
    if tokens[i] != want:
        raise _error(text, i, f"expected {want!r}, found "
                     f"{tokens[i] or 'end of input'!r}")
    return i + 1


def _declarations(text: str, tokens: List[str], i: int,
                  signature: Signature, kind: str) -> int:
    """Declare the NAME/ARITY pairs from token i up to the next `;`, and
    return the index after it."""
    while tokens[i] != ";":
        name = tokens[i]
        first = name[:1]
        if "A" <= first <= "Z":
            raise _error(text, i,
                         f"symbol names must not start uppercase: {name!r}")
        if not first.isalnum():
            raise _error(text, i, "expected NAME/ARITY in declaration")
        arity = tokens[_expect(text, tokens, i + 1, "/")]
        if not arity.isdigit():
            raise _error(text, i + 2, "expected a numeric arity")
        try:
            n = int(arity)
        except ValueError:  # more digits than `int` converts
            raise _error(text, i + 2,
                         f"arity too large: {len(arity)} digits") from None
        try:
            signature.declare(Symbol(name, n, kind))
        except ProgramError as exc:
            raise _error(text, i, str(exc)) from exc
        i += 3
    return i + 1


def parse_program(text: str) -> Program:
    """Parse a program file into a Program."""
    tokens = _tokenize(text)
    signature = Signature()
    get = signature.get
    rules: List[Rule] = []
    i = 0
    while tokens[i]:
        start = i
        if tokens[i] in ("constructors", "operations"):
            i = _declarations(text, tokens, i + 1, signature,
                              CONSTRUCTOR if tokens[i] == "constructors"
                              else OPERATION)
            continue
        lhs, i = _term(text, tokens, i, get)
        rhs, i = _term(text, tokens, _expect(text, tokens, i, "->"), get)
        i = _expect(text, tokens, i, ";")
        if lhs.__class__ is Var:
            raise _error(text, start,
                         "rule left-hand side must not be a variable")
        try:
            rules.append(Rule(lhs, rhs, label=f"R{len(rules) + 1}"))
        except ProgramError as exc:
            raise _error(text, start, str(exc)) from exc
    try:
        return Program(signature, rules)
    except ProgramError as exc:
        raise _error(text, i, str(exc)) from exc


def parse_term(text: str, signature: Signature) -> Term:
    """Parse a single term (goal syntax) against a signature."""
    tokens = _tokenize(text)
    t, i = _term(text, tokens, 0, signature.get)
    if tokens[i]:
        raise _error(text, i, f"trailing input {tokens[i]!r}")
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
