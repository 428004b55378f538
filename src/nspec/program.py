"""Signatures, rewrite rules, programs, and well-formedness checks."""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .terms import (
    App,
    CONSTRUCTOR,
    Frozen,
    OPERATION,
    Substitution,
    Symbol,
    Term,
    Var,
    FreshVars,
    _var_occurrences,
    flatten,
    is_constructor_term,
    subterms,
    unify,
    vars_of,
)

EQ = "eq"
AND = "and"


class ProgramError(Exception):
    """A structurally ill-formed rule, signature, or program."""


class Rule(Frozen):
    """A rewrite rule lhs -> rhs.

    The left-hand side must not be a variable and must not invent
    variables on the right.  `variables` are those of the left-hand
    side, in order of first occurrence, and `left_linear` records
    whether none of them occurs twice there.

    `source` is the rule this one is a variant of; a rule built from its
    parts is its own source.  A variant (`renamed`, or the rule of a
    definitional-tree leaf) keeps its source rule and the names of its
    variables.  It builds its variables with its renaming on the first
    read of either, and each side on its own first read, so a narrowing
    step that only rewrites with it never builds them.  The fields live
    in the instance `__dict__`, which holds those parts once built.
    """

    _fields = ("lhs", "rhs", "label")

    def __init__(self, lhs: App, rhs: Term, label: str = "") -> None:
        if isinstance(lhs, Var):
            raise ProgramError("rule left-hand side must not be a variable")
        occurrences = list(_var_occurrences(lhs))
        variables = tuple(dict.fromkeys(occurrences))
        extra = set(vars_of(rhs)).difference(variables)
        if extra:
            names = ", ".join(sorted(v.name for v in extra))
            raise ProgramError(
                f"rule {lhs} -> {rhs} introduces variables {names} "
                "on the right-hand side")
        self.__dict__.update(lhs=lhs, rhs=rhs, label=label,
                             variables=variables, source=self,
                             left_linear=len(occurrences) == len(variables))

    def __getattr__(self, name: str):
        """The parts of a variant, built from its source on the first
        read of one; the `shape` of any rule's left-hand side
        (`terms.flatten`, for `linear_walk`), and the `rhs_order` of its
        right-hand side (its subterms, each after its arguments in
        reverse, from the same flattening, for the rewrite loop), built
        on their first read; called only for attributes not set on the
        rule."""
        if name not in ("lhs", "rhs", "variables", "_renaming", "shape",
                        "rhs_order"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        parts, source = self.__dict__, self.source
        if name == "shape":
            parts["shape"] = flatten(self.lhs)
        elif name == "rhs_order":
            rhs = self.rhs
            rows = flatten(rhs) if rhs.__class__ is App else ()
            parts["rhs_order"] = (*[row[3] for row in reversed(rows)], rhs)
        elif name == "lhs":
            parts["lhs"] = self._renaming.apply(source.lhs)
        elif name == "rhs":
            parts["rhs"] = self._renaming.apply(source.rhs)
        else:
            variables = tuple(map(Var, self._names))
            parts.update(variables=variables, _renaming=Substitution._of(
                dict(zip(source.variables, variables))))
        return parts[name]

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"

    def renamed(self, gen: FreshVars) -> "Rule":
        """A variant of this rule with all variables renamed apart: only
        the new names are drawn (`FreshVars.suffixed`)."""
        return self._variant(gen.suffixed(self.variables))

    def _variant(self, names: Sequence[str]) -> "Rule":
        """The variant of this rule whose variables are named `names`, in
        the order of `variables`; the renaming is built with the
        variant's variables.  A variant of a valid rule is valid, so the
        checks of `__init__` are not run again."""
        variant = object.__new__(Rule)
        variant.__dict__.update(label=self.label, source=self.source,
                                _names=names)
        return variant

    def is_left_linear(self) -> bool:
        return self.source.left_linear

    def is_constructor_based(self) -> bool:
        return all(is_constructor_term(a) for a in self.lhs.args)


class Signature:
    """An ordered table of declared symbols."""

    def __init__(self, symbols: Iterable[Symbol] = ()):
        self._table: Dict[str, Symbol] = {}
        for s in symbols:
            self.declare(s)

    def declare(self, symbol: Symbol) -> Symbol:
        old = self._table.get(symbol.name)
        if old is not None:
            if old != symbol:
                raise ProgramError(
                    f"conflicting declarations for {symbol.name}: "
                    f"{old.kind} {old} vs {symbol.kind} {symbol}")
            return old
        self._table[symbol.name] = symbol
        return symbol

    def get(self, name: str) -> Optional[Symbol]:
        return self._table.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def __iter__(self):
        return iter(self._table.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and list(self) == list(other)

    def constructors(self) -> List[Symbol]:
        return [s for s in self if s.kind == CONSTRUCTOR]

    def operations(self) -> List[Symbol]:
        return [s for s in self if s.kind == OPERATION]


class Program:
    """A signature together with an ordered list of rewrite rules."""

    def __init__(self, signature: Signature, rules: Iterable[Rule],
                 has_strict_equality: bool = False):
        self.signature = signature
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self.has_strict_equality = has_strict_equality
        self._variables: Optional[Tuple[Var, ...]] = None
        self._by_root: Optional[Dict[str, Tuple[Rule, ...]]] = None
        for r in self.rules:
            self._check_symbols(r)

    def _check_symbols(self, rule: Rule) -> None:
        """Every symbol of the rule is declared, found in preorder from
        an explicit stack, and its left-hand side is operation-rooted."""
        declared = self.signature._table
        stack: List[Term] = [rule.rhs, rule.lhs]
        while stack:
            u = stack.pop()
            if u.__class__ is App:
                if declared.get(u.root.name) != u.root:
                    raise ProgramError(
                        f"rule {rule} uses undeclared symbol {u.root}")
                stack.extend(reversed(u.args))
        if rule.lhs.root.kind != OPERATION:
            raise ProgramError(
                f"rule {rule} rewrites a constructor root {rule.lhs.root}")

    def rules_for(self, name: str) -> Tuple[Rule, ...]:
        """The rules whose left-hand side has root `name`, in program
        order; indexed on the first call (the rules never change)."""
        if self._by_root is None:
            index: Dict[str, List[Rule]] = {}
            for r in self.rules:
                index.setdefault(r.lhs.root.name, []).append(r)
            self._by_root = {root: tuple(rs) for root, rs in index.items()}
        return self._by_root.get(name, ())

    def defined_operations(self) -> List[Symbol]:
        defined = {r.lhs.root.name for r in self.rules}
        return [s for s in self.signature.operations() if s.name in defined]

    def all_variables(self) -> Tuple[Var, ...]:
        """The variables of all rules, in order of first occurrence;
        computed on the first call (the rules never change)."""
        if self._variables is None:
            out: Dict[Var, None] = {}
            for r in self.rules:
                out.update(dict.fromkeys(r.variables))
            self._variables = tuple(out)
        return self._variables

    def structure(self):
        return (
            [(s.name, s.arity) for s in self.signature.constructors()],
            [(s.name, s.arity) for s in self.signature.operations()],
            [(r.lhs, r.rhs) for r in self.rules],
        )

    def __eq__(self, other) -> bool:
        """Structural identity: same declarations, same rules in order.

        Labels and the strict-equality bookkeeping flag are metadata and
        do not participate.
        """
        return isinstance(other, Program) and self.structure() == other.structure()


class Overlap(NamedTuple):
    rule: str
    other: str
    position: Tuple[int, ...]
    mgu: Substitution


class ValidationReport(NamedTuple):
    left_linear: bool
    constructor_based: bool
    overlaps: Tuple[Overlap, ...]

    @property
    def orthogonal(self) -> bool:
        return self.left_linear and not self.overlaps


def validate(program: Program) -> ValidationReport:
    """Left-linearity, constructor-basedness, and the overlap list.

    An overlap is a non-variable position p of one lhs whose subterm
    unifies with a renamed-apart copy of another lhs (or of the same lhs
    when p is not the root).  Root overlaps of distinct rules are
    reported once per unordered pair.
    """
    left_linear = all(r.is_left_linear() for r in program.rules)
    constructor_based = all(r.is_constructor_based() for r in program.rules)

    overlaps: List[Overlap] = []
    gen = FreshVars(avoid=program.all_variables())
    rules = program.rules
    for i, ri in enumerate(rules):
        candidates = [(pos, sub) for pos, sub in subterms(ri.lhs)
                      if not isinstance(sub, Var)]
        for j, rj in enumerate(rules):
            other = None  # one variant per pair: the mgus print its names
            for pos, sub in candidates:
                if sub.root != rj.lhs.root:
                    continue  # a root clash never unifies
                if pos == () and j <= i:
                    continue  # self-overlap at the root / symmetric duplicate
                if any(a.__class__ is App and b.__class__ is App and a.root != b.root
                       for a, b in zip(sub.args, rj.lhs.args)):
                    continue  # nor does a clash at an argument's root
                if other is None:
                    other = rj.renamed(gen)
                mgu = unify(sub, other.lhs)
                if mgu is not None:
                    overlaps.append(Overlap(ri.label, rj.label, pos, mgu))
            if other is None:
                gen.skip(rj.variables)  # the names the variant would take
    return ValidationReport(left_linear, constructor_based, tuple(overlaps))


def _strict_equality_rules(signature: Signature) -> List[Rule]:
    eq = signature.get(EQ)
    conj = signature.get(AND)
    rules: List[Rule] = []
    n = 0
    for c in signature.constructors():
        n += 1
        label = f"E{n}"
        if c.arity == 0:
            t = App(c)
            rules.append(Rule(App(eq, (t, t)), App(signature.get("true")), label))
        else:
            xs = tuple(Var(f"X{i}") for i in range(1, c.arity + 1))
            ys = tuple(Var(f"Y{i}") for i in range(1, c.arity + 1))
            body: Term = App(eq, (xs[-1], ys[-1]))
            for x, y in zip(reversed(xs[:-1]), reversed(ys[:-1])):
                body = App(conj, (App(eq, (x, y)), body))
            rules.append(Rule(App(eq, (App(c, xs), App(c, ys))), body, label))
    rules.append(Rule(
        App(conj, (App(signature.get("true")), Var("X"))), Var("X"), f"E{n + 1}"))
    return rules


def add_strict_equality(program: Program) -> Program:
    """Extend a program with the rules for strict equality.

    Adds eq/2 and and/2 together with one eq rule per constructor
    (argument equations nested to the right, a single conjunct collapsing
    to itself) and the rule and(true, X) -> X.  A true/0 constructor is
    declared when missing.  Idempotent: a program already carrying the
    generated definition is returned with the flag set.
    """
    if program.has_strict_equality:
        return program

    sig = Signature(program.signature)
    if "true" in sig and sig.get("true").kind != CONSTRUCTOR:
        raise ProgramError("strict equality needs true/0 as a constructor")
    sig.declare(Symbol("true", 0, CONSTRUCTOR))

    for name in (EQ, AND):
        known = sig.get(name)
        if known is not None and known != Symbol(name, 2, OPERATION):
            raise ProgramError(
                f"cannot add strict equality: {known} is already declared")

    already = EQ in sig or AND in sig
    sig.declare(Symbol(EQ, 2, OPERATION))
    sig.declare(Symbol(AND, 2, OPERATION))
    generated = _strict_equality_rules(sig)

    if already:
        present = [r for r in program.rules if r.lhs.root.name in (EQ, AND)]
        if [(r.lhs, r.rhs) for r in present] != [(r.lhs, r.rhs) for r in generated]:
            raise ProgramError(
                "cannot add strict equality: eq/and rules are user-defined")
        generated = []

    # The program's rules were checked against a signature that `sig`
    # only extends, so only the generated rules are checked here.
    extended = Program(sig, generated, has_strict_equality=True)
    extended.rules = program.rules + extended.rules
    return extended
