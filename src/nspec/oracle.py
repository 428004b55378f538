"""Brute-force oracles: exhaustive rewriting, ground enumeration,
ground-solution search, and answer independence.

These deliberately avoid the narrowing machinery so the engine can be
checked against an independent implementation of plain rewriting.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .program import EQ, Program
from .terms import (
    App,
    CONSTRUCTOR,
    Substitution,
    Symbol,
    Term,
    Var,
    canonical_rename,
    match,
    replace_at,
    subterms,
    unify,
    vars_of,
)


class VisitedCapError(RuntimeError):
    """A rewriting search visited more distinct terms than its cap."""


def ground_terms(constructors: Sequence[Symbol], max_size: int) -> List[App]:
    """All ground constructor terms of size up to max_size (size = number
    of symbol occurrences), smallest first, deterministic order."""
    for c in constructors:
        if c.kind != CONSTRUCTOR:
            raise ValueError(f"{c} is not a constructor")
    by_size: Dict[int, List[App]] = {n: [] for n in range(max_size + 1)}
    for size in range(1, max_size + 1):
        for c in constructors:
            if c.arity == 0:
                if size == 1:
                    by_size[size].append(App(c))
                continue
            budget = size - 1
            if budget < c.arity:
                continue
            for split in _compositions(budget, c.arity):
                pools = [by_size[n] for n in split]
                for args in product(*pools):
                    by_size[size].append(App(c, tuple(args)))
    out: List[App] = []
    for size in range(1, max_size + 1):
        out.extend(by_size[size])
    return out


def _compositions(total: int, parts: int) -> Iterable[Tuple[int, ...]]:
    """All ways of writing total as an ordered sum of `parts` positive
    integers, in lexicographic order: one per set of parts - 1 cut points
    in 1..total-1, which `combinations` yields in that order."""
    for cuts in combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def one_step_rewrites(program: Program, t: Term) -> List[Term]:
    """Every term reachable from t by one rewrite step, anywhere, with
    any rule, in position-then-rule order; only the rules of a subterm's
    root are tried, as no other can match it."""
    out: List[Term] = []
    for pos, sub in subterms(t):  # preorder: lexicographic positions
        if isinstance(sub, Var):
            continue
        for rule in program.rules_for(sub.root.name):
            theta = match(rule.lhs, sub)
            if theta is not None:
                out.append(replace_at(t, pos, theta.apply(rule.rhs)))
    return out


def rewrites_to(program: Program, t: Term, target: Term,
                max_steps: int = 25, max_visited: int = 100_000) -> bool:
    """True iff some rewrite sequence of length <= max_steps reaches the
    target, by breadth-first search over all redexes.  Raises
    `VisitedCapError` once more than `max_visited` distinct terms were
    reached."""
    if t == target:
        return True
    frontier = [t]
    seen = {t}
    for _ in range(max_steps):
        next_frontier: List[Term] = []
        for u in frontier:
            for v in one_step_rewrites(program, u):
                if v == target:
                    return True
                if v not in seen:
                    seen.add(v)
                    if len(seen) > max_visited:
                        raise VisitedCapError(
                            "rewriting search exceeded "
                            f"{max_visited} visited terms")
                    next_frontier.append(v)
        if not next_frontier:
            return False
        frontier = next_frontier
    return False


def ground_solutions(program: Program, equation: Term, max_size: int,
                     max_steps: int = 25,
                     constructors: Optional[Sequence[Symbol]] = None
                     ) -> List[Substitution]:
    """All ground constructor substitutions (images of size <= max_size,
    drawn from the given constructors, default: all of the program's)
    that rewrite the equation to true.

    The equation must be an application of eq.
    """
    if not isinstance(equation, App) or equation.root.name != EQ:
        raise ValueError(f"expected an eq(l, r) equation, got {equation}")
    true = program.signature.get("true")
    if true is None:
        raise ValueError("program has no 'true' constructor")
    target = App(true)
    if constructors is None:
        constructors = program.signature.constructors()
    universe = ground_terms(constructors, max_size)
    variables = vars_of(equation)
    out: List[Substitution] = []
    for images in product(universe, repeat=len(variables)):
        sigma = Substitution(dict(zip(variables, images)))
        if rewrites_to(program, sigma.apply(equation), target, max_steps):
            out.append(sigma)
    return out


def independent(sigma1: Substitution, sigma2: Substitution,
                variables: Iterable[Var]) -> bool:
    """True iff the two substitutions disagree non-unifiably on some of
    the given variables.  The second one's free variables are renamed
    apart first, since answers from distinct derivations only share
    variable names by accident."""
    variables = list(variables)
    first = canonical_rename([sigma1.apply(x) for x in variables], prefix="U")
    second = canonical_rename([sigma2.apply(x) for x in variables], prefix="W")
    return any(unify(a, b) is None for a, b in zip(first, second))
