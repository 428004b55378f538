"""Partial evaluation of rewrite programs by bounded narrowing.

A call is unfolded into a finite narrowing tree: the tree that
`narrowing.expand` grows for a search of the call, bounded by the unfold
depth and cut by the local control (root-stable terms, variants of the
specialized calls, the embedding whistle).  Each non-failing leaf
reached by at least one step yields a resultant sigma(s) -> t.  The set
of specialized calls S gets an independent renaming to fresh operation
symbols, resultants are renamed into legal rules, and a control loop
grows S until every call in the output is covered (closed) by S.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .deftree import DefTree, require_class
from .narrowing import FAILING, Node, Step, expand
from .program import AND, EQ, Program, Rule, Signature, add_strict_equality
from .terms import (
    App,
    CONSTRUCTOR,
    Chain,
    FreshVars,
    OPERATION,
    Position,
    Substitution,
    Symbol,
    Term,
    Var,
    is_constructor_term,
    is_operation_rooted,
    is_root_stable,
    is_variant,
    match,
    resolve_chain,
    subterms,
    vars_of,
)


@dataclass(frozen=True)
class UnfoldPolicy:
    """Local control of unfolding: tree depth, embedding whistle, and the
    step strategy driving the expansion."""

    depth: int = 2
    whistle: bool = True
    strategy: str = "needed"

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("unfold depth must be at least 1")
        if self.strategy not in ("needed", "lazy"):
            raise ValueError(f"unknown strategy {self.strategy!r}")


def embeds(s: Term, t: Term) -> bool:
    """Homeomorphic embedding: s is embedded in t.

    A variable embeds only into a variable; an application dives into
    any argument of t or couples with an equal root argument-wise.  In
    particular a variable does not embed into a constant, so
    instantiation to ground constructors breaks embedding chains.
    """
    if isinstance(s, Var) and isinstance(t, Var):
        return True
    if isinstance(t, App) and any(embeds(s, a) for a in t.args):
        return True
    return (isinstance(s, App) and isinstance(t, App) and s.root == t.root
            and all(embeds(x, y) for x, y in zip(s.args, t.args)))


def msg(t1: Term, t2: Term, gen: Optional[FreshVars] = None
        ) -> Tuple[Term, Substitution, Substitution]:
    """Most specific generalization: (w, theta1, theta2) with
    theta1(w) == t1 and theta2(w) == t2.

    Clashing subterm pairs map to one shared fresh variable per pair, so
    repeated disagreements generalize to the same variable.
    """
    if gen is None:
        gen = FreshVars()
    gen.reserve(vars_of(t1) + vars_of(t2))
    pairs: Dict[Tuple[Term, Term], Var] = {}

    def walk(a: Term, b: Term) -> Term:
        if a == b:
            return a
        if isinstance(a, App) and isinstance(b, App) and a.root == b.root:
            return App(a.root, tuple(walk(x, y) for x, y in zip(a.args, b.args)))
        if (a, b) not in pairs:
            pairs[(a, b)] = gen.fresh()
        return pairs[(a, b)]

    w = walk(t1, t2)
    theta1 = Substitution({v: a for (a, _), v in pairs.items()})
    theta2 = Substitution({v: b for (_, b), v in pairs.items()})
    return w, theta1, theta2


# The text of the needed-class error of unfolding, before the operations.
_UNFOLD_CLASS = ("unfolding with needed narrowing requires an inductively "
                 "sequential program; no definitional tree for: ")


def unfold(call: Term, program: Program, policy: UnfoldPolicy = UnfoldPolicy(),
           stop: Sequence[Term] = (), gen: Optional[FreshVars] = None,
           trees: Optional[Dict[str, DefTree]] = None) -> Node:
    """Finite narrowing tree of an operation-rooted call: the tree of
    `narrowing.expand`, bounded by the unfold depth and cut by the rules
    below.  `trees` are what `deftree.require_class` returned for the
    program and the policy's strategy; without them, unfold runs that
    gate itself.

    The root is always expanded.  A non-root node becomes a leaf when its
    term is constructor root-stable (success if it is a constructor term,
    incomplete otherwise — such terms are never narrowed at the root or
    below it here), or a variant of a stop term, or — with the whistle
    on — some non-root ancestor on its path embeds into it, or the depth
    bound is reached.  Nodes without steps are failing leaves.

    The root call itself is exempt from the whistle: it must contribute
    at least one step, and its proper subcalls routinely embed it.
    """
    if not is_operation_rooted(call):
        raise ValueError(f"can only unfold operation-rooted terms, got {call}")
    if trees is None:
        trees = require_class(program, policy.strategy, _UNFOLD_CLASS)

    def cut(t: Term, ancestors: List[Term]) -> bool:
        return is_root_stable(t) or bool(ancestors) and (
            any(is_variant(t, s) for s in stop)
            or policy.whistle and any(embeds(a, t) for a in ancestors[1:]))

    root, _, _ = expand(call, program, policy.strategy, trees, gen,
                        policy.depth, cut=cut)
    return root


@dataclass(frozen=True)
class Resultant:
    """One rule sigma(call) -> rhs extracted from a tree path."""

    lhs: Term
    rhs: Term
    call: Term
    steps: Tuple[Step, ...]
    subst: Substitution  # restricted to the call's variables


def resultants(tree: Node) -> List[Resultant]:
    """Resultants of an unfold tree: one per non-failing leaf reached by
    at least one step, in depth-first order, walked from an explicit
    stack.

    A path's step substitutions are kept as a `Chain` and composed
    (`resolve_chain`) only at the leaves that yield a resultant.
    """
    call = tree.term
    call_vars = vars_of(call)
    out: List[Resultant] = []
    stack: List[Tuple[Node, Chain, Tuple[Step, ...]]] = [(tree, None, ())]
    while stack:
        node, chain, path = stack.pop()
        if node.children:
            stack.extend((child, (step.subst, chain), path + (step,))
                         for step, child in reversed(node.children))
        elif node.status != FAILING and path:
            sigma = resolve_chain(chain, call_vars)
            out.append(Resultant(sigma.apply(call), node.term, call, path, sigma))
    return out


def closed(S: Sequence[Term], t: Term) -> bool:
    """S-closedness: every operation-rooted piece of t is an instance of
    some element of S whose matching images are closed in turn.

    Variables are closed; a term rooted by a constructor (or by eq/and,
    which behave like constructors here) is closed when its arguments
    are; an operation-rooted term must be an instance of some s in S with
    closed images — for eq/and both readings are admitted.
    """
    S = list(S)
    memo: Dict[Term, bool] = {}

    def check(u: Term) -> bool:
        if isinstance(u, Var):
            return True
        cached = memo.get(u)
        if cached is not None:
            return cached
        ok = False
        if u.root.kind == CONSTRUCTOR or u.root.name in (EQ, AND):
            ok = all(check(a) for a in u.args)
        if not ok and u.root.kind == OPERATION:
            for s in S:
                theta = match(s, u)
                if theta is not None and all(
                        check(img) for img in theta.mapping.values()):
                    ok = True
                    break
        memo[u] = ok
        return ok

    return check(t)


ClosureSet = Tuple[Tuple[Position, Term], ...]


def closure_sets(S: Sequence[Term], t: Term) -> List[ClosureSet]:
    """Every way of proving t closed, as ordered (position, covering
    element) pairs; empty list iff t is not S-closed.

    Positions of entries under an instance step extend the covering
    element's variable positions, mirroring how the images sit inside
    the covered call.
    """
    S = list(S)

    def prefix(p: Position, sets: List[ClosureSet]) -> List[ClosureSet]:
        return [tuple((p + q, s) for q, s in O) for O in sets]

    def product(parts: List[List[ClosureSet]]) -> List[ClosureSet]:
        acc: List[ClosureSet] = [()]
        for alternatives in parts:
            acc = [done + extra for done in acc for extra in alternatives]
        return acc

    def derive(u: Term) -> List[ClosureSet]:
        if isinstance(u, Var):
            return [()]
        out: List[ClosureSet] = []
        if u.root.kind == CONSTRUCTOR or u.root.name in (EQ, AND):
            per_arg = [prefix((i,), derive(a))
                       for i, a in enumerate(u.args, start=1)]
            if all(per_arg):
                out.extend(product(per_arg))
        if u.root.kind == OPERATION:
            for s in S:
                theta = match(s, u)
                if theta is None:
                    continue
                parts: List[List[ClosureSet]] = []
                viable = True
                for q, sub in subterms(s):
                    if not isinstance(sub, Var):
                        continue
                    image_sets = derive(theta.apply(sub))
                    if not image_sets:
                        viable = False
                        break
                    parts.append(prefix(q, image_sets))
                if viable:
                    out.extend((((), s),) + rest for rest in product(parts))
        seen: Dict[ClosureSet, None] = {}
        for O in out:
            seen.setdefault(tuple(sorted(O, key=lambda e: (e[0], str(e[1])))))
        return list(seen)

    return derive(t)


class Renaming:
    """An independent renaming: each specialized term maps to a fresh
    operation applied to the term's distinct variables."""

    def __init__(self, pairs: Iterable[Tuple[Term, App]] = ()):
        self._pairs: Dict[Term, App] = dict(pairs)

    def terms(self) -> Tuple[Term, ...]:
        return tuple(self._pairs)

    def pattern_for(self, s: Term) -> App:
        return self._pairs[s]

    def symbols(self) -> Tuple[Symbol, ...]:
        return tuple(p.root for p in self._pairs.values())

    def items(self) -> Tuple[Tuple[Term, App], ...]:
        return tuple(self._pairs.items())

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, s: Term) -> bool:
        return s in self._pairs

    def __repr__(self) -> str:
        inner = ", ".join(f"{s} |-> {p}" for s, p in self._pairs.items())
        return "{" + inner + "}"


def independent_renaming(S: Sequence[Term], signature: Signature) -> Renaming:
    """Fresh pattern rootname_peK(x1..xn) for the K-th element of S,
    over its distinct variables in order of first occurrence; K counts
    globally and skips names already declared."""
    pairs: List[Tuple[Term, App]] = []
    taken: Set[str] = set()
    k = 0
    for s in S:
        if not is_operation_rooted(s):
            raise ValueError(f"cannot rename non-operation-rooted term {s}")
        variables = vars_of(s)
        while True:
            name = f"{s.root.name}_pe{k}"
            k += 1
            if name not in signature and name not in taken:
                break
        taken.add(name)
        sym = Symbol(name, len(variables), OPERATION)
        pairs.append((s, App(sym, variables)))
    return Renaming(pairs)


def _most_specific_match(S: Sequence[Term], t: Term) -> Optional[Term]:
    candidates = [s for s in S if match(s, t) is not None]
    if not candidates:
        return None
    best = []
    for s in candidates:
        dominated = any(
            other is not s and match(s, other) is not None
            and not is_variant(s, other)
            for other in candidates)
        if not dominated:
            best.append(s)
    return best[0]


def rename_term(rho: Renaming, t: Term) -> Term:
    """The deterministic renaming of a term under rho.

    Variables stay; constructor applications are renamed argument-wise;
    an operation-rooted term matching some specialized call s becomes
    rho(s) with the matching images renamed recursively (the most
    specific matching s wins, ties resolved by insertion order); eq/and
    prefer a whole-term match and otherwise decompose; anything else is
    left unchanged.
    """
    if isinstance(t, Var):
        return t
    S = rho.terms()
    if t.root.kind == CONSTRUCTOR:
        return App(t.root, tuple(rename_term(rho, a) for a in t.args))
    s = _most_specific_match(S, t)
    if s is None:
        if t.root.name in (EQ, AND):
            return App(t.root, tuple(rename_term(rho, a) for a in t.args))
        return t
    theta = match(s, t)
    images = {x: rename_term(rho, img) for x, img in theta.mapping.items()}
    return Substitution(images).apply(rho.pattern_for(s))


@dataclass(frozen=True)
class PEReport:
    closed: bool
    uncovered: Tuple[Term, ...]
    resultants: Tuple[Tuple[Term, Tuple[Resultant, ...]], ...]

    def resultants_for(self, s: Term) -> Tuple[Resultant, ...]:
        for call, rs in self.resultants:
            if call == s:
                return rs
        raise KeyError(str(s))


@dataclass(frozen=True)
class PEResult:
    program: Program
    renaming: Renaming
    rules: Tuple[Rule, ...]  # the specialized rules, before builtins
    report: PEReport


def outermost_operation_subterms(t: Term) -> List[Term]:
    """Outermost operation-rooted subterms, crossing constructors and
    the eq/and connectives, in left-to-right order."""
    out: List[Term] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            continue
        if u.root.kind == OPERATION and u.root.name not in (EQ, AND):
            out.append(u)
        else:
            stack.extend(reversed(u.args))
    return out


def partial_evaluate(program: Program, S: Sequence[Term],
                     policy: UnfoldPolicy = UnfoldPolicy(),
                     trees: Optional[Dict[str, DefTree]] = None) -> PEResult:
    """Specialize program w.r.t. the calls in S.

    Each call is unfolded (stopping at variants of S elements) with the
    definitional trees built once for all of them (or given as `trees`,
    as in `unfold`), its
    resultants theta(s) -> r become rules theta(rho(s)) -> ren(r) over
    fresh operation symbols, and equality builtins are injected into the
    output.  The report states whether every specialized right-hand side
    is closed w.r.t. the renamed calls.
    """
    S = list(S)
    if not S:
        raise ValueError("cannot partially evaluate an empty set of calls")
    for s in S:
        if not is_operation_rooted(s):
            raise ValueError(f"specialized calls must be operation-rooted: {s}")
    if trees is None:
        trees = require_class(program, policy.strategy, _UNFOLD_CLASS)
    rho = independent_renaming(S, program.signature)

    per_call: List[Tuple[Term, Tuple[Resultant, ...]]] = []
    new_rules: List[Rule] = []
    for s in S:
        tree = unfold(s, program, policy, stop=S, trees=trees)
        rs = tuple(resultants(tree))
        per_call.append((s, rs))
        for r in rs:
            lhs = r.subst.apply(rho.pattern_for(s))
            rhs = rename_term(rho, r.rhs)
            new_rules.append(Rule(lhs, rhs, f"P{len(new_rules) + 1}"))

    signature = Signature(program.signature.constructors())
    for sym in rho.symbols():
        signature.declare(sym)
    for rule in new_rules:
        for t in (rule.lhs, rule.rhs):
            for _, u in subterms(t):
                if isinstance(u, App):
                    signature.declare(u.root)

    specialized = tuple(new_rules)
    out = add_strict_equality(Program(signature, specialized))

    targets = [p for _, p in rho.items()]
    uncovered: List[Term] = []
    for rule in specialized:
        if not closed(targets, rule.rhs):
            for u in outermost_operation_subterms(rule.rhs):
                if not closed(targets, u) and u not in uncovered:
                    uncovered.append(u)
    report = PEReport(not uncovered, tuple(uncovered), tuple(per_call))
    return PEResult(out, rho, specialized, report)


class PEControlError(Exception):
    """The control loop could not reach a closed specialization."""

    def __init__(self, message: str, uncovered: Tuple[Term, ...] = ()):
        super().__init__(message)
        self.uncovered = uncovered


def abstract_add(S: List[Term], u: Term, gen: FreshVars) -> bool:
    """Fold a candidate call into S; True when S changed.

    In order: a variant of an existing element is dropped.  A candidate
    into which a same-root element embeds generalizes that element in
    place to their most specific generalization (when a variant of the
    generalization already lives elsewhere in S, both the element and
    the candidate are kept as they are), and the generalization's clash
    images are folded in recursively.  An instance of an existing
    element is dropped when its matching images only collapse
    variables, appended when they are constructor terms (a genuine
    call-pattern refinement), and otherwise decomposed into the
    operation-rooted pieces of its images, which are folded in
    recursively.  Anything else is appended.
    """
    if not is_operation_rooted(u):
        raise ValueError(f"candidates must be operation-rooted: {u}")
    if any(is_variant(s, u) for s in S):
        return False
    for i, s in enumerate(S):
        if isinstance(s, App) and s.root == u.root and embeds(s, u):
            w, th_u, th_s = msg(u, s, gen)
            changed = False
            if not is_variant(w, s) and not any(is_variant(other, w) for other in S):
                S[i] = w
                changed = True
            for theta in (th_u, th_s):
                for img in theta.mapping.values():
                    for v in outermost_operation_subterms(img):
                        changed = abstract_add(S, v, gen) or changed
            return changed
    covering = _most_specific_match(S, u)
    if covering is not None:
        theta = match(covering, u)
        images = list(theta.mapping.values())
        if all(isinstance(img, Var) for img in images):
            return False
        if all(is_constructor_term(img) for img in images):
            S.append(u)
            return True
        changed = False
        for img in images:
            for v in outermost_operation_subterms(img):
                changed = abstract_add(S, v, gen) or changed
        return changed
    S.append(u)
    return True


@dataclass(frozen=True)
class PEControlResult:
    S: Tuple[Term, ...]
    result: PEResult
    iterations: int


def pe_control(program: Program, roots: Sequence[Term],
               policy: UnfoldPolicy = UnfoldPolicy(),
               max_iters: int = 32) -> PEControlResult:
    """Global control: grow S from the root calls until the
    specialization is closed, then return the final partial evaluation.

    After each pass, every outermost operation-rooted subterm of every
    resultant right-hand side is folded into S by abstract_add; a pass
    that changes nothing is the fixpoint.  Exceeding the iteration cap
    raises PEControlError listing the calls that still escape coverage.
    The definitional trees are built once and serve every pass.
    """
    roots = list(roots)
    if not roots:
        raise ValueError("need at least one root call")
    if max_iters < 1:
        raise ValueError("need at least one control iteration")
    gen = FreshVars(avoid=program.all_variables())
    for r in roots:
        gen.reserve(vars_of(r))
    S: List[Term] = []
    for r in roots:
        abstract_add(S, r, gen)
    trees = require_class(program, policy.strategy, _UNFOLD_CLASS)

    result: Optional[PEResult] = None
    for iteration in range(1, max_iters + 1):
        result = partial_evaluate(program, S, policy, trees)
        candidates: List[Term] = []
        for _, rs in result.report.resultants:
            for r in rs:
                candidates.extend(outermost_operation_subterms(r.rhs))
        changed = False
        for u in candidates:
            changed = abstract_add(S, u, gen) or changed
        if not changed:
            return PEControlResult(tuple(S), result, iteration)
    leftovers = tuple(u for u in candidates
                      if not any(is_variant(s, u) for s in S))
    raise PEControlError(
        "no closed specialization after "
        f"{max_iters} iterations; uncovered calls: "
        + ", ".join(str(u) for u in (leftovers or candidates)),
        leftovers or tuple(candidates))
