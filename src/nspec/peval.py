"""Partial evaluation of rewrite programs by bounded narrowing.

A call is unfolded into a finite narrowing tree: the tree that
`narrowing.expand` grows for a search of the call, bounded by the unfold
depth and cut by the local control (root-stable terms, variants of the
specialized calls, the embedding whistle).  Each non-failing leaf
reached by at least one step yields a resultant sigma(s) -> t.  The set
of specialized calls S gets an independent renaming to fresh operation
symbols, resultants are renamed into legal rules, and a control loop
grows S until every call in the output is covered (closed) by S.
Goals may be strict equations: eq/and count as constructors, and the
residual program's rules may call the builtin eq/and rules that
`program.add_strict_equality` appends to them.
"""

from __future__ import annotations

from typing import (AbstractSet, Dict, FrozenSet, Iterable, List, NamedTuple,
                    Optional, Sequence, Set, Tuple, Union)

from .deftree import DefTree, require_class
from .narrowing import DEPTH, FAILING, ROOT_STABLE, STOP, WHISTLE, Node, Step, expand
from .program import AND, EQ, Program, Rule, Signature, add_strict_equality
from .terms import (
    App,
    CONSTRUCTOR,
    Chain,
    FreshVars,
    Frozen,
    OPERATION,
    Substitution,
    Symbol,
    Term,
    Var,
    _preorder,
    _put,
    _size,
    is_constructor_term,
    is_operation_rooted,
    match,
    resolve_chain,
    variant_key,
    vars_of,
)


class UnfoldPolicy(Frozen):
    """Local control of unfolding: tree depth, embedding whistle, and the
    step strategy driving the expansion."""

    __slots__ = _fields = ("depth", "whistle", "strategy")

    def __init__(self, depth: int = 2, whistle: bool = True,
                 strategy: str = "needed") -> None:
        if depth < 1:
            raise ValueError("unfold depth must be at least 1")
        if strategy not in ("needed", "lazy"):
            raise ValueError(f"unknown strategy {strategy!r}")
        _put(self, "depth", depth)
        _put(self, "whistle", whistle)
        _put(self, "strategy", strategy)


def embeds(s: Term, t: Term) -> bool:
    """Homeomorphic embedding: s is embedded in t.

    A variable embeds only into a variable; an application dives into
    any argument of t or couples with an equal root argument-wise.  In
    particular a variable does not embed into a constant, so
    instantiation to ground constructors breaks embedding chains.

    Decided from an explicit stack of pairs.  A frame [a, b, k] has
    entered k of its sub-goals: first the dives into b's arguments (one
    success decides the pair), then the couplings of the arguments (one
    failure decides it); `answer` carries the outcome of the frame that
    ended last.  Four facts decide a pair at once: a term embeds into
    itself (tested by identity, which shared subterms give cheaply);
    neither a variable nor an operation symbol of a can be mapped into a
    b that has none; and a embeds only into a b with at least as many
    nodes (Leuschel, SAS 1998), read from the `_size` slots that the
    first two calls below fill for every subterm of s and t.  So a dive
    into a smaller argument ends at once, and `s^j(0)` is decided
    against `s^i(0)` in time linear in i.  Every other pair is decided
    once per call and remembered by the identity of its terms, which s
    and t keep alive: the dives and couplings of two chains meet the
    same pairs again and again, exponentially often in the chains'
    length.
    """
    _size(s)
    _size(t)
    stack = [[s, t, 0]]
    answer = False
    decided: Dict[Tuple[int, int], bool] = {}
    while stack:
        frame = stack[-1]
        a, b, k = frame
        if not k:
            if (isinstance(b, Var) or a is b
                    or b.ground and not a.ground
                    or b.constructor_term and not a.constructor_term
                    or a.__class__ is App and a._size > b._size):
                answer = a is b or isinstance(a, Var) and isinstance(b, Var)
                stack.pop()
                continue
            known = decided.get((id(a), id(b)))
            if known is not None:
                answer = known
                stack.pop()
                continue
        n = len(b.args)
        if k and (answer if k <= n else not answer):
            decided[id(a), id(b)] = answer
            stack.pop()  # a dive succeeded, or a coupling failed
            continue
        if k < n:
            frame[2] = k + 1
            stack.append([a, b.args[k], 0])
        elif isinstance(a, App) and a.root == b.root and k - n < len(a.args):
            frame[2] = k + 1
            stack.append([a.args[k - n], b.args[k - n], 0])
        else:
            # No dive succeeded; every coupling held, or none applies.
            answer = decided[id(a), id(b)] = isinstance(a, App) and a.root == b.root
            stack.pop()
    return answer


def msg(t1: Term, t2: Term, gen: Optional[FreshVars] = None
        ) -> Tuple[Term, Substitution, Substitution]:
    """Most specific generalization: (w, theta1, theta2) with
    theta1(w) == t1 and theta2(w) == t2.

    Clashing subterm pairs map to one shared fresh variable per pair, so
    repeated disagreements generalize to the same variable.  The pairs
    are walked in preorder from an explicit stack, so the fresh
    variables are drawn left to right; a pushed root symbol rebuilds its
    application from the generalizations of its arguments.
    """
    if gen is None:
        gen = FreshVars()
    gen.reserve(vars_of(t1) + vars_of(t2))
    pairs: Dict[Tuple[Term, Term], Var] = {}
    done: List[Term] = []
    stack: List[Union[Tuple[Term, Term], Symbol]] = [(t1, t2)]
    while stack:
        item = stack.pop()
        if isinstance(item, Symbol):
            args = tuple(done[len(done) - item.arity:])
            del done[len(done) - item.arity:]
            done.append(App(item, args))
            continue
        a, b = item
        if a == b:
            done.append(a)
        elif isinstance(a, App) and isinstance(b, App) and a.root == b.root:
            stack.append(a.root)
            stack.extend(reversed(tuple(zip(a.args, b.args))))
        else:
            v = pairs.get(item)
            if v is None:
                v = pairs[item] = gen.fresh()
            done.append(v)
    w = done[0]
    theta1 = Substitution({v: a for (a, _), v in pairs.items()})
    theta2 = Substitution({v: b for (_, b), v in pairs.items()})
    return w, theta1, theta2


# The text of the needed-class error of unfolding, before the operations.
_UNFOLD_CLASS = ("unfolding with needed narrowing requires an inductively "
                 "sequential program; no definitional tree for: ")


def unfold(call: Term, program: Program, policy: UnfoldPolicy = UnfoldPolicy(),
           trees: Optional[Dict[str, DefTree]] = None,
           stop_keys: AbstractSet[Term] = frozenset(),
           probes: Optional[List[Tuple[Term, bool]]] = None) -> Node:
    """Finite narrowing tree of an operation-rooted call: the tree of
    `narrowing.expand`, bounded by the unfold depth and cut by the local
    control below.  `trees` are what `deftree.require_class` returned
    for the program and the policy's strategy; without them, unfold runs
    that gate itself.  `stop_keys` are the variant keys of the stop
    terms.  The unfold draws from a `FreshVars` of its own, so a call
    gives the same tree wherever its stop tests answer the same.

    The root is always expanded.  A non-root node becomes an incomplete
    leaf when its term is constructor root-stable (`ROOT_STABLE`; such
    terms are never narrowed at the root or below it here), or a variant
    of a stop term (`STOP`), or, with the whistle on, some non-root
    ancestor on its path embeds into it (`WHISTLE`); the root call is
    exempt from the whistle, since it must contribute at least one step
    and its proper subcalls routinely embed it.  Then `expand`'s depth
    bound applies, and nodes without steps are failing leaves.

    `probes` receives (key, whether it is a stop key) for every stop
    test whose answer shapes the tree: the stop set reaches the tree
    only through these tests, so an unfold against another stop set on
    which they all answer the same gives the same resultants, fresh
    names included.  A test is left out when its node ended with the
    cause `DEPTH` after the last node that applied a step: that node is
    an incomplete leaf whether it is cut or not, and a cut only spares
    the fresh names its steps draw, which reach a resultant only through
    the steps of a later node.
    """
    if not is_operation_rooted(call):
        raise ValueError(f"can only unfold operation-rooted terms, got {call}")
    if trees is None:
        trees = require_class(program, policy.strategy, _UNFOLD_CLASS)
    tests: List[Tuple[Term, bool, Node]] = []  # in the order nodes are made

    def cut(node: Node, ancestors: List[Term]) -> Optional[str]:
        t = node.term
        if not is_operation_rooted(t):
            return ROOT_STABLE
        if not ancestors:
            return None
        key = variant_key(t)
        hit = key in stop_keys
        tests.append((key, hit, node))
        if hit:
            return STOP
        if policy.whistle and any(embeds(a, t) for a in ancestors[1:]):
            return WHISTLE
        return None

    root, _, _ = expand(call, program, policy.strategy, trees, FreshVars(),
                        policy.depth, cut=cut)
    if probes is not None:
        last = max((j for j, (_, _, node) in enumerate(tests) if node.children),
                   default=-1)
        probes.extend((key, hit) for j, (key, hit, node) in enumerate(tests)
                      if j < last or node.cause != DEPTH)
    return root


class Resultant(NamedTuple):
    """One rule sigma(call) -> rhs extracted from a tree path."""

    lhs: Term
    rhs: Term
    call: Term
    steps: Tuple[Step, ...]
    subst: Substitution  # restricted to the call's variables


# A specialized call with the resultants of its unfolding.
CallResultants = Tuple[Term, Tuple[Resultant, ...]]


def resultants(tree: Node) -> List[Resultant]:
    """Resultants of an unfold tree: one per non-failing leaf reached by
    at least one step, in depth-first order (`Node.preorder`).

    A path's step substitutions are kept as a `Chain` and composed
    (`resolve_chain`) only at the leaves that yield a resultant, where
    the path's steps are read off once.
    """
    call = tree.term
    call_vars = vars_of(call)
    out: List[Resultant] = []
    level: List[Tuple[Optional[Step], Chain]] = []  # the path to the node
    for step, node, depth in tree.preorder():
        chain = (step.subst, level[depth - 1][1]) if depth else None
        level[depth:] = [(step, chain)]
        if depth and not node.children and node.cause != FAILING:
            sigma = resolve_chain(chain, call_vars)
            path = tuple(arc for arc, _ in level[1:])
            out.append(Resultant(sigma.apply(call), node.term, call, path, sigma))
    return out


def _may_match(S: Iterable[App], t: App) -> List[App]:
    """The elements of S, all applications, that can match t: `match`
    fails anyway on a root clash, and on an argument of s that is an
    application where t has a variable or another root."""
    return [s for s in S if s.root == t.root and not any(
        isinstance(a, App) and (isinstance(b, Var) or a.root != b.root)
        for a, b in zip(s.args, t.args))]


def closed(S: Sequence[Term], t: Term) -> bool:
    """S-closedness: every operation-rooted piece of t is an instance of
    some element of S whose matching images are closed in turn.

    Variables are closed; a term rooted by a constructor (or by eq/and,
    which behave like constructors here) is closed when its arguments
    are; an operation-rooted term must be an instance of some s in S with
    closed images — for eq/and both readings are admitted.  Each subterm
    is decided once, after its own subterms (the reversed preorder): the
    images of a match are proper subterms, as S holds applications.
    """
    S = list(S)
    ok: Dict[Term, bool] = {}
    for u in reversed(list(_preorder(t))):
        if u in ok:
            continue
        if isinstance(u, Var):
            ok[u] = True
            continue
        ok[u] = (u.root.kind == CONSTRUCTOR or u.root.name in (EQ, AND)) and all(
            ok[a] for a in u.args)
        if not ok[u] and u.root.kind == OPERATION:
            for s in _may_match(S, u):
                theta = match(s, u)
                if theta is not None and all(ok[img] for img in theta.mapping.values()):
                    ok[u] = True
                    break
    return ok[t]


def independent_renaming(S: Sequence[Term], signature: Signature
                         ) -> Dict[Term, App]:
    """An independent renaming: the fresh pattern rootname_peK(x1..xn)
    of the K-th element of S, over its distinct variables in order of
    first occurrence; K counts globally and skips names already
    declared (`Signature.fresh_name`)."""
    rho: Dict[Term, App] = {}
    taken: Set[str] = set()
    k = 0
    for s in S:
        if not is_operation_rooted(s):
            raise ValueError(f"cannot rename non-operation-rooted term {s}")
        variables = vars_of(s)
        name, k = signature.fresh_name(f"{s.root.name}_pe", k, taken)
        sym = Symbol(name, len(variables), OPERATION)
        rho[s] = App(sym, variables)
    return rho


def _covering(S: Iterable[Term], t: App) -> Optional[Tuple[Term, Substitution]]:
    """The most specific element s of S that t is an instance of, with
    the matcher of s onto t; ties go to the earliest s.  None when t is
    an instance of no element."""
    candidates = []
    for s in _may_match(S, t):
        theta = match(s, t)
        if theta is not None:
            candidates.append((s, theta))
    for s, theta in candidates:
        if not any(other is not s and match(s, other) is not None
                   and match(other, s) is None
                   for other, _ in candidates):
            return s, theta
    return None


def rename_term(rho: Dict[Term, App], t: Term) -> Term:
    """The deterministic renaming of a term under rho (`independent_renaming`).

    Variables stay; constructor applications are renamed argument-wise;
    an operation-rooted term matching some specialized call s becomes
    rho(s) with the matching images renamed in turn (the most specific
    matching s wins, ties resolved by insertion order); eq/and prefer a
    whole-term match and otherwise decompose; anything else is left
    unchanged.  Renamed top-down from an explicit stack: a term's cover
    is chosen on entry, then the root symbol of the result is pushed,
    above the images or arguments whose renamings it is rebuilt from.
    """
    done: List[Term] = []
    stack: List[Union[Term, Symbol]] = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Symbol):
            parts = tuple(done[len(done) - u.arity:])
            del done[len(done) - u.arity:]
            done.append(App(u, parts))
            continue
        found = _covering(rho, u) if is_operation_rooted(u) else None
        if found is not None:
            call = rho[found[0]]  # over the variables of the covering s
            stack.append(call.root)
            stack.extend(reversed([found[1].apply(x) for x in call.args]))
        elif isinstance(u, Var) or (u.root.kind == OPERATION
                                    and u.root.name not in (EQ, AND)):
            done.append(u)
        else:
            stack.append(u.root)
            stack.extend(reversed(u.args))
    return done[0]


class PEReport(NamedTuple):
    closed: bool
    uncovered: Tuple[Term, ...]
    resultants: Tuple[CallResultants, ...]


class PEResult(NamedTuple):
    program: Program
    renaming: Dict[Term, App]
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
                     per_call: Optional[Sequence[CallResultants]] = None
                     ) -> PEResult:
    """Specialize program w.r.t. the calls in S.

    Each call is unfolded (stopping at variants of S elements) with the
    definitional trees built once for all of them, and its resultants
    theta(s) -> r become rules theta(rho(s)) -> ren(r) over fresh
    operation symbols, followed in the output by the builtin eq/and
    rules (`add_strict_equality`), which a program without them may not
    call.  The report states whether every specialized right-hand side
    is closed w.r.t. the renamed calls.  `per_call`, when given, holds
    each call of S with its resultants, in the order of S, as unfolding
    against S gave them; then nothing is unfolded and `policy` is unread.
    """
    S = list(S)
    if not S:
        raise ValueError("cannot partially evaluate an empty set of calls")
    for s in S:
        if not is_operation_rooted(s):
            raise ValueError(f"specialized calls must be operation-rooted: {s}")
    if per_call is None:
        trees = require_class(program, policy.strategy, _UNFOLD_CLASS)
        keys = {variant_key(s) for s in S}
        per_call = [(s, tuple(resultants(unfold(s, program, policy, trees=trees,
                                                stop_keys=keys))))
                    for s in S]
    rho = independent_renaming(S, program.signature)

    new_rules: List[Rule] = []
    for s, rs in per_call:
        for r in rs:
            lhs = r.subst.apply(rho[s])
            rhs = rename_term(rho, r.rhs)
            new_rules.append(Rule(lhs, rhs, f"P{len(new_rules) + 1}"))

    signature = Signature(program.signature.constructors())
    for p in rho.values():
        signature.declare(p.root)
    builtin = (EQ, AND) if program.has_strict_equality else ()
    for rule in new_rules:
        for t in (rule.lhs, rule.rhs):
            for u in _preorder(t):
                if isinstance(u, App) and u.root.name not in builtin:
                    signature.declare(u.root)

    specialized = tuple(new_rules)
    equality = add_strict_equality(Program(signature, ()))
    out = Program(equality.signature, specialized + equality.rules,
                  has_strict_equality=True)

    targets = list(rho.values())
    uncovered: List[Term] = []
    for rule in specialized:
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


def abstract_add(S: List[Term], u: Term, gen: FreshVars,
                 keys: Optional[Set[Term]] = None,
                 key: Optional[Term] = None) -> bool:
    """Fold a candidate call into S; True when S changed.

    In order: a variant of an existing element is dropped.  A candidate
    into which a same-root element embeds generalizes that element in
    place to their most specific generalization (when a variant of the
    generalization already lives elsewhere in S, both the element and
    the candidate are kept as they are), and the operation-rooted pieces
    of the generalization's clash images are folded in; an instance
    whose matching images only collapse variables is such a candidate
    (variables couple), and S keeps the element, a variant of their
    generalization.  Any other instance of an element is appended when
    its images are constructor terms (a genuine call-pattern
    refinement), and otherwise decomposed into the operation-rooted
    pieces of its images, which are folded in.  Anything else is
    appended.  The pieces are folded depth first from an explicit stack
    of (call, key), each key computed when popped.

    `keys` is the set of the `variant_key`s of S, one per element; it is
    updated with S.  Without it, the keys are computed here.  `key`,
    when given, is the `variant_key` of u.
    """
    if not is_operation_rooted(u):
        raise ValueError(f"candidates must be operation-rooted: {u}")
    if keys is None:
        keys = {variant_key(s) for s in S}
    changed = False
    stack: List[Tuple[Term, Optional[Term]]] = [(u, key)]
    while stack:
        u, key = stack.pop()
        if key is None:
            key = variant_key(u)
        if key in keys:
            continue
        for i, s in enumerate(S):
            if s.root == u.root and embeds(s, u):
                w, th_u, th_s = msg(u, s, gen)
                w_key = variant_key(w)
                if w_key not in keys:  # s's own key is among them
                    keys.remove(variant_key(s))
                    keys.add(w_key)
                    S[i] = w
                    changed = True
                images = [*th_u.mapping.values(), *th_s.mapping.values()]
                break
        else:
            found = _covering(S, u)
            images = [] if found is None else list(found[1].mapping.values())
            if found is None or all(is_constructor_term(img) for img in images):
                S.append(u)
                keys.add(key)
                changed = True
                continue
        stack.extend(reversed([(v, None) for img in images
                               for v in outermost_operation_subterms(img)]))
    return changed


class PEControlResult(NamedTuple):
    S: Tuple[Term, ...]
    result: PEResult
    iterations: int
    unfolds_built: int  # unfold trees grown, over all passes
    unfolds_reused: int  # passes that reused a call's resultants instead


class _Unfolded(NamedTuple):
    """One call's unfolding, kept by `pe_control` across passes."""

    call: Term
    resultants: Tuple[Resultant, ...]
    hits: FrozenSet[Term]  # keys of the probes that found a stop term
    misses: FrozenSet[Term]  # keys of those that did not
    # The outermost calls of the right-hand sides, with their variant keys.
    candidates: Tuple[Tuple[Term, Term], ...]

    def reusable(self, call: Term, stop_keys: AbstractSet[Term]) -> bool:
        """Whether a new unfold of `call` against `stop_keys` would give
        these resultants: the same call, and every kept stop test
        answers the same."""
        return (self.call is call and self.hits <= stop_keys
                and self.misses.isdisjoint(stop_keys))


def pe_control(program: Program, roots: Sequence[Term],
               policy: UnfoldPolicy = UnfoldPolicy(),
               max_iters: int = 32) -> PEControlResult:
    """Global control: grow S from the root calls until the
    specialization is closed, then return the final partial evaluation.

    After each pass, every outermost operation-rooted subterm of every
    resultant right-hand side (eq/and are crossed, as constructors) is
    folded into S by abstract_add; a pass that changes nothing is the
    fixpoint, and only its S is renamed and assembled, once
    (`partial_evaluate`), equation goals included.  Exceeding the
    iteration cap raises PEControlError listing the calls that still
    escape coverage.  The definitional trees are built once and serve
    every pass.

    S reaches a call's unfold tree only through the stop tests of its
    cut, so each call keeps its resultants and the answers of the tests
    that `unfold` reports as probes, and a pass unfolds it again only
    when one of them would answer differently against the current S.
    `unfold` draws its own fresh variables and leaves out only tests
    that cannot change its resultants (a miss on the depth bound after
    the last applied step), so the kept resultants are the ones a new
    unfold would give, fresh names included.  Each candidate call's
    variant key is computed once, with its entry, and a pass skips the
    candidates whose key is already among S's keys.
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
    keys: Set[Term] = set()  # the variant keys of S, one per element
    for r in roots:
        abstract_add(S, r, gen, keys)
    trees = require_class(program, policy.strategy, _UNFOLD_CLASS)

    # kept[i] is the unfolding of S[i] while its call is S[i]: S only
    # grows at the end or generalizes an element in place.
    kept: List[_Unfolded] = []
    built = reused = 0
    for iteration in range(1, max_iters + 1):
        for i, s in enumerate(S):
            entry = kept[i] if i < len(kept) else None
            if entry is not None and entry.reusable(s, keys):
                reused += 1
                continue
            probes: List[Tuple[Term, bool]] = []
            rs = tuple(resultants(unfold(s, program, policy, trees=trees,
                                         stop_keys=keys, probes=probes)))
            kept[i:i + 1] = [_Unfolded(  # replaces kept[i], or appends
                s, rs, frozenset(key for key, hit in probes if hit),
                frozenset(key for key, hit in probes if not hit),
                tuple((u, variant_key(u)) for r in rs
                      for u in outermost_operation_subterms(r.rhs)))]
            built += 1
        candidates = [u for entry in kept for u in entry.candidates]
        changed = False
        for u, key in candidates:
            if key not in keys and abstract_add(S, u, gen, keys, key):
                changed = True
        if not changed:
            per_call = [(entry.call, entry.resultants) for entry in kept]
            result = partial_evaluate(program, S, per_call=per_call)
            return PEControlResult(tuple(S), result, iteration, built, reused)
    leftovers = tuple(u for u, key in candidates if key not in keys)
    calls = leftovers or tuple(u for u, _ in candidates)
    raise PEControlError(
        "no closed specialization after "
        f"{max_iters} iterations; uncovered calls: "
        + ", ".join(str(u) for u in calls), calls)
