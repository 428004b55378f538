"""Narrowing strategies and the one engine that grows narrowing trees.

Two step strategies are provided: `nns` computes needed narrowing steps
by descending a definitional tree, `lns` computes lazy narrowing steps
by linear unification against every rule, descending into demanded
positions.  Both need a program that passed `deftree.require_class`
and a `FreshVars` that already avoids the term's and the program's
variables.  Both descents loop over explicit stacks, so nested calls
are limited by memory, not by the recursion limit.  `expand` grows the
narrowing tree of a term under either strategy with an explicit stack,
decides each node's fate once (`Node.cause`), and only counts the steps
of a node that a bound stops; two leaf policies use it.  `search` bounds
it by `Bounds` and collects (answer, constructor term) pairs at the
success leaves; `peval.unfold` bounds it by the unfold depth and cuts
it with the partial evaluator's local control.  A step is applied in
one walk along its position (`narrow`): the rule is matched through the
step's substitution and only the path above the redex is rebuilt.
Rewriting (`rewrite_normalize`) takes needed steps that bind no
variable, found by the needed descent's redex mode, which draws no
names and builds no `Step`.  It is an abstract machine: frames above the
focus, for the constructor prefix and for the calls whose inductive
argument is being evaluated, are built once, when they are finished;
the focus is the redex, contracted at its root; and the trace is text,
each line joined from texts kept beside the frames and the focus.
"""

from __future__ import annotations

import itertools
import math
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Tuple, Union)

from .deftree import DefTree, Leaf, require_class
from .program import Program, Rule
from .terms import (
    App,
    CONSTRUCTOR,
    Chain,
    Demand,
    FreshVars,
    IDENTITY,
    Position,
    Substitution,
    Symbol,
    Term,
    Var,
    _applied,
    _path,
    _rebuild,
    _solve,
    canonical_rename,
    is_constructor_term,
    is_operation_rooted,
    linear_overlay,
    linear_walk,
    resolve_chain,
    vars_of,
)


class Step(NamedTuple):
    """One narrowing step: rewrite at `position` with a renamed-apart
    `rule` after instantiating by `subst`.

    For needed steps, `canonical` is the elementary decomposition
    phi_1 .. phi_k of the substitution (applied left to right): each
    entry is the identity or binds one variable to a shallow constructor
    application of fresh variables.
    """

    position: Position
    rule: Rule
    subst: Substitution
    canonical: Tuple[Substitution, ...] = ()

    def __str__(self) -> str:
        return f"({list(self.position)}, {self.rule.label or self.rule}, {self.subst})"


def _unwind(chain: Optional[tuple]) -> List[object]:
    """The items of a parent-pointer chain (item, parent), oldest first."""
    items = []
    while chain is not None:
        item, chain = chain
        items.append(item)
    items.reverse()
    return items


def _joined(segments: Optional[tuple]) -> Position:
    """The position spelled by a chain of position segments."""
    if segments is None:
        return ()
    return tuple(itertools.chain.from_iterable(_unwind(segments)))


def _tree_of(trees: Dict[str, DefTree], f: Symbol) -> Optional[DefTree]:
    """The definitional tree of f, or None when there is none or the
    tree of f's name is that of a symbol of another signature."""
    tree = trees.get(f.name)
    if tree is None or tree.pattern.root is f or tree.pattern.root == f:
        return tree
    return None


def nns(t: Term, trees: Dict[str, DefTree], gen: Optional[FreshVars],
        count: bool = False, at: Optional[tuple] = None, redex: bool = False,
        start: Optional[DefTree] = None
        ) -> Union[List[Step], int, Optional[Tuple[DefTree, Optional[App]]]]:
    """Needed narrowing steps of an operation-rooted term t, from the
    definitional tree of its root (none, and no step, when it has none).
    `trees` comes from `deftree.require_class`; `gen` must already avoid
    t's and the program's variables, for none are reserved here.

    The tree is descended from an explicit stack, depth first, children
    in tree order.  At a branch with inductive position o, a variable at
    t|o is instantiated child by child, a constructor selects its child,
    and an operation continues into its own tree, positions prefixed by
    o.  t is never rebuilt: each instantiation is entered in `bound`, the
    bindings of the current tree path in binding order, and positions
    are read through it.  A frame is (tree node, the operation-rooted
    subterm u it descends, u's position extending `at` (t's own) and the
    canonical parts so far, both parent-pointer chains read only at a
    leaf, and the (variable, constructor) to bind on entry, if any); a
    bare variable on the stack ends that binding's scope.  A branch
    reads its inductive position once, on entry.  A leaf draws its
    rule's variant and reads its substitution off `bound` as one
    triangular map (`_rebuild`, as `resolve_chain` does): every image is
    made of fresh names, so no image mentions a variable bound before
    it, and that is the composition of the canonical parts.

    A variable branch looks ahead before it pushes a child that is not
    a leaf: it reads the child's inductive position from u through
    `bound`.  The read stops at a variable not yet bound, which can only
    be the one the child is about to bind: every constructor on the
    path of a child's pattern was matched or bound by a branch above
    it.  A child whose read meets a constructor it does not accept is
    dead: in its place goes a marker, its constructor's arity, that
    draws that many fresh names when popped, so every later name is the
    one it would be had the child bound the variable and found no match.

    With `count`, the number of steps is returned instead: the same
    fresh variables are drawn and each leaf advances `gen` past its
    renaming, but no part, rule variant or step is built.  With `redex`,
    the descent looks for a rewrite step, one that binds nothing, in t's
    own tree, from its root or from its node `start`: it returns (leaf,
    None) at the first leaf it reaches, whose rule rewrites t at its
    root, (branch, subterm) at the first branch whose inductive position
    holds an operation-rooted subterm, and None at the first variable it
    would bind or when no child matches.  It reads no `gen` and builds
    no variant, part or step.
    """
    if not is_operation_rooted(t):
        raise ValueError(f"needed narrowing needs an operation-rooted term, got {t}")
    steps: List[Step] = []
    found = 0
    bound: Dict[Var, App] = {}
    tree = _tree_of(trees, t.root) if start is None else start
    stack: List[object] = [] if tree is None else [(tree, t, at, None, None)]
    while stack:
        frame = stack.pop()
        if frame.__class__ is not tuple:
            if frame.__class__ is int:  # a dead child: its image's names
                gen.fresh_tuple(frame)
            else:
                del bound[frame]
            continue
        node, u, at, parts, binding = frame
        if binding is not None:
            x, ctor = binding
            image = App(ctor, gen.fresh_tuple(ctor.arity))
            bound[x] = image
            stack.append(x)
            if not count:
                parts = (Substitution._of({x: image}), parts)
        if isinstance(node, Leaf):
            if redex:
                return node, None
            if count:
                gen.skip(node.rule.variables)
                found += 1
                continue
            if len(bound) > 1:
                memo: Dict[Var, Term] = {}
                sigma = Substitution._of({x: _rebuild(x, memo, bound) for x in bound})
            else:  # none or one binding: the map is resolved as it is
                sigma = Substitution._of(bound.copy())
            steps.append(Step(_joined(at), node.rule.renamed(gen), sigma,
                              tuple(_unwind((IDENTITY, parts)))))
            continue
        sub = u
        for i in node.position:
            if sub.__class__ is Var:
                sub = bound[sub]
            sub = sub.args[i - 1]
        if sub.__class__ is Var:
            sub = bound.get(sub, sub)
        if sub.__class__ is Var:
            if redex:
                return None
            for child, ctor in zip(reversed(node.children), reversed(node.constructors)):
                if child.__class__ is not Leaf:
                    v = u
                    for i in child.position:
                        if v.__class__ is Var:
                            v = bound.get(v)
                            if v is None:  # sub, bound only on entry
                                break
                        v = v.args[i - 1]
                    else:
                        if v.__class__ is Var:
                            v = bound.get(v, v)
                        if v.__class__ is App and v.root.kind == CONSTRUCTOR and (
                                v.root not in child.constructors):
                            if ctor.arity:
                                stack.append(ctor.arity)
                            continue
                stack.append((child, u, at, parts, (sub, ctor)))
        elif sub.root.kind == CONSTRUCTOR:
            for child, ctor in zip(node.children, node.constructors):
                if ctor == sub.root:
                    stack.append((child, u, at, (IDENTITY, parts), None))
                    break
        else:
            if redex:
                return node, sub
            inner = _tree_of(trees, sub.root)
            if inner is not None:
                stack.append((inner, sub, (node.position, at),
                              (IDENTITY, parts), None))
    if redex:
        return None
    return found if count else steps


def lns(t: Term, program: Program, gen: FreshVars, count: bool = False,
        at: Optional[tuple] = None) -> Union[List[Step], int]:
    """Lazy narrowing steps of an operation-rooted term t.  The program
    must have passed `deftree.require_class` under the lazy strategy,
    and `gen` must already avoid t's and the program's variables.

    Every rule of t's root is linearly unified against t, and each
    success is a step.  Then each position that a rule demands is
    descended into, in position order and with everything below it,
    from an explicit stack.
    Each rule's own left-hand side is walked once, from its shape
    (`Rule.shape`, flattened on the first walk, `linear_walk`), and
    whether the walk's equations unify is decided on them too
    (`linear_overlay`): neither a clash, nor a demand, nor the outcome
    of solving depends on variable names.  A demand hands back the
    subterms it met, which are descended next.  A rule without a step
    only advances `gen` as its renaming would (`FreshVars.skip`), and
    builds no names.  For a step, the variant is drawn (`Rule.renamed`)
    and the equations, their pattern sides under its renaming, are
    solved: `linear_unify` of the variant, whose checks hold by
    construction (it is linear, and its names are fresh).  With
    `count`, a step advances `gen` in the same way and is counted, not
    built, and the number of steps is returned.  Positions are chains of
    demanded positions extending `at` (t's own), spelled out once per
    position that has steps."""
    if not is_operation_rooted(t):
        raise ValueError(f"lazy narrowing needs an operation-rooted term, got {t}")
    steps: List[Step] = []
    found = 0
    stack: List[Tuple[Optional[tuple], App]] = [(at, t)]
    while stack:
        at, sub = stack.pop()
        here: Optional[Position] = None
        demanded: Dict[Position, App] = {}
        rules = program.rules_for(sub.root.name)
        if rules and rules[0].lhs.root != sub.root:
            rules = ()  # a symbol of another signature
        for rule in rules:
            walked = linear_walk(rule.shape, sub)
            if walked.__class__ is Demand:
                for q, u in zip(walked.positions, walked.subterms):
                    demanded.setdefault(q, u)
            elif walked.__class__ is list and linear_overlay(walked):
                if not count:
                    variant = rule.renamed(gen)
                    theta = variant._renaming
                    sigma = _solve([(theta.apply(p), g) for p, g in walked])
                    if here is None:
                        here = _joined(at)
                    steps.append(Step(here, variant, sigma, (sigma,)))
                    continue
                found += 1
            gen.skip(rule.variables)
        stack.extend(((q, at), u) for q, u in sorted(demanded.items(), reverse=True))
    return found if count else steps


def narrow(t: Term, step: Step) -> Term:
    """The term reached from t by one narrowing step: sigma(t[r]_p) for
    the step's position p, rule l -> r and substitution sigma, built in
    one walk (`_contract`)."""
    return _contract(t, step.position, step.rule, step.subst._map)


def _contract(t: Term, position: Position, rule: Rule,
              sigma: Dict[Var, Term]) -> Term:
    """sigma(t[r]_p) for the rule l -> r at position p, without building
    sigma(t) or sigma(t|p).  p is a position of t, as a narrowing step's
    always is, and l is matched against t|p through sigma: a variable of
    t under a constructor of l is replaced by its image, which is never
    substituted again, and a variable of l takes sigma of the subterm it
    meets, so sigma is applied once even when it is not idempotent.
    Only the ancestors of the redex are rebuilt, their other arguments
    under sigma.  The rule's source rewrites in its place: a renaming is
    a bijection on variables and the rhs has no variable that the lhs
    lacks, so both give the same contractum, and a variant's own parts
    are never built."""
    path = _path(t, position)
    source = rule.source
    theta: Dict[Var, Term] = {}
    # (pattern subterm, subterm met, the map still to apply to it)
    stack = [(source.lhs, path[-1], sigma)]
    while stack:
        p, u, m = stack.pop()
        if p.__class__ is Var:
            u = _applied(m, u)
            if theta.setdefault(p, u) is u or theta[p] == u:
                continue
        else:
            if u.__class__ is Var:
                u, m = m.get(u, u), {}
            if u.__class__ is App and u.root == p.root:
                stack.extend(zip(p.args, u.args, itertools.repeat(m)))
                continue
        raise ValueError(
            f"rule {rule} does not match {_applied(sigma, path[-1])}")
    s = _applied(theta, source.rhs)
    for u, i in zip(path[-2::-1], reversed(position)):
        args = [_applied(sigma, a) for a in u.args[:i - 1]]
        args.append(s)
        args += [_applied(sigma, a) for a in u.args[i:]]
        s = App(u.root, tuple(args))
    return s


INNER = "inner"
SUCCESS = "success"
FAILING = "failing"
INCOMPLETE = "incomplete"

# The causes of an incomplete leaf: the bounds of `expand` (tree depth,
# node budget, solution cap), then those of a local-control callback
# (a constructor-rooted term, a variant of a stop term, the whistle).
DEPTH = "depth"
BUDGET = "budget"
CAP = "cap"
ROOT_STABLE = "root-stable"
STOP = "stop"
WHISTLE = "whistle"

# The status of a node, read off its cause; None is a node being expanded.
STATUS_OF = {None: INNER, SUCCESS: SUCCESS, FAILING: FAILING,
             **dict.fromkeys((DEPTH, BUDGET, CAP, ROOT_STABLE, STOP, WHISTLE),
                             INCOMPLETE)}


class Node:
    """A node of a narrowing tree, filled in as `expand` grows it.

    `cause` is the node's fate, decided once: None while it is expanded,
    `SUCCESS`, `FAILING`, or why it stayed incomplete.  A node that a
    bound stopped after some of its steps were applied has children and
    the cause `BUDGET` or `CAP`."""

    __slots__ = ("term", "cause", "children", "offered")

    def __init__(self, term: Term) -> None:
        self.term = term
        self.cause: Optional[str] = None
        self.children: List[Tuple[Step, Node]] = []
        # How many steps the strategy has here: those of a node that is
        # expanded, or the count of a frontier node's steps, never built.
        self.offered = 0

    @property
    def status(self) -> str:
        """`INNER`, `SUCCESS`, `FAILING` or `INCOMPLETE`, from the cause."""
        return STATUS_OF[self.cause]

    def preorder(self) -> Iterator[Tuple[Optional[Step], "Node", int]]:
        """(step that reached it or None at the root, node, depth) for
        every node in preorder, children in step order, from an explicit
        stack.  A node's parent is the last node yielded one level up."""
        stack: List[Tuple[Optional[Step], Node, int]] = [(None, self, 0)]
        while stack:
            step, node, depth = stack.pop()
            yield step, node, depth
            stack.extend((arc, child, depth + 1)
                         for arc, child in reversed(node.children))

    def nodes(self) -> List["Node"]:
        """Every node of the tree in preorder."""
        return [node for _, node, _ in self.preorder()]


class Bounds(NamedTuple):
    max_steps: int = 25
    max_nodes: int = 2000
    max_solutions: Optional[int] = None


class SearchResult(NamedTuple):
    root: Node
    answers: List[Tuple[Substitution, Term]]
    complete: bool


def _cross_prefix(t: Term) -> Optional[Tuple[Optional[tuple], App]]:
    """The leftmost-outermost operation-rooted subterm of t and its
    position, or None when t is a constructor term, from a stack of
    (position, subterm) with the leftmost on top.  Constructor terms are
    not entered; the arguments of a constructor application are pushed
    in its place.  Positions are parent-pointer chains of segments,
    ((i,), parent), spelled out by `_joined`, so a level of the prefix
    costs one tuple, not a copy of its position."""
    pending: List[Tuple[Optional[tuple], Term]] = [(None, t)]
    while pending:
        at, u = pending.pop()
        if not u.constructor_term:
            if u.root.kind != CONSTRUCTOR:
                return at, u
            pending.extend((((i,), at), u.args[i - 1])
                           for i in range(len(u.args), 0, -1))
    return None


def strategy_steps(t: Term, program: Program, strategy: str,
                   trees: Dict[str, DefTree], gen: FreshVars,
                   count: bool = False) -> Union[List[Step], int]:
    """Steps of a strategy, lifted over constructor prefixes.

    Both strategies act on operation-rooted terms only; a constructor
    prefix is crossed (`_cross_prefix`) to the leftmost-outermost
    operation-rooted subterm, whose position chain starts the descent's:
    each step is built once, at its full position.  The program must
    have passed `deftree.require_class`, which also supplies `trees`;
    `gen` must already avoid the goal's and the program's variables; t's
    other variables are names it drew.  With `count`, only the number of
    steps is returned, and `gen` ends as building them would leave it.
    """
    found = _cross_prefix(t)
    if found is None:
        return 0 if count else []
    at, t = found
    if strategy == "needed":
        return nns(t, trees, gen, count, at)
    return lns(t, program, gen, count, at)


# The text of the needed-class error, before the offending operations.
_NEEDED_CLASS = ("needed narrowing requires an inductively sequential "
                 "program; no definitional tree for: ")


def expand(term: Term, program: Program, strategy: str,
           trees: Dict[str, DefTree], gen: Optional[FreshVars],
           max_depth: int, max_nodes: float = math.inf,
           max_solutions: Optional[int] = None,
           cut: Optional[Callable[[Node, List[Term]], Optional[str]]] = None,
           ) -> Tuple[Node, List[Tuple[Node, Chain]], bool]:
    """Grow the narrowing tree of a term depth-first, children in step
    order, from an explicit stack: tree depth is limited by the bounds,
    not by Python's recursion limit.

    Each new node's `Node.cause` is decided once, in this order: a
    constructor term is a `SUCCESS` leaf; `cut(node, ancestors)`, given
    the ancestor terms root first (a list it must not keep), returns an
    incomplete leaf's cause or None; a term without steps is a `FAILING`
    leaf; at `max_depth` (`DEPTH`), once the node budget is spent
    (`BUDGET`) or once `max_solutions` success leaves were found (`CAP`),
    an incomplete one, whose steps are counted, not built (`Node.offered`;
    `gen` draws the same names either way).  At most `max_nodes` nodes
    are created; a node whose expansion the budget or the cap stops
    keeps its children and gets that cause too.

    Returns the root, the success leaves in the order found with the
    `Chain` of step substitutions on their path, and whether no node is
    incomplete.  The program must have passed `deftree.require_class`,
    which also supplies `trees`.
    """
    if gen is None:
        gen = FreshVars()
    gen.reserve(vars_of(term))
    gen.reserve(program.all_variables())

    root = Node(term)
    successes: List[Tuple[Node, Chain]] = []
    budget = max_nodes - 1
    cap = math.inf if max_solutions is None else max_solutions
    complete = True
    # The stack holds the path from the root to the node being expanded,
    # and `path` the terms of its nodes, root first.
    stack: List[Tuple[Node, Iterator[Step], Chain]] = []
    path: List[Term] = []

    def bound() -> Optional[str]:
        """The bound that stops all further expansion, if any."""
        if budget <= 0:
            return BUDGET
        return CAP if len(successes) >= cap else None

    def visit(node: Node, chain: Chain) -> None:
        """Decide a new node's cause; push it if it is expanded."""
        nonlocal complete
        t = node.term
        if is_constructor_term(t):
            node.cause = SUCCESS
            successes.append((node, chain))
            return
        cause = None if cut is None else cut(node, path)
        if cause is None:
            cause = DEPTH if len(stack) >= max_depth else bound()
            if cause is None:
                steps = strategy_steps(t, program, strategy, trees, gen)
                node.offered = len(steps)
                if steps:
                    stack.append((node, iter(steps), chain))
                    path.append(t)
                    return
            else:
                node.offered = strategy_steps(t, program, strategy, trees, gen,
                                              count=True)
            if not node.offered:
                node.cause = FAILING
                return
        node.cause = cause
        complete = False

    visit(root, None)
    while stack:
        node, pending, chain = stack[-1]
        step = next(pending, None)
        if step is not None:
            cause = bound()
            if cause is None:
                budget -= 1
                child = Node(narrow(node.term, step))
                node.children.append((step, child))
                visit(child, (step.subst, chain))
                continue
            node.cause = cause
            complete = False
        stack.pop()
        path.pop()
    return root, successes, complete


def search(goal: Term, program: Program, strategy: str = "needed",
           bounds: Bounds = Bounds(), gen: Optional[FreshVars] = None
           ) -> SearchResult:
    """Depth-first bounded narrowing search from a goal.

    Leaves are success (constructor term), failing (no step applies), or
    incomplete (a bound cut the expansion).  Answers are the composed
    step substitutions of a success path restricted to the goal's
    variables, paired with the leaf term; remaining fresh variables are
    canonically renamed.  Each path's step substitutions are composed
    (`resolve_chain`) only at its success leaf.
    """
    trees = require_class(program, strategy, _NEEDED_CLASS)
    root, successes, complete = expand(
        goal, program, strategy, trees, gen, bounds.max_steps,
        bounds.max_nodes, bounds.max_solutions)
    goal_vars = vars_of(goal)
    answers: List[Tuple[Substitution, Term]] = []
    for leaf, chain in successes:
        answer = resolve_chain(chain, goal_vars)
        renamed = canonical_rename(
            [answer.apply(v) for v in goal_vars] + [leaf.term], keep=goal_vars)
        answers.append((
            Substitution(dict(zip(goal_vars, renamed[:-1]))), renamed[-1]))
    return SearchResult(root, answers, complete)


# The kept text of a term: None while it is not printed, its text, or
# (its text, the kept texts of its arguments).
Kept = Union[None, str, Tuple[str, tuple]]


def _text(kept: Kept, u: Term) -> str:
    """The text of u, from its kept text or printed."""
    if kept is None:
        return str(u)
    return kept if kept.__class__ is str else kept[0]


def _split(kept: Kept, u: App, keep: int) -> tuple:
    """The kept texts of u's arguments.  A text is cut: the arguments
    other than the `keep`-th are printed, which gives its offsets, and it
    is sliced out."""
    if kept is None:
        return (None,) * len(u.args)
    if kept.__class__ is tuple:
        return kept[1]
    if len(u.args) == 1:
        return (kept[len(u.root.name) + 1:-1],)
    before = [str(a) for a in u.args[:keep - 1]]
    after = [str(a) for a in u.args[keep:]]
    start = len(u.root.name) + 1 + sum(map(len, before)) + 2 * len(before)
    end = len(kept) - 1 - sum(map(len, after)) - 2 * len(after)
    return (*before, kept[start:end], *after)


def _fire(u: App, kept: Kept, rule: Rule) -> Tuple[Term, Kept]:
    """The contractum of u by a rule whose left-hand side matches u, and
    its kept text.  The matched subterms are read at the variables of
    the left-hand side (`Rule.shape`), with their kept texts: each
    application's arguments are split once, the last one sliced out.
    The right-hand side is built children first (`Rule.rhs_order`), each
    application's text joined from its arguments'; ground parts are
    shared, and printed when their parent is joined."""
    source = rule.source
    shape = source.shape
    n = len(shape)
    terms = [u] * (n + 1)  # what each row of the shape met; the last, u
    texts = [kept] * (n + 1)
    splits: List[Optional[tuple]] = [None] * (n + 1)
    theta: Dict[Var, Tuple[Term, Kept]] = {}
    for k, (parent, i, _, p, _) in enumerate(shape):
        args = splits[parent]
        if args is None:
            g = terms[parent]
            args = splits[parent] = _split(texts[parent], g, len(g.args))
        if p.__class__ is Var:
            theta[p] = (terms[parent].args[i - 1], args[i - 1])
        else:
            terms[k] = terms[parent].args[i - 1]
            texts[k] = args[i - 1]
    out: List[Tuple[Term, Kept]] = []
    for p in source.rhs_order:
        if p.__class__ is Var:
            a, x = theta[p]
            if x is None:  # printed once, however often it occurs
                theta[p] = a, x = a, str(a)
            out.append((a, x))
        elif p.ground:
            del out[len(out) - len(p.args):]
            out.append((p, None))
        else:
            args, kids, shown = [], [], []
            for a, x in reversed(out[-len(p.args):]):  # first to last
                args.append(a)
                if x is None:
                    x = str(a)
                kids.append(x)
                shown.append(x if x.__class__ is str else x[0])
            del out[-len(p.args):]
            out.append((App(p.root, tuple(args)),
                        (f"{p.root.name}({', '.join(shown)})", tuple(kids))))
    return out[0]


def _open(u: App, kept: Kept, position: Position
          ) -> Tuple[List[tuple], Term, Kept]:
    """An operation frame around `position` of the call u: per
    application on the path, (it, its arguments' kept texts, the
    argument's index, its text left and right of that argument); then
    the subterm there and its kept text.  The other arguments on the
    path are printed if no text is kept for them."""
    levels = []
    for i in position:
        kids = [str(a) if x is None and j != i else x
                for j, (a, x) in enumerate(zip(u.args, _split(kept, u, i)), 1)]
        before = [_text(x, u) + ", " for x in kids[:i - 1]]
        after = [", " + _text(x, u) for x in kids[i:]]
        levels.append((u, kids, i, "".join([u.root.name, "(", *before]),
                       "".join([*after, ")"])))
        u, kept = u.args[i - 1], kids[i - 1]
    return levels, u, kept


def _plug(levels: List[tuple], u: Term, kept: Kept) -> Tuple[App, Kept]:
    """The call of an operation frame with u in its hole, and its kept
    text."""
    for sub, kids, i, left, right in reversed(levels):
        text = _text(kept, u)
        u = App(sub.root, (*sub.args[:i - 1], u, *sub.args[i:]))
        kids[i - 1] = kept if kept is not None else text
        kept = (left + text + right, tuple(kids))
    return u, kept


def rewrite_normalize(t: Term, program: Program, max_steps: int = 1000
                      ) -> Tuple[Term, List[str], bool]:
    """Repeatedly rewrite at the needed redex: take the needed narrowing
    step while it binds nothing.

    Returns (final term, trace, suspended), where the trace holds the
    text of each intermediate term.  On an inductively sequential
    program the needed descent of a term meets no variable exactly when
    it yields at most one step, binding nothing; so the term is
    suspended when it has no step or its first step binds one of its
    variables.  A term reached at the `max_steps` bound is not
    suspended; it may not be a normal form.

    The loop is the evaluation stack of an abstract machine for
    inductively sequential rewriting (Antoy, Hanus, Massey and Steiner,
    "An implementation of narrowing strategies", PPDP 2001; Sestoft,
    "Deriving a lazy abstract machine", JFP 1997), over a zipper (Huet,
    "The Zipper", JFP 1997).  Above the leftmost-outermost
    operation-rooted subterm is a frame per constructor application,
    with its finished arguments: needed narrowing never steps at a
    constructor position, so no step changes them.  Below it, the needed
    descent (`nns` in redex mode) runs in one call's own tree.  Where a
    branch's inductive position holds an operation-rooted subterm, an
    operation frame is pushed (the call, the branch, and the call's text
    left and right of the position) and the subterm is in focus.  At a
    leaf the focus is the redex, and its contractum replaces it.  A
    focus in head normal form is plugged into the frame on top, and the
    descent resumes at that frame's branch, on the new constructor, not
    from the root of the call's tree: the choices above it read
    constructors that no step below changes.  Frames are plugged only
    when they are finished or the run stops, so a step builds its
    contractum and the path of the frame it finishes.

    The text of the focus is kept beside it (`Kept`), so a line joins
    kept texts only: the text left of the top call, kept as one string,
    the texts of the operation frames, the focus's, and the text right
    of the top call, whose pending arguments are printed when a line
    first needs them.  A contractum's text is its right-hand side's,
    with the texts of the matched subterms in place of its variables;
    those are cut from the focus's text (`_fire`), which prints at most
    their siblings, and the terms of the goal are printed when first
    needed.
    """
    trees = require_class(program, "needed", _NEEDED_CLASS)
    trace: List[str] = []
    frames: List[Tuple[App, List[Term]]] = []
    # What is right of the top call, leftmost on top: the arguments
    # still to cross, with their kept texts, and a ")" that closes each
    # frame; the texts of its bottom items, as far as a line has needed
    # them, and theirs joined.
    rest: List[Union[Tuple[Term, Kept], str]] = []
    shown: List[str] = []
    left = right = ""
    # The operation frames, (branch, levels of `_open`), and their texts
    # left and right of their holes.
    calls: List[Tuple[DefTree, List[tuple]]] = []
    lefts: List[str] = []
    rights: List[str] = []
    u, kept = t, None
    suspended = False
    while True:
        start = None
        if u.__class__ is Var or u.root.kind == CONSTRUCTOR:
            if calls:
                start, levels = calls.pop()
                del lefts[-1], rights[-1]
                u, kept = _plug(levels, u, kept)
            elif u.constructor_term:
                left += _text(kept, u)
                while rest:
                    frames[-1][1].append(u)
                    item = rest.pop()
                    if len(shown) > len(rest):
                        right = right[len(shown.pop()):]
                    if item.__class__ is not str:
                        u, kept = item
                        left += ", "
                        break
                    app, done = frames.pop()
                    u = App(app.root, tuple(done))
                    left += ")"
                else:
                    return u, trace, False
                continue
            else:
                kids = _split(kept, u, 1)
                frames.append((u, []))
                rest.append(")")
                rest += zip(u.args[:0:-1], kids[:0:-1])
                left += u.root.name + "("
                u, kept = u.args[0], kids[0]
                continue
        if len(trace) >= max_steps:
            break
        found = nns(u, trees, None, redex=True, start=start)
        if found is None:
            suspended = True
            break
        node, sub = found
        if sub is not None:
            levels, u, kept = _open(u, kept, node.position)
            calls.append((node, levels))
            lefts.append("".join([level[3] for level in levels]))
            rights.append("".join([level[4] for level in reversed(levels)]))
            continue
        u, kept = _fire(u, kept, node.rule)
        text = _text(kept, u)
        if kept is None:
            kept = text
        if len(shown) < len(rest):
            first = len(shown)
            for k in range(first, len(rest)):
                item = rest[k]
                if item.__class__ is not str:
                    a, x = item
                    if x is None:  # printed once, for the line and the crossing
                        rest[k] = a, x = a, str(a)
                    item = ", " + _text(x, a)
                shown.append(item)
            right = "".join(reversed(shown[first:])) + right
        if calls:
            text = "".join(lefts) + text + "".join(reversed(rights))
        trace.append(f"{left}{text}{right}")
    for _, levels in reversed(calls):
        for sub, _, i, _, _ in reversed(levels):
            u = App(sub.root, (*sub.args[:i - 1], u, *sub.args[i:]))
    for app, done in reversed(frames):
        u = App(app.root, (*done, u, *app.args[len(done) + 1:]))
    return u, trace, suspended


def node_to_dict(node: Node) -> dict:
    """JSON-friendly dump of a narrowing tree, built in preorder
    (`Node.preorder`): tree depth is not limited by Python's recursion
    limit."""
    level: List[dict] = []  # the dumps of the current node's ancestors
    for step, n, depth in node.preorder():
        out = {"term": str(n.term), "status": n.status, "arcs": []}
        if step is not None:
            level[depth - 1]["arcs"].append({
                "position": list(step.position),
                "rule": step.rule.label or str(step.rule),
                "subst": {x.name: str(t) for x, t in sorted(
                    step.subst.mapping.items(), key=lambda kv: kv[0].name)},
                "node": out,
            })
        level[depth:] = [out]
    return level[0]
