"""Shared fixtures: corpus programs, a seeded random generator of small
inductively sequential programs, and comparison and timing helpers."""

import gc
import random
import sys
import threading
import tracemalloc
from itertools import zip_longest
from pathlib import Path

import pytest

from nspec import (
    App,
    Branch,
    FreshVars,
    Leaf,
    Program,
    Rule,
    Signature,
    Substitution,
    Symbol,
    Var,
    add_strict_equality,
    canonical_rename,
    compose,
    is_inductively_sequential,
    match,
    parse_program,
    replace_at,
    search,
    subterm_at,
    subterms,
    vars_of,
)
from nspec.deftree import preorder
from nspec.terms import CONSTRUCTOR, OPERATION, Demand, Fail

# The empty substitution.
IDENTITY = Substitution()

DATA = Path(__file__).parent / "data"


def load(name: str) -> Program:
    return add_strict_equality(parse_program((DATA / name).read_text()))


@pytest.fixture(scope="session")
def leq_prog() -> Program:
    return load("leq.flp")


@pytest.fixture(scope="session")
def append_prog() -> Program:
    return load("append.flp")


@pytest.fixture(scope="session")
def double_prog() -> Program:
    return load("double.flp")


@pytest.fixture(scope="session")
def gfh_prog() -> Program:
    return load("gfh.flp")


@pytest.fixture(scope="session")
def loop_prog() -> Program:
    return load("loop.flp")


# --- seeded random small inductively sequential programs ----------------

_R_CTORS = (
    Symbol("z", 0, CONSTRUCTOR),
    Symbol("sc", 1, CONSTRUCTOR),
    Symbol("pr", 2, CONSTRUCTOR),
)


def random_term(rng: random.Random, variables, ops, depth):
    """A random term over z/sc/pr, the given variables and operations,
    at most depth deep below its root; the right-hand sides of
    `random_program`."""
    kinds = ["ctor"]
    if variables:
        kinds.append("var")
    if depth > 0 and ops:
        kinds.append("op")
    kind = rng.choice(kinds)
    if kind == "var":
        return rng.choice(variables)
    if kind == "op":
        f = rng.choice(ops)
        return App(f, tuple(random_term(rng, variables, ops, depth - 1)
                            for _ in range(f.arity)))
    pool = _R_CTORS if depth > 0 else _R_CTORS[:1]
    c = rng.choice(pool)
    return App(c, tuple(random_term(rng, variables, ops, depth - 1)
                        for _ in range(c.arity)))


def random_program(seed: int) -> Program:
    """A small program that is inductively sequential by construction:
    each operation's left-hand sides are the leaves of a randomly grown
    definitional tree (at most 3 functions, 3 rules each, constructor
    arity at most 2)."""
    rng = random.Random(seed)
    ops = [Symbol(f"op{i + 1}", rng.randint(1, 2), OPERATION)
           for i in range(rng.randint(1, 3))]
    signature = Signature(list(_R_CTORS) + ops)

    rules = []
    for op in ops:
        gen = FreshVars()
        leaves = []

        def grow(pattern, depth):
            positions = [p for p, u in subterms(pattern) if isinstance(u, Var)]
            if depth > 0 and positions and len(leaves) < 3 and rng.random() < 0.6:
                pos = rng.choice(positions)
                for c in rng.sample(_R_CTORS, rng.randint(1, len(_R_CTORS))):
                    child = App(c, gen.fresh_tuple(c.arity))
                    grow(replace_at(pattern, pos, child), depth - 1)
            else:
                leaves.append(pattern)

        grow(App(op, gen.fresh_tuple(op.arity)), 2)
        for pattern in leaves[:3]:
            rhs = random_term(rng, list(vars_of(pattern)), ops, rng.randint(0, 2))
            rules.append(Rule(pattern, rhs))

    labeled = [Rule(r.lhs, r.rhs, f"R{i + 1}") for i, r in enumerate(rules)]
    return Program(signature, labeled)


def generic_calls(program):
    """f(G1, ..., Gn) for every operation of the program but eq/and."""
    return [App(sym, tuple(Var(f"G{i + 1}") for i in range(sym.arity)))
            for sym in program.signature
            if sym.kind == "operation" and sym.name not in ("eq", "and")]


# Goals on the corpus programs, by file stem, that acceptance criterion 9
# checks for disjoint steps and independent answers.
CORPUS_GOALS = [
    ("leq", "leq(X, add(X, X))"), ("leq", "leq(X, Y)"),
    ("leq", "add(X, Y)"), ("leq", "eq(leq(X, s(0)), true)"),
    ("append", "append(Xs, Ys)"),
    ("append", "eq(append(Xs, Ys), cons(0, nil))"),
    ("double", "double(X)"), ("double", "eq(double(X), s(s(0)))"),
    ("gfh", "h(X)"), ("gfh", "eq(h(g(X)), s(0))")]


# --- comparison helpers --------------------------------------------------


def below_recursion_limit(run, limit=100):
    """run() in a new thread, whose stack starts empty, with Python's
    recursion limit lowered to `limit`: its result, or what it raised."""
    out = []

    def target():
        try:
            out.append((True, run()))
        except BaseException as exc:  # re-raised in the calling thread
            out.append((False, exc))

    thread = threading.Thread(target=target)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        thread.start()
        thread.join(timeout=120)
    finally:
        sys.setrecursionlimit(old)
    assert not thread.is_alive()
    [(ok, value)] = out
    if not ok:
        raise value
    return value


def traced_peak(run):
    """The peak size in bytes of the memory that Python allocates while
    `run()` runs (`tracemalloc`, started for the call, with the collector
    off): unlike a wall time, it does not depend on the load of the
    machine.  CPython keeps up to 2,000 freed tuples of each length up to
    20 for reuse, and a tuple taken from there is not traced; those free
    lists are emptied first, so that every tuple `run()` makes counts."""
    held = [tuple(range(n)) for n in range(1, 21) for _ in range(2000)]
    gc.disable()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
        del held


def calls_counted(run):
    """The number of function calls, Python and built-in, that `run()`
    makes (`sys.setprofile`): a count of its work that, unlike a wall
    time, does not depend on the load of the machine."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def nat_text(k: int) -> str:
    """The text of s^k(0)."""
    return "s(" * k + "0" + ")" * k


def list_text(items) -> str:
    """The text of the cons list of the given item texts."""
    return "".join(f"cons({x}, " for x in items) + "nil" + ")" * len(items)


def ref_str(t):
    """The printed form of a term, by recursion: the reference of the
    looping printer `App.__str__`, for shallow terms."""
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.root.name
    return f"{t.root.name}({', '.join(ref_str(a) for a in t.args)})"


def is_variant(s, t):
    """Whether s and t are equal up to a renaming of variables, each
    matched onto the other: the reference of `variant_key`."""
    return match(s, t) is not None and match(t, s) is not None


def restrict(sigma, variables):
    """sigma on the given variables only: the eager answer of a path, as
    the references of `resolve_chain`'s callers compute it."""
    keep = set(variables)
    return Substitution({x: t for x, t in sigma.mapping.items() if x in keep})


def trees_isomorphic(a, b):
    """Whether two definitional trees are equal up to variable names:
    their preorders agree node by node, depths and inductive positions
    included, and the patterns of each pair of nodes are variants."""
    for (u, i), (v, j) in zip_longest(preorder(a), preorder(b),
                                      fillvalue=(None, -1)):
        if (i != j or type(u) is not type(v)
                or not is_variant(u.pattern, v.pattern)
                or isinstance(u, Branch) and u.position != v.position):
            return False
    return True


def is_uniform(program):
    """Uniformity, read off the definitional forest: every operation has
    a tree, and each tree is a leaf (one rule f(x1..xn) -> r) or one
    branch at an argument whose children are all leaves (linear
    left-hand sides that differ only by distinct constructors applied to
    variables at that argument, with plain variables elsewhere)."""
    report = is_inductively_sequential(program)
    return report.ok and all(
        isinstance(tree, Leaf) or len(tree.position) == 1
        and all(isinstance(child, Leaf) for child in tree.children)
        for tree in report.trees.values())


def deterministically_evaluable(t, program):
    """True when every node of t's needed narrowing tree, under the
    default bounds, has at most one step and the tree is complete, False
    when a node has more, and None when a bound was hit first."""
    result = search(t, program)
    if any(node.offered > 1 for node in result.root.nodes()):
        return False
    return True if result.complete else None


def parent_variant(rule, theta):
    """`Rule.variant` as it was before variants built their parts on
    demand: the left-hand side, right-hand side and variables under
    theta at once, without the checks of `__post_init__`."""
    variant = object.__new__(Rule)
    variant.__dict__.update(
        lhs=theta.apply(rule.lhs), rhs=theta.apply(rule.rhs),
        label=rule.label, variables=tuple(map(theta.apply, rule.variables)))
    return variant


def parent_leaf_rule(pattern, rule):
    """The rule of a definitional-tree leaf as `deftree._build` built it
    before leaves held variants: the program rule matched onto the
    leaf's pattern, its right-hand side under the match, through the
    checks of `Rule.__init__`."""
    return Rule(pattern, match(rule.lhs, pattern).apply(rule.rhs), rule.label)


def renaming(gen, variables):
    """Rename all given variables apart with one shared suffix drawn from
    `gen` (`suffixed`): the reference that tests compare rule variants
    with."""
    names = gen.suffixed(variables)
    return Substitution._of(dict(zip(variables, map(Var, names))))


def parent_renamed(rule, gen):
    """`Rule.renamed` with the eager `parent_variant`."""
    return parent_variant(rule, renaming(gen, rule.variables))


class ParentFreshVars:
    """`FreshVars` as it was when it added every name it drew to the
    names it skips (with `suffixed` under its old name `_suffixed`): the
    reference for the one that skips only the avoided names."""

    def __init__(self, avoid=(), start=0):
        self._used = {v.name for v in avoid}
        self._counter = start

    def reserve(self, variables):
        self._used.update(v.name for v in variables)

    def _next(self):
        self._counter += 1
        return self._counter

    def fresh(self):
        while True:
            name = f"V{self._next()}"
            if name not in self._used:
                self._used.add(name)
                return Var(name)

    def fresh_tuple(self, n):
        return tuple(self.fresh() for _ in range(n))

    def suffixed(self, variables):
        while True:
            suffix = f"_{self._next()}"
            names = [v.name + suffix for v in variables]
            if self._used.isdisjoint(names):
                self._used.update(names)
                return names

    def skip(self, variables):
        """The reference of `FreshVars.skip`: draw the names and drop them."""
        self.suffixed(variables)


def parent_linear_walk(pattern, goal):
    """`linear_walk` as it was, from a stack of (pattern subterm, goal
    subterm, goal position) triples, leftmost on top, that extends a
    position at every node: the reference of the walk over a
    pattern's shape."""
    demanded, equations = [], []
    stack = [(pattern, goal, ())]
    while stack:
        p, g, at = stack.pop()
        if isinstance(p, Var) or isinstance(g, Var):
            equations.append((p, g))
        elif g.root.kind == OPERATION and at:  # not the goal's own root
            demanded.append(at)
        elif p.root != g.root:
            return Fail()  # constructor clash
        else:
            stack.extend((p.args[i - 1], g.args[i - 1], at + (i,))
                         for i in range(len(p.args), 0, -1))
    if demanded:
        return Demand(tuple(demanded))
    return equations


def parent_match(pattern, t):
    """`match` as it was: its bindings go through the checked
    `Substitution` constructor, which drops the identity ones."""
    bound = {}
    stack = [(pattern, t)]
    while stack:
        p, u = stack.pop()
        if isinstance(p, Var):
            if p in bound:
                if bound[p] != u:
                    return None
            else:
                bound[p] = u
        else:
            if isinstance(u, Var) or p.root != u.root:
                return None
            stack.extend(zip(p.args, u.args))
    return Substitution(bound)


def parent_rewrite_step(t, position, rule):
    """`rewrite_step` as it was: the rule's own parts rewrite."""
    redex = subterm_at(t, position)
    return replace_at(t, position, match(rule.lhs, redex).apply(rule.rhs))


def parent_narrow(t, step):
    """`narrow` as it was, in two passes: the step's substitution is
    applied to the whole term, then the rule's source is matched against
    the rebuilt redex and the path above it is rebuilt again."""
    t = step.subst.apply(t)
    source = step.rule.source
    redex = subterm_at(t, step.position)
    theta = parent_match(source.lhs, redex)
    if theta is None:
        raise ValueError(f"rule {step.rule} does not match {redex}")
    return replace_at(t, step.position, theta.apply(source.rhs))


def parent_solve(pairs):
    """The unifier that `_solve` replaced: it builds a `Substitution`
    for every pair it reads and every binding it makes."""
    sub = {}

    def bind(x, t):
        if x in vars_of(t):
            return False  # occurs check
        one = Substitution({x: t})
        for y in list(sub):
            sub[y] = one.apply(sub[y])
        sub[x] = t
        return True

    queue = list(pairs)
    while queue:
        a, b = queue.pop(0)
        a = Substitution(sub).apply(a)
        b = Substitution(sub).apply(b)
        if a == b:
            continue
        if isinstance(a, Var):
            if not bind(a, b):
                return None
        elif isinstance(b, Var):
            if not bind(b, a):
                return None
        else:
            if a.root != b.root:
                return None
            queue = list(zip(a.args, b.args)) + queue
    return Substitution(sub)


def answer_set(result):
    """Bounded answers as a hashable set for comparison up to renaming.

    Search already restricts each answer to the goal variables and
    canonically renames the leftover free variables, so string identity
    is comparison up to renaming here.
    """
    return {(str(sigma), str(value)) for sigma, value in result.answers}


def is_instance_of(general: Substitution, special: Substitution, variables) -> bool:
    """Whether `special` equals theta after `general` on the given
    variables, for a single common theta."""
    variables = list(variables)
    tup = Symbol("tup", len(variables), CONSTRUCTOR)
    wide = App(tup, tuple(general.apply(x) for x in variables))
    narrow_ = App(tup, tuple(special.apply(x) for x in variables))
    wide = canonical_rename([wide])[0]
    return match(wide, narrow_) is not None


def is_idempotent(sigma: Substitution) -> bool:
    """Whether no variable of sigma's domain occurs in its images."""
    image_vars = set()
    for t in sigma.mapping.values():
        image_vars.update(vars_of(t))
    return image_vars.isdisjoint(sigma.mapping)


def eager_leaves(root):
    """(leaf, arcs, composed substitution) for every leaf of a narrowing
    tree, in preorder.  The substitution is the left fold
    compose(step.subst, acc) along the root-to-leaf arcs: the reference
    for the lazily resolved answers and resultants.  Also asserts what
    `resolve_chain` relies on: each step substitution is idempotent, and
    its domain and image avoid every variable bound earlier on the path."""
    out = []

    def walk(node, path, acc, bound):
        if not node.children:
            out.append((node, path, acc))
        for step, child in node.children:
            sigma = step.subst
            touched = set(sigma.domain()).union(
                *(vars_of(sigma.apply(x)) for x in sigma.domain()))
            assert is_idempotent(sigma) and not touched & bound, step
            walk(child, path + (step,), compose(sigma, acc),
                 bound | set(sigma.domain()))

    walk(root, (), IDENTITY, frozenset())
    return out


def resultants_for(report, call):
    """The resultants that a `PEReport` holds for the specialized call."""
    for s, rs in report.resultants:
        if s == call:
            return rs
    raise KeyError(str(call))


def steps_view(steps, goal_vars):
    """(position, rule label, answer-relevant substitution) per step,
    canonically renamed for golden comparisons."""
    out = []
    for step in steps:
        images = [step.subst.apply(x) for x in goal_vars]
        renamed = canonical_rename(images, keep=goal_vars)
        sigma = Substitution(dict(zip(goal_vars, renamed)))
        out.append((step.position, step.rule.label, str(sigma)))
    return out
