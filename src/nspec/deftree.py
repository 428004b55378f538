"""Definitional trees, inductive sequentiality, and the uniformity transform.

A definitional tree organizes the left-hand sides of one operation into
nested case distinctions on constructor symbols.  Branch nodes carry the
variable position being scrutinized (the inductive position); leaves
carry one rule, a variant of its program rule over the variables of the
leaf's pattern, whose sides are built on their first read.  Trees
compare and hash by identity.
"""

from __future__ import annotations

from itertools import count, islice
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .program import Program, Rule, Signature
from .terms import (
    App,
    OPERATION,
    Position,
    Substitution,
    Symbol,
    Var,
    replace_at,
    subterm_at,
    vars_of,
)


class ProgramClassError(Exception):
    """The program violates the class a strategy or transform needs."""


class Leaf(NamedTuple):
    pattern: App
    rule: Rule  # a variant of the program rule: rule.lhs is the pattern


class Branch:
    """A case distinction on the constructor at `position`:
    `constructors[i]` is the constructor that child i's pattern has there."""

    __slots__ = ("pattern", "position", "children", "constructors")

    def __init__(self, pattern: App, position: Position,
                 children: Tuple["DefTree", ...],
                 constructors: Tuple[Symbol, ...]) -> None:
        self.pattern = pattern
        self.position = position
        self.children = children
        self.constructors = constructors


DefTree = Union[Leaf, Branch]


def preorder(tree: DefTree) -> Iterator[Tuple[DefTree, int]]:
    """(node, depth) for every node of a definitional tree in preorder,
    children in tree order, from an explicit stack: any pattern depth
    works.  A node's parent is the last node yielded one level up."""
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if isinstance(node, Branch):
            stack.extend((child, depth + 1) for child in reversed(node.children))


def _build(f: Symbol, rules: Tuple[Rule, ...],
           tie_break: str) -> Optional[DefTree]:
    """The definitional tree of `build_tree`, or None, built depth first
    from an explicit stack of open branches.

    A hole of a pattern is one of its variables, with its position and
    the subterms that the left-hand sides have there, by rule index; it
    qualifies if those of the pattern's rules are all applications.  A
    pattern without a qualifying hole is a leaf if it has one rule (a
    variant of it over the holes' variables), and else has no tree,
    nor has the whole.  The holes of a child pattern are its parent's
    with the split one replaced by its arguments, so they stay in
    position order and are the pattern's variables in order; the root
    pattern f(V1..Vn) has one per argument.  The variables are named
    V1, V2, ... in the order they are drawn."""
    names = map("V{}".format, count(1))
    xs = tuple(map(Var, islice(names, f.arity)))
    pattern = App(f, xs)
    holes = [((i,), x, [r.lhs.args[i - 1] for r in rules])
             for i, x in enumerate(xs, 1)]
    members: Sequence[int] = range(len(rules))  # the pattern's rules
    scan = reversed if tie_break == "rightmost" else iter
    # The open branches, innermost last: pattern, holes, the index of
    # the split hole, the children's constructors, the children built so
    # far, and the (constructor, rules) of the children still to build,
    # last first.
    stack: List[Tuple[App, list, int, Tuple[Symbol, ...], List[DefTree],
                      List[Tuple[Symbol, List[int]]]]] = []
    while True:
        for k in scan(range(len(holes))):
            subs = holes[k][2]
            if all([subs[j].__class__ is App for j in members]):
                groups: Dict[Symbol, List[int]] = {}
                for j in members:
                    groups.setdefault(subs[j].root, []).append(j)
                stack.append((pattern, holes, k, tuple(groups), [],
                              list(groups.items())[::-1]))
                break
        else:
            if len(members) > 1:
                return None
            tree: DefTree = Leaf(pattern, rules[members[0]]._variant(
                [x.name for _, x, _ in holes]))
            # Hand the tree to its parent, closing each branch that has
            # all its children, up to one with a child left to build.
            while stack:
                stack[-1][4].append(tree)
                if stack[-1][5]:
                    break
                parent, parent_holes, k, ctors, children, _ = stack.pop()
                tree = Branch(parent, parent_holes[k][0], tuple(children), ctors)
            else:
                return tree
        parent, parent_holes, k, _, _, todo = stack[-1]
        ctor, members = todo.pop()
        pos, _, subs = parent_holes[k]
        xs = tuple(map(Var, islice(names, ctor.arity)))
        pattern = replace_at(parent, pos, App(ctor, xs))
        holes = parent_holes[:k] + [
            (pos + (i,), x, {j: subs[j].args[i - 1] for j in members})
            for i, x in enumerate(xs, 1)] + parent_holes[k + 1:]


def build_tree(f: Symbol, rules: Sequence[Rule],
               tie_break: str = "leftmost") -> Optional[DefTree]:
    """A definitional tree for f over the given rules, or None.

    The inductive position of each branch is the leftmost qualifying one
    (or rightmost, under the alternative tie-break), where a qualifying
    position is a variable of the pattern at which every rule of the
    pattern has a constructor.  No other choice is ever tried, as none
    could succeed where this one fails:

    - Take a pattern p, its rules R, and a qualifying position o, and
      suppose some tree for (p, R) exists.  Every root-to-leaf path of
      that tree branches at o, since each leaf is a variant of a
      left-hand side, which has a constructor at o.
    - At each of those branches keep only the child for constructor c,
      and drop the children left without rules: the result is a tree
      for p with c(x1..xn) at o and the rules that have c at o.
    - So splitting at any qualifying position keeps every child
      solvable, and by induction the first one succeeds whenever any
      choice does.  Absence of a result means no tree exists at all.
    - Two left-hand sides that are variants have the same constructor
      at every split, so they are never separated: they reach a pattern
      with two rules and no qualifying position, and there is no tree.
    """
    if tie_break not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown tie break {tie_break!r}")
    if not rules:
        return None
    for r in rules:
        if r.lhs.root != f:
            raise ProgramClassError(f"rule {r} does not define {f}")
        if not r.is_left_linear() or not r.is_constructor_based():
            return None
    return _build(f, tuple(rules), tie_break)


class ISReport(NamedTuple):
    ok: bool
    trees: Dict[str, DefTree]
    failures: Tuple[str, ...]


def is_inductively_sequential(program: Program,
                              tie_break: str = "leftmost") -> ISReport:
    """Whether every defined operation has a definitional tree: the
    trees by operation name, and the operations without one."""
    trees: Dict[str, DefTree] = {}
    failures: List[str] = []
    for op in program.defined_operations():
        tree = build_tree(op, program.rules_for(op.name), tie_break)
        if tree is None:
            failures.append(op.name)
        else:
            trees[op.name] = tree
    return ISReport(not failures, trees, tuple(failures))


def require_class(program: Program, strategy: str, head: str
                  ) -> Dict[str, DefTree]:
    """The program-class gate of a strategy, run once per search, unfold,
    specialization, rewrite or transform; the step descents run none.

    Needed narrowing requires an inductively sequential program: the
    error, raised only here, is `head` followed by the operations without
    a definitional tree, and the trees are returned.  Lazy narrowing
    requires left-linear constructor-based rules and uses no trees.
    """
    if strategy == "needed":
        report = is_inductively_sequential(program)
        if not report.ok:
            raise ProgramClassError(head + ", ".join(report.failures))
        return report.trees
    if strategy == "lazy":
        bad = [r for r in program.rules
               if not r.is_left_linear() or not r.is_constructor_based()]
        if bad:
            raise ProgramClassError(
                "lazy narrowing requires left-linear constructor-based rules; "
                "offending: " + "; ".join(str(r) for r in bad))
        return {}
    raise ValueError(f"unknown strategy {strategy!r}")


def uniform_transform(program: Program) -> Program:
    """Flatten nested patterns into a uniform program.

    Each function's definitional tree is walked top-down: the root branch
    keeps the function's name, every deeper branch becomes a fresh
    operation f_k (`Signature.fresh_name`, k counting per function from
    1) applied to the variables of its pattern in left-to-right order,
    and each branch level emits one rule per child constructor (its
    right-hand side is the original rule's at a leaf, or a call to the
    child's fresh operation at an inner branch).  The tree is walked
    in preorder (`preorder`), so any pattern depth works.
    """
    trees = require_class(program, "needed", "not inductively sequential: ")

    signature = Signature(program.signature)
    taken: set = set()
    new_rules: List[Rule] = []

    for op in program.defined_operations():
        k = 1
        # The branches on the path to the current node, with their calls.
        level: List[Tuple[Branch, App]] = []
        for node, depth in preorder(trees[op.name]):
            lhs = node.pattern  # at the root f(x1..xn), its own call
            if depth:
                parent, head = level[depth - 1]
                x = subterm_at(parent.pattern, parent.position)
                binding = Substitution({x: subterm_at(node.pattern, parent.position)})
                lhs = binding.apply(head)
            if isinstance(node, Leaf):
                new_rules.append(Rule(lhs, node.rule.rhs, f"U{len(new_rules) + 1}"))
                continue
            call = lhs
            if depth:
                name, k = signature.fresh_name(f"{op.name}_", k, taken)
                args = vars_of(node.pattern)
                sym = Symbol(name, len(args), OPERATION)
                signature.declare(sym)
                call = App(sym, args)
                new_rules.append(Rule(lhs, call, f"U{len(new_rules) + 1}"))
            level[depth:] = [(node, call)]

    return Program(signature, new_rules, program.has_strict_equality)
