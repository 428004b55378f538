"""Terms, positions, substitutions, and unification.

A term is either a variable or the application of a declared symbol
(constructor or operation) to exactly arity many argument terms.
Positions are tuples of 1-based argument indices; the empty tuple
addresses the root.  All values here are immutable.  Every walk over
a term is a loop over an explicit stack, mostly `_var_occurrences` or
`_rebuild`, so term depth is limited by memory, not by recursion.  An
`App` caches whether it is ground and whether it is a constructor
term; the walkers do not enter ground subterms, and the constructor
test reads the flag, so their cost follows the non-ground part of a
term.
"""

from __future__ import annotations

from operator import is_
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

CONSTRUCTOR = "constructor"
OPERATION = "operation"

_put = object.__setattr__  # writes a field of a frozen instance, in __init__


class Frozen:
    """Base of the immutable value classes: assigning or deleting an
    attribute raises `AttributeError`.  `_fields` names the attributes
    that `==`, the hash and the printed form read, in that order; a
    subclass whose values are hot writes its own `__eq__` and
    `__hash__`."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self) -> int:
        return _hash_values(self)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._fields, _values(self)))
        return f"{self.__class__.__name__}({shown})"


def _values(v: Frozen) -> tuple:
    return tuple([getattr(v, name) for name in v._fields])


def _hash_values(v: Frozen) -> int:
    """The hash of v's fields, left to a helper as in `_hash_bindings`."""
    return hash(_values(v))


class Symbol(Frozen):
    """A declared constructor or operation with a fixed arity."""

    __slots__ = ("name", "arity", "kind", "_hash")
    _fields = ("name", "arity", "kind")

    def __init__(self, name: str, arity: int, kind: str) -> None:
        if arity < 0:
            raise ValueError(f"negative arity for symbol {name!r}")
        if kind not in (CONSTRUCTOR, OPERATION):
            raise ValueError(f"unknown symbol kind {kind!r}")
        _put(self, "name", name)
        _put(self, "arity", arity)
        _put(self, "kind", kind)
        _put(self, "_hash", hash((name, arity, kind)))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Symbol:
            return NotImplemented
        return (self.name == other.name and self.arity == other.arity
                and self.kind == other.kind)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


class Var(Frozen):
    """A variable; its hash, the hash of its name, is computed once."""

    __slots__ = ("name", "_hash")
    _fields = ("name",)

    # The facts `App` caches, as they hold for every variable.
    ground = False
    constructor_term = True

    def __init__(self, name: str) -> None:
        _set_var_name(self, name)
        _set_var_hash(self, hash(name))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Var:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


class App(Frozen):
    """A symbol applied to its arguments.

    Two facts are computed from the arguments once, at construction,
    and take no part in equality, hashing or printing: `ground` (no
    variable occurs) and `constructor_term` (no operation occurs).
    Walkers use them to skip whole subterms.  The hash is computed on
    first use (few terms are ever hashed) and kept in `_hash`; it is
    the hash of `(root, args)`, found bottom-up by a loop
    (`_hash_app`), so a term of any depth can be hashed.  The length of
    its text is measured and kept in the same way (`_width`), and so is
    its number of nodes (`_size`).
    """

    __slots__ = ("root", "args", "ground", "constructor_term", "_hash",
                 "_width", "_size")
    _fields = ("root", "args")

    def __init__(self, root: Symbol, args: Tuple["Term", ...] = ()) -> None:
        if len(args) != root.arity:
            raise ValueError(f"{root} applied to {len(args)} argument(s)")
        ground = True
        constructor_term = root.kind == CONSTRUCTOR
        for a in args:
            if not a.ground:
                ground = False
            if not a.constructor_term:
                constructor_term = False
        _set_root(self, root)
        _set_args(self, args)
        _set_ground(self, ground)
        _set_constructor_term(self, constructor_term)

    def __eq__(self, other: object) -> bool:
        """Structural equality, from an explicit stack of application
        pairs (a generated one would recurse once per level); a subterm
        shared by both sides is not entered."""
        if other.__class__ is not App:
            return NotImplemented
        if self is other:
            return True
        pairs: List[Tuple[App, App]] = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a.root is not b.root and a.root != b.root:
                return False
            for x, y in zip(a.args, b.args):
                if x is y:
                    continue
                if x.__class__ is App:
                    if y.__class__ is not App:
                        return False
                    pairs.append((x, y))
                elif y.__class__ is not Var or x.name != y.name:
                    return False
        return True

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return _hash_app(self)

    def __str__(self) -> str:
        """The term as text, from a loop: each application's first
        argument is printed in place, and only the other arguments and
        the text between them wait on a stack.  The closing parentheses
        of a run of unary applications are printed as one string."""
        out: List[str] = []
        stack: List[Union[Term, str]] = [self]  # subterms and text to print
        while stack:
            u = stack.pop()
            if u.__class__ is str:
                out.append(u)
                continue
            closing = 0  # unary applications entered and not yet closed
            while u.__class__ is App and u.args:
                out += (u.root.name, "(")
                args = u.args
                if len(args) == 1:
                    closing += 1
                else:
                    if closing:
                        stack.append(")" * closing)
                        closing = 0
                    stack.append(")")
                    for a in args[:0:-1]:
                        stack += (a, ", ")
                u = args[0]
            out.append(u.name if u.__class__ is Var else u.root.name)
            if closing:
                out.append(")" * closing)
        return "".join(out)

    def __repr__(self) -> str:
        """The term as text, inside `App(...)`: printing loops, so a
        term of any depth can be shown."""
        return f"App({self.__str__()!r})"


Term = Union[Var, App]
Position = Tuple[int, ...]

# The writers of the `Var` and `App` fields: their slot descriptors'
# `__set__`, which skips the attribute lookup of `_put` on the two
# classes built most often.
_set_var_name = Var.name.__set__
_set_var_hash = Var._hash.__set__
_set_root = App.root.__set__
_set_args = App.args.__set__
_set_ground = App.ground.__set__
_set_constructor_term = App.constructor_term.__set__
_set_app_hash = App._hash.__set__
_set_app_width = App._width.__set__
_set_app_size = App._size.__set__


def _unfilled(t: App, slot: str) -> List[App]:
    """t and every application below it whose lazy `slot` is not filled
    yet, breadth-first, so children come after their parents.  A filled
    application is not entered: all below it is filled too."""
    unfilled = [t]
    for u in unfilled:  # the list grows as it is walked
        for a in u.args:
            if a.__class__ is App and getattr(a, slot, None) is None:
                unfilled.append(a)
    return unfilled


def _hash_app(t: App) -> int:
    """Store the hash of t and of every subterm not hashed yet, children
    before parents (`_unfilled`), so that hashing `(root, args)` only
    reads stored hashes."""
    for u in reversed(_unfilled(t, "_hash")):
        _set_app_hash(u, hash((u.root, u.args)))
    return t._hash


def _width(t: Term) -> int:
    """len(str(t)), without printing t.  An application's width is
    stored in its `_width` slot on first use, with that of every
    subterm not measured yet, children before parents (`_unfilled`):
    its symbol's name, and per argument the argument's width and 2
    characters, "(" and ")" or ", "."""
    if t.__class__ is Var:
        return len(t.name)
    try:
        return t._width
    except AttributeError:
        pass
    for u in reversed(_unfilled(t, "_width")):
        n = len(u.root.name) + 2 * len(u.args)
        for a in u.args:
            n += len(a.name) if a.__class__ is Var else a._width
        _set_app_width(u, n)
    return t._width


def _size(t: Term) -> int:
    """The number of nodes of t, its subterm occurrences.  An
    application's size is stored in its `_size` slot on first use, with
    that of every subterm not measured yet, children before parents
    (`_unfilled`): 1, and per argument the argument's size."""
    if t.__class__ is Var:
        return 1
    try:
        return t._size
    except AttributeError:
        pass
    for u in reversed(_unfilled(t, "_size")):
        n = 1
        for a in u.args:
            n += 1 if a.__class__ is Var else a._size
        _set_app_size(u, n)
    return t._size


def is_operation_rooted(t: Term) -> bool:
    return isinstance(t, App) and t.root.kind == OPERATION


def _preorder(t: Term) -> Iterator[Term]:
    """The subterms of t in preorder, like `subterms` without positions."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, App) and u.args:
            stack.extend(reversed(u.args))


def _var_occurrences(t: Term) -> Iterator[Var]:
    """The variable occurrences of t from left to right; ground
    subterms are not entered."""
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            yield u
        elif not u.ground:
            stack.extend(reversed(u.args))


def is_constructor_term(t: Term) -> bool:
    """True iff every symbol occurring in t is a constructor."""
    return t.constructor_term


def vars_of(t: Term) -> Tuple[Var, ...]:
    """Variables of t in left-to-right order of first occurrence."""
    return tuple(dict.fromkeys(_var_occurrences(t)))


def is_linear(t: Term) -> bool:
    """True iff no variable occurs twice in t."""
    occurrences = list(_var_occurrences(t))
    return len(occurrences) == len(set(occurrences))


def subterms(t: Term) -> Iterator[Tuple[Position, Term]]:
    """All (position, subterm) pairs of t in preorder."""
    stack: List[Tuple[Position, Term]] = [((), t)]
    while stack:
        pos, u = stack.pop()
        yield pos, u
        if isinstance(u, App):
            for i in range(len(u.args), 0, -1):
                stack.append((pos + (i,), u.args[i - 1]))


def _path(t: Term, pos: Sequence[int]) -> List[Term]:
    """The subterms of t along pos, t first; rejects out-of-range indices."""
    u = t
    path = [u]
    for depth, i in enumerate(pos):
        if isinstance(u, Var) or not 1 <= i <= len(u.args):
            raise ValueError(
                f"invalid position {tuple(pos)} in {t}: index {i} "
                f"(component {depth + 1}) is out of range")
        u = u.args[i - 1]
        path.append(u)
    return path


def subterm_at(t: Term, pos: Sequence[int]) -> Term:
    """The subterm of t at pos; rejects out-of-range indices."""
    return _path(t, pos)[-1]


def replace_at(t: Term, pos: Sequence[int], s: Term) -> Term:
    """A copy of t with the subterm at pos replaced by s."""
    path = _path(t, pos)
    for u, i in zip(path[-2::-1], reversed(pos)):
        s = App(u.root, u.args[:i - 1] + (s,) + u.args[i:])
    return s


class Substitution:
    """A finite map from variables to terms.

    Identity bindings are dropped.  Instances are immutable and hashable;
    application is simultaneous (one pass), which is the right semantics
    both for idempotent unifiers and for literal matchers.  The
    substitutions of a derivation path are not composed into one of
    these step by step: they are kept in a `Chain` and resolved at the
    leaf by `resolve_chain`.
    """

    __slots__ = ("_map",)

    def __init__(self, bindings: Union[Dict[Var, Term], Iterable[Tuple[Var, Term]], None] = None):
        items = bindings.items() if isinstance(bindings, dict) else (bindings or ())
        m: Dict[Var, Term] = {}
        for x, t in items:
            if not isinstance(x, Var):
                raise TypeError(f"substitution domain must be variables, got {x!r}")
            if t != x:
                m[x] = t
        object.__setattr__(self, "_map", m)

    @classmethod
    def _of(cls, m: Dict[Var, Term]) -> "Substitution":
        """A substitution over m itself, without the checks of the
        constructor: for maps built in nspec that cannot hold a non-`Var`
        key or an identity binding (renamings, solver results, the
        one-binding parts of a needed step).  m must not change later."""
        sigma = object.__new__(cls)
        object.__setattr__(sigma, "_map", m)
        return sigma

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Substitution is immutable")

    @property
    def mapping(self) -> Dict[Var, Term]:
        return dict(self._map)

    def domain(self) -> Tuple[Var, ...]:
        return tuple(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, Substitution) and self._map == other._map

    def __hash__(self) -> int:
        return _hash_bindings(self._map)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{x} -> {t}" for x, t in sorted(self._map.items(), key=lambda kv: kv[0].name))
        return "{" + inner + "}"

    def apply(self, t: Term) -> Term:
        """sigma(t), sharing every subterm that sigma does not change."""
        return _applied(self._map, t)


def _hash_bindings(m: Dict[Var, Term]) -> int:
    """The hash of a substitution's bindings, independent of their order.
    Like `App.__hash__`, `Substitution.__hash__` leaves its call of
    `hash` to a helper: tests/test_recursion_guard.py reads a `__hash__`
    that calls `hash` as one that calls itself."""
    return hash(frozenset(m.items()))


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """The substitution mapping t to outer(inner(t)).

    Its cost grows with the domains and the term sizes of both, so
    nothing in nspec composes along a derivation: the search and the
    partial evaluator keep a `Chain` and call `resolve_chain` at its
    leaf, and the needed descent resolves a step's bindings, kept in one
    map, the same way (`narrowing.nns`).
    """
    m: Dict[Var, Term] = {}
    for x in inner.domain():
        m[x] = outer.apply(inner.apply(x))
    for y in outer.domain():
        if y not in m:
            m[y] = outer.apply(y)
    return Substitution(m)


# The bindings of one derivation path, newest first: (sigma_n, (...,
# (sigma_1, None))).  Extending a path costs one tuple; the composition
# sigma_n o ... o sigma_1 is read off with `resolve_chain`.
Chain = Optional[Tuple[Substitution, "Chain"]]


_FINISH = object()  # on the stack of `_rebuild`: finish the term below


def _rebuild(t: Term, final: Dict[Var, Term],
             pending: Dict[Var, Term] = {},
             name: Optional[Callable[[Var], Var]] = None) -> Term:
    """t with each variable of `final` replaced by its image as it is,
    and each variable of `pending` by its binding rebuilt in turn, which
    is then stored in `final`; with `name`, any other variable is
    replaced by `name` of it, also stored in `final`.  Variables are met
    from left to right.  Unchanged subterms, ground ones among them, are
    shared; ground subterms are not entered.  `apply` passes its map as
    `final`; `resolve_chain` passes the triangular bindings of a chain
    as `pending`, where no variable may reach itself; `canonical_rename`
    passes `name`, which draws the next canonical name.
    """
    stack: List[object] = [t]
    out: List[Term] = []
    while stack:
        u = stack.pop()
        if u is _FINISH:
            u = stack.pop()
            if isinstance(u, Var):
                final[u] = out[-1]
                continue
            n = len(u.args)
            args = tuple(out[-n:])
            del out[-n:]
            out.append(u if all(map(is_, args, u.args)) else App(u.root, args))
        elif isinstance(u, Var):
            if u in final:
                out.append(final[u])
            elif u in pending:
                stack += (u, _FINISH, pending[u])
            elif name is None:
                out.append(u)
            else:
                final[u] = v = name(u)
                out.append(v)
        elif u.ground:
            out.append(u)
        else:
            stack += (u, _FINISH)
            stack += reversed(u.args)
    return out[0]


def resolve_chain(chain: Chain, variables: Iterable[Var]) -> Substitution:
    """The composition sigma_n o ... o sigma_1 of a chain, restricted to
    variables.

    The chain is read as one triangular substitution: each variable's
    binding is looked up once and resolved through the other bindings.
    That equals the composition only if every step substitution is
    idempotent and its domain and image avoid every variable bound by
    an earlier step, as along a derivation, where a bound variable never
    occurs again.  A chain that breaks this can resolve to a different
    map or, if two bindings refer to each other, never return.
    """
    bound: Dict[Var, Term] = {}
    while chain is not None:
        sigma, chain = chain
        bound.update(sigma._map)
    resolved: Dict[Var, Term] = {}
    return Substitution({x: _rebuild(x, resolved, bound) for x in variables})


def _applied(m: Dict[Var, Term], t: Term) -> Term:
    """`Substitution.apply` on a plain map."""
    if isinstance(t, Var):
        return m.get(t, t)
    if not m or t.ground:
        return t
    return _rebuild(t, m)


def _solve(pairs: List[Tuple[Term, Term]]) -> Optional[Substitution]:
    """Most general unifier of a list of term pairs, or None.

    Deterministic: pairs are processed first-in first-out, the arguments
    of a decomposed pair ahead of the rest, and when two variables meet,
    the left one is bound.  Each pair is read through the bindings so
    far, and a new binding is applied to the earlier images, so the map
    is idempotent; it is a plain dict until the one `Substitution`
    returned.
    """
    sub: Dict[Var, Term] = {}
    pending = pairs[::-1]  # the next pair on top
    while pending:
        a, b = pending.pop()
        a = _applied(sub, a)
        b = _applied(sub, b)
        if a == b:
            continue
        if isinstance(a, Var):
            x, t = a, b
        elif isinstance(b, Var):
            x, t = b, a
        elif a.root != b.root:
            return None
        else:
            pending.extend(zip(reversed(a.args), reversed(b.args)))
            continue
        if x in _var_occurrences(t):
            return None  # occurs check
        one = {x: t}
        for y, image in sub.items():
            sub[y] = _applied(one, image)
        sub[x] = t
    return Substitution._of(sub)


def unify(s: Term, t: Term) -> Optional[Substitution]:
    """Most general unifier of s and t, or None if they do not unify."""
    return _solve([(s, t)])


def match(pattern: Term, t: Term) -> Optional[Substitution]:
    """A substitution theta with theta(pattern) == t, or None.

    The result is kept literal (not re-normalized): matching f(X, Y)
    against f(Y, X) legitimately yields the swap {X -> Y, Y -> X}.  Its
    keys are pattern variables, so it is built without the checks of
    the constructor; identity bindings are dropped by a name test.  A
    ground subterm of the pattern binds nothing, so it is compared with
    its target whole (by identity, then `==`), not node by node.
    """
    bound: Dict[Var, Term] = {}
    stack = [(pattern, t)]
    while stack:
        p, u = stack.pop()
        if isinstance(p, Var):
            if p in bound:
                if bound[p] != u:
                    return None
            else:
                bound[p] = u
        elif p.ground:
            if p is not u and p != u:
                return None
        else:
            if isinstance(u, Var) or p.root != u.root:
                return None
            stack.extend(zip(p.args, u.args))
    return Substitution._of({x: u for x, u in bound.items()
                             if u.__class__ is not Var or u.name != x.name})


class Succ(Frozen):
    __slots__ = _fields = ("subst",)

    def __init__(self, subst: Substitution) -> None:
        _put(self, "subst", subst)


class Fail(Frozen):
    __slots__ = ()


class Demand(Frozen):
    """Demanded goal positions; `subterms`, the goal subterms a walk met
    there, take no part in equality or printing."""

    __slots__ = ("positions", "subterms")
    _fields = ("positions",)

    def __init__(self, positions: Tuple[Position, ...],
                 subterms: Tuple[Term, ...] = ()) -> None:
        _put(self, "positions", positions)
        _put(self, "subterms", subterms)


LUResult = Union[Succ, Fail, Demand]


def linear_unify(pattern: App, goal: App) -> LUResult:
    """Linear unification of a pattern f(d1..dn) with a goal term f(t1..tn).

    Walks the pattern's shape (`flatten`, built for the call) against
    the goal.  A constructor of the pattern meeting an operation-rooted
    goal subterm records that goal position as demanded; a constructor
    clash fails.  Precedence: any clash makes the whole result Fail;
    otherwise any demanded position makes it Demand (bindings are
    discarded); otherwise the collected bindings are solved into an
    idempotent Succ substitution.
    """
    if isinstance(pattern, Var) or isinstance(goal, Var) or pattern.root != goal.root:
        raise ValueError(f"root mismatch between {pattern} and {goal}")
    if not is_linear(pattern):
        raise ValueError(f"pattern {pattern} is not linear")
    shared = set(vars_of(pattern)) & set(vars_of(goal))
    if shared:
        raise ValueError(
            f"pattern and goal share variables: {sorted(v.name for v in shared)}")
    walked = linear_walk(flatten(pattern), goal)
    if not isinstance(walked, list):
        return walked
    sigma = _solve(walked)
    if sigma is None:
        return Fail()
    return Succ(sigma)


Shape = Tuple[Tuple[int, int, Position, Term, int], ...]


def flatten(pattern: App) -> Shape:
    """The arguments of a pattern in preorder, one entry per node: the
    entry of its parent (-1 for the pattern itself), its argument index,
    its position, the node, and the index just past its subtree.  Built
    from an explicit stack; the subtree ends are filled in backwards,
    children before parents."""
    rows: List[Tuple[int, int, Position, Term]] = []
    stack = [(-1, i, (i,), pattern.args[i - 1])
             for i in range(len(pattern.args), 0, -1)]
    while stack:
        parent, i, at, p = stack.pop()
        k = len(rows)
        rows.append((parent, i, at, p))
        if p.__class__ is App:
            stack.extend((k, j, at + (j,), p.args[j - 1])
                         for j in range(len(p.args), 0, -1))
    ends = list(range(1, len(rows) + 1))
    for k in range(len(rows) - 1, -1, -1):
        parent = rows[k][0]
        if parent >= 0 and ends[k] > ends[parent]:
            ends[parent] = ends[k]
    return tuple(row + (end,) for row, end in zip(rows, ends))


def linear_walk(shape: Shape, goal: App
                ) -> Union[Fail, Demand, List[Tuple[Term, Term]]]:
    """The walk of `linear_unify` over its pattern's shape, without its
    checks and before solving: Fail on a constructor clash, else Demand
    of the demanded positions (with the goal subterms met there), else
    the equations (pattern subterm, goal subterm) to solve, each in
    preorder.  A goal subterm is read from its parent's slot, and an
    equation or a demand jumps over the pattern's subtree.  Fail and
    Demand do not depend on the names of the variables, and nor does
    whether the equations unify (`linear_overlay`), so a caller may walk
    a rule's own left-hand side before renaming it apart."""
    demanded: List[Position] = []
    met: List[Term] = []
    equations: List[Tuple[Term, Term]] = []
    n = len(shape)
    # slots[k]: the goal subterm entry k matched; slots[-1], the goal.
    slots: List[Term] = [goal] * (n + 1)
    k = 0
    while k < n:
        parent, i, at, p, end = shape[k]
        g = slots[parent].args[i - 1]
        if p.__class__ is Var or g.__class__ is Var:
            equations.append((p, g))
            k = end
        elif g.root.kind == OPERATION:
            demanded.append(at)
            met.append(g)
            k = end
        elif p.root is not g.root and p.root != g.root:
            return Fail()  # constructor clash
        else:
            slots[k] = g
            k += 1
    if demanded:
        return Demand(tuple(demanded), tuple(met))
    return equations


def linear_overlay(equations: List[Tuple[Term, Term]]) -> bool:
    """Whether the equations of a `linear_walk` unify once the pattern
    is renamed apart from the goal, decided without the renaming.

    An equation either has a pattern variable on the left, which occurs
    nowhere else (the pattern is linear) and so constrains nothing, or
    equates a constructor pattern with a goal variable.  The patterns
    equated to one goal variable have disjoint variables, each occurring
    once, so they unify iff no two of them carry different symbols at a
    common position: the test is pairwise, and no occurs check can fail.
    """
    seen: Dict[Var, List[Term]] = {}
    pending: List[Tuple[Term, Term]] = []  # pattern pairs to overlay
    for p, g in equations:
        if isinstance(p, Var):
            continue
        earlier = seen.get(g)
        if earlier is None:
            seen[g] = [p]
        else:
            pending.extend((p, q) for q in earlier)
            earlier.append(p)
    while pending:
        a, b = pending.pop()
        if isinstance(a, Var) or isinstance(b, Var):
            continue
        if a.root != b.root:
            return False
        pending.extend(zip(a.args, b.args))
    return True


class FreshVars:
    """Derivation-scoped source of fresh variables and rule renamings.

    Fresh variables are named V<n>; renamed-apart copies of rule
    variables get a _<n> suffix.  n comes from one counter that only
    grows, and the names to avoid (`avoid`, then `reserve`: goal and
    program variables, and names drawn elsewhere) are skipped.  Drawn
    names are not recorded, for none can equal an earlier one: V<n> has
    no underscore, and a suffixed name ends in its own _<n>, which no
    _<m> with m != n can also end (the shorter would end the longer's
    digits).  A suffix _<n> can only collide with an avoided name whose
    text after its last underscore is n, so those tails are kept too
    (`_tails`), and `skip` builds names only when n is one of them.
    """

    def __init__(self, avoid: Iterable[Var] = (), start: int = 0):
        self._avoid: Set[str] = set()
        self._tails: Set[str] = set()
        self._counter = start
        self.reserve(avoid)

    def reserve(self, variables: Iterable[Var]) -> None:
        names = [v.name for v in variables]
        self._avoid.update(names)
        self._tails.update(name.rpartition("_")[2] for name in names if "_" in name)

    def fresh(self) -> Var:
        while True:
            self._counter += 1
            name = f"V{self._counter}"
            if name not in self._avoid:
                return Var(name)

    def fresh_tuple(self, n: int) -> Tuple[Var, ...]:
        return tuple(self.fresh() for _ in range(n))

    def suffixed(self, variables: Sequence[Var]) -> List[str]:
        """The names of the variables renamed apart: each with the next
        suffix that avoids them all."""
        while True:
            self._counter += 1
            suffix = f"_{self._counter}"
            names = [v.name + suffix for v in variables]
            if self._avoid.isdisjoint(names):
                return names

    def skip(self, variables: Sequence[Var]) -> None:
        """Advance exactly as `suffixed` would, which builds names only
        when an avoided name ends in the next suffix."""
        if str(self._counter + 1) in self._tails:
            self.suffixed(variables)
        else:
            self._counter += 1


def canonical_rename(terms: Sequence[Term], keep: Iterable[Var] = (),
                     prefix: str = "V") -> List[Term]:
    """Rename the variables of terms (except those in keep) canonically.

    Variables are renamed to <prefix>1, <prefix>2, ... in order of first
    occurrence across the whole sequence, skipping names that collide
    with kept variables.  Used to compare answers up to renaming.  Each
    variable is named when the one rebuilding walk per term meets it
    first; a variable that already has its name stays the same object,
    so an already canonical term comes back as itself.
    """
    mapping: Dict[Var, Term] = {v: v for v in keep}
    taken = {v.name for v in mapping}
    counter = 0

    def name(x: Var) -> Var:
        nonlocal counter
        while True:
            counter += 1
            drawn = f"{prefix}{counter}"
            if drawn not in taken:
                break
        return x if x.name == drawn else Var(drawn)

    return [_rebuild(t, mapping, name=name) for t in terms]


def variant_key(t: Term) -> Term:
    """t with its variables renamed canonically: two terms are variants
    (equal up to a renaming of variables) iff their keys are equal, so a
    set of keys answers a variant test with one lookup."""
    return canonical_rename([t])[0]
