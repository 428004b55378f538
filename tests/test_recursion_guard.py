"""Source checks that keep term depth independent of Python's recursion
limit: no function in `nspec/terms.py`, `nspec/narrowing.py`,
`nspec/program.py`, `nspec/deftree.py`, `nspec/cli.py`,
`nspec/syntax.py`, `nspec/peval.py` or `nspec/oracle.py` calls itself,
and no module raises the limit instead."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

# A special method that calls the builtin which dispatches to it recurses
# as surely as a call by its own name.
_BUILTIN_OF = {"__str__": "str", "__repr__": "repr", "__getattr__": "getattr",
               "__hash__": "hash"}


def self_calling_functions(source: str):
    """Names of the functions (nested ones and methods included) whose
    body calls the function itself by name: `f(...)`, `self.f(...)`, or
    for `__str__`/`__repr__`/`__getattr__`/`__hash__` a call of
    `str`/`repr`/`getattr`/`hash` or one that is passed it as a
    function, as in `map(str, args)`."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        builtin = _BUILTIN_OF.get(fn.name)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else None
            passed = [] if name in ("isinstance", "issubclass") else node.args
            if name == fn.name or (
                    isinstance(callee, ast.Attribute) and callee.attr == fn.name
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "self") or builtin and any(
                    isinstance(x, ast.Name) and x.id == builtin
                    for x in [callee, *passed]):
                found.append(fn.name)
                break
    return found


def test_the_guard_finds_each_kind_of_self_call():
    source = '''
def size(t):
    return 1 + sum(size(a) for a in t.args)

def outer(t):
    def walk(u):
        return [walk(a) for a in u.args]
    return walk(t)

class T:
    def apply(self, t):
        return self.apply(t)

    def __str__(self):
        return ", ".join(map(str, self.args))

    def __repr__(self):
        return repr(self.args) if isinstance(self, T) else ""

class Name:
    def __str__(self):
        return self.name if isinstance(self.name, str) else ""

class Lazy:
    def __getattr__(self, name):
        return getattr(self.source, name)

class Node:
    def __hash__(self):
        return hash((self.root, self.args))

def apply(sigma, t):
    return sigma.apply(t)
'''
    assert self_calling_functions(source) == [
        "size", "walk", "apply", "__str__", "__repr__", "__getattr__",
        "__hash__"]


def test_terms_module_has_no_self_calling_function():
    """Equality, hashing, measuring the printed width and the size, the
    walk that lists the applications whose lazy slot is unfilled, the
    walkers, the flattening of a pattern and the overlay test of linear
    unification loop over explicit stacks."""
    source = (SRC / "nspec" / "terms.py").read_text(encoding="utf-8")
    defined = {fn.name for fn in ast.walk(ast.parse(source))
               if isinstance(fn, ast.FunctionDef)}
    assert {"__eq__", "__hash__", "_width", "_size", "_unfilled", "flatten",
            "linear_walk", "linear_overlay"} <= defined
    assert self_calling_functions(source) == []


def test_narrowing_steps_and_redexes_do_not_call_themselves():
    """The step descents, which also count steps and find redexes, the
    crossing of constructor prefixes, the rewrite loop, the tree
    expansion and the preorder of a narrowing tree, which its readers
    such as the JSON dump use, loop over explicit stacks; so does the
    rewrite loop's contraction of the focus (`_fire`), which slices the
    texts of the matched subterms at offsets counted by `terms._width`,
    itself a loop (see the `terms.py` check)."""
    source = (SRC / "nspec" / "narrowing.py").read_text(encoding="utf-8")
    defined = {fn.name for fn in ast.walk(ast.parse(source))
               if isinstance(fn, ast.FunctionDef)}
    walkers = {"nns", "lns", "_cross_prefix", "rewrite_normalize",
               "strategy_steps", "expand", "preorder", "node_to_dict",
               "_fire"}
    assert walkers <= defined
    assert "_nns" not in defined  # folded into the loop of nns
    assert self_calling_functions(source) == []


def test_peval_self_calls_are_the_known_ones():
    """None: `embeds`, `msg`, the renaming, the folding of candidates
    into S and the closedness check loop over explicit stacks."""
    source = (SRC / "nspec" / "peval.py").read_text(encoding="utf-8")
    defined = {fn.name for fn in ast.walk(ast.parse(source))
               if isinstance(fn, ast.FunctionDef)}
    assert {"embeds", "msg", "rename_term", "abstract_add", "closed"} <= defined
    assert self_calling_functions(source) == []


def test_program_module_has_no_self_calling_function():
    """A variant builds its parts from its source rule's attributes, not
    through its own `__getattr__`."""
    source = (SRC / "nspec" / "program.py").read_text(encoding="utf-8")
    assert self_calling_functions(source) == []


def test_deftree_and_cli_self_calls_are_the_known_ones():
    """None: the tree builder and the preorder of a definitional tree
    loop over explicit stacks; the uniform transform and the text and
    JSON forms read the preorder."""
    walkers = {"deftree": {"_build", "preorder", "uniform_transform"},
               "cli": {"_tree_lines", "_tree_dict", "_narrow_tree_lines"}}
    for module, names in walkers.items():
        source = (SRC / "nspec" / f"{module}.py").read_text(encoding="utf-8")
        assert names <= {fn.name for fn in ast.walk(ast.parse(source))
                         if isinstance(fn, ast.FunctionDef)}, module
        assert self_calling_functions(source) == [], module


def test_syntax_module_has_no_self_calling_function():
    """The term parser climbs precedence over explicit stacks, and the
    printer prints terms through `App.__str__`, a loop."""
    source = (SRC / "nspec" / "syntax.py").read_text(encoding="utf-8")
    assert self_calling_functions(source) == []


def test_oracle_self_calls_are_the_known_ones():
    """None: `_compositions` loops over the cut points of a sum."""
    source = (SRC / "nspec" / "oracle.py").read_text(encoding="utf-8")
    assert "_compositions" in source
    assert self_calling_functions(source) == []


def test_no_module_raises_the_recursion_limit():
    offenders = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                 if "setrecursionlimit" in path.read_text(encoding="utf-8")]
    assert offenders == []
