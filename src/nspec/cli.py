"""Command-line front end.

Subcommands: check (program diagnostics and definitional trees), eval
(narrowing or rewriting of a goal), uniform (pattern-flattening
transform), peval (partial evaluation), tree (narrowing tree dump), and
oracle (brute-force debugging aids).

Exit codes: 0 success, 1 usage error, 2 unparsable or ill-formed input,
3 program-class violation, 4 partial-evaluation control failure.  The
oracle's rewriting search visits at most 100,000 distinct terms per
reachability question; past that it stops with an error and exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Iterator, List, Optional, TextIO

from . import __version__
from .deftree import DefTree, Leaf, ProgramClassError, is_inductively_sequential, preorder, uniform_transform
from .narrowing import Bounds, Node, node_to_dict, rewrite_normalize, search
from .oracle import VisitedCapError, ground_solutions, rewrites_to
from .peval import PEControlError, UnfoldPolicy, pe_control
from .program import Program, ProgramError, add_strict_equality, validate
from .syntax import ParseError, parse_program, parse_term, print_program
from .terms import FreshVars, is_constructor_term


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for
    parse errors, so usage problems are remapped to 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _integer(low: int, message: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < low:
        raise argparse.ArgumentTypeError(message)
    return value


_positive = functools.partial(_integer, 1, "must be at least 1")
_non_negative = functools.partial(_integer, 0, "must not be negative")


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="nspec", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"nspec {__version__}")
    parser.add_argument("--seed", type=_non_negative, default=0,
                        help="starting index for generated variable names")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_ArgumentParser)

    p_check = sub.add_parser("check", help="validate a program and show its "
                             "definitional trees")
    p_check.add_argument("file")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--tie-break", choices=("leftmost", "rightmost"),
                         default="leftmost")

    p_eval = sub.add_parser("eval", help="narrow or rewrite a goal")
    p_eval.add_argument("file")
    p_eval.add_argument("-e", "--expr", required=True, help="goal term")
    p_eval.add_argument("--strategy", choices=("needed", "lazy", "rewrite"),
                        default="needed")
    p_eval.add_argument("--max-steps", type=_positive, default=25)
    p_eval.add_argument("--max-nodes", type=_positive, default=2000)
    p_eval.add_argument("--max-solutions", type=_positive, default=None)
    p_eval.add_argument("--tree", metavar="OUT.json",
                        help="also dump the narrowing tree as JSON")

    p_uniform = sub.add_parser("uniform", help="flatten nested patterns into "
                               "a uniform program")
    p_uniform.add_argument("file")
    p_uniform.add_argument("-o", "--output", help="write here instead of stdout")

    p_peval = sub.add_parser("peval", help="partially evaluate a program")
    p_peval.add_argument("file")
    p_peval.add_argument("-s", "--specialize", action="append", required=True,
                         metavar="CALL", help="call to specialize (repeatable)")
    p_peval.add_argument("--depth", type=_positive, default=2)
    p_peval.add_argument("--whistle", choices=("on", "off"), default="on")
    p_peval.add_argument("--max-iters", type=_positive, default=32)
    p_peval.add_argument("-o", "--output", help="write the specialized "
                         "program here instead of stdout")
    p_peval.add_argument("--map", metavar="MAP.json", dest="map_out",
                         help="write the call renaming as JSON")

    p_tree = sub.add_parser("tree", help="print a bounded narrowing tree")
    p_tree.add_argument("file")
    p_tree.add_argument("-e", "--expr", required=True, help="goal term")
    p_tree.add_argument("--strategy", choices=("needed", "lazy"),
                        default="needed")
    p_tree.add_argument("--max-steps", type=_positive, default=25)
    p_tree.add_argument("--max-nodes", type=_positive, default=2000)
    p_tree.add_argument("--format", choices=("text", "json"), default="text")

    p_oracle = sub.add_parser("oracle", help="brute-force debugging oracles")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True,
                                         parser_class=_ArgumentParser)
    p_rw = oracle_sub.add_parser("rewrites", help="can the term rewrite to "
                                 "the target?")
    p_rw.add_argument("file")
    p_rw.add_argument("-e", "--expr", required=True)
    p_rw.add_argument("-t", "--target", required=True)
    p_rw.add_argument("--max-steps", type=_positive, default=25)
    p_sol = oracle_sub.add_parser("solutions", help="enumerate ground "
                                  "solutions of an equation")
    p_sol.add_argument("file")
    p_sol.add_argument("-e", "--expr", required=True, help="eq(l, r) equation")
    p_sol.add_argument("-k", "--size", type=_positive, default=3,
                       help="largest ground term size substituted")
    p_sol.add_argument("--max-steps", type=_positive, default=25)

    return parser


def _load(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return add_strict_equality(parse_program(text))


def _tree_lines(tree: DefTree, indent: str = "") -> List[str]:
    """Each node of a definitional tree indented under its parent, in
    preorder (`deftree.preorder`), so any pattern depth prints."""
    lines: List[str] = []
    for node, depth in preorder(tree):
        pad = indent + "  " * depth
        if isinstance(node, Leaf):
            lines.append(f"{pad}leaf {node.pattern} -> {node.rule.rhs}")
        else:
            lines.append(f"{pad}branch {node.pattern} at {list(node.position)}")
    return lines


def _tree_dict(tree: DefTree) -> dict:
    """The JSON form of a definitional tree, built in preorder
    (`deftree.preorder`), so any pattern depth converts."""
    level: List[dict] = []  # the forms of the current node's ancestors
    for node, depth in preorder(tree):
        if isinstance(node, Leaf):
            out = {"kind": "leaf", "pattern": str(node.pattern),
                   "rhs": str(node.rule.rhs), "rule": node.rule.label}
        else:
            out = {"kind": "branch", "pattern": str(node.pattern),
                   "position": list(node.position), "children": []}
        if depth:
            level[depth - 1]["children"].append(out)
        level[depth:] = [out]
    return level[0]


def _cmd_check(args) -> int:
    program = _load(args.file)
    report = validate(program)
    trees = is_inductively_sequential(program, args.tie_break)
    if args.format == "json":
        payload = {
            "left_linear": report.left_linear,
            "constructor_based": report.constructor_based,
            "overlaps": [
                {"rule": o.rule, "other": o.other,
                 "position": list(o.position), "mgu": repr(o.mgu)}
                for o in report.overlaps
            ],
            "orthogonal": report.orthogonal,
            "inductively_sequential": trees.ok,
            "not_sequential": list(trees.failures),
            "trees": {name: _tree_dict(tree)
                      for name, tree in trees.trees.items()},
        }
        _write_json(payload, sys.stdout)
        return 0
    yn = lambda flag: "yes" if flag else "no"
    print(f"left-linear: {yn(report.left_linear)}")
    print(f"constructor-based: {yn(report.constructor_based)}")
    if report.overlaps:
        print("overlaps:")
        for o in report.overlaps:
            print(f"  {o.rule} with {o.other} at {list(o.position)} "
                  f"mgu {o.mgu}")
    else:
        print("overlaps: none")
    if trees.ok:
        print("inductively sequential: yes")
    else:
        print("inductively sequential: no "
              f"({', '.join(trees.failures)})")
    for name, tree in trees.trees.items():
        print(f"tree for {name}:")
        for line in _tree_lines(tree, "  "):
            print(line)
    return 0


def _narrow_tree_lines(root: Node) -> List[str]:
    """Each node indented under its parent, preceded by its arc, in
    preorder (`Node.preorder`), so any tree depth prints."""
    lines: List[str] = []
    for step, node, depth in root.preorder():
        indent = "    " * depth
        if step is not None:
            lines.append(f"{indent[:-2]}at {list(step.position)} "
                         f"{step.rule.label or step.rule} {step.subst}")
        lines.append(f"{indent}{node.term}  [{node.status}]")
    return lines


def _cmd_eval(args) -> int:
    if args.strategy == "rewrite" and args.tree:
        _parser().error("--tree needs a narrowing strategy; "
                        "--strategy rewrite builds no tree")
    program = _load(args.file)
    goal = parse_term(args.expr, program.signature)
    if args.strategy == "rewrite":
        try:
            final, trace, suspended = rewrite_normalize(goal, program,
                                                        args.max_steps)
        except ProgramClassError:
            print(f"goal: {goal}")  # as a search prints it before this error
            raise
        print(f"goal: {trace[0]}")
        for line in trace[1:]:
            print(f"-> {line}")
        if suspended:
            print(f"suspended at: {trace[-1]}")
        elif is_constructor_term(final):
            print(f"normal form: {trace[-1]}")
        else:
            print(f"incomplete (bounds reached) at: {trace[-1]}")
        return 0
    print(f"goal: {goal}")
    bounds = Bounds(args.max_steps, args.max_nodes, args.max_solutions)
    gen = FreshVars(start=args.seed)
    result = search(goal, program, args.strategy, bounds, gen)
    for answer, value in result.answers:
        print(f"answer {answer} result {value}")
    state = "complete" if result.complete else "incomplete (bounds reached)"
    print(f"{len(result.answers)} answer(s), {state}")
    if args.tree:
        with open(args.tree, "w", encoding="utf-8") as handle:
            _write_json(node_to_dict(result.root), handle)
    return 0


def _json_text(value) -> Iterator[str]:
    """`json.dumps(value, indent=2)` for dicts with string keys, lists and
    scalars, in chunks, from an explicit stack: a narrowing tree nests
    three containers per level, deeper than the `json` module's
    recursive encoder can go, and its text can be far larger than it."""
    # Containers and scalars to encode, with their nesting level, and
    # the text between them.
    stack: List[object] = [(value, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            yield item
            continue
        v, level = item
        if not (isinstance(v, (dict, list)) and v):
            yield json.dumps(v)
            continue
        pad = "\n" + "  " * (level + 1)
        is_dict = isinstance(v, dict)
        yield "{" if is_dict else "["
        stack.append("\n" + "  " * level + ("}" if is_dict else "]"))
        entries = list(v.items()) if is_dict else [(None, x) for x in v]
        for i in reversed(range(len(entries))):
            key, x = entries[i]
            stack.append((x, level + 1))
            stack.append(("," if i else "") + pad
                         + (json.dumps(key) + ": " if is_dict else ""))


def _write_json(value, handle: TextIO) -> None:
    """Write `_json_text(value)` and a newline to handle, chunk by chunk."""
    handle.writelines(_json_text(value))
    handle.write("\n")


def _cmd_uniform(args) -> int:
    program = _load(args.file)
    text = print_program(uniform_transform(program))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_peval(args) -> int:
    program = _load(args.file)
    calls = [parse_term(text, program.signature) for text in args.specialize]
    policy = UnfoldPolicy(depth=args.depth, whistle=args.whistle == "on")
    outcome = pe_control(program, calls, policy, args.max_iters)
    text = print_program(outcome.result.program)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output} "
              f"({len(outcome.result.rules)} specialized rule(s), "
              f"{outcome.iterations} iteration(s))")
    else:
        print(text, end="")
    if args.map_out:
        mapping = {str(s): str(p) for s, p in outcome.result.renaming.items()}
        with open(args.map_out, "w", encoding="utf-8") as handle:
            _write_json(mapping, handle)
    return 0


def _cmd_tree(args) -> int:
    program = _load(args.file)
    goal = parse_term(args.expr, program.signature)
    bounds = Bounds(args.max_steps, args.max_nodes, None)
    gen = FreshVars(start=args.seed)
    result = search(goal, program, args.strategy, bounds, gen)
    if args.format == "json":
        _write_json(node_to_dict(result.root), sys.stdout)
    else:
        for line in _narrow_tree_lines(result.root):
            print(line)
    return 0


def _cmd_oracle(args) -> int:
    program = _load(args.file)
    if args.oracle_command == "rewrites":
        t = parse_term(args.expr, program.signature)
        target = parse_term(args.target, program.signature)
        ok = rewrites_to(program, t, target, args.max_steps)
        print("yes" if ok else "no")
        return 0
    equation = parse_term(args.expr, program.signature)
    solutions = ground_solutions(program, equation, args.size, args.max_steps)
    for sigma in solutions:
        print(str(sigma))
    print(f"{len(solutions)} solution(s)")
    return 0


_DISPATCH = {
    "check": _cmd_check,
    "eval": _cmd_eval,
    "uniform": _cmd_uniform,
    "peval": _cmd_peval,
    "tree": _cmd_tree,
    "oracle": _cmd_oracle,
}


@functools.cache
def _parser() -> _ArgumentParser:
    """The parser, built once per process: `parse_args` returns a new
    namespace and copies the lists of `append` options, so reusing it
    changes no result."""
    return build_parser()


# The exit code of each error a command may end in, tried in this order.
_EXIT_CODES = {ParseError: 2, ProgramError: 2, ProgramClassError: 3,
               PEControlError: 4, OSError: 1, ValueError: 1, VisitedCapError: 1}


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
