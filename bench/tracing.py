"""Span tracing of nspec's layers, installed from outside the package.

`Tracer.install` replaces public functions of `nspec` at runtime with
wrappers that record one span per call: its name, start, end and
parent.  Every module attribute that refers to a wrapped function is
replaced, so calls between modules (for instance `narrowing.search`
calling `terms.compose`) are seen too.  A recursive function gets a span
for its outermost call only.  Spans stay in memory until `summary`.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# Layer functions, as (span name, module, attribute path).  The span
# name is <module>.<function>; the printer App.__str__ is `terms.str`.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("terms.compose", "nspec.terms", "compose"),
    ("terms.linear_unify", "nspec.terms", "linear_unify"),
    ("terms.match", "nspec.terms", "match"),
    ("terms.replace_at", "nspec.terms", "replace_at"),
    ("terms.str", "nspec.terms", "App.__str__"),
    ("program.Rule.renamed", "nspec.program", "Rule.renamed"),
    ("syntax.parse_program", "nspec.syntax", "parse_program"),
    ("syntax.parse_term", "nspec.syntax", "parse_term"),
    ("deftree.is_inductively_sequential", "nspec.deftree",
     "is_inductively_sequential"),
    ("narrowing.search", "nspec.narrowing", "search"),
    ("narrowing.nns", "nspec.narrowing", "nns"),
    ("narrowing.lns", "nspec.narrowing", "lns"),
    ("narrowing.narrow", "nspec.narrowing", "narrow"),
    ("narrowing.rewrite_normalize", "nspec.narrowing", "rewrite_normalize"),
    ("peval.pe_control", "nspec.peval", "pe_control"),
    ("peval.partial_evaluate", "nspec.peval", "partial_evaluate"),
    ("peval.unfold", "nspec.peval", "unfold"),
    ("peval.resultants", "nspec.peval", "resultants"),
    ("peval.abstract_add", "nspec.peval", "abstract_add"),
    ("peval.msg", "nspec.peval", "msg"),
    ("peval.embeds", "nspec.peval", "embeds"),
    ("peval.closed", "nspec.peval", "closed"),
    ("peval.rename_term", "nspec.peval", "rename_term"),
    ("cli.main", "nspec.cli", "main"),
)

LAYERS = ("terms", "program", "syntax", "deftree", "narrowing", "peval", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = [name for name, _, _ in TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._open: List[int] = []
        # Spans are recorded only while this is set: around the timed
        # calls, not around the benchmark's own bookkeeping.
        self.enabled = False
        self._undo: List[Tuple[object, str, object]] = []
        # Outermost abstract_add calls that changed S, for changed_ratio.
        self.abstract_add_changed = 0

    def _wrap(self, fn: Callable, name_id: int, count_changes: bool) -> Callable:
        start, end, name, parent, stack = (
            self.start, self.end, self.name, self.parent, self._open)
        active = [False]

        def traced(*args, **kwargs):
            if active[0] or not self.enabled:
                return fn(*args, **kwargs)
            active[0] = True
            span = len(start)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
                active[0] = False
            if count_changes and result:
                self.abstract_add_changed += 1
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "nspec" or n.startswith("nspec.")]
        for name_id, (label, module_name, path) in enumerate(TARGETS):
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name_id, label == "peval.abstract_add")
            if outer:  # a method: patch the class only
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner: object, attr: str, original: object,
               wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def calls(self) -> Dict[str, int]:
        """Span count per name."""
        out = dict.fromkeys(self.names, 0)
        for name_id in self.name:
            out[self.names[name_id]] += 1
        return out

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """(calls, self seconds) per span name.  Self time is a span's
        duration minus the durations of its child spans, which nest
        inside it on this single thread."""
        n = len(self.start)
        child_time = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for span in range(n):
            up = parent[span]
            if up >= 0:
                child_time[up] += end[span] - start[span]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for span in range(n):
            name_id = self.name[span]
            calls[name_id] += 1
            self_s[name_id] += end[span] - start[span] - child_time[span]
        return {label: (calls[i], self_s[i]) for i, label in enumerate(self.names)}
