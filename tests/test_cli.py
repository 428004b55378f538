"""Command-line interface: outputs, files, exit codes, determinism."""

import functools
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from conftest import list_text, nat_text, random_program, traced_peak
from nspec import cli, oracle
from nspec.syntax import parse_program, print_program

DATA = Path(__file__).parent / "data"

# The CLI subprocesses import this checkout's nspec, installed or not.
SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

LEQ = str(DATA / "leq.flp")
APPEND = str(DATA / "append.flp")
DOUBLE = str(DATA / "double.flp")
FG = str(DATA / "uniform_fg.flp")
LOOP = str(DATA / "loop.flp")

NOT_SEQUENTIAL = (
    "constructors a/0 b/0 ;\noperations f/3 ;\n"
    "f(a, b, X) -> a ;\nf(b, X, a) -> a ;\nf(X, a, b) -> a ;\n")


def run(*args):
    return subprocess.run([sys.executable, "-m", "nspec.cli", *args],
                          capture_output=True, text=True, env=ENV)


def run_below_recursion_limit(limit, *args):
    """`run` with Python's recursion limit lowered to `limit`."""
    code = (f"import sys; sys.setrecursionlimit({limit}); "
            "from nspec.cli import main; sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=ENV)


class TestCheck:
    def test_report(self):
        proc = run("check", LEQ)
        assert proc.returncode == 0
        assert proc.stdout.startswith(
            "left-linear: yes\n"
            "constructor-based: yes\n"
            "overlaps: none\n"
            "inductively sequential: yes\n"
            "tree for leq:\n"
            "  branch leq(V1, V2) at [1]\n"
            "    leaf leq(0, V2) -> true\n"
            "    branch leq(s(V3), V2) at [2]\n"
            "      leaf leq(s(V3), 0) -> false\n"
            "      leaf leq(s(V3), s(V4)) -> leq(V3, V4)\n")

    def test_json_format(self):
        proc = run("check", LEQ, "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["left_linear"] is True
        assert payload["constructor_based"] is True
        assert payload["orthogonal"] is True
        assert payload["inductively_sequential"] is True
        assert payload["not_sequential"] == []
        assert payload["overlaps"] == []
        assert payload["trees"]["leq"]["kind"] == "branch"
        assert payload["trees"]["leq"]["position"] == [1]

    def test_tie_break_flag(self):
        proc = run("check", LEQ, "--format", "json", "--tie-break", "rightmost")
        payload = json.loads(proc.stdout)
        assert payload["trees"]["eq"]["position"] == [2]

    def test_non_sequential_program_still_reports(self, tmp_path):
        f = tmp_path / "p.flp"
        f.write_text(NOT_SEQUENTIAL)
        proc = run("check", str(f))
        assert proc.returncode == 0
        assert "inductively sequential: no (f)" in proc.stdout

    def test_deep_left_hand_side(self, tmp_path):
        """A pattern 1,500 constructors deep: the definitional tree is
        built, printed, used for a needed step and flattened by the
        uniform transform without recursion, and converted to JSON."""
        k = 1500
        f = tmp_path / "deep.flp"
        f.write_text("constructors 0/0 s/1 ;\noperations f/1 ;\n"
                     f"f({'s(' * k}0{')' * k}) -> 0 ;\n")
        proc = run("check", str(f))
        assert proc.returncode == 0, proc.stderr[-300:]
        lines = proc.stdout.splitlines()
        assert lines[3:5] == ["inductively sequential: yes", "tree for f:"]
        branch, leaf = lines[5 + k:7 + k]  # the tree of f has k + 2 lines
        assert branch.startswith("  " * (k + 1) + f"branch f({'s(' * k}V{k + 1})")
        assert leaf == "  " * (k + 2) + f"leaf f({'s(' * k}0{')' * k}) -> 0"
        assert lines[7 + k] == "tree for eq:"
        proc = run("eval", str(f), "-e", "f(X)")
        assert proc.returncode == 0, proc.stderr[-300:]
        assert proc.stdout.splitlines()[1:] == [
            f"answer {{X -> {'s(' * k}0{')' * k}}} result 0",
            "1 answer(s), complete"]
        proc = run("uniform", str(f))
        assert proc.returncode == 0, proc.stderr[-300:]
        rules = proc.stdout.splitlines()[3:]
        assert rules[:2] == ["f(s(V2)) -> f_1(V2) ;", "f_1(s(V3)) -> f_2(V3) ;"]
        assert rules[k - 1:k + 1] == [
            f"f_{k - 1}(s(V{k + 1})) -> f_{k}(V{k + 1}) ;", f"f_{k}(0) -> 0 ;"]
        # The JSON form spells each branch's position out one number a
        # line, so its size grows as k cubed (gigabytes at k = 1,500):
        # it is checked at a smaller depth, below a recursion limit that
        # the tree exceeds.
        k = 120
        f.write_text("constructors 0/0 s/1 ;\noperations f/1 ;\n"
                     f"f({'s(' * k}0{')' * k}) -> 0 ;\n")
        proc = run_below_recursion_limit(100, "check", str(f), "--format", "json")
        assert proc.returncode == 0, proc.stderr[-300:]
        payload = json.loads(proc.stdout)
        assert proc.stdout == json.dumps(payload, indent=2) + "\n"
        node, depth = payload["trees"]["f"], 0
        while node["kind"] == "branch":
            assert node["position"] == [1] * (depth + 1)
            [node], depth = node["children"], depth + 1
        assert (depth, node["pattern"]) == (k + 1, f"f({'s(' * k}0{')' * k})")

    def test_json_is_written_as_it_is_made(self, tmp_path):
        """The JSON text of a deep tree grows as the cube of the pattern
        depth, the tree as its square: written in chunks as it is made,
        the text is never held whole, and `check` allocates at its peak
        (`traced_peak`) less than half the text it writes.  Joining the
        text before writing it allocated about 2.6 times the text."""
        k = 150
        f = tmp_path / "deep.flp"
        f.write_text("constructors 0/0 s/1 ;\noperations f/1 ;\n"
                     f"f({'s(' * k}0{')' * k}) -> 0 ;\n")

        class Sink(io.TextIOBase):
            size = 0

            def write(self, text):
                self.size += len(text)
                return len(text)

        sink = Sink()

        def check():
            with redirect_stdout(sink):
                assert cli.main(["check", str(f), "--format", "json"]) == 0

        peak = traced_peak(check)
        assert sink.size > 5 * 10 ** 6 and peak < sink.size / 2, (peak, sink.size)


class TestEval:
    def test_needed_narrowing(self):
        proc = run("eval", LEQ, "-e", "leq(0, X + X) ~ true")
        assert proc.returncode == 0
        assert proc.stdout == (
            "goal: eq(leq(0, add(X, X)), true)\n"
            "answer {} result true\n"
            "1 answer(s), complete\n")

    def test_rewrite_strategy_prints_trace(self):
        proc = run("eval", LEQ, "-e", "s(0) + s(0)", "--strategy", "rewrite")
        assert proc.stdout == (
            "goal: add(s(0), s(0))\n"
            "-> s(add(0, s(0)))\n"
            "-> s(s(0))\n"
            "normal form: s(s(0))\n")

    def test_rewrite_strategy_reports_suspension(self):
        proc = run("eval", LEQ, "-e", "leq(X, 0 + 0)", "--strategy", "rewrite")
        assert proc.stdout == (
            "goal: leq(X, add(0, 0))\n"
            "suspended at: leq(X, add(0, 0))\n")

    def test_rewrite_suspends_under_a_constructor_prefix(self):
        proc = run("eval", LEQ, "-e", "s(leq(X, 0))", "--strategy", "rewrite")
        assert proc.stdout == (
            "goal: s(leq(X, 0))\n"
            "suspended at: s(leq(X, 0))\n")

    def test_rewrite_suspends_on_an_operation_without_rules(self, tmp_path):
        f = tmp_path / "norules.flp"
        f.write_text("constructors 0/0 s/1 ;\noperations f/1 g/1 ;\n"
                     "g(X) -> s(f(X)) ;\n")
        proc = run("eval", str(f), "-e", "g(0)", "--strategy", "rewrite")
        assert proc.stdout == (
            "goal: g(0)\n"
            "-> s(f(0))\n"
            "suspended at: s(f(0))\n")

    def test_rewrite_suspends_on_a_constructor_without_a_child(self):
        # h has the one rule h(s(X)) -> 0, and the inner call reaches 0.
        proc = run("eval", LOOP, "-e", "h(h(s(0)))", "--strategy", "rewrite")
        assert proc.stdout == (
            "goal: h(h(s(0)))\n"
            "-> h(0)\n"
            "suspended at: h(0)\n")

    def test_rewrite_suspends_on_a_variable_demanded_in_a_nested_call(self):
        proc = run("eval", LEQ, "-e", "leq(0 + s(0), X + 0)", "--strategy", "rewrite")
        assert proc.stdout == (
            "goal: leq(add(0, s(0)), add(X, 0))\n"
            "-> leq(s(0), add(X, 0))\n"
            "suspended at: leq(s(0), add(X, 0))\n")

    def test_rewrite_step_bound_is_reported_as_incomplete(self):
        proc = run("eval", LEQ, "-e", "add(" + "s(" * 150 + "0" + ")" * 150 + ", 0)",
                   "--strategy", "rewrite")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 + 25 + 1
        assert lines[-1] == "incomplete (bounds reached) at: " + lines[-2][3:]

    @pytest.mark.parametrize("goal, value", [
        ("leq(" + "s(" * 400 + "0" + ")" * 400 + ", 0)", "false"),
        ("leq(0, " + "s(" * 400 + "0" + ")" * 400 + ")", "true"),
    ])
    def test_rewrite_of_a_deep_goal(self, goal, value):
        proc = run("eval", LEQ, "-e", goal, "--strategy", "rewrite")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"goal: {goal}\n-> {value}\nnormal form: {value}\n"

    def test_rewrite_round_trip_of_a_term_deeper_than_the_recursion_limit(
            self, capsys):
        deep = "s(" * 10 ** 5 + "0" + ")" * 10 ** 5
        code = cli.main(["eval", LEQ, "-e", f"add(0, {deep})",
                         "--strategy", "rewrite"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == f"goal: add(0, {deep})\n-> {deep}\nnormal form: {deep}\n"

    def test_rewrite_through_a_call_beside_a_term_deeper_than_the_recursion_limit(
            self, capsys):
        """The call is in an operation frame, and the deep operand's text
        is cut from the kept text of each contractum."""
        deep = "s(" * 10 ** 5 + "0" + ")" * 10 ** 5
        shallower = deep[2:-1]
        code = cli.main(["eval", LEQ, "-e", f"leq(add(0, {deep}), s(0))",
                         "--strategy", "rewrite"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (f"goal: leq(add(0, {deep}), s(0))\n"
                       f"-> leq({deep}, s(0))\n-> leq({shallower}, 0)\n"
                       "-> false\nnormal form: false\n")

    def test_answers_deeper_than_the_recursion_limit(self):
        proc = run("eval", LEQ, "-e", "leq(X, Y) ~ true", "--max-steps", "600")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-1] == "500 answer(s), incomplete (bounds reached)"
        assert sum(line.startswith("answer ") for line in lines) == 500
        assert max(line.count("s(") for line in lines) > 900

    def test_long_derivation_ends_at_the_step_bound(self):
        proc = run("eval", LOOP, "-e", "g(0)",
                   "--max-steps", "5000", "--max-nodes", "10000")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "goal: g(0)\n"
            "0 answer(s), incomplete (bounds reached)\n")

    @pytest.mark.parametrize("strategy", ["needed", "lazy", "rewrite"])
    def test_calls_nested_deeper_than_the_recursion_limit(self, strategy):
        # Every step of the derivation descends through all nested calls.
        goal = "add(" * 1000 + "0" + ", 0)" * 1000
        proc = run("eval", LEQ, "-e", goal, "--strategy", strategy,
                   "--max-steps", "1100")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == f"goal: {goal}"
        if strategy == "rewrite":
            assert len(lines) == 1 + 1000 + 1
            assert lines[-2:] == ["-> 0", "normal form: 0"]
        else:
            assert lines[1:] == ["answer {} result 0", "1 answer(s), complete"]

    def test_rewrite_rejects_a_tree_file(self, tmp_path):
        out = tmp_path / "t.json"
        proc = run("eval", LEQ, "-e", "add(s(0), 0)", "--strategy", "rewrite",
                   "--tree", str(out))
        assert proc.returncode == 1 and proc.stdout == ""
        assert "error: --tree" in proc.stderr
        assert not out.exists()

    def test_max_solutions(self):
        proc = run("eval", LEQ, "-e", "leq(X, s(0)) ~ true",
                   "--strategy", "lazy", "--max-solutions", "2")
        assert proc.stdout == (
            "goal: eq(leq(X, s(0)), true)\n"
            "answer {X -> 0} result true\n"
            "answer {X -> s(0)} result true\n"
            "2 answer(s), incomplete (bounds reached)\n")

    def test_tree_dump(self, tmp_path):
        out = tmp_path / "tree.json"
        proc = run("eval", LEQ, "-e", "leq(0, 0)", "--tree", str(out))
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["term"] == "leq(0, 0)"
        assert payload["status"] == "inner"
        arc = payload["arcs"][0]
        assert (arc["position"], arc["rule"], arc["subst"]) == ([], "R1", {})
        assert arc["node"] == {"term": "true", "status": "success", "arcs": []}

    def test_answers_do_not_depend_on_seed(self):
        base = run("eval", LEQ, "-e", "leq(s(X), Y) ~ true",
                   "--max-solutions", "1")
        seeded = run("--seed", "7", "eval", LEQ, "-e", "leq(s(X), Y) ~ true",
                     "--max-solutions", "1")
        assert base.stdout == seeded.stdout
        assert "answer {X -> 0, Y -> s(V1)} result true" in base.stdout


def _rewrite_lines(path, goal, *options):
    """The exit code and output lines of `eval --strategy rewrite`, run
    in process."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["eval", path, "-e", goal, "--strategy", "rewrite",
                         *options])
    return code, out.getvalue().splitlines()


def _items(k, start=0):
    """k list items, s^(i mod 3)(0) for i from start: neighbours differ."""
    return [nat_text(i % 3) for i in range(start, start + k)]


class TestRewriteTraceInClosedForm:
    """Every line of a rewrite trace, against text built from string
    formulas, not from a printer: the trace is joined from the kept text
    of the constructor prefix and the rewritten subterm's, and must read
    as the whole term would."""

    @pytest.mark.parametrize("k, m", [(0, 0), (1, 3), (40, 0), (300, 7),
                                      (1000, 2)])
    def test_add(self, k, m):
        goal = f"add({nat_text(k)}, {nat_text(m)})"
        code, lines = _rewrite_lines(LEQ, goal, "--max-steps", "5000")
        assert code == 0
        assert lines == [f"goal: {goal}"] + [
            f"-> {'s(' * i}add({nat_text(k - i)}, {nat_text(m)}){')' * i}"
            for i in range(1, k + 1)] + [
            f"-> {nat_text(k + m)}", f"normal form: {nat_text(k + m)}"]

    @pytest.mark.parametrize("k, m", [(0, 2), (1, 0), (40, 5), (1000, 3)])
    def test_append(self, k, m):
        xs, ys = _items(k), _items(m, start=1)
        goal = f"append({list_text(xs)}, {list_text(ys)})"
        code, lines = _rewrite_lines(APPEND, goal, "--max-steps", "5000")
        assert code == 0
        assert lines == [f"goal: {goal}"] + [
            "-> " + "".join(f"cons({x}, " for x in xs[:i])
            + f"append({list_text(xs[i:])}, {list_text(ys)})" + ")" * i
            for i in range(1, k + 1)] + [
            f"-> {list_text(xs + ys)}", f"normal form: {list_text(xs + ys)}"]

    @staticmethod
    def _first_argument_lines(xs, right):
        """The lines of rewriting `cons(append(xs, nil), right)` up to
        its first argument's normal form."""
        return ["-> cons(" + "".join(f"cons({x}, " for x in xs[:i])
                + f"append({list_text(xs[i:])}, nil)" + ")" * i + f", {right})"
                for i in range(1, len(xs) + 1)] + [
            f"-> cons({list_text(xs)}, {right})"]

    def test_suspension_under_a_two_argument_prefix(self):
        """The first argument finishes; the call in focus then demands X,
        with a finished argument to its left and a pending one to its
        right."""
        xs = _items(60)
        right = f"cons(append(X, nil), append({list_text(_items(4))}, nil))"
        goal = f"cons(append({list_text(xs)}, nil), {right})"
        code, lines = _rewrite_lines(APPEND, goal, "--max-steps", "1000")
        assert code == 0
        assert lines == [f"goal: {goal}"] + self._first_argument_lines(
            xs, right) + [f"suspended at: cons({list_text(xs)}, {right})"]

    def test_step_bound_under_a_two_argument_prefix(self):
        """The bound stops the second call after j of its steps, between
        a finished argument and a pending call."""
        xs, ys, zs, j = _items(30), _items(50, start=1), _items(3), 20
        goal = (f"cons(append({list_text(xs)}, nil), "
                f"cons(append({list_text(ys)}, nil), "
                f"append({list_text(zs)}, nil)))")
        code, lines = _rewrite_lines(APPEND, goal, "--max-steps",
                                     str(len(xs) + 1 + j))
        pending = f"append({list_text(zs)}, nil)"
        stop = (f"cons({list_text(xs)}, cons("
                + "".join(f"cons({y}, " for y in ys[:j])
                + f"append({list_text(ys[j:])}, nil)" + ")" * j
                + f", {pending}))")
        assert code == 0
        assert lines[1:len(xs) + 2] == self._first_argument_lines(
            xs, f"cons(append({list_text(ys)}, nil), {pending})")
        assert lines[-2:] == [f"-> {stop}",
                              f"incomplete (bounds reached) at: {stop}"]
        assert len(lines) == 1 + len(xs) + 1 + j + 1


class TestUniform:
    def test_flattened_program_on_stdout(self):
        proc = run("uniform", FG)
        assert proc.returncode == 0
        assert proc.stdout == (
            "constructors a/0 b/0 true/0 ;\n"
            "operations f/2 g/1 eq/2 and/2 eq_1/1 eq_2/1 eq_3/1 ;\n"
            "\n"
            "f(V1, b) -> g(V1) ;\n"
            "g(a) -> a ;\n"
            "eq(a, V2) -> eq_1(V2) ;\n"
            "eq_1(a) -> true ;\n"
            "eq(b, V2) -> eq_2(V2) ;\n"
            "eq_2(b) -> true ;\n"
            "eq(true, V2) -> eq_3(V2) ;\n"
            "eq_3(true) -> true ;\n"
            "and(true, V2) -> V2 ;\n")

    def test_output_file(self, tmp_path):
        out = tmp_path / "out.flp"
        proc = run("uniform", FG, "-o", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert "eq_1(a) -> true ;" in out.read_text()


class TestPeval:
    def test_specialized_program_on_stdout(self):
        proc = run("peval", APPEND, "-s", "append(append(Xs, Ys), Zs)")
        assert proc.returncode == 0
        assert proc.stdout == (
            "constructors nil/0 cons/2 0/0 s/1 true/0 false/0 ;\n"
            "operations append_pe0/3 append_pe1/2 eq/2 and/2 ;\n"
            "\n"
            "append_pe0(nil, Ys, Zs) -> append_pe1(Ys, Zs) ;\n"
            "append_pe0(cons(V2, V3), Ys, Zs) -> "
            "cons(V2, append_pe0(V3, Ys, Zs)) ;\n"
            "append_pe1(nil, Zs) -> Zs ;\n"
            "append_pe1(cons(V2, V3), Zs) -> cons(V2, append_pe1(V3, Zs)) ;\n"
            "eq(nil, nil) -> true ;\n"
            "eq(cons(X1, X2), cons(Y1, Y2)) -> and(eq(X1, Y1), eq(X2, Y2)) ;\n"
            "eq(0, 0) -> true ;\n"
            "eq(s(X1), s(Y1)) -> eq(X1, Y1) ;\n"
            "eq(true, true) -> true ;\n"
            "eq(false, false) -> true ;\n"
            "and(true, X) -> X ;\n")

    def test_a_deep_right_hand_side(self, tmp_path):
        """Renaming, closedness and the folding of candidates into S loop
        over explicit stacks.  At a recursion limit of 100, a right-hand
        side of 120 nested calls stands for the 600 that used to end in
        a RecursionError at the default limit."""
        body = "X"
        for _ in range(120):
            body = f"add({body}, 0)"
        program = tmp_path / "deep.flp"
        program.write_text("constructors 0/0 s/1 ;\noperations add/2 f/1 ;\n"
                           "add(0, N) -> N ;\nadd(s(M), N) -> s(add(M, N)) ;\n"
                           f"f(X) -> {body} ;\n")
        args = ("peval", str(program), "--depth", "1",
                "-s", "f(X)", "-s", "add(X, Y)")
        proc = run_below_recursion_limit(100, *args)
        assert proc.returncode == 0, proc.stderr[-300:]
        assert proc.stdout.startswith(
            "constructors 0/0 s/1 true/0 ;\n"
            "operations f_pe0/1 add_pe1/2 add_pe2/1 eq/2 and/2 ;\n")
        assert proc.stdout == run(*args).stdout

    def test_equation_goal(self):
        """The residual of an equation goal calls the builtin eq/and,
        whose rules follow the specialized ones."""
        proc = run("peval", APPEND, "-s", "eq(append(Xs, Ys), cons(0, nil))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "constructors nil/0 cons/2 0/0 s/1 true/0 false/0 ;\n"
            "operations eq_pe0/2 append_pe1/2 eq/2 and/2 ;\n"
            "\n"
            "eq_pe0(nil, cons(V5, V6)) -> and(eq(V5, 0), eq(V6, nil)) ;\n"
            "eq_pe0(cons(V2, V3), Ys) -> "
            "and(eq(V2, 0), eq(append_pe1(V3, Ys), nil)) ;\n"
            "append_pe1(nil, Ys) -> Ys ;\n"
            "append_pe1(cons(V2, V4), Ys) -> cons(V2, append_pe1(V4, Ys)) ;\n"
            "eq(nil, nil) -> true ;\n"
            "eq(cons(X1, X2), cons(Y1, Y2)) -> and(eq(X1, Y1), eq(X2, Y2)) ;\n"
            "eq(0, 0) -> true ;\n"
            "eq(s(X1), s(Y1)) -> eq(X1, Y1) ;\n"
            "eq(true, true) -> true ;\n"
            "eq(false, false) -> true ;\n"
            "and(true, X) -> X ;\n")

    def test_output_and_map_files(self, tmp_path):
        out = tmp_path / "out.flp"
        mapping = tmp_path / "map.json"
        proc = run("peval", LEQ, "-s", "leq(X, add(X, Y))",
                   "-o", str(out), "--map", str(mapping))
        assert proc.returncode == 0
        assert proc.stdout == (
            f"wrote {out} (2 specialized rule(s), 1 iteration(s))\n")
        text = out.read_text()
        assert "leq_pe0(0, Y) -> true ;" in text
        assert "leq_pe0(s(V2), Y) -> leq_pe0(V2, Y) ;" in text
        assert mapping.read_bytes() == (
            b'{\n  "leq(X, add(X, Y))": "leq_pe0(X, Y)"\n}\n')
        run("peval", APPEND, "-s", "append(append(Xs, Ys), Zs)",
            "-o", str(out), "--map", str(mapping))
        assert mapping.read_bytes() == (
            b'{\n  "append(append(Xs, Ys), Zs)": "append_pe0(Xs, Ys, Zs)",\n'
            b'  "append(V7, Zs)": "append_pe1(V7, Zs)"\n}\n')

    def test_emitted_file_parses_back(self, tmp_path):
        from nspec.syntax import parse_program
        out = tmp_path / "out.flp"
        run("peval", APPEND, "-s", "append(append(Xs, Ys), Zs)",
            "-o", str(out))
        program = parse_program(out.read_text())
        specialized = [r for r in program.rules
                       if r.lhs.root.name.startswith("append_pe")]
        assert len(specialized) == 4

    def test_a_deep_call_ends_in_a_control_error(self):
        """Comparing the deep calls of S used to recurse once per level
        (the generated `App.__eq__`).  At a recursion limit of 100, a
        120-deep numeral stands for the 600-deep one of the default
        limit, which `embeds` takes minutes over."""
        proc = run_below_recursion_limit(
            100, "peval", LEQ, "-s", f"leq(X, {'s(' * 120}0{')' * 120})")
        assert proc.returncode == 4, proc.stderr[-300:]
        assert proc.stderr.startswith(
            "error: no closed specialization after 32 iterations")
        assert "Traceback" not in proc.stderr


class TestTree:
    def test_text_tree(self):
        proc = run("tree", LEQ, "-e", "leq(0, s(0))")
        assert proc.stdout == (
            "leq(0, s(0))  [inner]\n"
            "  at [] R1 {}\n"
            "    true  [success]\n")

    def test_json_tree(self):
        proc = run("tree", LEQ, "-e", "leq(0, s(0))", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["term"] == "leq(0, s(0))"
        assert len(payload["arcs"]) == 1

    def test_deep_tree_prints_without_recursion(self):
        proc = run("tree", LOOP, "-e", "g(0)", "--max-steps", "1200")
        assert proc.returncode == 0, proc.stderr[-300:]
        lines = proc.stdout.splitlines()
        assert len(lines) == 2401
        assert lines[-1].endswith("    g(0)  [incomplete]")
        assert lines[-2].endswith("  at [] R3 {}")

    def test_deep_json_tree_prints_without_recursion(self, tmp_path):
        """Three nested containers per tree level: 1,020 levels of JSON,
        past the `json` module's recursive encoder (and decoder, so the
        text is checked line by line)."""
        proc = run("tree", LOOP, "-e", "g(0)", "--max-steps", "340",
                   "--format", "json")
        assert proc.returncode == 0, proc.stderr[-300:]
        lines = proc.stdout.splitlines()
        # A node at tree depth d has its keys indented by 2 + 6 d.
        terms = [line for line in lines if line.lstrip().startswith('"term"')]
        assert len(terms) == 341
        assert terms[-1] == " " * 2042 + '"term": "g(0)",'
        assert " " * 2042 + '"status": "incomplete",' in lines
        assert lines[-1] == "}"
        out = tmp_path / "tree.json"
        proc = run("eval", LOOP, "-e", "g(0)", "--max-steps", "340",
                   "--tree", str(out))
        assert proc.returncode == 0, proc.stderr[-300:]
        assert out.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("args", [
        (LOOP, "-e", "g(0)", "--max-steps", "300"),
        (LEQ, "-e", "leq(X, add(X, Y))", "--max-steps", "4"),
        (LEQ, "-e", "leq(X, Y)", "--max-steps", "5", "--strategy", "lazy"),
        (APPEND, "-e", "eq(append(Xs, Ys), cons(0, nil))", "--max-steps", "6")])
    def test_json_tree_bytes_equal_the_json_module(self, args):
        from nspec.narrowing import Bounds, node_to_dict, search
        from nspec.program import add_strict_equality
        from nspec.syntax import parse_program, parse_term
        from nspec.terms import FreshVars

        proc = run("tree", *args, "--format", "json")
        assert proc.returncode == 0
        program = add_strict_equality(parse_program(Path(args[0]).read_text()))
        bounds = Bounds(int(args[4]), 2000, None)  # the CLI's default budget
        strategy = args[6] if len(args) > 5 else "needed"
        result = search(parse_term(args[2], program.signature), program,
                        strategy, bounds, FreshVars(start=0))
        assert proc.stdout == json.dumps(node_to_dict(result.root), indent=2) + "\n"

    def test_seed_offsets_fresh_names(self):
        base = run("tree", LEQ, "-e", "leq(X, s(0))", "--max-steps", "3")
        seeded = run("--seed", "7", "tree", LEQ, "-e", "leq(X, s(0))",
                     "--max-steps", "3")
        assert "{X -> s(V2)}" in base.stdout
        assert "{X -> s(V9)}" in seeded.stdout
        assert base.stdout != seeded.stdout


class TestOracle:
    def test_rewrites(self):
        assert run("oracle", "rewrites", LEQ, "-e", "s(0) + s(0)",
                   "-t", "s(s(0))").stdout == "yes\n"
        assert run("oracle", "rewrites", LEQ, "-e", "s(0) + s(0)",
                   "-t", "0").stdout == "no\n"

    def test_rewrites_to_a_deep_target(self):
        """The visited set compares 600-deep terms."""
        deep = "s(" * 600 + "0" + ")" * 600
        proc = run("oracle", "rewrites", LEQ, "-e", f"add(0, {deep})", "-t", deep)
        assert (proc.returncode, proc.stdout) == (0, "yes\n"), proc.stderr[-300:]

    def test_solutions(self):
        proc = run("oracle", "solutions", LEQ, "-e", "leq(X, X + X) ~ true",
                   "-k", "2")
        assert proc.stdout == "{X -> 0}\n{X -> s(0)}\n2 solution(s)\n"

    @pytest.mark.parametrize("argv", [
        ["rewrites", LEQ, "-e", "add(add(s(0), s(0)), add(s(0), s(0)))",
         "-t", "0"],
        ["solutions", LEQ, "-e", "add(X, add(s(0), s(0))) ~ add(s(0), X)",
         "-k", "2"],
    ])
    def test_the_visited_term_cap_ends_in_one_error_line(self, argv, monkeypatch,
                                                         capsys):
        """The cap, lowered here to 20 terms, stops the search with exit 1
        and one `error:` line; the error is still a `RuntimeError`."""
        capped = functools.partial(oracle.rewrites_to, max_visited=20)
        monkeypatch.setattr(cli, "rewrites_to", capped)
        monkeypatch.setattr(oracle, "rewrites_to", capped)
        assert issubclass(oracle.VisitedCapError, RuntimeError)
        assert cli.main(["oracle", *argv]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == (
            "", "error: rewriting search exceeded 20 visited terms\n")


class TestExitCodes:
    def test_usage_errors(self):
        assert run().returncode == 1
        assert run("frobnicate").returncode == 1
        assert run("eval", LEQ).returncode == 1  # missing --expr
        assert run("eval", LEQ, "-e", "0", "--max-steps", "0").returncode == 1

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.flp"
        bad.write_text("constructors a/0 ;\noperations f/1 ;\nf(a -> a ;\n")
        proc = run("check", str(bad))
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: expected ')', found '->' (line 3, column 5)\n")

    def test_arity_past_the_digit_limit_of_int(self, tmp_path):
        """An arity with more digits than `int` converts is a parse error
        at its token, not a usage error."""
        bad = tmp_path / "big.flp"
        bad.write_text("constructors 0/0 ;\nconstructors a/" + "9" * 5000 + " ;\n")
        proc = run("check", str(bad))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "error: arity too large: 5000 digits (line 2, column 16)\n")

    def test_missing_file(self):
        proc = run("check", "/nonexistent/p.flp")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_program_class_violation(self, tmp_path):
        f = tmp_path / "p.flp"
        f.write_text(NOT_SEQUENTIAL)
        proc = run("uniform", str(f))
        assert proc.returncode == 3
        assert proc.stderr == "error: not inductively sequential: f\n"
        assert run("eval", str(f), "-e", "f(X, Y, Z)").returncode == 3

    def test_peval_program_class_violation(self, tmp_path):
        f = tmp_path / "p.flp"
        f.write_text(NOT_SEQUENTIAL)
        proc = run("peval", str(f), "-s", "f(X, Y, Z)")
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: unfolding with needed narrowing requires an inductively "
            "sequential program; no definitional tree for: f\n")

    def test_pe_control_failure(self):
        proc = run("peval", APPEND, "-s", "append(append(Xs, Ys), Zs)",
                   "--max-iters", "1")
        assert proc.returncode == 4
        assert proc.stderr == (
            "error: no closed specialization after 1 iterations; "
            "uncovered calls: append(V7, Zs), append(append(V3, Ys), Zs)\n")

    def test_constructor_rooted_call(self):
        proc = run("peval", LEQ, "-s", "s(X)")
        assert proc.returncode == 1
        assert proc.stderr == "error: candidates must be operation-rooted: s(X)\n"


class TestDeterminism:
    def test_version(self):
        from nspec import __version__
        proc = run("--version")
        assert proc.returncode == 0
        assert proc.stdout == f"nspec {__version__}\n"

    @pytest.mark.parametrize("args", [
        ("check", LEQ),
        ("eval", LEQ, "-e", "leq(X, s(0)) ~ true"),
        ("peval", DOUBLE, "-s", "double(X)"),
        ("tree", LEQ, "-e", "leq(X, s(0))", "--max-steps", "3"),
    ])
    def test_identical_runs_produce_identical_bytes(self, args):
        first = run(*args)
        second = run(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_python_dash_m_nspec_runs_the_cli(self, capsys):
        """`python -m nspec` from a plain checkout (`PYTHONPATH=src`, the
        repository as the working directory) prints what `cli.main`
        prints in process."""
        argv = ["eval", "tests/data/leq.flp", "-e", "s(0) + s(0)",
                "--strategy", "rewrite"]
        root = SRC.parent
        proc = subprocess.run([sys.executable, "-m", "nspec", *argv],
                              capture_output=True, text=True, cwd=root,
                              env={**os.environ, "PYTHONPATH": "src"})
        assert cli.main([str(root / arg) if arg.endswith(".flp") else arg
                         for arg in argv]) == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, capsys.readouterr().out, "")
        assert proc.stdout.endswith("normal form: s(s(0))\n")


def test_the_parser_is_built_once(capsys):
    """`main` reuses one parser: an `append` option of one call does not
    reach the next, and each call prints what a new process does."""
    calls = [["peval", LEQ, "-s", "leq(X, s(0))", "-s", "add(X, Y)"],
             ["peval", LEQ, "-s", "leq(X, s(0))"],
             ["eval", LEQ, "-e", "leq(X, s(0)) ~ true"]]
    for argv in calls + calls:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == run(*argv).stdout
    assert cli._parser() is cli._parser()


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
              st.floats(allow_nan=False)),
    lambda sub: st.one_of(st.lists(sub, max_size=3),
                          st.dictionaries(st.text(max_size=3), sub, max_size=3)),
    max_leaves=12)


@given(JSON_VALUES)
def test_json_text_equals_the_json_module(value):
    out = io.StringIO()
    cli._write_json(value, out)
    assert out.getvalue() == json.dumps(value, indent=2) + "\n"


# --- fuzz gate: every input ends in an exit code -------------------------

_LEXEME = re.compile(r"->|<=|[A-Za-z0-9_]+|\S")


def _token_mutant(rng: random.Random, text: str, edits: int) -> str:
    """text without comments, with `edits` random edits, joined by
    spaces: a token deleted, a token replaced by another of its kind
    (variable, name or punctuation), or a `;`-ended statement repeated."""
    words = _LEXEME.findall(re.sub(r"%[^\n]*", "", text))
    for _ in range(edits):
        i = rng.randrange(len(words))
        edit = rng.randrange(3)
        if edit == 0 and len(words) > 1:
            del words[i]
        elif edit == 1:
            kind = words[i][0].isupper(), words[i][0].isalnum()
            words[i] = rng.choice([w for w in words
                                   if (w[0].isupper(), w[0].isalnum()) == kind])
        else:
            ends = [-1] + [k for k, w in enumerate(words) if w == ";"]
            if len(ends) > 1:
                j = rng.randrange(1, len(ends))
                words[ends[j] + 1:ends[j] + 1] = words[ends[j - 1] + 1:ends[j] + 1]
    return " ".join(words)


def _fuzz_commands(path: str, goal: str, target: Optional[str],
                   rng: random.Random):
    bounds = ["--max-steps", "6", "--max-nodes", "60"]
    yield ["check", path, "--tie-break", rng.choice(["leftmost", "rightmost"])]
    yield ["uniform", path]
    for strategy in ("needed", "lazy", "rewrite"):
        yield ["eval", path, f"--expr={goal}", "--strategy", strategy,
               "--max-solutions", "3", *bounds]
    yield ["tree", path, f"--expr={goal}", "--strategy",
           rng.choice(["needed", "lazy"]), *bounds]
    yield ["peval", path, f"--specialize={goal}", "--depth", str(rng.randint(1, 2)),
           "--whistle", rng.choice(["on", "off"]), "--max-iters", "3"]
    if target is None:
        yield ["oracle", "solutions", path, f"--expr={goal}", "-k", "2",
               "--max-steps", "3"]
    else:
        yield ["oracle", "rewrites", path, f"--expr={goal}", f"--target={target}",
               "--max-steps", "3"]


def test_mutated_programs_and_goals_end_in_an_exit_code(tmp_path):
    """No input ends in a traceback: seeded token mutants of the corpus
    and of random inductively sequential programs, each with a mutated
    goal built from one of its rules, run through `check`, `uniform`,
    `eval`, `tree` and `peval` with small bounds, then through `oracle
    solutions` for an equation goal, and else through `oracle rewrites`
    with the rule's other side as its target."""
    rng = random.Random(20)
    bases = [path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.flp"))]
    bases += [print_program(random_program(seed)) for seed in range(30)]
    rules = [parse_program(text).rules for text in bases]
    path = tmp_path / "mutant.flp"
    codes: Counter = Counter()
    passed: Counter = Counter()  # exits 0 per command
    for _ in range(800):
        b = rng.randrange(len(bases))
        text = _token_mutant(rng, bases[b], rng.randint(0, 2))
        rule = rng.choice(rules[b])
        source, target = rng.choice([(str(rule.lhs), str(rule.rhs)),
                                     (str(rule.rhs), str(rule.lhs)),
                                     (f"{rule.lhs} ~ {rule.rhs}", None)])
        goal = _token_mutant(rng, source, rng.randint(0, 1))
        path.write_text(text, encoding="utf-8")
        for argv in _fuzz_commands(str(path), goal, target, rng):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in range(5), (argv, text)
            codes[code] += 1
            passed[argv[1] if argv[0] == "oracle" else argv[0]] += code == 0
    assert min(codes[0], codes[2], codes[3]) > 20, codes  # the gate reaches past the parser
    assert len(passed) == 7 and min(passed.values()) > 20, passed
