"""The functions that the benchmark's tracer wraps must exist, and the
partial evaluator and the rewriting command must keep calling them.

`bench/tracing.py` names nspec functions by module and attribute path;
a rename or deletion, or a caller that stops going through the traced
name, would only surface in a traced benchmark run.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _tracing().TARGETS


@pytest.mark.parametrize("label, module_name, path", _targets())
def test_traced_function_resolves(label, module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), label


def test_pe_control_trace_rows_stay_live():
    """pe_control folds candidates through `abstract_add`, unfolds each
    tree it builds through `unfold`, and assembles its one result
    through `partial_evaluate`."""
    from nspec import add_strict_equality, parse_program, parse_term, peval

    text = (TRACING.parent / "programs" / "kmp.flp").read_text(encoding="utf-8")
    program = add_strict_equality(parse_program(text))
    root = parse_term("match(cons(a, cons(a, cons(b, nil))), S)", program.signature)
    tracer = _tracing().Tracer()
    with tracer:
        tracer.enabled = True
        outcome = peval.pe_control(program, [root], peval.UnfoldPolicy(depth=2))
    calls = tracer.calls()
    assert outcome.iterations > 1
    assert calls["peval.pe_control"] == 1
    assert calls["peval.partial_evaluate"] == 1
    assert calls["peval.unfold"] == outcome.unfolds_built
    assert calls["peval.resultants"] == outcome.unfolds_built
    assert calls["peval.abstract_add"] > 0
    assert calls["peval.embeds"] > 0 and calls["peval.msg"] > 0


def test_pe_control_of_an_equation_goal_assembles_once():
    """An equation goal's residual calls the builtin eq/and, so the
    loop assembles one result, at its fixpoint, as for any other goal."""
    from nspec import add_strict_equality, parse_program, parse_term, peval

    text = (TRACING.parent.parent / "tests" / "data" / "append.flp").read_text(
        encoding="utf-8")
    program = add_strict_equality(parse_program(text))
    root = parse_term("eq(append(Xs, Ys), cons(0, nil))", program.signature)
    tracer = _tracing().Tracer()
    with tracer:
        tracer.enabled = True
        outcome = peval.pe_control(program, [root], peval.UnfoldPolicy(depth=2))
    calls = tracer.calls()
    assert outcome.iterations > 1
    assert calls["peval.partial_evaluate"] == 1


def test_rewrite_trace_rows_stay_live():
    """`nspec eval --strategy rewrite` parses its program and its goal
    through one `parse_program` and one `parse_term` call, builds the
    forest of its class gate through one `is_inductively_sequential`
    call, and rewrites through one `rewrite_normalize` call, which
    draws no rule variant.  The printer runs once for the goal line;
    the rewrite loop joins its lines from kept texts, and prints only
    the parts of the goal that no line has shown yet and the siblings
    of the matched subterms it cuts from a kept text: 9 calls for the
    17 steps here.  Printing the rewritten call at every step called it
    once per line but the last."""
    from nspec import cli

    peano = str(TRACING.parent / "programs" / "peano.flp")
    goal = ("leq(double(s(s(0))), "
            "add(length(append(cons(0, nil), cons(0, nil))), s(s(0))))")
    tracer = _tracing().Tracer()
    out = io.StringIO()
    with tracer, contextlib.redirect_stdout(out):
        tracer.enabled = True
        code = cli.main(["eval", peano, "-e", goal, "--strategy", "rewrite"])
    lines = out.getvalue().splitlines()
    calls = tracer.calls()
    assert code == 0 and lines[-1] == "normal form: true"
    assert len(lines) > 10
    assert calls["syntax.parse_program"] == calls["syntax.parse_term"] == 1
    assert calls["deftree.is_inductively_sequential"] == 1
    assert calls["narrowing.rewrite_normalize"] == 1
    assert calls["program.Rule.renamed"] == 0
    assert 0 < calls["terms.str"] < len(lines) - 2


def test_search_trace_rows_stay_live():
    """A needed search builds its definitional forest once, through one
    `is_inductively_sequential` call, applies each edge of its tree
    through one `narrow` call, and calls `match` nowhere: the forest
    build gives each leaf a variant of its program rule, and a step
    matches its rule without `match`."""
    from nspec import add_strict_equality, deftree, narrowing, parse_program, parse_term

    text = (TRACING.parent / "programs" / "peano.flp").read_text(encoding="utf-8")
    program = add_strict_equality(parse_program(text))
    root = parse_term("append(Xs, Ys) ~ cons(0, cons(s(0), cons(0, nil)))",
                      program.signature)
    tracer = _tracing().Tracer()
    with tracer:
        tracer.enabled = True
        report = deftree.is_inductively_sequential(program)
    forest_calls = tracer.calls()
    tracer = _tracing().Tracer()
    with tracer:
        tracer.enabled = True
        result = narrowing.search(root, program, "needed",
                                  narrowing.Bounds(max_steps=50, max_nodes=10 ** 6))
    calls = tracer.calls()
    nodes = result.root.nodes()
    assert result.complete and len(result.answers) == 4 and report.ok
    assert calls["narrowing.search"] == 1
    assert calls["deftree.is_inductively_sequential"] == 1
    assert calls["narrowing.narrow"] == sum(len(n.children) for n in nodes) > 0
    assert calls["terms.match"] == forest_calls["terms.match"] == 0


def test_step_trace_rows_stay_live():
    """Every node of a search that is not a success leaf computes or
    counts its steps through one call of the traced descent, `nns` or
    `lns`.  The rewrite loop walks its calls' definitional trees itself:
    a rewrite run is one traced `rewrite_normalize` call and no `nns`
    call."""
    from nspec import add_strict_equality, cli, narrowing, parse_program, parse_term

    peano = TRACING.parent / "programs" / "peano.flp"
    program = add_strict_equality(parse_program(peano.read_text(encoding="utf-8")))
    root = parse_term("append(Xs, Ys) ~ cons(0, cons(s(0), nil))", program.signature)
    stepped = {}
    for strategy, row in (("needed", "narrowing.nns"), ("lazy", "narrowing.lns")):
        tracer = _tracing().Tracer()
        with tracer:
            tracer.enabled = True
            result = narrowing.search(root, program, strategy,
                                      narrowing.Bounds(max_steps=50, max_nodes=10 ** 6))
        calls = tracer.calls()
        nodes = result.root.nodes()
        assert result.complete and len(result.answers) == 3
        stepped[strategy] = sum(n.status != narrowing.SUCCESS for n in nodes)
        assert calls[row] == stepped[strategy] > 0, strategy
    assert stepped["needed"] == stepped["lazy"]

    tracer = _tracing().Tracer()
    out = io.StringIO()
    with tracer, contextlib.redirect_stdout(out):
        tracer.enabled = True
        code = cli.main(["eval", str(peano), "-e", "add(s(s(0)), s(0))",
                         "--strategy", "rewrite"])
    assert code == 0 and out.getvalue().splitlines()[-1] == "normal form: s(s(s(0)))"
    calls = tracer.calls()
    assert calls["narrowing.nns"] == 0 and calls["narrowing.rewrite_normalize"] == 1
