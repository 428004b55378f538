"""The byte contract of the command line, as frozen digests.

Every command runs in process over each program file of `tests/data`,
`tests/data/interp` and `bench/programs`, and over one program that is
not inductively sequential:

- `check`, as text and as JSON, under both tie-breaks;
- `uniform`;
- `eval` under needed and lazy narrowing and under rewriting (also at
  the default step bound), and with `--tree` and `--seed`;
- `tree`, as text and as JSON;
- `peval` at depths 1-3, with `--whistle off`, and with `-o` and `--map`.

The goals are built from the file's own rules: each left-hand side, a
ground instance of each side and an equation of the two sides, with
small bounds.  The exit code, stdout, stderr and the files a command
writes are hashed with sha256, one digest per program, and compared with
the digests in `DIGESTS`.  A change that keeps the CLI's behaviour keeps
them.  A change meant to alter some output re-freezes them (run this
file with Python to print the current digests) and says which outputs
changed and why.
"""

import hashlib
import io
import itertools
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from nspec import cli
from nspec.syntax import parse_program
from nspec.terms import CONSTRUCTOR, App, Substitution, vars_of

ROOT = Path(__file__).resolve().parent.parent
FILES = [*sorted((ROOT / "tests" / "data").glob("*.flp")),
         *sorted((ROOT / "tests" / "data" / "interp").glob("*.flp")),
         *sorted((ROOT / "bench" / "programs").glob("*.flp"))]

NOT_SEQUENTIAL = (
    "constructors a/0 b/0 ;\noperations f/3 ;\n"
    "f(a, b, X) -> a ;\nf(b, X, a) -> a ;\nf(X, a, b) -> a ;\n")

BOUNDS = ["--max-steps", "6", "--max-nodes", "60"]

DIGESTS = {
    'tests/data/append.flp': 'fd90b2977dfacb20c5bdf63c2d686f537c350d3f9db2a1596b9e1821011d24fb',
    'tests/data/double.flp': '5ef89cfa290c8586c54e2ed60aff99e73f6d8696d71bb2c482e20b706da6184b',
    'tests/data/gfh.flp': 'dfa6442f7242b1cf39eeda749b84817477c801c728d0d02230b13442893ebb1f',
    'tests/data/leq.flp': 'e16a5dd130f3575d96f1f2346300d6367adf65fd26b0edd2f64375096fb8f9fb',
    'tests/data/loop.flp': 'd661c9143657ce9c2a3e3acde23538af468d0062f0d35533bbeb52a49802fc08',
    'tests/data/uniform_fg.flp': '4aa47ac38ea716f48d8334c39edb4c3b5402be8d525cacdaeb9b873cf6d197b8',
    'tests/data/interp/times.flp': '03b8024c9a261e2c4d2a1f10b75997b4f1612fe24f2b3b5f9a6a5e3973cbbcde',
    'tests/data/interp/times_hand.flp': '5b643edf06d44843efdadef218f5988aa0c16d226488f91cfa02b8ad22fbdab4',
    'bench/programs/allones.flp': 'd9bb9fbd23fc841ef327e60e6c49847c8c18e4c69b638d17e792f096214f138f',
    'bench/programs/double_app.flp': 'adc77e5c64c9d648a0db00fc0c84684076388ec07249cc2691df64d3c981e578',
    'bench/programs/kmp.flp': '8ccdb14388db1daa0151f7d4d17262bb61db0433942542039b6a9c618b3336b5',
    'bench/programs/length_app.flp': '4c07a19ff08c3f246713a0c69b779da21c87f53208870d62f28d53f302304b43',
    'bench/programs/peano.flp': '5db49ad87f1bc80643c032c01a904c9e91dbab814e35df7d416ba657aa9a942e',
    'bench/programs/rev_acc.flp': '43a2090059868bef07058efa592018ff64caa9d581b112c397fdab4d051f10e5',
    'not_sequential': 'ade7a05d81c53422b2df1f6bc22c27ff2a801a3ac1c915575b50534282c8306c',
}


def _ground_instances(term, grounds, count=2):
    """`count` ground instances of term: the i-th distinct variable takes
    the (i + j)-th ground term in the j-th instance."""
    variables = vars_of(term)
    return [Substitution({x: grounds[(i + j) % len(grounds)]
                          for i, x in enumerate(variables)}).apply(term)
            for j in range(count)]


def _goals(text):
    """The left-hand side of each rule, ground instances of both its
    sides, and the equation of its two sides, as goal texts."""
    program = parse_program(text)
    ctors = [s for s in program.signature if s.kind == CONSTRUCTOR]
    nullary = [App(c) for c in ctors if not c.arity]
    grounds = nullary + [App(c, tuple(itertools.islice(
        itertools.cycle(nullary), c.arity))) for c in ctors if c.arity]
    goals = []
    for rule in program.rules:
        goals.append(str(rule.lhs))
        goals += [str(t) for t in _ground_instances(rule.lhs, grounds)]
        goals += [str(t) for t in _ground_instances(rule.rhs, grounds, 1)]
        goals.append(f"{rule.lhs} ~ {rule.rhs}")
    return list(dict.fromkeys(goals)), [str(r.lhs) for r in program.rules]


def _commands(path, text, out):
    """Every command run on one program file; `out` is a directory for
    the files that commands write."""
    goals, calls = _goals(text)
    for tie in ("leftmost", "rightmost"):
        for form in ("text", "json"):
            yield ["check", path, "--format", form, "--tie-break", tie]
    yield ["uniform", path]
    for goal in goals:
        for strategy in ("needed", "lazy", "rewrite"):
            yield ["eval", path, f"--expr={goal}", "--strategy", strategy, *BOUNDS]
        yield ["eval", path, f"--expr={goal}", "--strategy", "rewrite"]
    for goal in calls[:3]:
        yield ["--seed", "5", "eval", path, f"--expr={goal}", "--max-solutions", "3"]
        for strategy in ("needed", "lazy"):
            yield ["eval", path, f"--expr={goal}", "--strategy", strategy,
                   "--tree", str(out / "tree.json"), *BOUNDS]
            for form in ("text", "json"):
                yield ["tree", path, f"--expr={goal}", "--strategy", strategy,
                       "--format", form, *BOUNDS]
    specialize = [f"--specialize={call}" for call in calls[:2]]
    for depth in ("1", "2", "3"):
        yield ["peval", path, *specialize, "--depth", depth, "--max-iters", "6"]
    yield ["peval", path, *specialize, "--whistle", "off", "--max-iters", "6"]
    yield ["peval", path, *specialize, "--max-iters", "6",
           "-o", str(out / "spec.flp"), "--map", str(out / "map.json")]


def _digest(path, text, out):
    """The sha256 of every command's exit code, stdout, stderr and
    written files, with the directories of the paths replaced by
    placeholders."""
    h = hashlib.sha256()

    def put(s):
        s = s.replace(str(out.parent), "<tmp>").replace(str(ROOT), "<root>")
        h.update(s.encode("utf-8"))
        h.update(b"\0")

    for argv in _commands(path, text, out):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        for s in (" ".join(argv), str(code), stdout.getvalue(), stderr.getvalue()):
            put(s)
        for written in sorted(out.iterdir()):
            put(written.name)
            put(written.read_text(encoding="utf-8"))
            written.unlink()
    return h.hexdigest()


def _programs(tmp):
    """(name, path, text) of every program of the contract."""
    for f in FILES:
        yield str(f.relative_to(ROOT)), str(f), f.read_text(encoding="utf-8")
    path = tmp / "not_sequential.flp"
    path.write_text(NOT_SEQUENTIAL, encoding="utf-8")
    yield "not_sequential", str(path), NOT_SEQUENTIAL


def _digests(tmp):
    out = tmp / "out"
    out.mkdir()
    return {name: _digest(path, text, out) for name, path, text in _programs(tmp)}


def test_every_command_prints_the_frozen_bytes(tmp_path):
    assert _digests(tmp_path) == DIGESTS


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in _digests(Path(tmp)).items():
            print(f"    {name!r}: {digest!r},")
