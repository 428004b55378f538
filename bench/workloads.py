"""The four seeded workloads of the nspec benchmark and their output checks.

A workload turns (seed, block index) into a block of requests.  The
benchmark runs whole blocks, one request at a time, and times only the
call into nspec.  Blocks come in cycles of `cycle` blocks, and a run
ends on a cycle boundary.  Each cycle has the same make-up on every
seed: the same goal families, buckets and strategies, and each slot of
a block visits every stratum of its size range once per cycle.  The
seed draws the order of the strata, the sizes inside them (spread over
the sub-ranges of a stratum across cycles), the list elements, the KMP
letters and the request order.  So a cycle costs about the same
whatever the seed.

Every check compares an output with a reference that does not come from
the code path under test: answer sets known in closed form, the
brute-force rewriting oracle, the answers of the unspecialized program,
or a normal form the generator computes itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from nspec import cli, narrowing, oracle, peval, syntax
from nspec.program import add_strict_equality
from nspec.terms import App, Substitution, vars_of

PROGRAMS = Path(__file__).resolve().parent / "programs"


def nat(k: int) -> str:
    return "s(" * k + "0" + ")" * k


def lst(items) -> str:
    out = "nil"
    for x in reversed(list(items)):
        out = f"cons({x}, {out})"
    return out


def rng(*parts) -> random.Random:
    return random.Random(":".join(map(str, parts)))


def stratum(workload: str, seed: int, b: int, slot: str, n: int) -> int:
    """Which of n strata a slot uses in block b: every stratum once in
    each cycle of n blocks, in a seeded order."""
    order = list(range(n))
    rng(workload, seed, b // n, slot).shuffle(order)
    return order[b % n]


def spread(workload: str, seed: int, cycle: int, slot: str, lo: int, hi: int,
           parts: int = 2) -> int:
    """An integer in [lo, hi].  Over each run of `parts` cycles a slot
    draws once from each of `parts` equal sub-ranges, in a seeded order."""
    order = list(range(parts))
    rng(workload, seed, cycle // parts, slot, "parts").shuffle(order)
    x = (order[cycle % parts] + rng(workload, seed, cycle, slot).random()) / parts
    return lo + min(int(x * (hi - lo + 1)), hi - lo)


def load(name: str):
    text = (PROGRAMS / name).read_text(encoding="utf-8")
    return add_strict_equality(syntax.parse_program(text))


def digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Request:
    key: str              # the input as text: equal keys, equal outputs
    label: str            # scaling-curve bucket, or ""
    args: tuple           # what the timed call receives
    expect: object = None  # what the check needs


@dataclass
class Record:
    """What the benchmark keeps of one request after it ran."""

    key: str
    label: str
    block: int
    latency: float        # seconds, scaled to the yardstick's nominal speed
    error: Optional[str]
    wall: float = 0.0     # seconds as measured
    steps: int = 0
    nodes: int = 0
    expect: object = None                       # from the request
    counts: dict = field(default_factory=dict)  # exact, must repeat
    output: object = None                       # for the check


def tree_counts(result) -> dict:
    nodes = result.root.nodes()
    status = {"success": 0, "failing": 0, "incomplete": 0}
    for node in nodes:
        if node.status in status:
            status[node.status] += 1
    answers = sorted(f"{sigma} {value}" for sigma, value in result.answers)
    return {
        "nodes": len(nodes),
        "offered": sum(node.offered for node in nodes),
        "success": status["success"],
        "failing": status["failing"],
        "incomplete": status["incomplete"],
        "answers": len(answers),
        "answers_digest": digest("\n".join(answers)),
        "complete": result.complete,
    }


class Workload:
    name = ""
    programs: Tuple[str, ...] = ()
    cycle = 1  # blocks per cycle

    def block(self, seed: int, b: int) -> List[Request]:
        raise NotImplementedError

    def call(self, request: Request):
        raise NotImplementedError

    def summarize(self, record: Record, request: Request, result) -> None:
        raise NotImplementedError

    def check(self, records: List[Record]) -> Tuple[Dict[str, str], Dict[str, dict]]:
        """(reason per wrong key, exact facts per key) over the records
        that completed."""
        raise NotImplementedError


class NarrowDeep(Workload):
    """Needed narrowing on goals with complete, closed-form answer sets."""

    name = "narrow_deep"
    programs = ("peano.flp",)
    # k range per family: the cost of a search grows about as k cubed,
    # so the costlier families stop earlier.  A block has one goal per
    # family and bucket; over a cycle each goal visits the four
    # two-wide strata of its bucket once.
    RANGES = {"leq": (8, 47), "add": (8, 31), "double": (8, 31), "append": (8, 23)}
    BUCKETS = ((8, 15), (16, 23), (24, 31), (32, 39), (40, 47))
    ELEMENTS = ("0", "s(0)", "s(s(0))")
    cycle = 4

    def __init__(self) -> None:
        self.program = load("peano.flp")

    def block(self, seed: int, b: int) -> List[Request]:
        out: List[Request] = []
        for family, (lo, hi) in self.RANGES.items():
            for blo, bhi in self.BUCKETS:
                if blo > hi:
                    continue
                slot = f"{family}:{blo}"
                k = (blo + 2 * stratum(self.name, seed, b, slot, self.cycle)
                     + spread(self.name, seed, b // self.cycle,
                              f"{slot}:{b % self.cycle}", 0, 1))
                out.append(self._request(family, k, seed, b))
        rng(self.name, seed, b, "order").shuffle(out)
        return out

    def _request(self, family: str, k: int, seed: int, b: int) -> Request:
        if family == "add":
            text = f"add(X, Y) ~ {nat(k)}"
            expect = [f"{{X -> {nat(i)}, Y -> {nat(k - i)}}} true" for i in range(k + 1)]
        elif family == "leq":
            text = f"leq(X, {nat(k)}) ~ true"
            expect = [f"{{X -> {nat(i)}}} true" for i in range(k + 1)]
        elif family == "double":
            text = f"double(X) ~ {nat(2 * k)}"
            expect = [f"{{X -> {nat(k)}}} true"]
        else:
            pick = rng(self.name, seed, b, "elements")
            items = [pick.choice(self.ELEMENTS) for _ in range(k)]
            text = f"append(Xs, Ys) ~ {lst(items)}"
            expect = [f"{{Xs -> {lst(items[:i])}, Ys -> {lst(items[i:])}}} true"
                      for i in range(k + 1)]
        goal = syntax.parse_term(text, self.program.signature)
        bounds = narrowing.Bounds(max_steps=10 * k + 20, max_nodes=10 ** 6)
        bucket = next(f"k_{lo:02d}_{hi:02d}" for lo, hi in self.BUCKETS if lo <= k <= hi)
        return Request(text, f"{family}.{bucket}", (goal, bounds), sorted(expect))

    def call(self, request: Request):
        goal, bounds = request.args
        return narrowing.search(goal, self.program, "needed", bounds)

    def summarize(self, record: Record, request: Request, result) -> None:
        record.counts = tree_counts(result)
        record.nodes = record.counts["nodes"]
        record.steps = record.nodes - 1
        record.output = (sorted(f"{s} {v}" for s, v in result.answers), result.complete)

    def check(self, records):
        wrong: Dict[str, str] = {}
        for r in records:
            answers, complete = r.output
            if not complete:
                wrong[r.key] = "search did not complete"
            elif answers != r.expect:
                wrong[r.key] = f"{len(answers)} answers, expected {len(r.expect)}"
        return wrong, {}


class NarrowWide(Workload):
    """Bounded search on algebraic laws: bushy, shallow, incomplete trees."""

    name = "narrow_wide"
    programs = ("peano.flp",)
    GOALS = (
        "add(X, Y) ~ add(Y, X)",
        "add(add(X, Y), Z) ~ add(X, add(Y, Z))",
        "append(Xs, Ys) ~ append(Ys, Xs)",
        "append(append(Xs, Ys), Zs) ~ append(Xs, append(Ys, Zs))",
        "length(append(Xs, Ys)) ~ add(length(Ys), length(Xs))",
        "double(X) ~ add(Y, Y)",
    )
    STRATEGIES = ("needed", "lazy")
    # (max_steps, node budget range): the depth grows with the budget.  The
    # size of a tree cut by depth grows exponentially with it, so the
    # depth is fixed per stratum and the seed draws the budget.
    STRATA = ((6, 200, 399), (9, 400, 799), (12, 800, 1599))
    cycle = len(STRATA)  # each goal and strategy visits every stratum

    def __init__(self) -> None:
        self.program = load("peano.flp")
        self.goals = {g: syntax.parse_term(g, self.program.signature) for g in self.GOALS}
        self.ground = App(self.program.signature.get("0"))
        # Distinct answers seen, keyed by (goal, sigma, value) as text,
        # with the shortest derivation that reached them, for the check.
        self.answers: Dict[Tuple[str, str, str], tuple] = {}

    def block(self, seed: int, b: int) -> List[Request]:
        out: List[Request] = []
        cycle, pos = divmod(b, self.cycle)
        for text in self.GOALS:
            for strategy in self.STRATEGIES:
                slot = f"{text}:{strategy}"
                steps, lo, hi = self.STRATA[stratum(self.name, seed, b, slot, self.cycle)]
                nodes = spread(self.name, seed, cycle, f"{slot}:{pos}:nodes", lo, hi,
                               parts=self.cycle)
                bounds = narrowing.Bounds(max_steps=steps, max_nodes=nodes)
                out.append(Request(
                    f"{text} {strategy} {steps} {nodes}",
                    f"{strategy}.n_{lo:04d}_{hi:04d}",
                    (self.goals[text], strategy, bounds), text))
        rng(self.name, seed, b, "order").shuffle(out)
        return out

    def call(self, request: Request):
        goal, strategy, bounds = request.args
        return narrowing.search(goal, self.program, strategy, bounds)

    def summarize(self, record: Record, request: Request, result) -> None:
        record.counts = tree_counts(result)
        record.nodes = record.counts["nodes"]
        record.steps = record.nodes - 1
        # Answers are emitted in the preorder of their success leaves.
        depths, stack = [], [(result.root, 0)]
        while stack:
            node, depth = stack.pop()
            if node.status == "success":
                depths.append(depth)
            stack.extend((child, depth + 1) for _, child in reversed(node.children))
        keys = []
        for (sigma, value), depth in zip(result.answers, depths):
            key = (request.expect, repr(sigma), str(value))
            known = self.answers.get(key)
            if known is None or depth < known[2]:
                self.answers[key] = (sigma, value, depth)
            keys.append(key)
        record.output = keys

    def check(self, records):
        """Each distinct answer sigma with value v of a goal g is checked
        once: theta(sigma(g)) must rewrite to theta(v) by brute force,
        where theta grounds the variables left in them, in as many steps
        as the narrowing derivation that found the answer."""
        verdict: Dict[Tuple[str, str, str], bool] = {}
        wrong: Dict[str, str] = {}
        for r in records:
            for key in r.output:
                if key not in verdict:
                    sigma, value, depth = self.answers[key]
                    instance = sigma.apply(self.goals[key[0]])
                    theta = Substitution(
                        {x: self.ground for x in vars_of(instance) + vars_of(value)})
                    try:
                        verdict[key] = oracle.rewrites_to(
                            self.program, theta.apply(instance), theta.apply(value), depth)
                    except RuntimeError:  # the oracle's visited-term cap
                        verdict[key] = False
                if not verdict[key]:
                    wrong[r.key] = f"answer {key[1]} {key[2]} not confirmed by rewriting"
        return wrong, {}


class Specialize(Workload):
    """pe_control on the classic partial-evaluation benchmarks."""

    name = "specialize"
    CLASSIC = (
        ("double_app", "double_app.flp", "append(append(Xs, Ys), Zs)"),
        ("length_app", "length_app.flp", "length(append(Xs, Ys))"),
        ("rev_acc", "rev_acc.flp", "rev(append(Xs, Ys), nil)"),
        ("allones", "allones.flp", "length(allones(Xs))"),
    )
    programs = tuple(f for _, f, _ in CLASSIC) + ("kmp.flp",)
    DEPTHS = (1, 2, 3)
    KMP_LENGTHS = (2, 3, 4, 5)
    cycle = len(DEPTHS)  # each KMP pattern length visits every depth

    def __init__(self) -> None:
        self.loaded = {f: load(f) for f in self.programs}
        # The renaming and specialized program of each task, for the check.
        self.results: Dict[str, tuple] = {}

    def pattern(self, seed: int, b: int, n: int) -> str:
        """The KMP pattern of length n in block b: a^(n-1) b, the pattern
        family of the classic KMP test, with a and b swapped by a seeded
        coin.  The cost of specializing the matcher depends on the
        pattern's shape (up to threefold at length 5), so every cycle
        specializes the same shapes; the swap changes no cost."""
        shape = "a" * (n - 1) + "b"
        if rng(self.name, seed, b, f"kmp_{n}:swap").random() < 0.5:
            shape = shape.translate(str.maketrans("ab", "ba"))
        return lst(shape)

    def block(self, seed: int, b: int) -> List[Request]:
        out: List[Request] = []
        for name, file, call in self.CLASSIC:
            for depth in self.DEPTHS:
                out.append(self._request(name, file, call, depth))
        for n in self.KMP_LENGTHS:
            depth = self.DEPTHS[stratum(self.name, seed, b, f"kmp_{n}", self.cycle)]
            out.append(self._request(f"kmp_{n}", "kmp.flp",
                                     f"match({self.pattern(seed, b, n)}, S)", depth))
        rng(self.name, seed, b, "order").shuffle(out)
        return out

    def _request(self, name: str, file: str, call: str, depth: int) -> Request:
        program = self.loaded[file]
        root = syntax.parse_term(call, program.signature)
        policy = peval.UnfoldPolicy(depth=depth)
        return Request(f"{file} {call} depth={depth}", name,
                       (program, root, policy), (file, call))

    def call(self, request: Request):
        program, root, policy = request.args
        return peval.pe_control(program, [root], policy)

    def summarize(self, record: Record, request: Request, result) -> None:
        rules = result.result.rules
        record.steps = sum(len(r.steps) for _, rs in result.result.report.resultants
                           for r in rs)
        record.counts = {
            "iterations": result.iterations,
            "rules": len(rules),
            "calls": len(result.S),
            "resultant_steps": record.steps,
            "program_digest": digest("\n".join(str(r) for r in rules)),
        }
        if record.key not in self.results:
            self.results[record.key] = (result.result.renaming, result.result.program)

    def samples(self, file: str, call: str) -> List[str]:
        """Sample goals of a task; they depend on the task only."""
        pick = rng("samples", file, call)

        def items(lo, hi):
            return [pick.choice(("0", "s(0)")) for _ in range(pick.randint(lo, hi))]

        if file == "kmp.flp":
            return [f"match({call[6:call.rindex(', S)')]}, "
                    f"{lst(pick.choice('ab') for _ in range(pick.randint(4, 8)))})"
                    for _ in range(3)]
        if file == "double_app.flp":
            return [f"append(append({lst(items(1, 5))}, {lst(items(1, 5))}), "
                    f"{lst(items(1, 5))})",
                    f"append(append(Xs, Ys), Zs) ~ {lst(items(3, 3))}"]
        if file == "length_app.flp":
            return [f"length(append({lst(items(1, 6))}, {lst(items(1, 6))}))",
                    f"length(append(Xs, Ys)) ~ {nat(2)}"]
        if file == "rev_acc.flp":
            return [f"rev(append({lst(items(1, 5))}, {lst(items(1, 5))}), nil)",
                    f"rev(append({lst(items(1, 5))}, {lst(items(1, 5))}), nil)"]
        return [f"length(allones({lst(items(1, 6))}))",
                f"length(allones(Xs)) ~ {nat(2)}"]

    def check(self, records):
        """The specialized program must give the original's answers on
        the task's sample goals; the steps both take are counted."""
        wrong: Dict[str, str] = {}
        facts: Dict[str, dict] = {}
        bounds = narrowing.Bounds(max_steps=5000, max_nodes=10 ** 5)
        for r in records:
            if r.key in facts or r.key in wrong:
                continue
            file, call = r.expect
            program = self.loaded[file]
            renaming, specialized = self.results[r.key]
            orig_steps = spec_steps = 0
            for text in self.samples(file, call):
                goal = syntax.parse_term(text, program.signature)
                before = narrowing.search(goal, program, "needed", bounds)
                after = narrowing.search(peval.rename_term(renaming, goal),
                                         specialized, "needed", bounds)
                if not (before.complete and after.complete):
                    continue
                got = sorted(f"{s} {v}" for s, v in after.answers)
                want = sorted(f"{s} {v}" for s, v in before.answers)
                if got != want:
                    wrong[r.key] = f"{text}: answers {got} differ from {want}"
                orig_steps += len(before.root.nodes()) - 1
                spec_steps += len(after.root.nodes()) - 1
            facts[r.key] = {"orig_steps": orig_steps, "spec_steps": spec_steps}
        return wrong, facts


class RewriteCli(Workload):
    """`nspec eval FILE -e GOAL --strategy rewrite`, in process."""

    name = "rewrite_cli"
    programs = ()  # the CLI loads its program on every call
    FAMILIES = ("add", "leq", "double", "append")
    SIZES = ((10, 44), (45, 79), (80, 114), (115, 150))
    BLOCK = 20          # requests per block
    DEEP_PER_BLOCK = 1  # of which one has an operand nested 200-400 deep
    DEEP = (200, 400)
    cycle = len(SIZES)  # each slot visits every size stratum

    def __init__(self) -> None:
        self.file = str(PROGRAMS / "peano.flp")

    def block(self, seed: int, b: int) -> List[Request]:
        out: List[Request] = []
        cycle, pos = divmod(b, self.cycle)
        for i in range(self.BLOCK - self.DEEP_PER_BLOCK):
            family = self.FAMILIES[i % len(self.FAMILIES)]
            lo, hi = self.SIZES[stratum(self.name, seed, b, f"size:{i}", self.cycle)]
            n = spread(self.name, seed, cycle, f"size:{i}:{pos}", lo, hi)
            split = spread(self.name, seed, cycle, f"split:{i}:{pos}", 0, n)
            out.append(self._goal(family, n, split, rng(self.name, seed, b, i)))
        pick = rng(self.name, seed, b, "deep")
        k = pick.randint(*self.DEEP)
        if pick.random() < 0.5:
            deep = (f"leq({nat(k)}, 0)", "false")
        else:
            deep = (f"leq(0, {nat(k)})", "true")
        out.insert(pick.randrange(len(out) + 1), self._request(*deep, "deep"))
        return out

    def _goal(self, family: str, n: int, split: int, pick: random.Random) -> Request:
        """A ground goal with about n constructor symbols in its operands,
        split at `split`, with its normal form computed here."""
        if family == "add":
            return self._request(f"add({nat(split)}, {nat(n - split)})", nat(n), family)
        if family == "leq":
            a, c = split // 2, pick.randint(0, n // 2)
            return self._request(f"leq({nat(a)}, {nat(c)})",
                                 "true" if a <= c else "false", family)
        if family == "double":
            a = n // 2
            return self._request(f"double({nat(a)})", nat(2 * a), family)
        items = [pick.choice(("0", "s(0)")) for _ in range(n // 3)]
        cut = split // 3
        return self._request(f"append({lst(items[:cut])}, {lst(items[cut:])})",
                             lst(items), family)

    def _request(self, goal: str, value: str, label: str) -> Request:
        argv = ["eval", self.file, "-e", goal, "--strategy", "rewrite",
                "--max-steps", "100000"]
        return Request(goal, label, (argv,), value)

    def call(self, request: Request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(request.args[0])
        return code, out.getvalue()

    def summarize(self, record: Record, request: Request, result) -> None:
        code, text = result
        lines = text.splitlines()
        record.steps = sum(1 for line in lines if line.startswith("-> "))
        record.counts = {"exit": code, "steps": record.steps, "output": digest(text)}
        record.output = (code, lines[-1] if lines else "")

    def check(self, records):
        wrong: Dict[str, str] = {}
        for r in records:
            code, last = r.output
            if code != 0 or last != f"normal form: {r.expect}":
                wrong[r.key] = f"exit {code}, last line {last[:80]!r}"
        return wrong, {}


WORKLOADS = {w.name: w for w in (NarrowDeep, NarrowWide, Specialize, RewriteCli)}
