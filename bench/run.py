#!/usr/bin/env python3
"""Benchmark of nspec: one workload per run, one client in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; nspec is imported from `src/`.  The
workloads are `narrow_deep`, `narrow_wide`, `specialize` and
`rewrite_cli` (see `bench/workloads.py` and `bench/README.md`).  The
client sends the next request when the previous one has returned and
runs whole cycles of request blocks until S seconds have passed and at
least 100 requests have completed.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics
of a traced run.  Outputs are checked after the timed loop, and the
exact counts of the first block are compared with a replay of that block
in a fresh interpreter: if they differ, the run exits with code 3
without a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import yardstick

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIN_SAMPLES = 100        # leaves at least 10 samples beyond p90
SETUP_REPEATS = 9        # fresh interpreters timed for setup_s
CHILD_TIMEOUT_S = 120
SOURCE_MODULES = ("terms", "program", "syntax", "deftree", "narrowing",
                  "peval", "oracle", "cli")

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import yardstick
before = yardstick.measure()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import nspec
for path in sys.argv[3:]:
    with open(path, encoding="utf-8") as handle:
        nspec.add_strict_equality(nspec.parse_program(handle.read()))
elapsed = time.perf_counter() - t0
print(repr(elapsed), repr((before + yardstick.measure()) / 2))
"""


def import_sources():
    """Import nspec from this tree's src/ and the benchmark's modules."""
    if not (SRC / "nspec" / "__init__.py").is_file():
        sys.exit(f"error: no nspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nspec
    if Path(nspec.__file__).resolve().parent != (SRC / "nspec").resolve():
        sys.exit(f"error: nspec was imported from {nspec.__file__}, not {SRC}")
    import tracing
    import workloads
    return tracing, workloads


def measure_setup(files: List[str]) -> Tuple[float, float]:
    """Median time for a fresh interpreter to import nspec and load the
    workload's programs, scaled by the yardstick and as measured.  The
    first interpreter only warms the bytecode cache and is not counted."""
    argv = [sys.executable, "-c", SETUP_CODE, str(Path(__file__).resolve().parent),
            str(SRC)] + files
    scaled, wall = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        if i:
            elapsed, speed = map(float, done.stdout.split())
            wall.append(elapsed)
            scaled.append(elapsed * yardstick.NOMINAL_S / speed)
    return statistics.median(scaled), statistics.median(wall)


def run_blocks(workload, seed: int, seconds: float, min_samples: int,
               blocks: Optional[list] = None, after_block=None, tracer=None):
    """Run whole blocks, timing each call into nspec.  Without `blocks`,
    new blocks are generated until, at the end of a cycle, `seconds` have
    passed and `min_samples` requests ran; with them, exactly those are
    replayed.  A tracer, if given, records spans during the timed calls
    only.

    The yardstick runs before each block and after each request; a
    request's time is scaled by the mean of the runs just before and just
    after it."""
    from workloads import Record

    records, ran = [], []
    deadline = perf_counter() + seconds
    b = 0
    while True:
        if blocks is not None:
            if b == len(blocks):
                break
            requests = blocks[b]
        else:
            if (b % workload.cycle == 0 and b and perf_counter() >= deadline
                    and len(records) >= min_samples):
                break
            requests = workload.block(seed, b)
        ran.append(requests)
        speed_before = yardstick.measure()
        for req in requests:
            error = None
            if tracer is not None:
                tracer.enabled = True
            t0 = perf_counter()
            try:
                result = workload.call(req)
            except Exception as exc:  # a request that raises is a failure
                t1 = perf_counter()
                error = type(exc).__name__
            else:
                t1 = perf_counter()
            if tracer is not None:
                tracer.enabled = False
            speed_after = yardstick.measure()
            scale = 2 * yardstick.NOMINAL_S / (speed_before + speed_after)
            speed_before = speed_after
            record = Record(req.key, req.label, b, (t1 - t0) * scale, error,
                            wall=t1 - t0, expect=req.expect)
            if error is None:
                workload.summarize(record, req, result)
            else:
                record.counts = {"error": error}
            result = None
            records.append(record)
        if after_block is not None:
            after_block(b)
        b += 1
    return records, ran


def check(workload, records) -> Tuple[int, Dict[str, str], Dict[str, dict]]:
    """Number of records that raised or gave a wrong output, the wrong
    keys with reasons, and exact per-key facts from the check."""
    completed = [r for r in records if r.error is None]
    wrong, facts = workload.check(completed)
    failed = sum(1 for r in records if r.error is not None or r.key in wrong)
    return failed, wrong, facts


def exact_counts(records, facts, calls=None) -> dict:
    """The counts of block 0 that must repeat bit for bit."""
    first = [r for r in records if r.block == 0]
    out = {"counts": [r.counts for r in first],
           "facts": [facts.get(r.key) for r in first]}
    if calls is not None:
        out["calls"] = calls
    return out


def replay_block0(name: str, seed: int, trace: bool) -> dict:
    """Exact counts of block 0, from a fresh interpreter with another
    string-hash seed."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") != "1" else "2"
    argv = [sys.executable, str(Path(__file__).resolve()), "--replay-block0",
            "--workload", name, "--seed", str(seed), "--trace", str(int(trace))]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"error: the replay of block 0 exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def require_same(mine: dict, replayed: dict, seed: int) -> None:
    if mine == replayed:
        return
    for part in sorted(set(mine) | set(replayed)):
        if mine.get(part) != replayed.get(part):
            a, b = mine.get(part), replayed.get(part)
            if isinstance(a, list) and isinstance(b, list):
                diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
                detail = f"first differing request {diff[:1]}, lengths {len(a)}/{len(b)}"
                if diff:
                    detail += f": {a[diff[0]]} vs {b[diff[0]]}"
            else:
                detail = f"{a} vs {b}"
            print(f"error: exact counts of seed {seed} differ between two runs "
                  f"({part}): {detail}", file=sys.stderr)
    sys.exit(3)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(workload, records, failed, facts, setup_s, rss_mb) -> Dict[str, tuple]:
    latencies = sorted(r.latency for r in records)
    busy = sum(latencies)
    n = len(records)
    ratio = 1.0  # the program that runs is the original one
    if workload.name == "specialize":  # over the first cycle, a fixed set per seed
        first = [facts[r.key] for r in records
                 if r.block < workload.cycle and r.key in facts]
        ratio = (sum(f["spec_steps"] for f in first)
                 / max(1, sum(f["orig_steps"] for f in first)))
    return {
        "setup_s": (setup_s, "s"),
        "req_per_s": (n / busy, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "steps_per_s": (sum(r.steps for r in records) / busy, "1/s"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "spec_step_ratio": (ratio, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def scaling_labels(workloads_mod) -> List[str]:
    out = []
    deep = workloads_mod.NarrowDeep
    for family, (lo, hi) in deep.RANGES.items():
        for blo, bhi in deep.BUCKETS:
            if blo <= hi:
                out.append(f"narrow_deep.us_per_node.{family}.k_{blo:02d}_{bhi:02d}")
    wide = workloads_mod.NarrowWide
    for strategy in wide.STRATEGIES:
        for _, lo, hi in wide.STRATA:
            out.append(f"narrow_wide.us_per_node.{strategy}.n_{lo:04d}_{hi:04d}")
    return out


NARROWING_COUNTERS = ("nodes", "steps_offered", "taken_per_offered",
                      "leaves.success", "leaves.failing", "leaves.incomplete",
                      "answers")


def per_layer_names(tracing_mod, workloads_mod) -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in a fixed order."""
    out = []
    for label, _, _ in tracing_mod.TARGETS:
        out += [(f"{label}.calls", "count"), (f"{label}.self_s", "s")]
    out += [(f"{layer}.self_s", "s") for layer in tracing_mod.LAYERS]
    out += [(f"narrowing.{c}", "ratio" if c == "taken_per_offered" else "count")
            for c in NARROWING_COUNTERS]
    out += [("peval.forest_builds_per_pe", "ratio"), ("peval.iterations", "count"),
            ("peval.rules", "count"), ("peval.abstract_add.changed_ratio", "ratio"),
            ("trace.overhead_ratio", "ratio"), ("trace.spans", "count")]
    out += [(label, "us") for label in scaling_labels(workloads_mod)]
    out += [(f"{m}.lines", "count") for m in SOURCE_MODULES] + [("nspec.lines", "count")]
    return out


def per_layer(tracing_mod, workloads_mod, name, tracer, untraced, traced) -> Dict[str, tuple]:
    values: Dict[str, float] = {}
    summary = tracer.summary()
    for label, (calls, self_s) in summary.items():
        values[f"{label}.calls"] = calls
        values[f"{label}.self_s"] = self_s
    for layer in tracing_mod.LAYERS:
        values[f"{layer}.self_s"] = sum(
            s for label, (_, s) in summary.items() if label.startswith(layer + "."))

    first = [r for r in traced if r.block == 0 and r.error is None]

    def total(key: str) -> int:
        return sum(r.counts.get(key, 0) for r in first)

    offered = total("offered")
    values.update({
        "narrowing.nodes": total("nodes"),
        "narrowing.steps_offered": offered,
        "narrowing.taken_per_offered": (total("nodes") - len(first)) / offered if offered else 0,
        "narrowing.leaves.success": total("success"),
        "narrowing.leaves.failing": total("failing"),
        "narrowing.leaves.incomplete": total("incomplete"),
        "narrowing.answers": total("answers"),
    })
    pe_calls = summary["peval.pe_control"][0]
    add_calls = summary["peval.abstract_add"][0]
    values.update({
        "peval.forest_builds_per_pe":
            summary["deftree.is_inductively_sequential"][0] / pe_calls if pe_calls else 0,
        "peval.iterations": total("iterations"),
        "peval.rules": total("rules"),
        "peval.abstract_add.changed_ratio":
            tracer.abstract_add_changed / add_calls if add_calls else 0,
        "trace.overhead_ratio":
            sum(r.latency for r in traced) / sum(r.latency for r in untraced) - 1,
        "trace.spans": len(tracer.start),
    })

    time_of: Dict[str, List[float]] = {}
    for r in untraced:
        if r.error is None and r.nodes:
            acc = time_of.setdefault(f"{name}.us_per_node.{r.label}", [0.0, 0])
            acc[0] += r.latency
            acc[1] += r.nodes
    for label in scaling_labels(workloads_mod):
        spent, nodes = time_of.get(label, (0.0, 0))
        values[label] = spent / nodes * 1e6 if nodes else 0.0

    lines = {path.stem: len(path.read_text(encoding="utf-8").splitlines())
             for path in (SRC / "nspec").glob("*.py")}
    for module in SOURCE_MODULES:
        values[f"{module}.lines"] = lines[module]
    values["nspec.lines"] = sum(lines.values())
    return {n: (values[n], unit) for n, unit in per_layer_names(tracing_mod, workloads_mod)}


def report(workload_name, attempted, failed, wrong, metrics, notes) -> None:
    """The human-readable summary, then the result line."""
    print(f"workload {workload_name}: {attempted} requests, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f})")
    for line in notes:
        print(line)
    for key, reason in sorted(wrong.items())[:10]:
        print(f"  wrong output: {key[:100]}: {reason}")
    width = max(len(n) for n in metrics)
    for n, (value, unit) in metrics.items():
        print(f"  {n:<{width}}  {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay-block0", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    tracing, workloads = import_sources()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    seed, trace = args.seed, bool(args.trace)

    if args.replay_block0:
        workload = cls()
        blocks = [workload.block(seed, 0)]
        tracer = tracing.Tracer()
        calls = None
        if trace:
            with tracer:
                records, _ = run_blocks(workload, seed, 0, 0, blocks, tracer=tracer)
            calls = tracer.calls()
        else:
            records, _ = run_blocks(workload, seed, 0, 0, blocks)
        _, _, facts = check(workload, records)
        print(json.dumps(exact_counts(records, facts, calls)))
        return 0

    if not trace:
        setup_s, setup_wall = measure_setup(
            [str(workloads.PROGRAMS / f) for f in cls.programs])
        workload = cls()
        records, _ = run_blocks(workload, seed, args.seconds, MIN_SAMPLES)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        t0 = perf_counter()
        failed, wrong, facts = check(workload, records)
        check_s = perf_counter() - t0
        require_same(exact_counts(records, facts), replay_block0(cls.name, seed, False), seed)
        metrics = end_to_end(workload, records, failed, facts, setup_s, rss_mb)
        walls = sorted(r.wall for r in records)
        notes = [f"  {len(records)} latency samples over {max(r.block for r in records) + 1} "
                 f"blocks; outputs checked in {check_s:.1f} s; exact counts of block 0 "
                 f"repeat in a fresh interpreter",
                 f"  times below are scaled to the yardstick; as measured: setup "
                 f"{setup_wall:.4f} s, p50 {statistics.median(walls) * 1e3:.2f} ms, "
                 f"p90 {percentile(walls, 0.9) * 1e3:.2f} ms, "
                 f"{len(walls) / sum(walls):.3f} req/s"]
        report(cls.name, len(records), failed, wrong, metrics, notes)
        return 0

    # Traced run: a third of the time untraced, then the same blocks traced.
    workload = cls()
    untraced, blocks = run_blocks(workload, seed, args.seconds / 3, 0)
    tracer = tracing.Tracer()
    block0_calls = {}

    def keep_block0_calls(b: int) -> None:
        if b == 0:
            block0_calls.update(tracer.calls())

    with tracer:
        traced, _ = run_blocks(workload, seed, 0, 0, blocks=blocks, tracer=tracer,
                               after_block=keep_block0_calls)
    failed, wrong, facts = check(workload, traced)
    require_same(exact_counts(traced, facts, block0_calls),
                 replay_block0(cls.name, seed, True), seed)
    metrics = per_layer(tracing, workloads, cls.name, tracer, untraced, traced)
    notes = [f"  {len(traced)} requests in {len(blocks)} blocks, run untraced "
             f"and then traced; {len(tracer.start)} spans"]
    report(cls.name, len(traced), failed, wrong, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
