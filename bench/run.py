"""padlab benchmark: seeded closed-loop workloads with verified results.

Usage (from the repository root):

    python3 bench/run.py --workload {series,oracle,cli} --seed N \
        --seconds S --trace {0,1}

One client, one process, no worker threads; numpy/BLAS are pinned to one
thread and PADLAB_THREADS is unset.  A run makes cycles of its workload
(see workloads.py) from --seed, as many as fill --seconds on the nominal
host, runs them closed-loop, checks every op against an independent
route, and prints the end-to-end metrics; set-up is timed separately in
fresh interpreters.
Timings are scaled to a nominal host (hostspeed.py); the unscaled goodput
and the host's measured speed are printed next to them.  With
--trace 1 it instead runs a fixed number of cycles twice, untraced and then
traced, on inputs of the same shape but different values; a child
interpreter (with another hash seed) repeats both passes, and the run
checks that every count of the two traced passes agrees exactly.  It then
runs the layer probes, reports the per-layer metrics, and writes the spans
to bench/out/.

Before the last line the run prints its metadata, the measured op mix, the
failures by exception class or exit code, and every metric by name and
unit.  The last line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import os

# pinned before numpy loads, here and in the set-up children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
PADLAB_THREADS = os.environ.pop("PADLAB_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

# bench/ is the script's directory; none of these imports the package
import hostspeed  # noqa: E402
from layertrace import COUNTERS, SPAN_NAMES, Tracer  # noqa: E402
from probes import PROBES, run_probes  # noqa: E402

# imported by main() once src/ and tests/ are on the path
fixtures = workloads = None

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 11
# An end-to-end run makes round(seconds / cycle seconds) cycles of ops, at
# least one, and runs each slot of them `passes` times, every pass on fresh
# values of the slot's shape; the cycle seconds are the nominal time of a
# cycle's passes on a 2-core Xeon at 2.1 GHz.  The work is thus fixed by
# --seed and --seconds, and its ops take about --seconds on that host.
RUN_SHAPE = {"series": (0.5, 3), "oracle": (5.2, 5), "cli": (7.4, 3)}
# cycles per pass of a traced run, sized so one untraced pass takes seconds
TRACE_CYCLES = {"series": 20, "oracle": 2, "cli": 1}

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# counts that must repeat exactly across the two traced passes
COUNTS = COUNTERS + [f"{name}.calls" for name in SPAN_NAMES]
PER_LAYER = (
    [(name, "count") for name in COUNTS]
    + [(f"{name}.self_ms", "ms") for name in SPAN_NAMES]
    + [("dynamics.full.ns_per_point", "ns"), ("dynamics.full.alive_fraction", "ratio"),
       ("trace.overhead_ratio", "ratio")]
    + list(PROBES.items()) + [(f"{name}.spread", "ratio") for name in PROBES]
)


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("series", "oracle", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # internal: the child of a traced run, which prints its counts only
    parser.add_argument("--counts-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


# ---- metadata --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _metadata(args) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": _git_sha(), "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
        "PADLAB_THREADS": PADLAB_THREADS,
    }


# ---- running ops -------------------------------------------------------------


class Tally:
    """Outcome of every op attempted: latency, status and failure label."""

    def __init__(self) -> None:
        self.latency_ms: list[float] = []  # one per slot
        self.busy_s = 0.0  # a slot's latency counted once per op run in it
        self.raw_busy_s = 0.0  # the same, unscaled
        self.attempted = 0
        self.verified = 0
        self.failures: Counter = Counter()
        self.mismatches = 0
        self.points = [0, 0.0]  # verified oracle points, seconds spent on them
        self.mix: Counter = Counter()  # (kind, sorted tags) -> ops

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, op, seconds: float, raw_seconds: float, outcomes: list) -> None:
        """One slot: its latency and the outcome of each of its op runs."""
        self.latency_ms.append(seconds * 1e3)
        for outcome in outcomes:
            self.attempted += 1
            self.busy_s += seconds
            self.raw_busy_s += raw_seconds
            self.mix[op.kind, tuple(sorted(op.tags.items()))] += 1
            if outcome is None:
                self.verified += 1
                if "points" in op.tags:
                    self.points[0] += op.tags["points"]
                    self.points[1] += seconds
                continue
            status, label = outcome
            self.failures[label if status == "failed" else "mismatch"] += 1
            if status == "mismatch":
                self.mismatches += 1
                print(f"mismatch: {label}", file=sys.stderr)


def _make_ops(workload: str, seed: int, cycles: int, variants: int, gen) -> list[list]:
    """`variants` lists of ops of the same slot shapes, in the same shuffled
    slot order, with fresh values in each list.

    The order is part of the shape: it depends on the cycle, not on the
    seed.  An op's cost can depend on the ops before it (on the oracle,
    with the order drawn from the seed, the 15625-point slots of a run fell
    into two cost levels 1.3x apart, each slot keeping its level in every
    pass), so an order drawn from the seed would move the figures between
    seeds.
    """
    cycle_fn, _ = workloads.WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = [[] for _ in range(variants)]
    for cycle in range(cycles):
        made = cycle_fn(rng, gen, variants)
        order = list(range(len(made[0])))
        random.Random(f"{workload}:order:{cycle}").shuffle(order)
        for ops, cycle in zip(out, made):
            ops.extend(cycle[j] for j in order)
    return out


def _run_passes(variants: list[list], fx, tally: Tally, host, tracer=None) -> None:
    """Run each list of ops closed-loop, in order, one pass per list.

    Slot i of every list has the same shape.  Its latency is its fastest
    pass, scaled to the nominal host (see hostspeed.py); passes of several
    seconds keep the runs of one slot out of the same slow spell, and fresh
    values in each pass keep a cache keyed on input from counting as speed.
    Every run's result is checked.
    """
    clock = time.perf_counter
    slots = len(variants[0])
    raw = [float("inf")] * slots
    outcomes = [[] for _ in range(slots)]
    timings = []
    for ops in variants:
        gc.collect()
        for i, op in enumerate(ops):
            result = error = None
            host.tick()
            if tracer is not None:
                tracer.op, tracer.active = i, True
            start = clock()
            try:
                result = op.run(fx)
            except Exception as err:  # labelled by outcome(); the run carries on
                error = err
            end = clock()
            if tracer is not None:
                tracer.active = False
            timings.append((i, start, end))
            raw[i] = min(raw[i], end - start)
            outcomes[i].append(workloads.outcome(op, result, error))
    host.finish()
    best = [float("inf")] * slots
    for i, start, end in timings:
        best[i] = min(best[i], (end - start) * host.scale(start, end, mean=False))
    for i in range(slots):
        tally.record(variants[0][i], best[i], raw[i], outcomes[i])


def _op_mix(workload: str, mix: Counter) -> dict:
    """Measured shape of the ops run: the share of each kind and property."""
    ops = [(kind, dict(tags), n) for (kind, tags), n in mix.items()]
    total = sum(n for _, _, n in ops)

    def share(pred, among=lambda kind, tags: True) -> float:
        base = sum(n for kind, tags, n in ops if among(kind, tags))
        return round(sum(n for kind, tags, n in ops if among(kind, tags) and pred(kind, tags)) / base, 4)

    kinds = Counter()
    for kind, _, n in ops:
        kinds[kind] += n
    shape = {"ops": total, "kind_share": {k: round(v / total, 4) for k, v in sorted(kinds.items())}}
    if workload == "series":
        for p in (2, 3, 5):
            shape[f"p{p}_share"] = share(lambda k, t, p=p: t["p"] == p)
    if workload == "oracle":
        points = sorted(t["points"] for _, t, n in ops for _ in range(n))
        shape["points_min"] = points[0]
        shape["points_median"] = statistics.median(points)
        shape["points_max"] = points[-1]
        shape["largest_job_share_of_points"] = round(
            sum(p for p in points if p == points[-1]) / sum(points), 4)
        shape["n1_job_share"] = share(lambda k, t: t["n"] == 1)
    if workload == "cli":
        shape["d1_conjugate_share_of_ops"] = share(lambda k, t: t.get("conjugate", False))
        shape["d1_conjugate_share_of_analyze"] = share(
            lambda k, t: t["conjugate"], among=lambda k, t: k == "analyze")
        shape["slow_chain_share_of_chains"] = share(
            lambda k, t: t["slow"], among=lambda k, t: "slow" in t)
    return shape


def _setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of import padlab plus the fixtures,
    each scaled to the nominal host by the calibrations around it."""
    host = hostspeed.HostClock()
    spans = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, env=os.environ.copy(),
        )
        end = time.perf_counter()
        if proc.returncode != 0:
            _fail(f"set-up child failed: {proc.stderr.strip()}")
        spans.append((float(proc.stdout.strip()), start, end))
        host.sample()
    host.finish()
    return statistics.median(t * host.scale(start, end, mean=True) for t, start, end in spans)


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---- the two kinds of run ---------------------------------------------------


def _end_to_end(args, gen) -> tuple[Tally, dict, dict]:
    cycle_s, passes = RUN_SHAPE[args.workload]
    cycles = max(1, round(args.seconds / cycle_s))
    setup_s = _setup_seconds(args.workload)
    fx = fixtures.build(args.workload)
    variants = _make_ops(args.workload, args.seed, cycles, passes, gen)
    tally = Tally()
    host = hostspeed.HostClock()
    _run_passes(variants, fx, tally, host)
    metrics = {
        "ops_per_s": tally.verified / tally.busy_s,
        "latency_p50_ms": _percentile(tally.latency_ms, 50),
        "latency_p99_ms": _percentile(tally.latency_ms, 99),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"failed_ratio": (tally.failed / tally.attempted, "ratio"),
             "slots": (len(tally.latency_ms), "count"),
             "passes": (passes, "count"),
             "host_speed": (host.speed(), "ratio"),
             "unscaled_ops_per_s": (tally.verified / tally.raw_busy_s, "1/s")}
    if args.workload == "oracle":
        extra["points_per_s"] = (tally.points[0] / tally.points[1], "1/s")
    return tally, metrics, {"extra": extra, "shape": _op_mix(args.workload, tally.mix)}


def _traced_passes(args, gen):
    """An untraced pass, then a traced pass on other values of the same
    shape.  Returns (untraced tally, its seconds, tracer, traced tally, its
    seconds)."""
    traced_ops, plain_ops = _make_ops(args.workload, args.seed, TRACE_CYCLES[args.workload], 2, gen)
    plain, plain_s = _timed_pass(plain_ops, args.workload, None)
    tracer = Tracer()
    tracer.install()
    try:
        tally, seconds = _timed_pass(traced_ops, args.workload, tracer)
    finally:
        tracer.uninstall()
    return plain, plain_s, tracer, tally, seconds


def _child_counts(args) -> tuple[dict, int]:
    """Counts and mismatches of the same traced run in a fresh interpreter
    with another string-hash seed."""
    env = os.environ.copy()
    ours = env.get("PYTHONHASHSEED", "")
    env["PYTHONHASHSEED"] = str(int(ours) + 1) if ours.isdigit() else "1"
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", "1",
            "--counts-child"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=150, env=env)
    if proc.returncode != 0:
        _fail(f"traced child failed: {proc.stderr.strip()[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["counts"], doc["mismatches"]


def _traced(args, gen) -> tuple[Tally, dict, dict]:
    plain, plain_s, tracer, tally, seconds = _traced_passes(args, gen)
    metrics = _layer_metrics(tracer)
    child, child_mismatches = _child_counts(args)
    differ = {n: (metrics[n], child.get(n)) for n in COUNTS if metrics[n] != child.get(n)}
    if differ:
        print(f"traced counts differ between processes: {differ}", file=sys.stderr)
    metrics["trace.overhead_ratio"] = seconds / plain_s
    metrics.update(run_probes())
    out = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(out, _metadata(args))
    extra = {"counts_repeat": (int(not differ), "bool"), "spans": (len(tracer.spans), "count"),
             "untraced_pass_s": (plain_s, "s")}
    tally.mismatches += plain.mismatches + child_mismatches + bool(differ)
    return tally, metrics, {"extra": extra, "shape": _op_mix(args.workload, tally.mix)}


def _counts_child(args, gen) -> None:
    plain, _, tracer, tally, _ = _traced_passes(args, gen)
    metrics = _layer_metrics(tracer)
    print(json.dumps({"counts": {n: metrics[n] for n in COUNTS},
                      "mismatches": plain.mismatches + tally.mismatches}))


def _timed_pass(ops, workload: str, tracer) -> tuple[Tally, float]:
    """Fresh fixtures plus one run of every op; seconds in set-up and ops,
    scaled to the nominal host."""
    gc.collect()
    tally = Tally()
    host = hostspeed.HostClock()
    if tracer is not None:
        tracer.op, tracer.active = -1, True
    start = time.perf_counter()
    fx = fixtures.build(workload)
    end = time.perf_counter()
    if tracer is not None:
        tracer.active = False
    _run_passes([ops], fx, tally, host, tracer)
    return tally, (end - start) * host.scale(start, end, mean=True) + tally.busy_s


def _layer_metrics(tracer) -> dict:
    totals = tracer.layer_totals()
    metrics = {name: tracer.counts.get(name, 0) for name in COUNTERS}
    for name in SPAN_NAMES:
        row = totals.get(name, {"calls": 0, "self_ns": 0})
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_ms"] = row["self_ns"] / 1e6
    full_ns = totals.get("dynamics.full", {"self_ns": 0})["self_ns"]
    points = metrics["dynamics.full.points"]
    metrics["dynamics.full.ns_per_point"] = full_ns / points if points else 0.0
    alive, steps = tracer.full_steps
    metrics["dynamics.full.alive_fraction"] = alive / steps if steps else 0.0
    return metrics


def main() -> None:
    args = _parse_args()
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not (ROOT / "src" / "padlab" / "__init__.py").is_file():
        _fail(f"package source not found under {ROOT / 'src'}")
    if not (ROOT / "tests" / "cli_cases.py").is_file():
        _fail(f"cli fixtures not found under {ROOT / 'tests'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    global fixtures, workloads
    import fixtures
    import workloads

    # the inputs are generated against their own copy of the fixtures
    gen = (workloads.cli_generation_state(ROOT) if args.workload == "cli"
           else fixtures.build(args.workload))
    if args.counts_child:
        _counts_child(args, gen)
        return
    run = _traced if args.trace else _end_to_end
    tally, metrics, info = run(args, gen)

    listed = PER_LAYER if args.trace else END_TO_END
    print(f"padlab-bench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(_metadata(args), sort_keys=True))
    print("layers " + json.dumps(workloads.WORKLOADS[args.workload][1]))
    print("shape " + json.dumps(info["shape"], sort_keys=True))
    print("failures " + json.dumps(dict(sorted(tally.failures.items()))))
    for name, (value, unit) in info["extra"].items():
        print(f"metric {name} = {value!r} {unit}")
    for name, unit in listed:
        print(f"metric {name} = {metrics[name]!r} {unit}")
    result = {
        "correct": tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in listed},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
