"""pqfs benchmark: one workload per run, one closed-loop caller, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see workloads.py): sweep_warm, verify_cold, closed_form,
cli_startup.  Run from the root of a checkout; pqfs is imported from its
``src``.

``--trace 0`` sets up several times (the first set-up in this process, the
rest in fresh child processes, one at a time, half of them before the
operations and half after) and reports the median as
``setup_s``, then runs operations for ``--seconds`` and at least 100 of
them, and reports the end-to-end metrics.  The timings among them are
multiples of the workload's reference, fixed work timed between the
operations (see ``closed_loop``), so that they do not move with the
shared host's speed; the same timings in milliseconds are printed too.  ``--trace 1`` runs blocks of
operations untraced and replays each block under ``tracer.Tracer`` (or the
other way round, alternating) for ``--seconds``, and reports the per-layer
metrics; the difference between the time spent in operations in the two
passes is ``tracing.overhead_s``.  Each result is checked right after its
operation is timed; throughput counts only the time spent inside
operations, so the checks do not lower it.  Human-readable lines with
units and sample counts come first; the last line of stdout is the JSON
result.  ``--smoke`` shrinks the run to a few operations and one set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

import tracer
import workloads

MIN_OPS = 100  # p90 then has at least ten samples beyond it
REF_EVERY_S = 0.1  # the reference is timed again after a stretch of operations this long
REF_REPEATS = 3
SETUP_RUNS = 7
IMPORT_RUNS = 3
DIGEST_OPS = 100  # the oracle digest covers the records of the first ops only
# One block of a --trace 1 run lasts this long before it is replayed: about
# 50 verify_cold operations, so the replay finds none of the sample sets its
# first pass built still in the oracle's cache, as in an untraced run.
BLOCK_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_ref": "1/ref",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{m}.{k}": u for m in workloads.MODULES
       for k, u in (("calls", "1/op"), ("self_ms", "ms/op"), ("self_share", "1"), ("errors", "1/op"))},
    "oracle.self_ms_per_mu": "ms",
    "oracle.attained_ratio": "1",
    "bernardi.refusals": "1/op",
    "bernardi.oracle_fail": "1/op",
    "import.pqfs_ms": "ms",
    "import.numpy_ms": "ms",
    "tracing.overhead_s": "s",
    "mu_points_per_s": "1/s",
    "error_rate": "1",
}


def set_up(name: str, seed: int):
    """Generate inputs (untimed), then time import pqfs plus the workload's
    warm-up, which fills the caches its operations use."""
    inputs = workloads.generate(name, seed)
    start = perf_counter()
    wl = workloads.CLASSES[name](workloads.load_pqfs())
    wl.warm_up(inputs)
    return wl, inputs, perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    """Running totals over checked operations.  Besides the latencies it
    keeps only the oracle records of the first ``DIGEST_OPS`` operations,
    so memory does not grow with the results.  ``scaled`` holds the
    latencies as multiples of the reference, ``references`` the reference
    times.  Span totals reported by traced CLI children are merged into
    ``tracer``."""

    def __init__(self, tracer: tracer.Tracer | None = None):
        self.tracer = tracer
        self.ops = self.failed = self.refused = self.bernardi_fail = 0
        self.mu_points = self.oracle_mu = self.records = self.attained = self.child_rss_kb = 0
        self.digest_records: list = []
        self.problem = ""
        self.latencies = array("d")
        self.scaled = array("d")
        self.references = array("d")

    def add(self, out: workloads.Outcome, latency: float) -> None:
        self.latencies.append(latency)
        if self.ops < DIGEST_OPS:
            self.digest_records.extend(out.records)
        self.ops += 1
        if not out.ok:
            self.failed += 1
            self.problem = self.problem or out.problem
        self.refused += out.refused
        self.bernardi_fail += out.bernardi_fail
        self.oracle_mu += out.mu_points
        self.mu_points += out.mu_points + out.bernardi_records
        self.records += len(out.records)
        self.attained += sum(r.attained for r in out.records)
        self.child_rss_kb = max(self.child_rss_kb, out.child_rss_kb)
        if out.child_spans:
            self.tracer.merge(out.child_spans)

    def add_stretch(self, latencies: list, reference: float) -> None:
        self.scaled.extend(x / reference for x in latencies)
        self.references.append(reference)


def time_reference(ref) -> float:
    """Median wall time of ``REF_REPEATS`` calls of a reference."""
    times = []
    for _ in range(REF_REPEATS):
        t = perf_counter()
        ref()
        times.append(perf_counter() - t)
    return statistics.median(times)


def closed_loop(wl, ref, inputs: list, tally: Tally, first: int = 0, count: int | None = None,
                seconds: float = 0.0, min_ops: int = 0) -> int:
    """Run operations one after another, from input ``first`` on:
    ``count`` of them, or else until ``seconds`` have passed and
    ``min_ops`` are done (never past twice ``seconds``).  Each result is
    checked as soon as its operation has been timed.  Returns the number
    of operations run.

    The reference ``ref`` is timed before the first operation and after
    each stretch of operations lasting ``REF_EVERY_S``, outside the
    operations' timings.  Each latency is also recorded as a multiple of
    the mean of the two reference times around its stretch.  On a shared
    host whose speed changes from second to second the reference slows
    with the operations, so these multiples stay put where the
    milliseconds do not."""
    start = perf_counter()
    ref_before, stretch, stretch_start = time_reference(ref), [], perf_counter()
    i = 0
    while True:
        x = inputs[(first + i) % len(inputs)]
        t = perf_counter()
        try:
            result, exc = wl.op(x), None
        except Exception as err:  # a raising operation is a failed one
            result, exc = None, err
        latency = perf_counter() - t
        out = wl.check(x, result) if exc is None else workloads.Outcome().fail(
            f"raised {type(exc).__name__}: {exc}")
        tally.add(out, latency)
        stretch.append(latency)
        i += 1
        now = perf_counter()
        elapsed = now - start
        if count is not None:
            done = i >= count
        else:
            done = elapsed >= seconds and (i >= min_ops or elapsed >= 2 * seconds)
        if done or now - stretch_start >= REF_EVERY_S:
            ref_after = time_reference(ref)
            tally.add_stretch(stretch, (ref_before + ref_after) / 2)
            ref_before, stretch, stretch_start = ref_after, [], perf_counter()
        if done:
            return i


def paired_blocks(wl, ref, inputs: list, plain: Tally, traced: Tally, seconds: float, min_ops: int) -> None:
    """Run the same operations untraced into ``plain`` and traced into
    ``traced``, in blocks: one pass runs the next operations for
    ``BLOCK_S``, the other replays exactly them, and which pass goes first
    alternates from block to block.  So the host's drifting speed falls on
    both passes alike.  Stops after ``seconds`` once ``min_ops`` are done
    (never past twice ``seconds``)."""
    passes = [(plain, contextlib.nullcontext), (traced, lambda: wl.tracing(traced.tracer))]
    start = perf_counter()
    block = first = 0
    while True:
        (lead, lead_mode), (replay, replay_mode) = passes if block % 2 == 0 else passes[::-1]
        with lead_mode():
            n = closed_loop(wl, ref, inputs, lead, first, seconds=BLOCK_S)
        with replay_mode():
            closed_loop(wl, ref, inputs, replay, first, count=n)
        block, first = block + 1, first + n
        elapsed = perf_counter() - start
        if elapsed >= seconds and (plain.ops >= min_ops or elapsed >= 2 * seconds):
            return


def import_times() -> tuple[float, float]:
    """Median cumulative import time of pqfs and of numpy, in ms, from
    ``python -X importtime`` in fresh processes."""
    env = {**os.environ, "PYTHONPATH": workloads.SRC}
    pqfs_ms, numpy_ms = [], []
    for _ in range(IMPORT_RUNS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pqfs"], env=env,
                              cwd=workloads.ROOT, capture_output=True, text=True, timeout=120, check=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
        pqfs_ms.append(cumulative["pqfs"])
        numpy_ms.append(cumulative["numpy"])
    return statistics.median(pqfs_ms), statistics.median(numpy_ms)


def percentile(values: list, k: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[k - 1] if len(values) > 1 else values[0]


def peak_rss_kb() -> int:
    """Peak resident memory of this process.  Not ``ru_maxrss``: on Linux
    that also counts the memory of the process that started this one."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))


def show(name: str, value: float, unit: str, samples: int) -> None:
    print(f"{name:24s} {value:14.6g} {unit:6s} n={samples}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few operations and one set-up")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl, inputs, setup = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup))
        return 0
    min_ops = 2 if args.smoke else (10 if args.trace else MIN_OPS)
    # Half the fresh set-ups run before the operations and half after, so
    # that setup_s samples the host's speed at both ends of the run.
    probes = 0 if args.smoke or args.trace else SETUP_RUNS - 1
    setups = [setup] + [probe_setup(args.workload, args.seed) for _ in range(probes // 2)]

    ref = wl.timing_reference()
    tally = Tally()
    start = perf_counter()
    if args.trace:
        tr = tracer.Tracer(wl.m)
        traced = Tally(tr)
        paired_blocks(wl, ref, inputs, tally, traced, args.seconds, min_ops)
    else:
        closed_loop(wl, ref, inputs, tally, seconds=args.seconds, min_ops=min_ops)
    wall = perf_counter() - start
    n = tally.ops
    if tally.problem:
        print(f"FAILED: {tally.problem}")
    replayed = " (each also traced)" if args.trace else ""
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {n} operations{replayed} in {wall:.3f} s, "
          f"{tally.failed} failed, {tally.refused} Bernardi refusals, "
          f"{tally.bernardi_fail} Bernardi oracle FAIL verdicts")
    print(f"oracle_digest {workloads.record_digest(tally.digest_records)} "
          f"records={len(tally.digest_records)} ops={min(n, DIGEST_OPS)}")
    busy = sum(tally.latencies)
    error_rate = (tally.failed + tally.refused) / n
    failed, attempted = tally.failed, n

    if not args.trace:
        show("mu_points_per_s", tally.mu_points / busy, "1/s", n)
        show("error_rate", error_rate, "1", n)
        show("throughput_ops_s", n / busy, "1/s", n)
        show("latency_ms_p50", 1e3 * statistics.median(tally.latencies), "ms", n)
        show("latency_ms_p90", 1e3 * percentile(tally.latencies, 90), "ms", n)
        show("reference_ms", 1e3 * statistics.median(tally.references), "ms", len(tally.references))
        setups += [probe_setup(args.workload, args.seed) for _ in range(probes - probes // 2)]
        if args.workload == "cli_startup":
            rss_kb, rss_n = tally.child_rss_kb, n
        else:
            rss_kb, rss_n = peak_rss_kb(), 1
        metrics = {
            "setup_s": (statistics.median(setups), len(setups)),
            "throughput_ops_ref": (n / sum(tally.scaled), n),
            "latency_p50_ref": (statistics.median(tally.scaled), n),
            "latency_p90_ref": (percentile(tally.scaled, 90), n),
            "peak_rss_mb": (rss_kb / 1024.0, rss_n),
        }
    else:
        failed += traced.failed
        attempted += traced.ops
        t_busy = sum(traced.latencies)
        metrics = {}
        for m in workloads.MODULES:
            metrics[f"{m}.calls"] = (tr.calls[m] / n, n)
            metrics[f"{m}.self_ms"] = (1e3 * tr.self_s[m] / n, n)
            metrics[f"{m}.self_share"] = (tr.self_s[m] / t_busy, n)
            metrics[f"{m}.errors"] = (tr.errors[m] / n, n)
        pqfs_ms, numpy_ms = import_times()
        metrics.update({
            "oracle.self_ms_per_mu": (1e3 * tr.self_s["oracle"] / traced.oracle_mu if traced.oracle_mu else 0.0,
                                      traced.oracle_mu),
            "oracle.attained_ratio": (traced.attained / traced.records if traced.records else 0.0, traced.records),
            "bernardi.refusals": (tally.refused / n, n),
            "bernardi.oracle_fail": (tally.bernardi_fail / n, n),
            "import.pqfs_ms": (pqfs_ms, IMPORT_RUNS),
            "import.numpy_ms": (numpy_ms, IMPORT_RUNS),
            "tracing.overhead_s": (t_busy - busy, n),
            "mu_points_per_s": (tally.mu_points / busy, n),
            "error_rate": (error_rate, n),
        })
    units = PER_LAYER if args.trace else END_TO_END
    for name, (value, samples) in metrics.items():
        show(name, value, units[name], samples)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
