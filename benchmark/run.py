"""Layered benchmark of convexcount.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  One process runs one workload in-process: CLI requests go through
``convexcount.cli.main`` and annealer runs through ``minimize_pentagons``.
Every output is checked against expected values made, in a child process,
before the timed span.

--trace 0 prints the end-to-end metrics, timed by the process CPU clock and
scaled to a fixed speed of a reference task sampled through the same run
(the unscaled and wall-clock figures go on report lines).  --trace 1 runs every
operation twice, untraced and with every layer boundary wrapped, and prints
per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("large_n200", "small_batch", "anneal")
SETUP_REPEATS = 7
CALIBRATIONS = 24
# The reference task's CPU seconds at the speed every reported time is scaled
# to: its typical figure on the 2-vCPU Xeon virtual machine the bounds were
# set on.  Only the scale of the reported times depends on it.
REFERENCE_S = 0.125
REFERENCE_ROUNDS = 4000
EXIT_REFUSED = 2


def _import_workloads():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def _refusal():
    """Why the benchmark must not run here, or None."""
    if not (SRC / "convexcount" / "__init__.py").is_file():
        return f"no convexcount sources under {SRC}; run from a source checkout"
    if "GEO_THREADS" in os.environ:
        return "GEO_THREADS is set; unset it so aggregation uses its default thread count"
    threads = os.cpu_count() or 1
    nproc = len(os.sched_getaffinity(0))
    if threads > nproc:
        return f"aggregation would use {threads} threads but only {nproc} cores are usable"
    return None


def machine_facts(seed: int) -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "aggregate_threads": os.cpu_count() or 1,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def _sizes(wl_mod, tiny: bool):
    return wl_mod.TINY if tiny else wl_mod.Sizes()


def setup_child(workload: str, seed: int, tiny: bool, out_dir: Path) -> None:
    """One timed set-up: import the package, make and write the inputs.
    Prints the CPU seconds it took."""
    start = process_time()
    wl_mod = _import_workloads()
    wl_mod.setup(workload, seed, _sizes(wl_mod, tiny), out_dir)
    print(process_time() - start)


def expected_child(workload: str, seed: int, tiny: bool, out_file: Path) -> None:
    """Writes the workload's expected values to out_file as JSON."""
    wl_mod = _import_workloads()
    values = wl_mod.expected_values(workload, seed, _sizes(wl_mod, tiny))
    out_file.write_text(json.dumps(values), encoding="utf-8")


def _child(flag: str, workload: str, seed: int, tiny: bool, out: Path) -> str:
    argv = [sys.executable, str(Path(__file__).resolve()), flag,
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--out", str(out)] + (["--tiny"] if tiny else [])
    return subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True).stdout


def time_setup(workload: str, seed: int, tiny: bool, i: int) -> float:
    """CPU seconds of one set-up in a fresh interpreter."""
    return float(_child("--setup-child", workload, seed, tiny, OUT / f"setup{i}")
                 .strip().splitlines()[-1])


def expected(workload: str, seed: int, tiny: bool) -> list:
    """The expected values of a request workload, made in a child process so
    that the engine calls behind them count neither in this process's peak
    memory nor in its warm state."""
    if workload == "anneal":
        return []
    out_file = OUT / f"expected-{workload}-{seed}.json"
    out_file.parent.mkdir(parents=True, exist_ok=True)
    _child("--expected-child", workload, seed, tiny, out_file)
    return json.loads(out_file.read_text(encoding="utf-8"))


def reference_task() -> int:
    """A fixed CPU task of the benchmark's own, on one thread: interpreter
    work and small numpy array work, as the measured operations do.  It calls
    nothing in convexcount, so its CPU time measures only the speed the
    shared host gives this process at the moment."""
    import numpy

    x = numpy.arange(4096, dtype=numpy.int64)
    acc = 0
    for i in range(REFERENCE_ROUNDS):
        acc = (acc + sum(j * j for j in range(i % 64, i % 64 + 100))) % 1_000_003
        acc += int(((x * i) % 97).sum())
    return acc


def time_reference() -> float:
    start = process_time()
    reference_task()
    return process_time() - start


class Phase:
    """Wall-clock and process CPU time (all threads) and the result of each
    operation one loop ran."""

    def __init__(self):
        self.durations = []
        self.cpu = []
        self.results = []

    def call(self, wl, i, tracer=None) -> float:
        """Run and time operation i; an exception is its (failed) result.
        Returns the wall-clock duration."""
        thunk = wl.op(i)
        cpu_start = process_time()
        start = perf_counter()
        try:
            result = thunk() if tracer is None else tracer.run(wl.span, i, thunk)
        except Exception as exc:  # counted as a failed operation
            result = exc
        duration = perf_counter() - start
        self.cpu.append(process_time() - cpu_start)
        self.durations.append(duration)
        self.results.append(result)
        return duration


def run_phase(wl, seconds, between=None) -> Phase:
    """Closed loop, one client: operation i+1 starts when i has returned.
    Stops once the operations have taken `seconds`.  between(t), if given,
    runs untimed after each operation, t being the seconds taken so far."""
    phase = Phase()
    total = 0.0
    i = 0
    while total < seconds:
        total += phase.call(wl, i)
        i += 1
        if between is not None:
            between(total)
    return phase


def run_paired(wl, seconds, package):
    """The traced run: every operation runs untraced and traced back to back,
    alternating which goes first, so that both see the same machine state.
    Stops at the end of the pass over the inputs during which `seconds`
    have passed.  Returns (untraced phase, traced phase, tracer)."""
    import tracer as tr

    tracer = tr.Tracer()
    untraced, traced = Phase(), Phase()
    begin = perf_counter()
    i = 0
    while True:
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                with tr.installed(tracer, package):
                    traced.call(wl, i, tracer)
            else:
                untraced.call(wl, i)
        i += 1
        if perf_counter() - begin >= seconds and i % wl.cycle == 0:
            return untraced, traced, tracer


def _tail(times):
    ordered = sorted(times)
    k = len(ordered) - 11
    if k < len(ordered) // 2:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def tail(wl, times):
    """The highest percentile with at least 10 samples beyond it, that
    percentile, and the number of windows it was taken over.  The slowest
    sample stands in when that percentile would not lie above the median
    (fewer than 21 samples).

    When a window holds more than 10 operations, the percentile is taken in
    each whole window and the median over windows is reported, which keeps
    one stall from deciding the run.
    """
    size = wl.window
    windows = len(times) // size
    if size <= 10 or windows == 0:
        return _tail(times) + (1,)
    tails = [_tail(times[w * size:(w + 1) * size]) for w in range(windows)]
    return statistics.median(t for t, _ in tails), tails[0][1], windows


def rate(wl, results, times):
    """Median over windows of `wl.window` operations (each window has the
    same mix of work) of proposals, or else requests, per second of
    `times`; and the number of windows."""
    size = wl.window
    count = max(1, len(results) // size) * size
    rates = []
    for start in range(0, count, size):
        work = sum(wl.proposals(r) for r in results[start:start + size])
        rates.append((work or len(results[start:start + size]))
                     / sum(times[start:start + size]))
    return statistics.median(rates), len(rates)


def summary(wl, results, times, clock):
    """(throughput, p50, tail, one report line) of per-operation times."""
    per_s, windows = rate(wl, results, times)
    p_tail, pct, tail_windows = tail(wl, times)
    p50 = statistics.median(times)
    unit = "proposals" if any(wl.proposals(r) for r in results) else "requests"
    line = (f"{clock}: {per_s:.6g} {unit}/s (median of {windows} windows),"
            f" p50 {p50:.6g} s, tail {p_tail:.6g} s = p{pct:.1f} of"
            f" {len(times) // tail_windows} ops (median of {tail_windows} windows),"
            f" {len(times)} ops in {sum(times):.3f} s")
    return per_s, p50, p_tail, line


def failures(wl, phase):
    messages = []
    for i, result in enumerate(phase.results):
        msg = wl.check(i, result)
        if msg is not None:
            messages.append(f"op {i}: {msg}")
    return messages


def end_to_end(wl, phase, setups, references, peak_rss_mb):
    """The end-to-end metrics.  CPU times are scaled by REFERENCE_S over the
    median CPU time of the reference task, sampled through the same run, so
    that the shared host's speed, which drifts by a quarter over minutes,
    cancels out of them."""
    reference = statistics.median(references)
    scale = REFERENCE_S / reference
    per_cpu_s, cpu_p50, cpu_tail, norm_line = summary(
        wl, phase.results, [t * scale for t in phase.cpu], "norm cpu")
    *_, cpu_line = summary(wl, phase.results, phase.cpu, "cpu")
    *_, wall_line = summary(wl, phase.results, phase.durations, "wall clock")
    setup_s = statistics.median(setups)
    metrics = {
        "norm_throughput_per_cpu_s": (per_cpu_s, "1/cpu_s"),
        "norm_cpu_p50_s": (cpu_p50, "s"),
        "norm_cpu_tail_s": (cpu_tail, "s"),
        "setup_s": (setup_s * scale, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    ref_line = (f"reference task: median {reference:.6g} cpu s of {len(references)} samples"
                f" (range {min(references):.6g} to {max(references):.6g}); times scaled by"
                f" {REFERENCE_S} / {reference:.6g} = {scale:.6g}; set-up {setup_s:.6g} cpu s unscaled")
    return metrics, [ref_line, norm_line, cpu_line, wall_line]


def per_layer(wl, untraced, traced, spans):
    import tracer as tr

    totals = tr.layer_totals(spans)
    ops = len(traced.results)
    proposals = sum(wl.proposals(r) for r in traced.results)

    def t(name, key="s"):
        return totals.get(name, {}).get(key, 0) / ops

    kernel_calls = totals.get("kernels.pentagon_count", {}).get("calls", 0)
    untraced_cpu, traced_cpu = sum(untraced.cpu), sum(traced.cpu)
    overhead = 100.0 * (traced_cpu / untraced_cpu - 1.0)
    wall_per_s, wall_p50, wall_tail, wall_line = summary(
        wl, untraced.results, untraced.durations, "untraced wall clock")
    metrics = {
        "geometry.load_placement.s": (t("geometry.load_placement"), "s/op"),
        "geometry.find_violation.s": (t("geometry.find_violation"), "s/op"),
        "kernels.aggregate_chunk.busy_s": (t("kernels.aggregate_chunk"), "s/op"),
        "kernels.aggregate_chunk.calls": (t("kernels.aggregate_chunk", "calls"), "count/op"),
        "kernels.aggregate_chunk.point_tests": (t("kernels.aggregate_chunk", "work"), "count/op"),
        "counting.aggregate_regions.s": (t(tr.AGGREGATE), "s/op"),
        "counting.aggregate_regions.self_s": (t(tr.AGGREGATE, "self_s"), "s/op"),
        "counting.count_from_regions.s": (t("counting.count_from_regions"), "s/op"),
        "counting.naive.s": (t("counting.naive"), "s/op"),
        "counting.naive.calls": (t("counting.naive", "calls"), "count/op"),
        "identities.verify_identities.s": (t("identities.verify_identities"), "s/op"),
        "identities.stats.s": (t("identities.stats"), "s/op"),
        "identities.bound_report.s": (t("identities.bound_report"), "s/op"),
        "cli.request.s": (t("cli.request"), "s/op"),
        "cli.self_s": (t("cli.request", "self_s"), "s/op"),
        "search.proposals": (proposals, "count"),
        "kernels.pentagon_pair_delta.s": (t("kernels.pentagon_pair_delta"), "s/op"),
        "kernels.pentagon_pair_delta.calls": (t("kernels.pentagon_pair_delta", "calls"), "count/op"),
        "kernels.pentagon_pair_delta.subsets": (t("kernels.pentagon_count", "work"), "count/op"),
        "search.kernel_per_proposal": (kernel_calls / proposals if proposals else 0.0,
                                       "calls/proposal"),
        "kernels.pair_sign_matrix.s": (t("kernels.pair_sign_matrix"), "s/op"),
        "kernels.pair_sign_matrix.calls": (t("kernels.pair_sign_matrix", "calls"), "count/op"),
        "search.recount.s": (t("search.recount"), "s/op"),
        "search.recount.calls": (t("search.recount", "work"), "count/op"),
        "search.self_s": (t("search.minimize", "self_s"), "s/op"),
        "trace.ops": (ops, "count"),
        "trace.overhead_pct": (overhead, "%"),
        "wall.throughput_per_s": (wall_per_s, "1/s"),
        "wall.latency_p50_s": (wall_p50, "s"),
        "wall.latency_tail_s": (wall_tail, "s"),
    }
    notes = [f"per-op metrics are averaged over the {ops} traced operations;"
             f" search.kernel_per_proposal base: {proposals} proposals",
             f"the same {ops} operations took {untraced_cpu:.4f} cpu s"
             f" ({sum(untraced.durations):.4f} s wall) untraced and {traced_cpu:.4f}"
             f" cpu s ({sum(traced.durations):.4f} s wall) traced",
             wall_line]
    return metrics, notes


def run(workload: str, seed: int, seconds: float, trace: bool, tiny=False, mutate=None):
    """One benchmark run; returns (result dict, report lines).

    tiny selects the self-test sizes.  mutate(workload) may alter expected
    values before the timed span (the self-test plants a wrong count).
    """
    wl_mod = _import_workloads()
    sizes = _sizes(wl_mod, tiny)
    facts = machine_facts(seed)
    values = expected(workload, seed, tiny)
    inputs = wl_mod.setup(workload, seed, sizes, OUT / workload)
    wl = wl_mod.build(workload, seed, sizes, inputs, values)
    if mutate is not None:
        mutate(wl)
    for thunk in wl.warmup:
        thunk()

    lines = [f"machine: {json.dumps(facts)}", f"workload: {workload} seed={seed}"]
    if not trace:
        # The set-ups and the reference task run between operations, at even
        # steps through the loop, because the machine's speed drifts over
        # seconds: samples taken in one burst would all see one speed.
        setups, references = [], []

        def between(done):
            while len(setups) < SETUP_REPEATS and done >= len(setups) * seconds / SETUP_REPEATS:
                setups.append(time_setup(workload, seed, tiny, len(setups)))
            while (len(references) < CALIBRATIONS
                   and done >= len(references) * seconds / CALIBRATIONS):
                references.append(time_reference())

        between(0.0)
        phase = run_phase(wl, seconds, between)
        # Read before the output checks, which recount annealer results.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = failures(wl, phase)
        metrics, notes = end_to_end(wl, phase, setups, references, peak_rss_mb)
        attempted = len(phase.results)
    else:
        untraced, traced, tracer = run_paired(wl, seconds, wl_mod.convexcount)
        failed = failures(wl, untraced) + failures(wl, traced)
        metrics, notes = per_layer(wl, untraced, traced, tracer.spans)
        attempted = len(untraced.results) + len(traced.results)
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
        tracer.write(spans_path, {"workload": workload, "machine": facts})
        notes.append(f"spans written to {spans_path.relative_to(ROOT)}")

    lines += notes
    lines += [f"FAILED {msg}" for msg in failed[:20]]
    lines.append(f"error_rate: {len(failed) / attempted:.6g} ({len(failed)} of {attempted})")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--expected-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    reason = _refusal()
    if reason is not None:
        print(f"refusing to run: {reason}", file=sys.stderr)
        return EXIT_REFUSED
    if args.setup_child:
        setup_child(args.workload, args.seed, args.tiny, args.out)
        return 0
    if args.expected_child:
        expected_child(args.workload, args.seed, args.tiny, args.out)
        return 0
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
