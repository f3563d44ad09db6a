"""agreebox benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload sweep-2222 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 the run measures set-up time, then calls the workload's
entry point on seeded inputs, one at a time, for --seconds, and reports
the end-to-end metrics.  With --trace 1 it alternates untraced and traced
passes over the first `prefix` inputs and reports per-layer metrics from
the first traced pass, plus the tracing overhead.  Every output is checked
by an oracle.  The last line of stdout is the result object; the line
before it is a report with the run context and the verdict digest, also
written to perfbench/out/.  Exit status 1 means some output failed its
check, 2 that the benchmark could not start.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S, Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 15  # timed set-ups per run, after one discarded warm-up
MAX_ERRORS = 20  # oracle messages kept in the report
BLOCK_S = 0.25  # seconds of calls between two timings of the reference task
REF_REPS = 15  # repetitions per timing of the reference task (about 20 ms)


def abort(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    src = ROOT / "src"
    if not (src / "agreebox" / "__init__.py").is_file():
        abort(f"no agreebox sources under {src}")
    sys.path.insert(0, str(src))
    import agreebox

    if Path(agreebox.__file__).resolve().parent != (src / "agreebox").resolve():
        abort(f"imported agreebox from {agreebox.__file__}, not from {src}")


def context(args):
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
            cpu = next(names, "")
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "platform": platform.platform(),
    }


def measure_setup(name, ref):
    """Median of SETUP_RUNS fresh-interpreter set-ups, each rescaled by the
    reference timed just before and after it; returns (median, raw times)."""
    times, scaled = [], []
    before = ref.measure()
    for i in range(SETUP_RUNS + 1):
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(HERE / "setup_probe.py"), name, str(OUT)],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
        except subprocess.TimeoutExpired:
            abort("set-up probe took more than 120 s")
        if proc.returncode != 0:
            abort(f"set-up probe failed:\n{proc.stderr}")
        after = ref.measure()
        if i:
            seconds = float(proc.stdout.split()[-1])
            times.append(seconds)
            scaled.append(seconds * NOMINAL_S / ((before + after) / 2))
        before = after
    return statistics.median(scaled), times


def digest(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Calls the workload, checks every output and keeps the tallies."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.errors = []
        self.counts = {}

    def run(self, item):
        """One checked call; returns (seconds, Outcome or None)."""
        wl = self.workload
        wl.prepare(item)
        self.attempted += 1
        start = perf_counter()
        try:
            out = wl.call(item)
        except Exception:
            elapsed = perf_counter() - start
            self.fail([f"call raised:\n{traceback.format_exc()}"])
            return elapsed, None
        elapsed = perf_counter() - start
        try:
            outcome = wl.check(item, out)
        except Exception:
            self.fail([f"check raised:\n{traceback.format_exc()}"])
            return elapsed, None
        if outcome.errors:
            self.fail(outcome.errors)
        for key, value in outcome.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        return elapsed, outcome

    def fail(self, errors):
        self.failed += 1
        self.errors.extend(errors[: MAX_ERRORS - len(self.errors)])


def percentile(sorted_values, pct):
    """Nearest-rank percentile; returns (value, number of values beyond it)."""
    n = len(sorted_values)
    rank = max(1, -(-pct * n // 100))
    return sorted_values[rank - 1], n - rank


def timed_run(args, workload, runner, report):
    """End-to-end metrics: set-up, then the closed loop for --seconds.

    The loop runs in blocks of at least BLOCK_S seconds of calls, with the
    reference task timed before the first block and after each one.  Every
    call's time is rescaled by the mean of the two reference times around
    its block, to the time it would take on the reference host.
    """
    ref = Reference(REF_REPS)
    setup_s, setup_samples = measure_setup(workload.name, ref)
    workload.load()
    workload.warmup()
    report["setup_samples_s"] = setup_samples

    latencies, scaled, records = [], [], []
    units = 0
    ref_times = [ref.measure()]
    stream = workload.items(args.seed)
    start = perf_counter()
    while (perf_counter() - start < args.seconds or len(latencies) < workload.min_calls
           or len(records) < workload.prefix):
        block = []
        while sum(block) < BLOCK_S:
            seconds, outcome = runner.run(next(stream))
            block.append(seconds)
            if outcome is not None:
                units += outcome.units
            if len(records) < workload.prefix:
                records.append(outcome.record if outcome else None)
        ref_times.append(ref.measure())
        scale = NOMINAL_S / ((ref_times[-2] + ref_times[-1]) / 2)
        latencies += block
        scaled += [seconds * scale for seconds in block]
    ranked = sorted(scaled)
    tail, beyond = percentile(ranked, workload.tail_pct)
    raw_tail, _ = percentile(sorted(latencies), workload.tail_pct)
    report.update({
        "calls": len(latencies), "units": units, "unit": workload.unit,
        "busy_s": sum(latencies), "wall_s": perf_counter() - start,
        "raw_throughput_per_s": units / sum(latencies),
        "raw_call_ms_p50": statistics.median(latencies) * 1e3,
        "raw_call_ms_tail": raw_tail * 1e3,
        "reference_ms": [t * 1e3 for t in ref_times],
        "tail_percentile": workload.tail_pct, "calls_beyond_tail": beyond,
        "digest": digest(records), "digest_items": len(records),
    })
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (units / sum(scaled), "1/s"),
        "call_ms_p50": (statistics.median(ranked) * 1e3, "ms"),
        "call_ms_tail": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_pass(runner, items, tracer=None):
    """One pass over items; returns (seconds in calls, verdict records)."""
    busy, records = 0.0, []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.call_id = i
        seconds, outcome = runner.run(item)
        busy += seconds
        records.append(outcome.record if outcome else None)
    return busy, records


def traced_run(args, workload, runner, report):
    """Per-layer metrics from a traced pass over the first `prefix` inputs.

    Untraced and traced passes over the same inputs alternate until
    --seconds have passed; the ratio of their median times is the tracing
    overhead, and every pass must reproduce the first pass's verdicts.
    """
    from tracer import Tracer

    workload.load()
    workload.warmup()
    report["pinned"] = []
    for item in workload.pinned():
        seconds, outcome = runner.run(item)
        report["pinned"].append(
            {"item": item, "seconds": seconds, "record": outcome.record if outcome else None})
    stream = workload.items(args.seed)
    items = [next(stream) for _ in range(workload.prefix)]
    times = {False: [], True: []}
    digests = []
    first = None
    start = perf_counter()
    while not times[True] or perf_counter() - start < args.seconds:
        for traced in (False, True):
            runner.counts = {}
            if not traced:
                busy, records = run_pass(runner, items)
            else:
                tracer = Tracer()
                tracer.install()
                try:
                    busy, records = run_pass(runner, items, tracer)
                finally:
                    tracer.uninstall()
                if first is None:
                    first = (tracer, dict(runner.counts))
            times[traced].append(busy)
            digests.append(digest(records))
    if len(set(digests)) != 1:
        runner.fail(["verdicts differ between passes over the same inputs"])
    tracer, extra = first
    metrics = tracer.metrics(extra)
    metrics.update(source_lines())
    overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    report.update({
        "passes_untraced_s": times[False], "passes_traced_s": times[True],
        "digest": digests[0], "digest_items": len(items), "spans": len(tracer.spans),
    })
    with open(OUT / f"spans-{args.workload}-{args.seed}.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return metrics


LAYERS = ("cli", "families", "boxes", "epistemic", "classify", "reduction",
          "bridge", "simplexq", "classical", "rationals")


def source_lines():
    pkg = ROOT / "src" / "agreebox"
    out = {}
    for name in LAYERS:
        out[f"{name}.source_lines"] = (len((pkg / f"{name}.py").read_text().splitlines()), "lines")
    total = sum(len(p.read_text().splitlines()) for p in pkg.glob("*.py"))
    out["agreebox.source_lines"] = (total, "lines")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        abort(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](OUT)
    runner = Runner(workload)
    report = context(args)
    measure = traced_run if args.trace else timed_run
    metrics = measure(args, workload, runner, report)
    report.update({"attempted": runner.attempted, "failed": runner.failed,
                   "errors": runner.errors})
    report_text = json.dumps(report, default=list)
    report_path = OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    report_path.write_text(report_text + "\n")
    print(report_text)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
