#!/usr/bin/env python3
"""freeferm benchmark: closed-loop workloads, end-to-end metrics, layer spans.

    python3 bench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

runs one workload in this process as a closed loop with one client: the next
request is issued when the previous one has returned and been checked. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json`` and ``--trace 1`` its per-layer
metrics. ``--workload all`` runs every workload, each in a fresh process of
its own, and exits non-zero when any output check fails. See README.md.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# numpy, freeferm and the benchmark's own modules are imported inside the
# functions that need them: freeferm is found only after main() has checked
# for the checkout's sources and put them on the path, and numpy must load
# only after main() has pinned the BLAS threads.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("oracle", "estimate", "scale")

# One BLAS thread, for this process and the set-up probes it starts.
# OpenBLAS's default of one thread per core made verify-bounds requests three
# to four times slower, and noisier.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: fresh processes timed from their start to the end of their warm-up for setup_s
SETUP_PROBES = 5
#: the tail latency is the highest percentile with this many requests beyond it
TAIL_BEYOND = 10
#: fewest untraced/traced pass pairs of a traced run, however short --seconds is
MIN_PASS_PAIRS = 3
CHILD_TIMEOUT_S = 170


class Tally:
    """Counts of requests attempted, failed and checked, and why they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.passed = 0
        self.problems = Counter()
        #: process CPU seconds of the last request that completed
        self.cpu_s = None

    def execute(self, req, out_path):
        """Issue and check one request: (wall latency in s, output), or
        (None, None) when the request raised or exited non-zero. Nothing is
        retried."""
        import workloads

        self.attempted += 1
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            result = workloads.issue(req, out_path)
        except Exception as exc:  # the loop must go on; the failure is counted
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.problems[f"{req.kind} failed: {type(exc).__name__}: {exc}"] += 1
            return None, None
        latency = time.perf_counter() - start
        self.cpu_s = time.process_time() - cpu_start
        ok, output = workloads.outcome(req, result, out_path)
        self.checked += 1
        self.passed += ok
        if not ok:
            self.problems[f"{req.kind}: output check failed"] += 1
        return latency, output


@contextlib.contextmanager
def record_path():
    """The file this process's CLI requests write their records to."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"record-{os.getpid()}.json"
    try:
        yield str(path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            path.unlink()


def set_up(name, seed, out_path, tally):
    """Build the workload's inputs and issue one warm-up cycle of requests."""
    import workloads

    wl = workloads.Workload(name, seed)
    for i in range(wl.cycle):
        tally.execute(wl.request(i), out_path)
    return wl


def probe_setup(name, seed):
    """Start a fresh workload process and time its set-up: (CPU seconds from
    its start to the end of its set-up, CPU seconds of one host-speed kernel
    pass measured in it right after, wall seconds to the end of both)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
           "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    word, *times = line.split()
    if word != "ready" or len(times) != 2 or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return float(times[0]), float(times[1]), elapsed


def timed_loop(wl, seconds, out_path, tally):
    """Completed requests' (start, wall latency, CPU time) by request kind, and
    the host-speed kernel passes timed before the first request and after each."""
    import hostspeed

    for _ in range(3):  # lazy scipy and LAPACK set-up happens outside the timed loop
        hostspeed.kernel()
    spans = {}
    calibrations = [hostspeed.measure()]
    i = wl.cycle  # requests 0 .. cycle-1 were the warm-up
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        req = wl.request(i)
        began = time.perf_counter()
        latency, _ = tally.execute(req, out_path)
        calibrations.append(hostspeed.measure())
        i += 1
        if latency is not None:
            spans.setdefault(req.kind, []).append((began, latency, tally.cpu_s))
    return spans, calibrations


def end_to_end(spans, calibrations, tally, setups):
    """The end-to-end metrics, and notes for the table.

    Latencies are reported in reference seconds (see hostspeed.py): each
    request's CPU time scaled by the host speed measured around it.
    """
    import hostspeed

    ref = {kind: hostspeed.normalize(v, calibrations) for kind, v in spans.items()}
    pooled = sorted(x for v in ref.values() for x in v)
    beyond = min(TAIL_BEYOND, len(pooled) - 1)
    tail_index = len(pooled) - 1 - beyond
    wall = [lat for v in spans.values() for _, lat, _ in v]
    values = {
        "requests_per_ref_s": len(pooled) / sum(pooled),
        # The median of the per-kind medians: on a mix of request kinds the
        # pooled median falls on the edge between two kinds' latencies, where
        # a few percent of host-speed drift moved it by 20-30% between runs.
        "request_ref_s.p50": statistics.median(statistics.median(v) for v in ref.values()),
        "request_ref_s.tail": pooled[tail_index],
        "ok_fraction": tally.passed / tally.checked,
        "completed_fraction": (tally.attempted - tally.failed) / tally.attempted,
        "setup_s": statistics.median(cpu * hostspeed.REF_S / k for cpu, k, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    kernel_s = [t for _, t in calibrations]
    notes = {
        "requests_per_ref_s": f"wall {len(wall) / sum(wall):.4f} 1/s; host-speed kernel "
                              f"CPU median {statistics.median(kernel_s):.5f} s of "
                              f"{len(kernel_s)}",
        "request_ref_s.tail": f"p{100.0 * (tail_index + 1) / len(pooled):.2f} of "
                              f"{len(pooled)} requests, {beyond} beyond it",
        "completed_fraction": f"failed_fraction {tally.failed / tally.attempted:.6g} "
                              f"({tally.failed} of {tally.attempted} attempted)",
        "request_ref_s.p50": "median of the per-kind medians " + ", ".join(
            f"{kind} {statistics.median(v):.4f} "
            f"(wall {statistics.median(w for _, w, _ in spans[kind]):.4f} s)"
            for kind, v in ref.items()),
        "setup_s": "reference seconds; median over probes of CPU " + ", ".join(
            f"{cpu:.4f} s (wall {wall:.4f} s)" for cpu, _, wall in setups),
    }
    return values, notes


def _comparable(output):
    """A request's output without the fields that legitimately differ per run."""
    if isinstance(output, dict):
        return {k: v for k, v in output.items() if k != "wall_time_s"}
    return output


def traced_run(wl, seconds, out_path, tally, tracer):
    """Alternate untraced and traced passes over one fixed request cycle.

    Returns the per-pass medians of the layer metrics, the tracing overhead
    and the number of passes whose traced outputs differed from the untraced.
    """
    from tracer import summarize

    reqs = [wl.request(i) for i in range(wl.cycle)]
    walls = {False: [], True: []}
    per_pass = []
    mismatches = 0
    start = time.perf_counter()
    k = 0
    while k < MIN_PASS_PAIRS or time.perf_counter() - start < seconds:
        outputs = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            first = len(tracer.spans)
            wall = 0.0
            outs = []
            with tracer if traced else contextlib.nullcontext():
                for j, req in enumerate(reqs):
                    tracer.request = k * len(reqs) + j
                    latency, output = tally.execute(req, out_path)
                    wall += latency or 0.0
                    outs.append(_comparable(output))
            walls[traced].append(wall)
            outputs[traced] = outs
            if traced:
                per_pass.append(summarize(tracer.spans[first:], wall))
        mismatches += outputs[False] != outputs[True]
        k += 1
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["trace.overhead"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
    return values, mismatches


def header(args):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = None
    with contextlib.suppress(OSError):
        status = Path("/proc/self/status").read_text()
        threads = int(status.split("Threads:")[1].split()[0])
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads_pinned": int(BLAS_THREADS),
        "process_threads": threads, "loadavg_at_start": os.getloadavg(), "git_commit": commit,
    }


def emit(correct, tally, values, spec, notes=None):
    """Print the metrics table, then the result line."""
    notes = notes or {}
    metrics = {}
    for m in spec:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"  [{notes[m['name']]}]" if m["name"] in notes else ""
        print(f"  {m['name']:<48} {value:>16.6g} {m['unit']:<8} {m['better']} is better{note}")
    for problem, count in sorted(tally.problems.items()):
        print(f"  problem x{count}: {problem}")
    print(json.dumps({"correct": bool(correct), "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def run_workload(args) -> int:
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("header " + json.dumps(header(args)))
    tally = Tally()
    with record_path() as out_path:
        wl = set_up(args.workload, args.seed, out_path, tally)
        if args.trace:
            import sweep

            tracer = Tracer()
            values, mismatches = traced_run(wl, args.seconds, out_path, tally, tracer)
            values.update(sweep.run(args.seed))
            spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(str(spans_path))
            print(f"spans written to {spans_path}; traced functions missing from the "
                  f"package: {tracer.missing or 'none'}")
            if mismatches:
                tally.problems["traced outputs differ from untraced ones"] += mismatches
            correct = tally.passed == tally.checked and not mismatches
            emit(correct, tally, values, spec["per_layer"])
        else:
            spans, calibrations = timed_loop(wl, args.seconds, out_path, tally)
            if not spans:
                print(f"no request completed: {dict(tally.problems)}", file=sys.stderr)
                return 1
            setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            values, notes = end_to_end(spans, calibrations, tally, setups)
            correct = tally.passed == tally.checked
            emit(correct, tally, values, spec["end_to_end"], notes)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process of its own; one table for all."""
    results = {}
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S + 60)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit code {proc.returncode})")
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
        ok = ok and proc.returncode == 0 and bool(results[name]) and results[name]["correct"]
    print(json.dumps(results))
    return 0 if ok else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    args = parse_args(argv)
    if not (SRC / "freeferm" / "__init__.py").is_file():
        print(f"no freeferm sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        import hostspeed

        with record_path() as out_path:
            set_up(args.workload, args.seed, out_path, Tally())
        cpu = time.process_time()
        print(f"ready {cpu:.9f} {hostspeed.pass_cpu_s():.9f}", flush=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
