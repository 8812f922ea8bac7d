#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload leafdel --seed 1 --seconds 30 --trace 0

``--trace 0`` times untraced passes and prints the end-to-end metrics, with
times scaled to a reference host speed (``hostspeed.py``);
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics (see README.md).  Every pass is checked against ``expected.json``.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the host and build
facts.  The same record goes to ``perfbench/results/``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 9
MIN_PASSES = 3
JOBS_PER_SIDE = 5  # host-speed jobs before and after a pass or set-up probe


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p


def setup_probe(workload: str, seed: int) -> float:
    """Import the package and build the workload's inputs; returns seconds.

    Runs in a fresh interpreter so the import is not cached.
    """
    start = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workloads.load_expected())
    wl.setup()
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up probe times and the host-speed job time around each."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
           workload, "--seed", str(seed), "--seconds", "0"]
    samples, jobs = [], []
    for _ in range(SETUP_PROBES):
        before = hostspeed.measure(JOBS_PER_SIDE)
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
        jobs.append((before + hostspeed.measure(JOBS_PER_SIDE)) / 2)
    return samples, jobs


def timed_pass(wl):
    """One untraced pass with the host-speed job time during it, or around it
    when the workload cannot sample the host's speed inside the pass."""
    if wl.samples_host_speed:
        return wl.run_pass()
    before = hostspeed.measure(JOBS_PER_SIDE)
    p = wl.run_pass()
    p.job_s = (before + hostspeed.measure(JOBS_PER_SIDE)) / 2
    return p


def finish(wl, p, passes: list, facts: dict) -> None:
    """Check pass ``p``, keep the facts of the run's first pass, drop its output."""
    wl.check(p)
    if not facts:
        facts.update(wl.facts(p))
    p.output = None  # keep one pass's output alive at a time
    passes.append(p)


def take_passes(wl, seconds: float, trace: bool, facts: dict):
    """Closed-loop passes until ``seconds`` have passed and at least
    MIN_PASSES ran.  With ``trace`` each untraced pass is followed by a traced
    one, which also rebuilds the inputs so set-up layers show.  Returns the
    untraced passes, the traced passes, their layer metrics and the tracer of
    the fastest traced pass.
    """
    import tracing

    timed, traced, layers, fastest = [], [], [], None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(timed) < MIN_PASSES:
        finish(wl, timed_pass(wl), timed, facts)
        if trace:
            tracer = tracing.Tracer()
            with tracer:
                tracer.span("setup", wl.setup)
                p = tracer.span("pass", wl.run_pass)
            layers.append(tracing.layer_metrics(tracer, p.wall_s))
            if not traced or p.wall_s < min(q.wall_s for q in traced):
                fastest = tracer
            finish(wl, p, traced, facts)
    return timed, traced, layers, fastest


def source_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "domchrom").glob("*.py*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def compare_kernels(trees) -> tuple[dict, int, list[str]]:
    """Solve ``trees`` on both kernels when the compiled one is importable;
    χ and node counts must agree.  Returns facts, checks attempted, failures."""
    try:
        from domchrom import _kernel as compiled
    except ImportError:
        return {"compiled_kernel": "absent"}, 0, []
    from domchrom import _kernel_py
    from domchrom.solver import solve_exact

    runs = {}
    for label, kern in (("python", _kernel_py), ("compiled", compiled)):
        timed = _TimedKernel(kern)
        results = [solve_exact(t, kernel=timed) for t in trees]
        runs[label] = ([(r.chi, r.stats.nodes) for r in results], timed)
    agree = runs["python"][0] == runs["compiled"][0]
    facts = {"compiled_kernel": {
        label: {"self_s": timed.ns / 1e9, "ns_per_node": timed.ns / max(timed.nodes, 1)}
        for label, (_, timed) in runs.items()
    }}
    facts["compiled_kernel"]["agree"] = agree
    return facts, 1, [] if agree else ["compiled and python kernels disagree on chi or nodes"]


class _TimedKernel:
    """A kernel stand-in that times ``search_round`` and sums its nodes."""

    def __init__(self, kern) -> None:
        self.kern = kern
        self.ns = 0
        self.nodes = 0

    def search_round(self, *args):
        start = time.perf_counter_ns()
        result = self.kern.search_round(*args)
        self.ns += time.perf_counter_ns() - start
        self.nodes += result[2]
        return result


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "domchrom" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    import domchrom
    import tracing
    import workloads

    if Path(domchrom.__file__).resolve().parent != SRC / "domchrom":
        print(f"error: imported domchrom from {domchrom.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workloads.load_expected())
    except workloads.ExpectedMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl.setup()
    facts: dict = {}
    timed, traced, layers, tracer = take_passes(wl, args.seconds, args.trace, facts)
    # ru_maxrss is in KiB on Linux.  The set-up probes have not run yet, so
    # the largest child so far is a pool worker.
    self_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    child_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
    failures = [f for p in timed + traced for f in p.failures]
    attempted = sum(p.attempted for p in timed + traced)

    walls = [p.wall_s for p in timed]
    facts.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_seconds": args.seconds, "backend": domchrom.BACKEND,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        **source_facts(), "passes": len(timed), "pass_wall_s": walls,
        "wall_min_s": min(walls), "wall_median_s": statistics.median(walls),
    })
    if args.workload == "solve-random":
        facts["solve_samples"] = len(timed[0].latencies_s)
        facts["solve_p50_ms"] = statistics.median(
            workloads.quantile_ms(p.latencies_s, 50) for p in timed)
        facts["solve_p99_ms"] = statistics.median(
            workloads.quantile_ms(p.latencies_s, 99) for p in timed)
        if args.trace:
            kernel_facts, kernel_checks, kernel_failures = compare_kernels(wl.trees)
            facts.update(kernel_facts)
            attempted += kernel_checks
            failures += kernel_failures
    if args.workload == "invariance-cli":
        facts["child_peak_rss_mb"] = child_rss_mb

    if args.trace:
        for name in tracing.DETERMINISTIC:
            values = [m[name] for m in layers]
            if len(set(values)) > 1:
                failures.append(f"{name} differs between traced passes: {values}")
        # Layer figures come from the fastest traced pass; trace.wall_s is its
        # pass span alone, without the traced set-up that precedes it.
        fastest = min(range(len(traced)), key=lambda i: traced[i].wall_s)
        metrics = dict(layers[fastest])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - min(walls)
        units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
        facts["traced_passes"] = len(traced)
        facts["layers"] = ("parent process only; pool workers keep their own spans"
                           if args.workload == "invariance-cli" else "all")
        tracer.write(workloads.RESULTS / f"spans_{args.workload}.json")
    else:
        probes, probe_jobs = measure_setup(args.workload, args.seed)
        facts.update({"setup_probe_s": probes, "setup_job_s": probe_jobs,
                      "pass_job_s": [p.job_s for p in timed]})
        # Medians of times scaled to the reference host speed (hostspeed.py).
        metrics = {
            "setup_s": statistics.median(map(hostspeed.scale, probes, probe_jobs)),
            "wall_s": statistics.median(hostspeed.scale(p.wall_s, p.job_s) for p in timed),
            "peak_rss_mb": self_rss_mb,
        }
        units = END_TO_END
    facts["fail_frac"] = len(failures) / attempted
    facts["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    workloads.RESULTS.mkdir(exist_ok=True)
    record = workloads.RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps({"facts": facts, **result}, indent=1, sort_keys=True) + "\n")
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
