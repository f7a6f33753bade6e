"""Benchmark of the oddtorus CLI paths, end to end and layer by layer.

    python3 bench/run.py --workload pipeline-large --seed 1 --seconds 30 --trace 0

One closed-loop client in a single process, without threads: each request
is sent when the previous one has finished.  The workloads are described
in :mod:`workloads`.

``--trace 0`` times the requests as a user would run them and reports the
end-to-end metrics: it makes passes over the request list for
``--seconds`` of requests, scales each pass's latencies by the speed of
the machine during that pass, measured with a fixed reference code (see
:func:`timed_run`), and takes each request's median over the passes.
The process and the requests it starts stay on one CPU.  ``--trace 1``
runs the request list in this process three times: a warm-up pass, an
untraced pass, and a pass with span recorders around the public
functions of every oddtorus module (see :mod:`spans`); it reports the
per-layer metrics.  Either way every outcome is checked by the
independent checker in :mod:`graphs`, outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric with its unit, the extra end-to-end figures that
only some workloads have (per-path latency sums, failed ratio, the tail's
percentile) and the provenance of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import graphs
from common import ROOT, HarnessError, import_oddtorus, purge_oddtorus, subprocess_env
from spans import PER_LAYER, Tracer
from workloads import WORKLOADS, Outcome

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("req_p50_ms", "ms"),
              ("req_tail_ms", "ms"), ("peak_rss_mb", "MB"))
PATHS = ("gen", "colour", "verify", "chi-odd", "discharge")
SETUP_REPEATS = 9
STARTUP_REPEATS = 5
REQUEST_TIMEOUT_S = 150
TAIL_SAMPLES_BEYOND = 10
# Speed calibration, see timed_run.  The nominal time is about the
# reference code's mean time between requests on a 2-vCPU "Intel(R)
# Xeon(R) Processor" VM under Python 3.11, so that reported times there
# read close to the measured ones.
REFERENCE_EVERY_S = 0.25
REFERENCE_NOMINAL_S = 0.020
NPROC = len(os.sched_getaffinity(0))  # as nproc reports it, before pinning


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    recoloured: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the tail latency.

    The tail is the highest percentile with TAIL_SAMPLES_BEYOND samples
    above it.  Below 10 * TAIL_SAMPLES_BEYOND samples that percentile
    would fall under p90, so the maximum is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 10 * TAIL_SAMPLES_BEYOND:
        percentile = 100.0 * (n - TAIL_SAMPLES_BEYOND) / n
        return ordered[n - 1 - TAIL_SAMPLES_BEYOND], percentile, TAIL_SAMPLES_BEYOND
    return ordered[-1], 100.0, 0


@functools.cache
def _reference_graph():
    return graphs.perturbed_torus(16, 16, 5, 100, seed=1)


def reference_s() -> float:
    """Time of a fixed piece of the harness's own graph code.

    It stands for the speed of the machine at this moment: rotations,
    face walks and a structure check of T(30,30,5), and the exact R1-R4
    discharge of a small perturbed torus - the same mix of tuple, dict
    and Fraction work as the program under test, but code that no change
    to the program can touch.
    """
    start = time.perf_counter()
    rot = graphs.torus_rotations(30, 30, 5)
    graphs.faces_of(rot)
    graphs.structure_defect(rot)
    graphs.discharge_expectation(_reference_graph())
    return time.perf_counter() - start


# --- serving requests -----------------------------------------------------------

def serve_subprocess(req, work) -> Outcome:
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "oddtorus.cli", *req.argv],
                              cwd=work, env=subprocess_env(), capture_output=True,
                              text=True, timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(None, "", "", time.perf_counter() - start,
                       error=f"timed out after {REQUEST_TIMEOUT_S} s")
    return Outcome(proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start)


def serve_inprocess(req, work) -> Outcome:
    main = sys.modules["oddtorus.cli"].main
    # Start every request from the same collector state, as a fresh
    # process would; untimed.
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(req.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed request, not a harness crash
            code = None
            error = traceback.format_exc()
        latency = time.perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), latency, error=error)


def run_pass(plan, serve, work, accepted: dict, tracer: Tracer | None = None,
             after=None) -> PassResult:
    """One pass over the request list; checks run outside the timed call.

    The reference code is timed once for every REFERENCE_EVERY_S of
    requests, also outside the timed call.  ``accepted`` maps a request
    index to the outcome fingerprint it had when the checker last accepted
    it; an identical outcome is accepted without checking again.
    ``after(i)``, if given, runs once request i is done and checked.
    """
    result = PassResult()
    since_reference = REFERENCE_EVERY_S
    for i, req in enumerate(plan.requests):
        if req.prepare is not None:
            req.prepare()
        if tracer is not None:
            tracer.request = i
        out = serve(req, work)
        since_reference += out.latency_s
        while since_reference >= REFERENCE_EVERY_S:
            result.reference_s.append(reference_s())
            since_reference -= REFERENCE_EVERY_S
        if req.out_file is not None and req.out_file.exists():
            out.file_text = req.out_file.read_text(encoding="utf-8")
        result.latencies.append(out.latency_s)
        fingerprint = (out.exit_code, out.stdout, out.stderr, out.file_text, out.error)
        why = None if accepted.get(i) == fingerprint else req.check(out)
        if why is None:
            accepted[i] = fingerprint
        else:
            result.failures.append(f"request {i} ({' '.join(req.argv[:3])} ...): {why}")
        if req.path == "colour":
            result.recoloured += sum(ln.startswith("recoloured vertex")
                                     for ln in out.stdout.splitlines())
        if after is not None:
            after(i)
    return result


# --- provenance -----------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(pkg, seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": NPROC,
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "oddtorus_imported_from": str(pkg.__file__),
    }


def pin_to_one_cpu() -> None:
    """Run this process, and every request it starts, on a single CPU.

    The reference code then times the same core as the requests, and no
    request migrates between cores.  The client is closed-loop with one
    request in flight, so this takes no parallelism away.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def startup_seconds() -> float:
    """Median time for a fresh interpreter to import oddtorus.cli."""
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import oddtorus.cli"], env=subprocess_env(),
                       check=True, capture_output=True, timeout=REQUEST_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# --- the run ----------------------------------------------------------------------

def set_up(make_plan, seed: int, work) -> tuple[object, object, float]:
    """Fresh import of oddtorus plus the workload's inputs, timed."""
    purge_oddtorus()
    start = time.perf_counter()
    pkg = import_oddtorus()
    plan = make_plan(seed, work)
    return pkg, plan, time.perf_counter() - start


def measure(args) -> tuple[dict, dict, list[str], int, int]:
    """Set up, run the workload and check it.

    Returns (report, metrics, failure reasons, attempted, failed requests).
    """
    make_plan, mode = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        pkg, plan, setup_s = set_up(make_plan, args.seed, work)
        report = {"provenance": provenance(pkg, args.seed), "workload": args.workload,
                  "inputs": plan.description, "requests_per_pass": len(plan.requests)}
        accepted: dict = {}
        if args.trace:
            passes, metrics, units = trace_run(plan, work, accepted, report)
        else:
            # The repeated set-ups are spread over the first pass, so their
            # median does not hang on the machine's state in one instant.
            spare = work / "setup"
            spare.mkdir()
            setup_times = [setup_s]
            n = len(plan.requests)
            after_request = Counter(max(0, k * n // SETUP_REPEATS - 1)
                                    for k in range(1, SETUP_REPEATS))

            def between(i):
                for _ in range(after_request[i]):
                    setup_times.append(set_up(make_plan, args.seed, spare)[2])

            passes, metrics, units, scale = timed_run(plan, mode, work, accepted,
                                                      args.seconds, report, between)
            metrics = {"setup_s": scale * statistics.median(setup_times), **metrics}
            report["extra"]["unscaled_setup_s"] = [statistics.median(setup_times), "s"]
            report["setup_s_samples"] = setup_times
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in passes)
    failed = len(failures)
    failures += [why for check in plan.self_checks if (why := check()) is not None]
    failures += report.pop("harness_failures", [])
    report["pass_wall_s"] = [p.wall_s for p in passes]
    report["extra"] = {"failed_ratio": [failed / attempted, "1"], **report.get("extra", {})}
    report["units"] = units
    return report, metrics, failures, attempted, failed


def timed_run(plan, mode, work, accepted, seconds, report, between):
    """As many passes as fit in ``seconds`` of requests, at least one.

    On a shared host the speed of the machine drifts by 20% and more
    over seconds to minutes, and every request moves with it.  So each
    pass's latencies are scaled to a nominal machine speed: by
    REFERENCE_NOMINAL_S over the mean time of the reference code
    (:func:`reference_s`) timed between that pass's requests.  The mean,
    not the median, because the pass's latencies add up the speed over the
    whole pass.  A request's typical latency is then its median over the
    passes, and the metrics describe one pass made of typical latencies.
    The set-ups, spread over the first pass, are scaled by that pass's
    factor.  The unscaled figures (medians over the passes) and the mean
    scale are printed as extra lines.
    """
    serve = serve_subprocess if mode == "subprocess" else serve_inprocess
    passes = [run_pass(plan, serve, work, accepted, after=between)]
    while (measured := sum(p.wall_s for p in passes)) + measured / len(passes) <= seconds:
        passes.append(run_pass(plan, serve, work, accepted))
    scales = [REFERENCE_NOMINAL_S / statistics.mean(p.reference_s) for p in passes]
    typical = [statistics.median(s * lat for s, lat in zip(scales, lats))
               for lats in zip(*(p.latencies for p in passes))]
    unscaled = [statistics.median(lats) for lats in zip(*(p.latencies for p in passes))]
    usage = resource.RUSAGE_CHILDREN if mode == "subprocess" else resource.RUSAGE_SELF
    tail_s, percentile, beyond = tail(typical)
    metrics = {
        "wall_s": sum(typical),
        "req_p50_ms": 1e3 * statistics.median(typical),
        "req_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    extra = {"speed_scale": [statistics.mean(scales), "1"],
             "unscaled_wall_s": [sum(unscaled), "s"],
             "unscaled_req_p50_ms": [1e3 * statistics.median(unscaled), "ms"],
             "unscaled_req_tail_ms": [1e3 * tail(unscaled)[0], "ms"]}
    for path in PATHS:
        spent = [lat for req, lat in zip(plan.requests, typical) if req.path == path]
        if spent:
            extra[f"{path.replace('-', '_')}_s"] = [sum(spent), "s"]
    extra["req_tail_percentile"] = [percentile, "%"]
    extra["req_tail_samples_beyond"] = [beyond, "count"]
    extra["passes"] = [len(passes), "count"]
    report["extra"] = extra
    report["served_by"] = mode
    report["unscaled_latency_s"] = unscaled
    report["pass_samples"] = [{"latency_s": p.latencies, "reference_s": p.reference_s}
                              for p in passes]
    return passes, metrics, dict(END_TO_END), scales[0]


def trace_run(plan, work, accepted, report):
    # The first in-process pass warms the heap and runs the full checks;
    # the two passes compared after it then start from the same state.
    warm = run_pass(plan, serve_inprocess, work, accepted)
    untraced = run_pass(plan, serve_inprocess, work, accepted)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(plan, serve_inprocess, work, accepted, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(startup_s=startup_seconds(),
                             overhead_ratio=traced.wall_s / untraced.wall_s,
                             recoloured=traced.recoloured)
    if plan.expected_transfers is not None:
        expected = plan.expected_transfers()
        counted = {r: metrics[f"discharge.transfers.{r}"] for r in expected}
        if counted != expected:
            report["harness_failures"] = [
                f"traced transfers {counted}, independent count {expected}"]
    report["served_by"] = "inprocess (warm-up pass, untraced pass, traced pass)"
    report["extra"] = {"untraced_wall_s": [untraced.wall_s, "s"],
                       "traced_wall_s": [traced.wall_s, "s"]}
    return [warm, untraced, traced], metrics, dict(PER_LAYER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, metrics, failures, attempted, failed = measure(args)
    except HarnessError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for why in failures[:20]:
        print(f"FAILED {why}", file=sys.stderr)
    units = report.pop("units")
    print(json.dumps(report, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in report["extra"].items():
        print(f"extra {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    pin_to_one_cpu()
    sys.exit(main())
