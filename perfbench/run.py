"""calabi benchmark: the CLI run the way users run it.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program measured is ``src/calabi`` of
that checkout.  Workloads (``--workload all`` runs each in turn):

- ``verify``: ``calabi verify 1024 --report R --seed S``, one seed per job.
  The RK4 oracles in ``connection`` and ``jacobi`` do most of the work.
  BENCHMARK.json leaves it out because ``calabi verify`` itself fails on
  about 1 seed in 300: its ``immersion_isometry`` check divides by the
  inner product of two random tangents, and when that is near zero the
  rounding error of the pushed-forward integral exceeds the 1e-13 relative
  tolerance (seed 538316679: 1.7e-13).  A 40 s run holds about 15 seeds, so
  about one run in twenty reports a failed job.  Run it by name.
- ``ensemble``: ``calabi distance`` then ``calabi mean`` over 64 density
  files on one shared 4096-node domain file.  ``stats``, ``geodesics``,
  ``space`` and the reading half of ``cli`` do most of the work.
- ``interpolate``: ``calabi interpolate`` between two 65536-node densities
  with ``--frames 8``; the writing half of ``cli`` does most of the work,
  and OpenBLAS threads take the second CPU.

One process (``worker.py``) runs the jobs in a closed loop with one client:
it imports calabi once, runs one untimed warm-up job, then jobs until their
summed wall time reaches ``--seconds``.  Inputs come from ``inputs.py`` and
depend only on ``--seed``; every output is checked by ``checks.py`` between
jobs, outside the timed region.  BLAS threads are left as the environment
sets them.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the first half of the time runs
untraced and the second half traced, and the JSON carries the per-layer
metrics (per job) and the tracing overhead.  Results, the run environment
and the spans are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs as gen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

# Fresh processes that only import calabi, besides the workload process,
# spread evenly over the measured time.
SETUP_PROBES = 9
# A run that has not ended by then is killed and reports no result.
DEADLINE_S = 170.0

END_TO_END = {
    "job_s.p50": "s",
    "jobs_per_s": "1/s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics computed from spans: <span name prefix>.<stat>, per job.
SPAN_METRICS = {
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "connection.parallel_transport.calls": "count",
    "connection.parallel_transport.s": "s",
    "jacobi.jacobi_solve.calls": "count",
    "jacobi.jacobi_solve.ode.s": "s",
    "jacobi.jacobi_solve.closed.s": "s",
    "jacobi.jacobi_ode_rhs.calls": "count",
    "verify.run_report.calls": "count",
    "verify.run_report.self_s": "s",
    "verify.finite_difference_curvature.calls": "count",
    "verify.finite_difference_curvature.s": "s",
    "immersion.sphere_transport_oracle.calls": "count",
    "immersion.sphere_transport_oracle.s": "s",
    "gradient_metric.calls": "count",
    "gradient_metric.s": "s",
    "stats.distance_matrix.calls": "count",
    "stats.distance_matrix.s": "s",
    "stats.distance_matrix.self_s": "s",
    "stats.karcher_mean.calls": "count",
    "stats.karcher_mean.s": "s",
    "stats.karcher_mean.self_s": "s",
    "stats.karcher_mean.exp_calls": "count",
    "stats.karcher_mean.exp_domain_errors": "count",
    **{
        f"geodesics.{fn}.{stat}": unit
        for fn in ("distance", "log_map", "exp_map", "geodesic_dirichlet", "evaluate")
        for stat, unit in (("calls", "count"), ("s", "s"))
    },
    **{
        f"space.{fn}.{stat}": unit
        for fn in ("ConformalFactor", "TangentVector", "project_to_space", "load_density")
        for stat, unit in (("calls", "count"), ("s", "s"))
    },
    **{
        f"quadrature.{fn}.{stat}": unit
        for fn in ("integrate", "load_domain")
        for stat, unit in (("calls", "count"), ("s", "s"))
    },
}

# Per-layer metrics measured around each job, and the tracing overhead.
JOB_METRICS = {
    "cli.bytes_in": "bytes",
    "cli.bytes_out": "bytes",
    "trace.untraced_job_s.p50": "s",
    "trace.traced_job_s.p50": "s",
    "trace.overhead_s": "s",
}

PER_LAYER = {**SPAN_METRICS, **JOB_METRICS}

BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    why: str
    make_inputs: Callable[[int, Path], gen.Inputs]
    argvs: Callable[[gen.Inputs, int, Path], list[list[str]]]
    check: Callable[[gen.Inputs, int, Path, list[int]], list[str]]


def _exit_problems(exits: list[int]) -> list[str]:
    return [f"command {i} exited with {code}" for i, code in enumerate(exits) if code != 0]


def _verify_seed(data: gen.Inputs, job: int) -> int:
    return data.verify_seeds[job % len(data.verify_seeds)]


def _verify_argvs(data, job, out):
    report = str(out / "report.json")
    return [["verify", str(gen.VERIFY_NODES), "--report", report, "--seed", str(_verify_seed(data, job))]]


def _verify_check(data, job, out, exits):
    return checks.check_verify(exits[0], out / "report.json", gen.VERIFY_NODES, _verify_seed(data, job))


def _ensemble_argvs(data, job, out):
    files = [str(p) for p in data.density_paths]
    return [
        ["distance", *files, "--json", "--out", str(out / "distance.json")],
        ["mean", *files, "--out", str(out / "mean.json")],
    ]


def _ensemble_check(data, job, out, exits):
    w, hs = data.weights, data.half_densities
    return (
        _exit_problems(exits)
        + checks.check_distance(w, hs, out / "distance.json")
        + checks.check_mean(w, hs, out / "mean.json")
    )


def _interpolate_argvs(data, job, out):
    files = [str(p) for p in data.density_paths]
    frames = str(gen.INTERPOLATE_FRAMES)
    return [["interpolate", *files, "--frames", frames, "--out-dir", str(out / "frames")]]


def _interpolate_check(data, job, out, exits):
    frames = gen.INTERPOLATE_FRAMES
    problems = checks.check_interpolate(data.weights, data.half_densities, out / "frames", frames)
    return _exit_problems(exits) + problems


WORKLOADS = {
    "verify": Workload(
        "RK4 transport and Jacobi-ODE oracles do ~95% of the work; distance_matrix and karcher_mean never run",
        lambda seed, work: gen.make_verify(seed, jobs=256),
        _verify_argvs,
        _verify_check,
    ),
    "ensemble": Workload(
        "distance matrix and Karcher mean of 64 densities on 4096 nodes: pairwise and mean geometry and JSON reads; no RK4 oracle runs",
        gen.make_ensemble,
        _ensemble_argvs,
        _ensemble_check,
    ),
    "interpolate": Workload(
        "frames between two 65536-node densities: CSV formatting and writes and threaded BLAS dominate; stats never runs",
        gen.make_interpolate,
        _interpolate_argvs,
        _interpolate_check,
    ),
}


class BenchmarkError(RuntimeError):
    """The run cannot produce a result."""


def environment() -> dict:
    """What the numbers depend on besides the code: CPUs, versions, BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_variables": {k: os.environ[k] for k in BLAS_THREAD_VARIABLES if k in os.environ},
        "platform": platform.platform(),
    }


class Worker:
    """The workload process and its request/reply pipe."""

    def __init__(self, log: Path, deadline: float, probe: bool = False):
        command = [sys.executable, str(BENCH_DIR / "worker.py"), str(ROOT), str(log)]
        self.deadline = deadline
        self.proc = subprocess.Popen(
            command + (["--probe"] if probe else []),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        self.setup_s = self._reply()["setup_s"]

    def _reply(self) -> dict:
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0.0))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            raise BenchmarkError("the workload process ended or timed out without replying")
        return json.loads(line)

    def request(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


def probe_setup(log: Path, deadline: float) -> float:
    worker = Worker(log, deadline, probe=True)
    worker.close()
    return worker.setup_s


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    work = WORK_DIR / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    log = work / "jobs.log"
    try:
        data = workload.make_inputs(seed, work / "inputs")
        worker = Worker(log, deadline)
        setups = [worker.setup_s]

        def between_jobs(spent: float) -> None:
            if len(setups) <= SETUP_PROBES and spent >= len(setups) * seconds / SETUP_PROBES:
                setups.append(probe_setup(log, deadline))

        try:
            jobs = _run_jobs(worker, workload, data, work / "out", seconds, trace, between_jobs)
            while len(setups) <= SETUP_PROBES:
                setups.append(probe_setup(log, deadline))
            spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
            final = worker.request(op="finish", metrics=list(SPAN_METRICS), spans=str(spans_path))
        finally:
            worker.close()
        failures = failed_jobs(jobs)
        for job in failures[:5]:
            print(f"job {job['job']} failed: {'; '.join(job['problems'][:3])}", file=sys.stderr)
        if failures:
            print(f"job output log tail:\n{log.read_text()[-2000:]}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # end-to-end numbers come from untraced jobs only
    timed = [job for job in jobs if job["timed"] and not job["traced"]]
    walls = [job["wall_s"] for job in timed]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(jobs),
        "failed": len(failures),
        "error_ratio": len(failures) / len(jobs),
        "timed_jobs": len(timed),
        "traced_jobs": sum(job["traced"] for job in jobs),
        "setup_samples": setups,
        "environment": environment(),
        "end_to_end": {
            "job_s.p50": statistics.median(walls),
            "jobs_per_s": len(walls) / sum(walls),
            "cpu_s_per_job": sum(job["cpu_s"] for job in timed) / len(timed),
            "peak_rss_mb": final["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        },
        "jobs": [{k: v for k, v in job.items() if k != "problems"} for job in jobs],
    }
    if trace:
        traced = [job for job in jobs if job["traced"]]
        untraced_p50 = statistics.median(walls)
        traced_p50 = statistics.median(job["wall_s"] for job in traced)
        result["per_layer"] = {
            **final["layers"],
            "cli.bytes_in": statistics.mean(job["bytes_in"] for job in traced),
            "cli.bytes_out": statistics.mean(job["bytes_out"] for job in traced),
            "trace.untraced_job_s.p50": untraced_p50,
            "trace.traced_job_s.p50": traced_p50,
            "trace.overhead_s": traced_p50 - untraced_p50,
        }
        result["spans"] = final["spans"]
    return result


def failed_jobs(jobs: list[dict]) -> list[dict]:
    """Jobs with a nonzero exit or an output that failed its check."""
    return [job for job in jobs if job["problems"]]


def _run_jobs(
    worker: Worker,
    workload: Workload,
    data: gen.Inputs,
    out: Path,
    seconds: float,
    trace: bool,
    between_jobs: Callable[[float], None] = lambda spent: None,
) -> list[dict]:
    """One untimed warm-up job, then timed jobs until ``seconds`` of job wall
    time; with tracing, the second half of that time runs traced.
    ``between_jobs`` gets the job time spent so far after each timed job."""
    jobs: list[dict] = []

    def run(timed: bool, traced: bool) -> float:
        index = len(jobs)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        record = worker.request(op="job", job=index, argvs=workload.argvs(data, index, out))
        problems = workload.check(data, index, out, record["exits"])
        jobs.append({"job": index, "timed": timed, "traced": traced, "problems": problems, **record})
        return record["wall_s"]

    spent = 0.0

    def loop(budget: float, traced: bool) -> None:
        nonlocal spent
        while True:  # at least one job per phase
            spent += run(timed=True, traced=traced)
            between_jobs(spent)
            if spent >= budget:
                return

    run(timed=False, traced=False)
    loop(seconds / 2.0 if trace else seconds, traced=False)
    if trace:
        worker.request(op="trace")
        loop(seconds, traced=True)
    return jobs


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(result: dict) -> dict:
    """Print a workload's metrics by name with their units; return the
    metrics of the final JSON line.  A traced run prints only the per-layer
    metrics: its process also holds the spans, so its end-to-end numbers
    are not comparable."""
    jobs = f"{result['timed_jobs']} timed jobs"
    if result["trace"]:
        jobs = f"{result['timed_jobs']} untraced and {result['traced_jobs']} traced jobs"
    print(f"== {result['workload']} (seed {result['seed']}): 1 warm-up, {jobs}")
    print(
        f"  {'error_ratio':<16} {result['error_ratio']:12.6g} {'':<6} "
        f"{result['failed']} of {result['attempted']} jobs failed a check or exited nonzero"
    )
    if result["trace"]:
        layers = result["per_layer"]
        print(f"  per layer, per job ({result['spans']} spans):")
        for metric, unit in PER_LAYER.items():
            print(f"    {metric:<44} {layers[metric]:12.6g} {unit}")
        return {metric: _metric(layers[metric], unit) for metric, unit in PER_LAYER.items()}
    e2e = result["end_to_end"]
    notes = {
        "job_s.p50": f"median of {result['timed_jobs']} jobs",
        "setup_s": f"median of {len(result['setup_samples'])} fresh imports",
    }
    for metric, unit in END_TO_END.items():
        print(f"  {metric:<16} {e2e[metric]:12.6g} {unit:<6} {notes.get(metric, '')}")
    return {metric: _metric(e2e[metric], unit) for metric, unit in END_TO_END.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "calabi" / "__init__.py").is_file():
        print(f"no calabi sources under {ROOT / 'src'}; run from a calabi checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        path = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1))
        shown = report(result)
        metrics.update({f"{name}.{k}": v for k, v in shown.items()} if len(names) > 1 else shown)
        attempted += result["attempted"]
        failed += result["failed"]
    print("environment: " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
