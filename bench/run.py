"""dnalg benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/NOTES.md for why each was chosen):
  derive     derive_actions on the pool shapes and five more
  decide     validate / normalize / Prop. A / Thm. A / max_dn on each of 91
             stored models, plus seeded random check_instance instances
  gamma      facet and vertex enumeration of Gamma_5 and Gamma_6, facet
             vertices, degeneracies and censuses of Gamma_5
  cli-batch  27 distinct invocations of ``python -m dnalg.cli``, one at a time

With ``--trace 0`` one worker process (bench/worker.py) runs passes over
the job list for ``--seconds`` seconds, each pass in its own seeded order,
every job timed untraced.  Before each job the worker empties dnalg's
module-level caches, so every run of a job pays for filling them, as in a
fresh process, whatever ran before it.  On the 2-core virtual machine this
was measured on, core speed flips between a fast and a slow state (about
1.6x apart) many times a second, and the share of slow time drifts from
minute to minute.  So right before each job, outside its timed span, the
worker times a fixed pure-Python computation (``worker.reference``, about
2 ms), and a job's time is the median over the passes of its time over
that reference time: a figure in ``ref`` units, which cancels most of the
host's drift.  The output also prints the job medians in milliseconds and
the median reference time.

  setup_s          median over eleven set-ups (five set-up-only workers
                   before the timed one, the timed one, five after) of
                   process start -> first job ready
  wall_ref         the job list once: the sum of the per-job times
  slowest_job_ref  the longest per-job time
  job_p50_ref      the median per-job time
  job_p90_ref      the 90th percentile of the per-job times
  peak_rss_mb      peak resident memory of the worker over set-up and jobs
                   (cli-batch: the largest child)

With ``--trace 1`` one untraced and one traced pass run with the same seed
and order, and the metrics are the per-layer counts and self times of the
traced pass, its wall time over the untraced one (``tracing_overhead``),
and interpreter and import timings of the CLI.  cli-batch calls
``cli.main`` in process for both of those passes.

Every answer is checked.  The last line of output is one JSON object with
``correct`` (no answer was wrong), ``attempted`` and ``failed`` (jobs that
raised or broke the exit-code contract; failed / attempted is the error
rate) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

import workloads as w

DEADLINE_S = 170  # a run must end within 180 s
SETUPS_EACH_SIDE = 5
MIN_PASSES = 3
DNALG_MODULES = ["dnalg", "dnalg.fp", "dnalg.steenrod", "dnalg.truncated", "dnalg.dn",
                 "dnalg.theorems", "dnalg.polytopes", "dnalg.cli"]


class BenchError(Exception):
    pass


def run_child(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run one child in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(cmd, cwd=w.ROOT, env=w.cli_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd)} did not finish before the deadline")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def run_worker(workload: str, seed: int, deadline: float, seconds=0.0, min_passes=1,
               traced=False, in_process=False, setup_only=False) -> dict:
    cmd = [sys.executable, str(w.BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--min-passes", str(min_passes)]
    cmd += ["--traced"] * traced + ["--in-process"] * in_process + ["--setup-only"] * setup_only
    spawned = time.perf_counter()
    proc = run_child(cmd + ["--spawned", repr(spawned)], deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_wall(result: dict) -> float:
    return sum(job[1] for job in result["jobs"])


def job_samples(result: dict) -> dict[str, list[tuple[float, float]]]:
    """label -> (job seconds, reference seconds just before it), one per pass."""
    samples: dict[str, list[tuple[float, float]]] = {}
    for label, seconds, _, reference_s in result["jobs"]:
        samples.setdefault(label, []).append((seconds, reference_s))
    return samples


def end_to_end(result: dict, setups: list[float]) -> dict:
    """name -> (value, unit, what the value was taken over).  A job's time is
    the median over the passes of its time over the reference time."""
    samples = job_samples(result)
    per_job = sorted(statistics.median(t / r for t, r in s) for s in samples.values())
    per_job_ms = sorted(1000 * statistics.median(t for t, _ in s) for s in samples.values())
    reference_ms = 1000 * statistics.median(r for s in samples.values() for _, r in s)
    jobs = f"{len(per_job)} jobs, each its median over {result['passes']} passes"
    figures = {
        "wall_ref": (sum, "sum over"),
        "slowest_job_ref": (max, "maximum over"),
        "job_p50_ref": (statistics.median, "median of"),
        "job_p90_ref": (lambda xs: quantile(xs, 90), "90th percentile of"),
    }
    metrics = {"setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups")}
    for name, (stat, what) in figures.items():
        metrics[name] = (stat(per_job), "ref",
                         f"{what} {jobs}; {stat(per_job_ms):.6g} ms in job medians, "
                         f"reference median {reference_ms:.4g} ms")
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB", f"over set-up and {result['passes']} passes")
    return metrics


def probe_ms(code: str, deadline: float, repeats: int = 5) -> float:
    """Median wall time of ``python -c code`` in milliseconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-c", code], deadline)
        times.append(1000 * (time.perf_counter() - t0))
        if proc.returncode != 0:
            raise BenchError(f"python -c {code!r} failed:\n{proc.stderr.strip()}")
    return statistics.median(times)


def import_self_ms(deadline: float, repeats: int = 3) -> dict[str, float]:
    """Median self import time of each dnalg module, from -X importtime."""
    samples: dict[str, list[float]] = {m: [] for m in DNALG_MODULES}
    line = re.compile(r"import time:\s*(\d+)\s*\|\s*\d+\s*\|\s*(\S+)\s*$")
    for _ in range(repeats):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import dnalg.cli"], deadline)
        for match in filter(None, map(line.match, proc.stderr.splitlines())):
            if match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) / 1000)
    missing = [m for m, xs in samples.items() if not xs]
    if missing:
        raise BenchError(f"no import time for {missing}")
    return {m: statistics.median(xs) for m, xs in samples.items()}


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict]]:
    in_process = workload == "cli-batch"
    plain = run_worker(workload, seed, deadline, in_process=in_process)
    traced = run_worker(workload, seed, deadline, traced=True, in_process=in_process)
    metrics = {}
    for name, value in traced["layers"].items():
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith(
            ("_share", "_per_max_dn", "_per_solution")) else "count"
        metrics[name] = (value, unit, "one traced pass")
    metrics["tracing_overhead"] = (pass_wall(traced) / pass_wall(plain), "ratio",
                                   "traced over untraced pass")
    metrics["cli.interpreter_ms"] = (probe_ms("pass", deadline), "ms", "median of 5 runs")
    metrics["cli.import_ms"] = (probe_ms("import dnalg", deadline), "ms", "median of 5 runs")
    for module, ms in import_self_ms(deadline).items():
        metrics[f"cli.import.{module}.self_ms"] = (ms, "ms", "median of 3 runs")
    print(f"spans written to {traced['spans_file']}")
    return metrics, [plain, traced]


def timed(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict]]:
    def setups():
        return [run_worker(workload, seed, deadline, setup_only=True)["setup_s"]
                for _ in range(SETUPS_EACH_SIDE)]

    before = setups()
    result = run_worker(workload, seed, deadline, seconds=seconds, min_passes=MIN_PASSES)
    return end_to_end(result, before + [result["setup_s"]] + setups()), [result]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=w.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (w.ROOT / "src" / "dnalg" / "__init__.py").is_file():
        print(f"error: no dnalg sources under {w.ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, passes = per_layer(args.workload, args.seed, deadline)
        else:
            metrics, passes = timed(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    statuses = [job[2] for r in passes for job in r["jobs"]]
    attempted, failed = len(statuses), statuses.count("failed")
    wrong = statuses.count("wrong")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {sum(r['passes'] for r in passes)}  jobs per pass {len(job_samples(passes[0]))}")
    for message in dict.fromkeys(e for r in passes for e in r["errors"]):
        print(f"  {message}")
    print(f"  error_rate = {failed}/{attempted} = {failed / attempted:.4f}  (wrong answers: {wrong})")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}  ({samples})")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
