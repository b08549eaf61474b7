"""Passes over one workload's job list, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --spawned T
                            [--seconds S] [--min-passes K]
                            [--traced] [--in-process] [--setup-only]

``--spawned`` is the parent's ``time.perf_counter()`` just before it started
this process (the monotonic clock is shared between processes), so set-up
time counts interpreter start, imports and building the inputs.

The worker runs passes over the job list until at least ``--min-passes``
passes are done and ``--seconds`` have gone by since the first job started.
Each pass runs the jobs in its own order, drawn from the seed and the pass
number.  Each job runs alone: the next one starts when the previous one has
returned.  Before each job, outside its timed span, the worker runs the
job's ``prepare`` step, empties dnalg's module-level caches (the
``functools`` caches of Adem normal forms, Adem instance lists and planar
trees) and runs a full garbage collection.  So every run of a job pays for
filling those caches, as it would in a fresh process, and starts from the
same collector state, whatever ran before it; its time does not depend on
the order.  The set-up's objects are frozen first, so these collections
stay cheap.  Last, still outside the timed span, it times ``reference``, a
fixed computation that is the unit of the job's time.

Each answer is checked after its timed span.  The first pass also asks for
the re-checks that re-derive answers by other means.  Checks that compute
in dnalg are deferred until after the last pass, and the peak resident
memory is read before they start, so neither the timed jobs nor the memory
figure see them.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback

import workloads as w


def reference() -> int:
    """A fixed pure-Python computation of about 2 ms (dictionary updates on
    tuple keys, integer arithmetic), timed right before every job: the unit
    of that job's time (see run.py)."""
    counts: dict = {}
    for i in range(9000):
        key = ((i * 7919) % 1009, i & 7)
        counts[key] = counts.get(key, 0) + i % 5
    return len(counts)


def module_caches() -> list:
    """The functools caches in the namespaces of the loaded dnalg modules, each once."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "dnalg" or name.startswith("dnalg."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=w.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting passes until this long after the first job")
    parser.add_argument("--min-passes", type=int, default=1, dest="min_passes")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--in-process", action="store_true", dest="in_process",
                        help="cli-batch: call cli.main here instead of one child per call")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only",
                        help="build the inputs, report the set-up time and exit")
    args = parser.parse_args()

    src = w.ROOT / "src"
    sys.path.insert(0, str(src))
    import dnalg

    if not dnalg.__file__.startswith(str(src)):
        raise SystemExit(f"dnalg was imported from {dnalg.__file__}, not from {src}")
    caches = module_caches()
    tracer = None
    if args.traced:
        import dnalg.cli
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    expected = w.load_expected()
    workdir = None
    if args.workload == "derive":
        jobs = w.derive_jobs(expected)
    elif args.workload == "decide":
        jobs = w.decide_jobs(random.Random(args.seed), expected)
    elif args.workload == "gamma":
        jobs = w.gamma_jobs(expected)
    else:
        (w.ROOT / ".bench_out").mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="cli-", dir=w.ROOT / ".bench_out")
        jobs = w.cli_jobs(expected, workdir, args.in_process)
    setup_s = time.perf_counter() - args.spawned
    if args.setup_only:
        if workdir is not None:
            shutil.rmtree(workdir)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    gc.freeze()
    results, errors, deferred = [], [], []
    passes = 0
    try:
        started = time.perf_counter()
        while passes < args.min_passes or time.perf_counter() - started < args.seconds:
            order = list(range(len(jobs)))
            random.Random(f"{args.seed}/{passes}").shuffle(order)
            for i in order:
                job = jobs[i]
                state = job.prepare()
                answer = exc = None
                for cache in caches:
                    cache.cache_clear()
                gc.collect()
                t0 = time.perf_counter()
                reference()
                reference_s = time.perf_counter() - t0
                if tracer is not None:
                    tracer.job, tracer.enabled = i, True
                t0 = time.perf_counter()
                try:
                    answer = job.run(state)
                except Exception as e:  # an operation that raised is a failed job
                    exc = e
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.enabled = False
                del state
                status = "ok"
                try:
                    if exc is not None:
                        raise w.Failed(f"{type(exc).__name__}: {exc}")
                    later = job.check(answer, passes == 0)
                    if later is not None:
                        deferred.append((len(results), later))
                except w.Failed as e:
                    status, message = "failed", str(e)
                except Exception as e:  # a wrong answer, or one the check cannot read
                    status, message = "wrong", f"{type(e).__name__}: {e}"
                del answer
                if status != "ok":
                    errors.append(f"{job.label}: {status}: {message}")
                results.append([job.label, elapsed, status, reference_s])
            passes += 1
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-batch" and not args.in_process \
            else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        for k, later in deferred:
            try:
                later()
            except Exception as e:  # a wrong answer, or one the check cannot read
                results[k][2] = "wrong"
                errors.append(f"{results[k][0]}: wrong: {type(e).__name__}: {e}")
    finally:
        if workdir is not None:
            shutil.rmtree(workdir)
    out = {
        "setup_s": setup_s,
        "passes": passes,
        "jobs": results,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        out_dir = w.ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(path, [job.label for job in jobs])
        out["spans_file"] = str(path.relative_to(w.ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
