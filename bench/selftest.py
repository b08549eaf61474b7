"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py [--seed N]

Checks that
  * no dnalg namespace keeps an unwrapped binding of a wrapped name;
  * every wrapped name is called on at least one workload;
  * the counts of two traced passes with one seed are identical;
  * the answers of the traced passes pass the same checks as timed runs:
    no wrong answer, and no failed job except the CLI input-error calls.
Takes about two minutes.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import sys
import time

import run
import tracing
import workloads as w


def check_bindings() -> None:
    sys.path.insert(0, str(w.ROOT / "src"))
    import dnalg.cli  # noqa: F401  (loads every dnalg module)

    modules = [m for n, m in sys.modules.items() if n == "dnalg" or n.startswith("dnalg.")]
    originals = {}
    for prefix, module_name, attr in tracing.FUNCTIONS:
        if "." not in attr:
            originals[id(getattr(sys.modules[module_name], attr))] = f"{module_name}.{attr}"
    restore = tracing.install(tracing.Tracer())
    try:
        for module in modules:
            for key, value in vars(module).items():
                if id(value) in originals:
                    raise AssertionError(f"{module.__name__}.{key} still binds {originals[id(value)]}")
    finally:
        tracing.uninstall(restore)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    check_bindings()
    print("bindings: every dnalg namespace holds the wrappers")
    input_errors = {w.cli_label(argv) for argv in w.CLI_INPUT_ERRORS}
    called = dict.fromkeys((p for p, _, _ in tracing.FUNCTIONS), 0)
    for workload in w.WORKLOADS:
        deadline = time.perf_counter() + 600
        first, second = (
            run.run_worker(workload, args.seed, deadline, traced=True,
                           in_process=workload == "cli-batch")
            for _ in range(2)
        )
        counts = [{k: v for k, v in r["layers"].items() if not k.endswith("self_s")}
                  for r in (first, second)]
        if counts[0] != counts[1]:
            diff = {k: (v, counts[1][k]) for k, v in counts[0].items() if counts[1][k] != v}
            raise AssertionError(f"{workload}: counts differ between traced runs: {diff}")
        for label, _, status, _ in first["jobs"] + second["jobs"]:
            if status == "wrong" or (status == "failed" and label not in input_errors):
                raise AssertionError(f"{workload}: traced job {label!r} is {status}")
        for prefix in called:
            called[prefix] += first["layers"][f"{prefix}.calls"]
        print(f"{workload}: counts repeat exactly, traced answers pass")
    never = [prefix for prefix, n in called.items() if not n]
    if never:
        raise AssertionError(f"never called on any workload: {never}")
    print("every wrapped name is called on at least one workload")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"selftest failed: {exc}", file=sys.stderr)
        sys.exit(1)
