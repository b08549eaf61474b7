"""Regenerate data/models.txt and data/expected.json from the program.

The committed files were made at the commit that added the benchmark, so
the answers the benchmark checks are that commit's answers.  Rerun this only
to extend the inputs, never to make a failing check pass:

    python3 bench/gen_data.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import workloads as w

sys.path.insert(0, str(w.ROOT / "src"))

from dnalg import cli, polytopes, theorems  # noqa: E402


def write_models() -> None:
    blocks = []
    for p, ms in w.POOL_SHAPES:
        for i, a in enumerate(theorems.derive_actions(p, list(ms))):
            mid = f"{p}-{','.join(map(str, ms))}-{i}"
            blocks.append(f"=== {mid} derive_actions({p}, {list(ms)}) solution {i}\n"
                          + cli.render_presentation(a))
    for p, count in w.ONES_SHAPES:
        (a,) = theorems.derive_actions(p, [1] * count)
        blocks.append(f"=== ones-{p}-{count} derive_actions({p}, {[1] * count})\n"
                      + cli.render_presentation(a))
    with open(w.DATA / "models.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(blocks))


def expected_answers() -> dict:
    derive = {
        f"{p}:{','.join(map(str, ms))}": len(theorems.derive_actions(p, list(ms)))
        for p, ms in w.DERIVE_SHAPES
    }
    decide = {}
    for mid, text in w.load_models():
        a = cli.parse_presentation(text)
        decide[mid] = {kind: w.summarize(kind, ans) for kind, ans in w.analyse_model(a).items()}
    gamma = {str(n): polytopes.boundary_census(n) for n in range(1, 6)}
    out = {"derive": derive, "decide": decide, "gamma": gamma, "cli": {}}
    errors = [w.cli_label(argv) for argv in w.CLI_INPUT_ERRORS]
    (w.ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="gen-", dir=w.ROOT / ".bench_out")
    try:
        for job in w.cli_jobs({}, workdir, in_process=False):
            if job.label not in errors:
                out["cli"][job.label] = w.summarize_cli(*job.run(None))
    finally:
        shutil.rmtree(workdir)
    for label in errors:
        out["cli"][label] = {"exit": 2}
    return out


def main() -> None:
    w.DATA.mkdir(exist_ok=True)
    write_models()
    expected = json.loads(json.dumps(expected_answers()))
    with open(w.DATA / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
