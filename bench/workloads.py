"""Job lists, inputs and answer checks of the four benchmark workloads.

A job is a label, a callable that makes the job's calls into dnalg (its
return value is the job's answer), and a check of that answer.  A job may
also have a ``prepare`` step, run untimed before each run, whose result the
run receives (decide parses its model afresh there, so every run starts
from a presentation with cold caches).  Jobs can run many times; each run
does the same work.  The callables look dnalg functions up on their modules
at call time, so the tracing wrappers see them.  A check raises ``Failed`` when the operation
itself failed (an exception, a wrong exit code) and ``Wrong`` when it
produced an answer that is not correct.

Checks run outside the timed span, right after their job, and compare the
answer with plain data only, so they fill none of dnalg's module-level
caches (Adem normal forms, instance lists, trees) between timed jobs.  A
check that has to compute in dnalg (validating a derived table, ``check_dn``
against ``max_dn``, re-evaluating an instance) returns it as a deferred
check: a callable that holds only plain data (presentation text, exponent
dictionaries), which the worker runs after the last job.

Inputs come from the files in ``data/`` and from the seed alone: ``inputs``
draws the random ``check_instance`` instances from the seed.  The worker
shuffles the job order of each pass with its own generator.

Every job is short (at most about 0.3 s on a 2-core virtual machine): the
benchmark times each job many times and keeps its fastest run, which only
steadies a figure for jobs shorter than the host's slow spells (see
NOTES.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = BENCH / "data"
WORKLOADS = ("derive", "decide", "gamma", "cli-batch")

# derive: the POOL_TUPLES shapes of tests/conftest.py (all of them feed
# decide's models), then heavier shapes, including the criterion-5 model
# (3,(2,4)) that has no table.
POOL_SHAPES = [
    (3, (1,)), (3, (2,)), (3, (3,)),
    (3, (1, 1)), (3, (1, 2)), (3, (1, 3)), (3, (2, 2)), (3, (2, 3)), (3, (3, 3)),
    (5, (1,)), (5, (2,)), (5, (4,)), (5, (5,)),
    (5, (1, 1)), (5, (1, 2)), (5, (1, 4)), (5, (1, 5)), (5, (2, 5)),
    (5, (4, 5)), (5, (5, 5)),
]
# derive times every pool shape but two whose search takes about 0.9 s.
SLOW_POOL_SHAPES = [(5, (1, 4)), (5, (4, 5))]
DERIVE_SHAPES = [s for s in POOL_SHAPES if s not in SLOW_POOL_SHAPES] + [
    (3, (2, 4)), (3, (3, 6)), (3, (1, 1, 1, 1)), (5, (1, 1, 1)), (7, (1, 1, 1)),
]
# decide: models whose generators all have half-degree 1, as (p, count).
ONES_SHAPES = [(3, 4), (5, 3), (7, 3)]


class Failed(Exception):
    """The operation failed: it raised, or broke the exit-code contract."""


class Wrong(Exception):
    """The operation returned an answer that is not correct."""


@dataclass
class Job:
    label: str
    # Receives what ``prepare`` returned.
    run: Callable[[Any], Any]
    # check(answer, recheck) raises Failed or Wrong; it may return a deferred
    # check (see above).  With ``recheck`` it also re-derives the answer by
    # other means; the worker asks for that on the first pass only.
    check: Callable[[Any, bool], Callable[[], None] | None]
    prepare: Callable[[], Any] = lambda: None


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def load_expected() -> dict:
    with open(DATA / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_models() -> list[tuple[str, str]]:
    """(model id, presentation text) pairs from data/models.txt."""
    models = []
    with open(DATA / "models.txt", encoding="utf-8") as fh:
        for block in fh.read().split("=== ")[1:]:
            head, _, text = block.partition("\n")
            models.append((head.split()[0], text))
    return models


# ---------------------------------------------------------------------------
# answer summaries, shared with gen_data.py


def summarize(kind: str, answer):
    """The part of an answer that must equal the seed's."""
    from dnalg import cli, truncated

    if kind == "validate":
        return {"ok": answer.ok, "instances_checked": answer.instances_checked}
    if kind == "normalize":
        return digest([
            cli.render_presentation(answer.presentation),
            [truncated.render_polynomial(img) for img in answer.images],
            sorted(answer.p1_targets.items()),
        ])
    if kind == "prop_a":
        return [answer.ok, [list(f) for f in answer.failures], answer.checked]
    if kind == "thm_a":
        verdicts = answer.surjectivity + answer.vanishing + answer.isomorphism
        return digest([v.to_dict() for v in verdicts])
    if kind == "max_dn":
        return answer
    raise ValueError(kind)


def analyse_model(a) -> dict:
    """The five decide calls on one model, in the order a user runs them."""
    from dnalg import dn, theorems, truncated

    out = {"validate": truncated.validate_action(a)}
    out["normalize"] = theorems.normalize_generators(a)
    out["prop_a"] = theorems.check_prop_a(out["normalize"], a.p - 1)
    out["thm_a"] = theorems.check_thm_a(a)
    out["max_dn"] = dn.max_dn(a)
    return out


# ---------------------------------------------------------------------------
# derive


def derive_jobs(expected: dict) -> list[Job]:
    """With ``recheck``, every returned table is also validated, deferred:
    the check keeps the tables' text and validates fresh parses of it."""
    from dnalg import cli, theorems, truncated

    def validate(texts):
        for text in texts:
            ok = truncated.validate_action(cli.parse_presentation(text)).ok
            expect(ok, "a returned table fails validate_action")

    def check(count):
        def run(tables, recheck):
            expect(len(tables) == count, f"{len(tables)} tables, expected {count}")
            if recheck:
                texts = [cli.render_presentation(t) for t in tables]
                return lambda: validate(texts)
        return run

    jobs = [
        Job(f"derive p={p} ms={list(ms)}",
            lambda _, p=p, ms=ms: theorems.derive_actions(p, list(ms)),
            check(expected["derive"][f"{p}:{','.join(map(str, ms))}"]))
        for p, ms in DERIVE_SHAPES
    ]
    return jobs


# ---------------------------------------------------------------------------
# decide


def random_instance(rng: random.Random, a, monomials: dict, shape: int) -> tuple:
    """A DnInstance on a model whose generators have half-degree 1, as
    plain data (``plain_instance``).

    The target degree and the operations are fixed by ``shape`` (P^1, P^2,
    or both, into degree 2 + 4(p-1)), so the cost does not depend on the
    seed; the seed draws the classes alpha and the order n.  ``monomials``
    maps each degree to its monomials; it is computed by the benchmark, so
    setup leaves the presentation's caches cold."""
    from dnalg import steenrod

    p = a.p
    step = 2 * (p - 1)
    d = 2 + 2 * step
    ks = [[1], [2], [1, 2]][shape]
    pairs = []
    for k in ks:
        basis = monomials[d - k * step]
        coeffs = {m: rng.randrange(p) for m in basis}
        coeffs[rng.choice(basis)] = rng.randrange(1, p)
        pairs.append((steenrod.SteenrodElement.power(p, k), coeffs))
    return tuple(pairs), rng.randrange(1, p)


def build_instance(a, instance: tuple):
    """The DnInstance on ``a`` of an instance given as plain data."""
    from dnalg import dn

    pairs, n = instance
    return dn.DnInstance(a, tuple((theta, a.element(terms)) for theta, terms in pairs), n)


def monomials_by_degree(a) -> dict:
    out: dict[int, list] = {}
    for exps in itertools.product(range(a.p + 1), repeat=a.l):
        out.setdefault(a.monomial_degree(exps), []).append(exps)
    return out


def plain_instance(inst) -> tuple:
    """(pairs of (theta, alpha's terms), n): an instance without its presentation."""
    return tuple((theta, dict(alpha.terms)) for theta, alpha in inst.pairs), inst.n


def plain_verdict(verdict) -> tuple:
    """(status, the witness's terms or None): a verdict without its presentation."""
    witness = verdict.witness
    return verdict.status, None if witness is None else [dict(nu.terms) for nu in witness]


def check_verdict(instance: tuple, verdict: tuple, b) -> None:
    """Re-check a check_instance verdict from the instance alone, computing
    in ``b``, a fresh copy of the instance's presentation.  Both arguments
    are plain data (``plain_instance``, ``plain_verdict``)."""
    from dnalg import dn

    (plain_pairs, n), (status, witness) = instance, verdict
    pairs = [(theta, b.element(terms)) for theta, terms in plain_pairs]
    total = dn.DnInstance(b, tuple(pairs), n).evaluate()
    if status == "vacuous":
        expect(not total.in_filtration(2), "vacuous verdict on a decomposable value")
        return
    expect(total.in_filtration(2), "non-vacuous verdict on an indecomposable value")
    if status == "violated":
        expect(not total.in_filtration(n + 1), "violated, yet the value lies in D^{n+1}")
        return
    expect(status == "satisfied-with-witness", f"unknown status {status!r}")
    corrected = b.zero()
    for (theta, alpha), terms in zip(pairs, witness):
        nu = b.element(terms)
        expect(nu.in_filtration(2), "a correction is not decomposable")
        expect(nu.is_zero() or nu.degree() == alpha.degree(), "a correction has the wrong degree")
        corrected = corrected + b.act(theta, alpha - nu)
    expect(corrected.in_filtration(n + 1), "sum theta(alpha - nu) is not in D^{n+1}")


def decide_jobs(inputs: random.Random, expected: dict) -> list[Job]:
    """One job per model: the five calls of ``analyse_model`` and, on the
    models whose generators all have half-degree 1, three ``check_instance``
    instances.  Each run gets a fresh parse of the model.  Each verdict is
    re-checked and, with ``recheck``, max_dn is checked against check_dn.
    Both are deferred and run on a fresh parse of the model."""
    from dnalg import cli, dn

    want = expected["decide"]

    def deferred(text, n, verdicts, recheck):
        b = cli.parse_presentation(text)
        if recheck:
            expect(dn.check_dn(b, n).ok, "check_dn(max_dn) fails")
            if n + 1 < b.p:
                expect(not dn.check_dn(b, n + 1).ok, "check_dn(max_dn + 1) passes")
        for instance, verdict in verdicts:
            check_verdict(instance, verdict, b)

    jobs = []
    for mid, text in load_models():
        plain = []
        if mid.startswith("ones"):
            a = cli.parse_presentation(text)
            monomials = monomials_by_degree(a)
            plain = [random_instance(inputs, a, monomials, i) for i in range(3)]

        def prepare(text=text, plain=plain):
            a = cli.parse_presentation(text)
            return a, [build_instance(a, inst) for inst in plain]

        def run(state):
            a, instances = state
            answers = analyse_model(a)
            answers["instances"] = [dn.check_instance(inst) for inst in instances]
            return answers

        def check(answers, recheck, mid=mid, text=text):
            for kind, exp in want[mid].items():
                got = summarize(kind, answers[kind])
                expect(got == exp, f"{kind}: {got!r}, expected {exp!r}")
            verdicts = [(plain_instance(v.instance), plain_verdict(v)) for v in answers["instances"]]
            if recheck or verdicts:
                n = answers["max_dn"]
                return lambda: deferred(text, n, verdicts, recheck)

        jobs.append(Job(f"model {mid}", run, check, prepare))
    return jobs


# ---------------------------------------------------------------------------
# gamma: inputs and oracles are built here, independently of dnalg.polytopes


def binary_trees(m: int) -> list:
    """Binary planar trees on m leaves; a leaf is None, a node a pair."""
    if m == 1:
        return [None]
    return [(l, r) for i in range(1, m) for l in binary_trees(i) for r in binary_trees(m - i)]


def vertex_keys(n: int) -> set:
    return {(perm, tree) for perm in itertools.permutations(range(1, n + 1)) for tree in binary_trees(n)}


def ordered_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Ordered partitions of {1..n} into at least two blocks."""
    out = []
    for m in range(2, n + 1):
        for labels in itertools.product(range(m), repeat=n):
            if len(set(labels)) == m:
                out.append(tuple(
                    tuple(i + 1 for i, lab in enumerate(labels) if lab == b) for b in range(m)
                ))
    return out


def stirling2(n: int, k: int) -> int:
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def vertex_count(n: int) -> int:
    return math.factorial(n) * math.comb(2 * n - 2, n - 1) // n


def facet_count(n: int) -> int:
    return sum(math.factorial(m) * stirling2(n, m) for m in range(2, n + 1))


def gamma_jobs(expected: dict) -> list[Job]:
    """Single enumerations of Gamma_5 and Gamma_6, and sweeps over Gamma_5
    split by block count or by letter, so that every job is short."""
    from dnalg import polytopes

    v4, v5 = vertex_keys(4), vertex_keys(5)
    facets5 = [polytopes.GammaFacet(polytopes.OrderedPartition(5, blocks))
               for blocks in ordered_partitions(5)]
    vertices5 = [polytopes.GammaVertex(perm, tree) for perm, tree in sorted(v5, key=str)]

    def count_check(n, want, what):
        def check(items, recheck):
            expect(len(items) == want, f"{len(items)} {what} of Gamma_{n}, expected {want}")
            expect(len(set(items)) == want, f"repeated {what} of Gamma_{n}")
        return check

    def facets_check(facets):
        def check(results, recheck):
            for facet, vertices in zip(facets, results, strict=True):
                expect(len(vertices) == facet.vertex_count(), f"facet {facet.partition}: vertex count")
                expect(all((v.perm, v.tree) in v5 for v in vertices), "a facet vertex is not a vertex")
        return check

    def degeneracy_check(results, recheck):
        expect(len(results) == len(vertices5), "a vertex has no degeneracy")
        expect(all(isinstance(v, polytopes.GammaVertex) and (v.perm, v.tree) in v4
                   for v in results), "a degeneracy is not a vertex on n-1 letters")

    def census_check(censuses, recheck):
        for n, census in enumerate(censuses, start=1):
            expect(census == expected["gamma"][str(n)], f"census({n}) differs from the seed's")
            expect(census["vertices"] == vertex_count(n), f"census({n}): vertex count")
            expect(census["facets"] == (facet_count(n) if n > 1 else 0), f"census({n}): facet count")

    jobs = []
    for n in (5, 6):
        jobs.append(Job(f"enumerate_facets {n}", lambda _, n=n: polytopes.enumerate_facets(n),
                        count_check(n, facet_count(n), "facets")))
        jobs.append(Job(f"enumerate_vertices {n}", lambda _, n=n: polytopes.enumerate_vertices(n),
                        count_check(n, vertex_count(n), "vertices")))
    for m in range(2, 6):
        facets = [f for f in facets5 if len(f.partition.blocks) == m]
        jobs.append(Job(f"facet_vertices of the {m}-block facets of Gamma_5",
                        lambda _, facets=facets: [polytopes.facet_vertices(f) for f in facets],
                        facets_check(facets)))
    for j in range(1, 6):
        jobs.append(Job(f"degeneracy {j} of every vertex of Gamma_5",
                        lambda _, j=j: [polytopes.degeneracy(v, j) for v in vertices5],
                        degeneracy_check))
    jobs.append(Job("boundary_census 1..5",
                    lambda _: [polytopes.boundary_census(n) for n in range(1, 6)], census_check))
    return jobs


# ---------------------------------------------------------------------------
# cli-batch

# Pool models given to the file subcommands, by model id.
CLI_MODELS = ["3-1,2-1", "5-2,5-1"]
CLI_FILE_COMMANDS = [
    ["validate"], ["normalize"], ["check-dn", "--n", "1"], ["check-dn", "--n", "2"],
    ["max-dn"], ["check-propA", "--n", "2"], ["check-thmA"], ["reduce"],
]
CLI_OTHER = [
    ["derive", "--p", "3", "--halfdegs", "1,2"],
    ["derive", "--p", "5", "--halfdegs", "1,2"],
    ["thmc", "--p", "5", "--dims", "1,3,5"],
    ["thmc", "--p", "7", "--dims", "5,9"],
    ["gamma", "--n", "4", "--census"],
    ["gamma", "--n", "5"],
    ["steenrod", "--eval", "P^3 P^1 + b P^2", "--p", "3"],
    ["steenrod", "--eval", "P^1 b P^1", "--p", "7"],
]
# Invalid input: the README contract is exit status 2.
CLI_INPUT_ERRORS = [
    ["gamma", "--n", "6"],
    ["derive", "--p", "4", "--halfdegs", "1"],
    ["derive", "--p", "3", "--halfdegs", "0"],
]


def cli_calls() -> list[list[str]]:
    """Every invocation of the batch; ``{model}`` stands for a file path."""
    calls = [cmd + [f"{{{mid}}}"] for mid in CLI_MODELS for cmd in CLI_FILE_COMMANDS]
    return calls + CLI_OTHER + CLI_INPUT_ERRORS


def cli_label(argv: list[str]) -> str:
    return " ".join(argv)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_cli_child(argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "dnalg.cli", *argv], cwd=ROOT, env=cli_env(),
        capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    """cli.main in this process; an escaping exception is what the
    interpreter would turn into exit status 1."""
    from dnalg import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = 1
    return code, out.getvalue()


def summarize_cli(code: int, stdout: str) -> dict:
    if code not in (0, 1):
        return {"exit": code}
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        raise Failed(f"exit status {code} without a JSON report")
    return {"exit": code, "overall": report.get("overall"), "verdicts": report.get("verdicts")}


def cli_jobs(expected: dict, workdir: str, in_process: bool) -> list[Job]:
    """Presentation files of the pool models are written to ``workdir``."""
    texts = dict(load_models())
    paths = {}
    for mid in CLI_MODELS:
        paths[mid] = os.path.join(workdir, f"{mid}.alg")
        with open(paths[mid], "w", encoding="utf-8") as fh:
            fh.write(texts[mid])
    runner = run_cli_in_process if in_process else run_cli_child

    def check(label):
        def run(answer, recheck):
            want = expected["cli"][label]
            code, stdout = answer
            if code != want["exit"]:
                raise Failed(f"exit status {code}, expected {want['exit']}")
            expect(summarize_cli(code, stdout) == want, "report verdicts differ from the seed's")
        return run

    jobs = []
    for argv in cli_calls():
        label = cli_label(argv)
        concrete = [paths[a[1:-1]] if a.startswith("{") else a for a in argv]
        jobs.append(Job(label, lambda _, argv=concrete: runner(argv), check(label)))
    return jobs
