"""Shared fixtures: derived model pools and random-table builders."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
from operator import add

import pytest

from dnalg import theorems
from dnalg.cli import render_presentation
from dnalg.dn import DnVerdict, max_dn
from dnalg.fp import (
    FpMatrix,
    Subspace,
    poly_mul_into,
    poly_reduce,
    solve,
    solve_polynomial_system,
)
from dnalg.steenrod import adem_relation
from dnalg.theorems import check_thm_a, derive_actions, normalize_generators
from dnalg.truncated import (
    AlgebraPresentation,
    adem_instances,
    filtration,
    preserves_truncation,
    render_polynomial,
    validate_action,
)
from fp_oracles import zeros


@functools.lru_cache(maxsize=None)
def derived(p: int, half_degrees: tuple[int, ...]):
    return tuple(derive_actions(p, list(half_degrees), max_unknowns=12))


def free_entries(p: int, half_degrees: tuple[int, ...]):
    """The generator-only presentation of ``derive_actions``'s tables, and
    one block (generator index, k, degree basis) per free entry P^k y_i, in
    the order of its variables: k-major, then generator, then basis."""
    ms = sorted(half_degrees)
    names = [f"y{2 * m}" for m in ms]
    if len(set(names)) != len(names):
        names = [f"y{2 * m}_{i}" for i, m in enumerate(ms)]
    probe = AlgebraPresentation(p, list(zip(names, ms)))
    blocks = [
        (i, k, probe.basis_of_degree(2 * m + 2 * k * (p - 1)))
        for k in range(1, max(ms))
        for i, m in enumerate(ms)
        if k < m
    ]
    return probe, blocks


def table_of(probe: AlgebraPresentation, blocks, vector) -> AlgebraPresentation:
    """The table whose free entries have the coefficients ``vector``."""
    coeffs = iter(vector)
    action = {
        (probe.names[i], k): {e: c for e, c in zip(basis, coeffs) if c}
        for i, k, basis in blocks
    }
    return AlgebraPresentation(probe.p, list(zip(probe.names, probe.half_degrees)), action)


def entry_vector(a: AlgebraPresentation, blocks) -> tuple[int, ...]:
    """The coefficients of the free entries of ``a``, in variable order."""
    return tuple(a.action_entry(i, k).coefficient(e) for i, k, basis in blocks for e in basis)


def reference_power(a: AlgebraPresentation, entries):
    """The reference for ``theorems._symbolic_power``, with none of its
    shortcuts: P^k on one monomial by the Cartan recursion over every j
    (the j = 0 and j = k terms as products too, and no closed form),
    memoized per (k, monomial).  It reads no entry above m_i."""
    p, one = a.p, {(): 1}
    memo = {}

    def power(k, exps):
        if (k, exps) not in memo:
            i = max((j for j, e in enumerate(exps) if e), default=-1)
            acc = {}
            if i >= 0:  # else the unit: P^k 1 = 0
                x = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
                for j in range(min(k, a.half_degrees[i]) + 1):
                    for e1, c1 in ({x: one} if j == k else power(k - j, x)).items():
                        for e2, c2 in entries[(i, j)].items():
                            e = tuple(map(add, e1, e2))
                            if max(e) <= p:
                                poly_mul_into(acc.setdefault(e, {}), c1, c2, p)
            memo[(k, exps)] = {e: c for e, f in acc.items() if (c := poly_reduce(f, p))}
        return memo[(k, exps)]

    return power


def reference_adem_equations(a: AlgebraPresentation, entries, instances):
    """The reference for ``theorems._adem_equations``: ``reference_power``,
    and every word of every instance evaluated afresh with its coefficient
    folded in.  ``oracle_derived`` solves with it."""
    p, one = a.p, {(): 1}
    power = reference_power(a, entries)
    equations = []
    for ae, be, exps in instances:
        diff = {}
        words = [((ae, be), 1)] + [
            ((s, t) if t else (s,), -c) for c, s, t in adem_relation(p, ae, be)
        ]
        for pows, c in words:
            terms = {exps: {(): c}}
            for k in reversed(pows):
                acc = {}
                for x, f in terms.items():
                    for e, g in power(k, x).items():
                        poly_mul_into(acc.setdefault(e, {}), f, g, p)
                terms = {e: f for e, g in acc.items() if (f := poly_reduce(g, p))}
            for e, f in terms.items():
                poly_mul_into(diff.setdefault(e, {}), one, f, p)
        equations.extend(poly_reduce(f, p) for f in diff.values())
    return equations


@functools.lru_cache(maxsize=None)
def oracle_derived(p: int, half_degrees: tuple[int, ...]):
    """Every table on which each in-range Adem instance holds on every basis
    monomial: the per-monomial system, with no truncation equation, solved
    by the same solver.  It lists unstable tables too."""
    probe, blocks = free_entries(p, half_degrees)
    instances = [
        (ae, be, exps)
        for ae, be, d in adem_instances(p, tuple(probe.nonzero_degrees()), probe.top_degree)
        for exps in probe.basis_of_degree(d)
    ]
    entries = theorems._symbolic_entries(probe, blocks)
    equations = reference_adem_equations(probe, entries, instances)
    unknowns = sum(len(basis) for *_, basis in blocks)
    return tuple(
        table_of(probe, blocks, v) for v in solve_polynomial_system(p, unknowns, equations)
    )


def oracle_check_instance(inst) -> DnVerdict:
    """``dn.check_instance`` as one full system: every coordinate of A^d,
    the corrections theta(m) as columns, and a unit column for each
    monomial of D^{n+1} A^d."""
    a = inst.presentation
    p = a.p
    d = inst.target_degree
    total = inst.evaluate()
    if not total.in_filtration(2):
        return DnVerdict("vacuous", inst)
    ncols_amb = len(a.basis_of_degree(d))
    columns = []
    col_groups = []  # per pair, its decomposable monomials
    for theta, alpha in inst.pairs:
        dec_monos = [m for m in a.basis_of_degree(alpha.degree()) if sum(m) >= 2]
        col_groups.append(dec_monos)
        for mono in dec_monos:
            columns.append(a.coords(a.act(theta, a.element({mono: 1})), d))
    deep = filtration(a, inst.n + 1, d)
    columns.extend(deep.basis)
    if columns:
        mat = FpMatrix.from_rows(p, [list(c) for c in columns], ncols_amb).transpose()
    else:
        mat = zeros(p, ncols_amb, 0)
    solution = solve(mat, a.coords(total, d))
    if solution is None:
        image = Subspace.from_vectors(p, ncols_amb, [list(c) for c in columns])
        return DnVerdict(
            "violated",
            inst,
            certificate={
                "target_degree": d,
                "dim_correction_span": image.dim,
                "dim_deep_filtration": deep.dim,
                "value": render_polynomial(total),
            },
        )
    witness = []
    pos = 0
    for dec_monos in col_groups:
        nu = a.zero()
        for mono in dec_monos:
            nu = nu + a.element({mono: solution[pos]})
            pos += 1
        witness.append(nu)
    return DnVerdict("satisfied-with-witness", inst, witness=tuple(witness))


def total_powers(a):
    """The total power P(y_i) = sum_k P^k y_i of every generator."""
    return [
        sum((a.action_entry(i, k) for k in range(1, m + 1)), a.gen(i))
        for i, m in enumerate(a.half_degrees)
    ]


def stable(tables):
    """The tables whose total powers preserve the truncation."""
    return [a for a in tables if preserves_truncation(a, total_powers(a))]


# (prime, half-degree tuple) combinations whose exhaustive derivation is
# cheap; heavier tuples exist but are excluded from the shared pool.
POOL_TUPLES = [
    (3, (1,)), (3, (2,)), (3, (3,)),
    (3, (1, 1)), (3, (1, 2)), (3, (1, 3)), (3, (2, 2)), (3, (2, 3)), (3, (3, 3)),
    (5, (1,)), (5, (2,)), (5, (4,)), (5, (5,)),
    (5, (1, 1)), (5, (1, 2)), (5, (1, 4)), (5, (1, 5)), (5, (2, 5)),
    (5, (4, 5)), (5, (5, 5)),
]


@functools.lru_cache(maxsize=None)
def model_pool():
    pool = []
    for p, ms in POOL_TUPLES:
        pool.extend(derived(p, ms))
    return tuple(pool)


def decide_digests(a: AlgebraPresentation) -> dict:
    """What the decide calls answer on one model: the sha256 of the rendered
    ``validate_action`` result, of the normalized presentation with its
    images and P^1 targets, of the ``check_thm_a`` verdict dicts, and
    ``max_dn`` itself."""

    def sha(obj) -> str:
        return hashlib.sha256(json.dumps(obj).encode()).hexdigest()

    norm = normalize_generators(a)
    thm_a = check_thm_a(a)
    return {
        "validate": sha(validate_action(a).to_dict()),
        "normalize": sha([
            render_presentation(norm.presentation),
            [render_polynomial(img) for img in norm.images],
            sorted(norm.p1_targets.items()),
        ]),
        "thm_a": sha([
            v.to_dict()
            for v in thm_a.surjectivity + thm_a.vanishing + thm_a.isomorphism
        ]),
        "max_dn": max_dn(a),
    }


@pytest.fixture(scope="session")
def pool():
    return model_pool()


def s3_model(p: int = 3, m: int = 2) -> AlgebraPresentation:
    """First derived single-generator model (the sphere-like algebra)."""
    models = derived(p, (m,))
    assert models, f"no consistent model for p={p}, m={m}"
    return models[0]


def random_table(rng: random.Random, p: int, half_degrees: tuple[int, ...]):
    """A degree-respecting random action table (not necessarily a valid
    action): every free entry gets random coefficients."""
    names = [f"g{i}" for i in range(len(half_degrees))]
    gens = list(zip(names, sorted(half_degrees)))
    probe = AlgebraPresentation(p, gens)
    action = {}
    for i, (name, m) in enumerate(gens):
        for k in range(1, m):
            basis = probe.basis_of_degree(2 * m + 2 * k * (p - 1))
            action[(name, k)] = {
                e: rng.randrange(p) for e in basis if rng.random() < 0.7
            }
    return AlgebraPresentation(p, gens, action)


def random_element(rng: random.Random, a: AlgebraPresentation, degree: int):
    return a.element({e: rng.randrange(a.p) for e in a.basis_of_degree(degree)})
