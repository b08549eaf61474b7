"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import random
import time

import pytest

from dnalg.dn import DnSearchConfig, check_dn, check_instance, max_dn
from dnalg.polytopes import (
    boundary_census,
    catalan,
    enumerate_facets,
    enumerate_vertices,
)
from dnalg.steenrod import (
    SteenrodElement,
    SteenrodMonomial,
    adem_rewrite,
    multiply,
    render_element,
)
from dnalg.theorems import (
    check_prop_a,
    check_thm_a,
    derive_actions,
    normalize_generators,
    p1_normal_form_ok,
    reduce_frobenius,
)
from dnalg.truncated import filtration, induced_q_map, validate_action

from conftest import derived, model_pool, random_table


def _line(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def pascal(n, k, p):
    if k < 0 or n < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [(a + b) % p for a, b in zip([0] + row, row + [0])]
    return row[k]


def test_criterion_1_steenrod_identities():
    t0 = time.time()
    ok = True
    for p in (3, 5, 7):
        ok &= adem_rewrite(SteenrodMonomial(p, (0, 0, 0), (1, p - 1))).is_zero()
        p1 = SteenrodElement.power(p, 1)
        ok &= multiply(p1, p1) == SteenrodElement(
            p, {SteenrodMonomial.power(p, 2): 2}
        )
        for c in range(1, p):
            nf = adem_rewrite(SteenrodMonomial(p, (0, 0, 0), (c, p - c)))
            lead = nf.terms.get(SteenrodMonomial.power(p, p), 0)
            ok &= lead == pascal(p, c, p) == 0
    elapsed = time.time() - t0
    _line(1, ok, f"rewriting identities for p in 3,5,7 ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_composite_power_coefficient():
    t0 = time.time()
    cases = 0
    ok = True
    for p in (3, 5, 7):
        for m in range(2, p + 1):
            for a in derived(p, (m,)):
                kappa = a.gen(0)
                expected_base = kappa**p
                for b in range(1, m):
                    c = m - b
                    theta = multiply(
                        SteenrodElement.power(p, c), SteenrodElement.power(p, b)
                    )
                    got = a.act(theta, kappa)
                    want = expected_base.scale(pascal(b + c, b, p))
                    ok &= got == want
                    cases += 1
    elapsed = time.time() - t0
    _line(2, ok, f"{cases} composite-power cases across validated models ({elapsed:.2f}s)")
    assert ok and cases >= 10
    assert elapsed < 1.0 * max(cases, 1)


def test_criterion_3_order_bounds_on_random_models():
    t0 = time.time()
    pool = list(model_pool())
    rng = random.Random(20260808)
    models = [pool[rng.randrange(len(pool))] for _ in range(50)]
    ok = True
    for a in models:
        ok &= check_dn(a, 1).ok
        report = check_dn(a, a.p)
        ok &= not report.ok and report.violation is not None
        if report.violation is not None:
            ok &= check_instance(report.violation.instance).status == "violated"
    elapsed = time.time() - t0
    _line(3, ok, f"50 random models: order 1 passes, order p fails with witness ({elapsed:.1f}s)")
    assert ok
    assert elapsed < 60


def test_criterion_4_max_order_table():
    t0 = time.time()
    table = {(3, 2): 1, (5, 2): 2, (5, 4): 1, (7, 2): 3, (7, 3): 2}
    config = DnSearchConfig(max_support=2, theta_dim_bound=3)
    ok = True
    details = []
    for (p, m), expected in table.items():
        models = derived(p, (m,))
        ok &= bool(models)
        for a in models:
            value = max_dn(a, config)
            ok &= value == expected == p // m
        details.append(f"(p={p},m={m})->{expected}")
    elapsed = time.time() - t0
    _line(4, ok, f"max order table {' '.join(details)} ({elapsed:.1f}s)")
    assert ok
    assert elapsed < 300


def test_criterion_5_linked_two_generator_model():
    # The stated model: p=3, half-degrees (2, 4), an exhaustive-solver table
    # whose first reduced power sends the small generator to the large one.
    # No Adem-consistent table of that shape exists, so this criterion
    # cannot pass: `python -m dnalg.cli derive --p 3 --halfdegs 2,4` lists
    # no table, and neither does the per-monomial system of
    # tests/conftest.py::oracle_derived(3, (2, 4)), which imposes no
    # truncation equation (pinned in test_derive_infeasible_configurations_are_empty).
    t0 = time.time()
    solutions = derive_actions(3, [2, 4], max_unknowns=12)
    linked = [s for s in solutions if s.action_entry(0, 1).coefficient((0, 1))]
    ok = bool(linked)
    for a in linked:
        ok &= check_dn(a, 2).ok
        ok &= check_prop_a(normalize_generators(a), 2).ok
        iso = [
            v
            for v in check_thm_a(a).isomorphism
            if (v.a, v.c, v.t) == (0, 2, 1)
        ]
        ok &= bool(iso) and iso[0].ok
    elapsed = time.time() - t0
    _line(
        5,
        ok,
        f"{len(solutions)} consistent tables on half-degrees (2,4) at p=3, "
        f"{len(linked)} with the generators linked ({elapsed:.1f}s)",
    )
    assert elapsed < 30
    assert linked, (
        "no Adem-consistent action table on T^[4] generators of degrees 4 and 8 "
        "links them through P^1: the relations P^1 P^3 = P^4 and P^2 P^3 = P^5 "
        "are incompatible under the height-4 truncation (derive --p 3 --halfdegs 2,4 "
        "lists no table, nor does tests/conftest.py::oracle_derived(3, (2, 4)), "
        "which imposes no truncation equation)"
    )


def test_criterion_6_sphere_counterexample():
    t0 = time.time()
    fails = set()
    for a in derived(5, (2,)):
        result = check_thm_a(a)
        fails.update((v.family, v.a, v.c, v.t) for v in result.failures())
    ok = fails == {("A3", 0, 2, 1)}
    elapsed = time.time() - t0
    _line(6, ok, f"p=5 sphere model fails exactly at (a=0,c=2,t=1) ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 1.0


def test_criterion_7_normalization():
    t0 = time.time()
    rng = random.Random(77)
    shapes = [(2, 4), (2, 2, 4), (2, 4, 4), (1, 2, 4), (2, 4, 6), (1, 3), (2, 2)]
    p1 = SteenrodElement.power(3, 1)
    ok = True
    for _ in range(100):
        a = random_table(rng, 3, rng.choice(shapes))
        norm = normalize_generators(a)
        b = norm.presentation
        good, problems = p1_normal_form_ok(b)
        ok &= good
        for d in range(0, a.top_degree + 1, 2):
            ok &= a.dim(d) == b.dim(d)
        for d in sorted(set(a.degrees)):
            for steps in (1, 2, 3):
                mo = induced_q_map(a, p1, d)
                mn = induced_q_map(b, p1, d)
                e = d
                for _ in range(steps - 1):
                    e += 2 * (a.p - 1)
                    mo = induced_q_map(a, p1, e).matmul(mo)
                    mn = induced_q_map(b, p1, e).matmul(mn)
                ok &= mo.rank() == mn.rank()
    elapsed = time.time() - t0
    _line(7, ok, f"100 random tables normalized, dims and ranks preserved ({elapsed:.1f}s)")
    assert ok
    assert elapsed < 60


def _oracle_binary_trees(m):
    if m == 1:
        return [None]
    out = []
    for left in range(1, m):
        for lt in _oracle_binary_trees(left):
            for rt in _oracle_binary_trees(m - left):
                out.append((lt, rt))
    return out


def _oracle_partition_count(n):
    def stirling(n, k):
        if k == 0:
            return 1 if n == 0 else 0
        if n == 0:
            return 0
        return k * stirling(n - 1, k) + stirling(n - 1, k - 1)

    return sum(math.factorial(m) * stirling(n, m) for m in range(2, n + 1))


def test_criterion_8_polytope_census():
    t0 = time.time()
    ok = True
    expect = {2: (2, 2), 3: (12, 12), 4: (120, 74)}
    for n, (verts, facets) in expect.items():
        vs = enumerate_vertices(n)
        fs = enumerate_facets(n)
        ok &= len(vs) == verts and len(fs) == facets
        ok &= len(vs) == math.factorial(n) * len(_oracle_binary_trees(n))
        ok &= len(fs) == _oracle_partition_count(n)
        ok &= all(f.dimension == n - 2 for f in fs)
        census = boundary_census(n)
        ok &= census["vertices"] == verts and census["facets"] == facets
    ok &= len(_oracle_binary_trees(5)) == 14 == catalan(4)
    elapsed = time.time() - t0
    _line(8, ok, f"census 2/2, 12/12, 120/74 and 14 bracketings on five letters ({elapsed:.1f}s)")
    assert ok
    assert elapsed < 10


def test_criterion_9_reduction_coherence():
    t0 = time.time()
    configs = [(3, (3,)), (3, (3, 3)), (3, (3, 6)), (5, (5,)), (5, (5, 5))]
    ok = True
    compared = 0
    for p, ms in configs:
        for a in derived(p, ms):
            red = reduce_frobenius(a)
            upstairs = {
                (f, b, c, t): verdict
                for (f, aa, b, c, t), verdict in check_thm_a(a).by_key().items()
                if aa == 1
            }
            downstairs = {
                (f, b, c, t): verdict
                for (f, aa, b, c, t), verdict in check_thm_a(
                    red.presentation
                ).by_key().items()
                if aa == 0
            }
            ok &= set(upstairs) == set(downstairs)
            for key, verdict in upstairs.items():
                ok &= downstairs.get(key) == verdict
                compared += 1
    elapsed = time.time() - t0
    _line(9, ok, f"{compared} verdicts agree across the degree reduction ({elapsed:.1f}s)")
    assert ok and compared > 0
    assert elapsed < 30
