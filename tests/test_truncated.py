import itertools
import random

import pytest

from dnalg import truncated
from dnalg.fp import Subspace
from dnalg.steenrod import (
    SteenrodElement,
    SteenrodMonomial,
    basis_of_degree as steenrod_basis,
    multiply,
)
from dnalg.truncated import (
    ActionValidation,
    AdemFailure,
    AlgebraElement,
    AlgebraError,
    AlgebraPresentation,
    adem_instance_count,
    adem_instance_holds,
    adem_instances,
    filtration,
    indecomposables,
    induced_q_map,
    preserves_truncation,
    pure_power,
    render_polynomial,
    validate_action,
)
from dnalg.theorems import derive_actions

from conftest import (
    derived,
    entry_vector,
    free_entries,
    model_pool,
    oracle_derived,
    random_element,
    random_table,
    s3_model,
    total_powers,
)
from fp_oracles import identity


def single_gen(p, m, lam):
    """T^[p+1][y] with P^1 y = lam * y^(1 + (p-1)/m), other entries zero."""
    action = {}
    k_exp = 1 + (p - 1) // m
    if (p - 1) % m == 0 and m > 1:
        action[("y", 1)] = {(k_exp,): lam}
    return AlgebraPresentation(p, [("y", m)], action)


def two_gen_shape(p=3):
    """Well-typed two-generator table linking the generators through the
    first reduced power; used for basis/filtration/map bookkeeping tests."""
    return AlgebraPresentation(
        p,
        [("y4", 2), ("y8", 4)],
        {
            ("y4", 1): {(0, 1): 1},          # P^1 y4 = y8
            ("y8", 1): {(3, 0): 2},          # P^1 y8 = 2 y4^3
        },
    )


def test_basis_single_generator():
    a = single_gen(3, 2, 1)
    assert a.basis_of_degree(8) == [(2,)]
    assert a.basis_of_degree(16) == []  # y^4 = 0
    assert a.basis_of_degree(5) == []


def test_basis_two_generators_degree12():
    a = two_gen_shape()
    assert a.basis_of_degree(12) == [(1, 1), (3, 0)]


def test_dimension_matches_combinatorial_count():
    def count(half_degrees, p, d):
        total = 0
        for exps in itertools.product(range(p + 1), repeat=len(half_degrees)):
            if sum(2 * m * e for m, e in zip(half_degrees, exps)) == d:
                total += 1
        return total

    a = two_gen_shape()
    for d in range(0, a.top_degree + 1):
        assert a.dim(d) == count(a.half_degrees, a.p, d)


def test_degree_buckets_match_monomial_degree(pool):
    # The buckets read each degree from a second product over the
    # generators' degree contributions; the reference scan calls
    # monomial_degree on every exponent vector.  Same buckets, same order.
    ones = [
        AlgebraPresentation(p, [(f"y{i}", 1) for i in range(l)])
        for p, l in [(3, 4), (5, 3), (7, 3)]
    ]
    for a in list(pool) + ones + [AlgebraPresentation(5, [])]:
        expected: dict = {}
        for exps in itertools.product(range(a.p + 1), repeat=a.l):
            expected.setdefault(a.monomial_degree(exps), []).append(exps)
        buckets = a._degree_buckets()
        assert buckets == expected
        assert list(buckets) == list(expected)


def test_multiply_truncation():
    a = s3_model(3, 2)
    y = a.gen(0)
    assert (y * y**3).is_zero()
    assert not (y**3).is_zero()


def test_multiply_distributes():
    a = two_gen_shape()
    y4, y8 = a.gen(0), a.gen(1)
    assert (y4 + y8) * y4 == y4 * y4 + y8 * y4


def test_multiply_commutative_associative_random():
    rng = random.Random(4)
    a = two_gen_shape()
    for _ in range(25):
        d1, d2, d3 = (rng.choice([4, 8, 12]) for _ in range(3))
        x = random_element(rng, a, d1)
        y = random_element(rng, a, d2)
        z = random_element(rng, a, d3)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)


# ---------------------------------------------------------------------------
# the action


def test_top_power_is_frobenius():
    for p, m in [(3, 2), (5, 2), (5, 4)]:
        a = s3_model(p, m)
        y = a.gen(0)
        assert a.act_power(m, y) == y**p
        assert a.act_power(m + 1, y).is_zero()


def test_cartan_on_square():
    a = s3_model(3, 2)
    y = a.gen(0)
    lhs = a.act_power(1, y * y)
    rhs = a.act_power(1, y) * y + y * a.act_power(1, y)
    assert lhs == rhs


def test_action_word_versus_rewritten_element():
    # P^1 P^1 agrees with 2 P^2 on the validated single-generator model
    a = s3_model(3, 2)
    y = a.gen(0)
    w = SteenrodMonomial(3, (0, 0, 0), (1, 1))
    lhs = a.act_word(w, y)
    rhs = a.act(multiply(SteenrodElement.power(3, 1), SteenrodElement.power(3, 1)), y)
    assert lhs == rhs
    assert lhs == (a.gen(0) ** 3).scale(2 * a.action_entry(0, 1).coefficient((2,)) ** 2)


def test_bockstein_acts_as_zero():
    a = s3_model(3, 2)
    assert a.act(SteenrodElement.bockstein(3), a.gen(0)).is_zero()


def test_iterated_first_power_reaches_frobenius():
    import math

    # m! * P^m = (P^1)^m, so iterating P^1 on a generator lands on a unit
    # multiple of its p-th power
    for p, m in [(3, 2), (5, 2), (5, 4), (7, 3)]:
        for a in derived(p, (m,)):
            value = a.gen(0)
            for _ in range(m):
                value = a.act_power(1, value)
            assert value == (a.gen(0) ** p).scale(math.factorial(m))


def total_power_series_act(a, k, exps):
    """Reference P^k on one monomial: the t^k coefficient of the total-power
    series prod_i (sum_j P^j y_i t^j)^{e_i}, multiplied out factor by factor
    with truncation at each step."""
    p = a.p
    poly = [{tuple([0] * a.l): 1}] + [{} for _ in range(k)]
    for i, e in enumerate(exps):
        series = [
            a.action_entry(i, j).terms for j in range(min(k, a.half_degrees[i]) + 1)
        ]
        for _ in range(e):
            nxt = [{} for _ in range(k + 1)]
            for deg, f in enumerate(poly):
                for j, g in enumerate(series[: k + 1 - deg]):
                    target = nxt[deg + j]
                    for e1, c1 in f.items():
                        for e2, c2 in g.items():
                            ee = tuple(x + y for x, y in zip(e1, e2))
                            if max(ee) <= p:
                                target[ee] = (target.get(ee, 0) + c1 * c2) % p
            poly = nxt
    return {e: c for e, c in poly[k].items() if c}


def test_act_power_matches_total_power_series(pool):
    rng = random.Random(7)
    tables = [
        random_table(rng, p, ms) for p, ms in [(3, (1, 2, 3)), (5, (1, 2, 4)), (7, (2, 3))]
    ]
    # An entry above m_i, which the Cartan formula never reads: P^2 y2 = y4*y6,
    # so P^6(y2^3) would be (y4*y6)^3 if it did.
    tables.append(AlgebraPresentation(3, [("y2", 1), ("y4", 2), ("y6", 3)], {("y2", 2): {(0, 1, 1): 1}}))
    frobenius_images = 0
    for a in list(pool) + tables:
        ks = range(max(a.half_degrees) + 1)
        monomials = [e for d in a.nonzero_degrees() for e in a.basis_of_degree(d)]
        for exps in monomials:
            for k in ks:
                got = a.act_power(k, a.element({exps: 1})).terms
                assert got == total_power_series_act(a, k, exps), (a, k, exps)
        # P^{pq}(y_i^p) = P^q(y_i)^p reaches past max m_i: every k that fits.
        for i in range(a.l):
            exps = pure_power(a.l, i, a.p)
            for k in range(a.top_degree // (2 * (a.p - 1)) + 1):
                got = a.act_power(k, a.element({exps: 1})).terms
                assert got == total_power_series_act(a, k, exps), (a, k, exps)
                frobenius_images += k >= a.p and bool(got)
    assert frobenius_images


def test_cartan_property_random(pool):
    rng = random.Random(12)
    for a in rng.sample(list(pool), 10):
        degs = [d for d in a.nonzero_degrees() if d > 0][:4]
        for d1 in degs:
            for d2 in degs:
                x = random_element(rng, a, d1)
                y = random_element(rng, a, d2)
                for k in (1, 2, 3):
                    lhs = a.act_power(k, x * y)
                    rhs = a.zero()
                    for i in range(k + 1):
                        rhs = rhs + a.act_power(i, x) * a.act_power(k - i, y)
                    assert lhs == rhs


def test_action_preserves_filtration(pool):
    rng = random.Random(14)
    for a in rng.sample(list(pool), 8):
        for d in a.nonzero_degrees()[:6]:
            for t in (2, 3):
                monos = [e for e in a.basis_of_degree(d) if sum(e) >= t]
                for e in monos:
                    for k in (1, 2):
                        img = a.act_power(k, a.element({e: 1}))
                        assert img.in_filtration(t)


def test_action_compatible_with_multiplication(pool):
    rng = random.Random(15)
    p1 = {3: SteenrodElement.power(3, 1), 5: SteenrodElement.power(5, 1)}
    for a in rng.sample(list(pool), 8):
        th1 = p1[a.p]
        th2 = SteenrodElement.power(a.p, 2)
        comp = multiply(th1, th2)
        for d in a.nonzero_degrees()[:5]:
            x = random_element(rng, a, d)
            assert a.act(comp, x) == a.act(th1, a.act(th2, x))


# ---------------------------------------------------------------------------
# validation


def test_validate_s3_table_passes():
    a = AlgebraPresentation(3, [("y", 2)], {("y", 1): {(2,): 1}, ("y", 2): {(3,): 1}})
    assert validate_action(a).ok


def test_validate_zero_entry_fails():
    a = AlgebraPresentation(3, [("y", 2)], {("y", 1): {}})
    report = validate_action(a)
    assert not report.ok
    assert any(f.a == 1 and f.b == 1 for f in report.adem_failures)


def test_validate_unstable_violation():
    # a nonzero entry above the top reduced power is flagged
    a = AlgebraPresentation(
        3, [("y4", 2), ("y8", 4)], {("y4", 3): {(0, 2): 1}}
    )
    report = validate_action(a)
    assert not report.ok
    assert any("must vanish" in f for f in report.unstable_failures)


def test_validate_wrong_top_power():
    a = AlgebraPresentation(3, [("y", 2)], {("y", 2): {(3,): 2}})
    report = validate_action(a)
    assert any("y^3" in f for f in report.unstable_failures)


def test_adem_instance_helper_matches_validate():
    a = s3_model(5, 2)
    assert adem_instance_holds(a, 1, 1, (1,))
    assert validate_action(a).ok
    bad = AlgebraPresentation(5, [("y", 2)], {("y", 1): {(3,): 1}})
    assert not adem_instance_holds(bad, 1, 1, (1,))
    assert AdemFailure(1, 1, (1,), 4) in validate_action(bad).adem_failures


def reference_unstable(a):
    """The unstable messages of ``validate_action``, from elements."""
    p = a.p
    unstable = []
    for i, m in enumerate(a.half_degrees):
        name = a.names[i]
        if a.action_entry(i, m) != a.gen(i) ** p:
            unstable.append(f"P^{m} {name} != {name}^{p}")
        for j, k in a.stored_entries():
            if j == i and k > m and not a.action_entry(i, k).is_zero():
                unstable.append(f"P^{k} {name} must vanish (k > {m})")
    return tuple(unstable)


def reference_truncation(a):
    """The truncation messages of ``validate_action``, from elements:
    P(y_i)^{p+1} as a power."""
    return tuple(
        f"P({name})^{a.p + 1} != 0"
        for name, x in zip(a.names, total_powers(a))
        if not (x ** (a.p + 1)).is_zero()
    )


def reference_validate(a):
    """``validate_action`` as a plain loop: the unstable checks, then
    ``adem_instance_holds`` on every instance times every basis monomial."""
    p = a.p
    unstable = reference_unstable(a)
    failures = []
    checked = 0
    degrees = tuple(a.nonzero_degrees())
    for a_exp, b_exp, d in adem_instances(p, degrees, a.top_degree):
        for exps in a.basis_of_degree(d):
            checked += 1
            if not adem_instance_holds(a, a_exp, b_exp, exps):
                failures.append(AdemFailure(a_exp, b_exp, exps, d))
    return ActionValidation(
        ok=not unstable and not failures,
        unstable_failures=unstable,
        adem_failures=tuple(failures),
        instances_checked=checked,
    )


def perturbed(rng, a):
    """A with every coefficient of every stored entry, on the basis of its
    degree, drawn again uniformly from F_p."""
    p = a.p
    action = {}
    for i, k in a.stored_entries():
        basis = a.basis_of_degree(2 * a.half_degrees[i] + 2 * k * (p - 1))
        action[(a.names[i], k)] = {e: rng.randrange(p) for e in basis}
    return AlgebraPresentation(p, list(zip(a.names, a.half_degrees)), action)


def truncation_messages(a):
    """One message per generator whose total power breaks the truncation."""
    return tuple(
        f"P({name})^{a.p + 1} != 0"
        for name, x in zip(a.names, total_powers(a))
        if not preserves_truncation(a, [x])
    )


def test_validate_matches_reference_loop(pool):
    """``validate_action`` is the per-monomial loop read on the generators:
    its verdict is the loop's plus the truncation, and its failures are the
    loop's failures on generator monomials."""
    rng = random.Random(909)
    # The per-monomial system on (3, (1, 1, 2)) holds 16 tables that do not
    # preserve the truncation.
    unstable_shape = oracle_derived(3, (1, 1, 2))
    models = list(pool) + list(unstable_shape) + [
        model
        for p, l in ((3, 4), (5, 3), (7, 3))
        for model in derived(p, (1,) * l)
    ]
    models += [perturbed(rng, a) for a in pool + unstable_shape]
    # Some random (3, (2, 2)) tables break the truncation and pass every
    # instance on the generators, yet fail on a decomposable.
    models += [random_table(rng, 3, (2, 2)) for _ in range(200)]
    assert len(models) == 439
    failures = rejected = 0
    for a in models:
        ref, truncation = reference_validate(a), truncation_messages(a)
        got = validate_action(a)
        assert got == ActionValidation(
            ok=ref.ok and not truncation,
            unstable_failures=ref.unstable_failures + truncation,
            adem_failures=tuple(f for f in ref.adem_failures if sum(f.monomial) == 1),
            instances_checked=ref.instances_checked,
        ), a
        failures += len(got.adem_failures)
        rejected += bool(truncation)
    assert (failures, rejected) == (1664, 214)


def raw_table(a):
    """The stored entries of ``a`` as constructor input, keyed by name."""
    return {(a.names[i], k): dict(a.action_entry(i, k).terms) for i, k in a.stored_entries()}


def crafted_tables():
    """Tables whose stored input is not clean, each with the clean input it
    must agree with (None where the input is already clean)."""
    out = []
    # A coefficient >= p, and one that is 0 mod p.
    for c in (4, 3):
        clean = {("y4", 1): {(2,): c % 3}}
        out.append((3, [("y4", 2)], {("y4", 1): {(2,): c}}, clean))
    # A stored term beyond the truncation, of the entry's degree: y2^4 in
    # P^1 y4 at p = 3, on every derived (3, (1, 2)) table.
    for a in derived(3, (1, 2)):
        raw = raw_table(a)
        clean = {key: dict(poly) for key, poly in raw.items()}
        raw[("y4", 1)] = {**raw.get(("y4", 1), {}), (4, 0): 1}
        out.append((3, list(zip(a.names, a.half_degrees)), raw, clean))
    # Entries above m_i: nonzero, zero mod p, and beyond the truncation only.
    gens = [("y4", 2), ("y8", 4)]
    for poly in ({(0, 2): 1}, {(0, 2): 2, (4, 0): 1}, {(0, 2): 3}, {(4, 0): 1}):
        clean = {e: c % 3 for e, c in poly.items() if max(e) <= 3 and c % 3}
        out.append((3, gens, {("y4", 3): poly}, {("y4", 3): clean}))
    # A wrong top entry, also written with a coefficient >= p.
    out.append((3, [("y", 2)], {("y", 2): {(3,): 2}}, None))
    out.append((3, [("y", 2)], {("y", 2): {(3,): 5}}, {("y", 2): {(3,): 2}}))
    out.append((5, [("y", 1), ("z", 2)], {("z", 2): {(0, 5): 1, (2, 4): 1}}, None))
    # A table that breaks the truncation, written with every coefficient
    # raised by p.
    a = next(a for a in oracle_derived(3, (1, 1, 2)) if reference_truncation(a))
    raw = raw_table(a)
    raised = {key: {e: c + 3 for e, c in poly.items()} for key, poly in raw.items()}
    out.append((3, list(zip(a.names, a.half_degrees)), raised, raw))
    return out


def test_stored_table_is_cleaned_once():
    """The constructor reduces the table mod p and drops zero terms and
    monomials beyond the truncation: each entry equals its input rebuilt
    through the public constructor, and the presentation validates as the
    clean input does."""
    for p, gens, raw, clean in crafted_tables():
        a = AlgebraPresentation(p, gens, raw)
        for (name, k), poly in raw.items():
            i = a.names.index(name)
            assert a.action_entry(i, k) == a.element(poly)
            assert list(a.action_entry(i, k).terms.items()) == list(a.element(poly).terms.items())
        if clean is not None:
            assert validate_action(a) == validate_action(AlgebraPresentation(p, gens, clean))


def test_unstable_failures_match_the_element_checks(pool):
    """``validate_action`` reads the stored table; its unstable failures
    are the element-based unstable and truncation checks, in that order."""
    assert len(pool) == 88
    crafted = [AlgebraPresentation(p, gens, raw) for p, gens, raw, _ in crafted_tables()]
    # 16 tables of the per-monomial system on (3, (1, 1, 2)) break the
    # truncation, and so do many tables with every entry drawn at random.
    rng = random.Random(911)
    models = list(pool) + crafted + list(oracle_derived(3, (1, 1, 2)))
    models += [perturbed(rng, a) for a in pool]
    messages = []
    for a in models:
        want = reference_unstable(a) + reference_truncation(a)
        assert validate_action(a).unstable_failures == want, a
        assert truncation_messages(a) == reference_truncation(a)
        messages.append(want)
    assert not any(messages[:len(pool)])
    assert {m for want in messages[len(pool):len(pool) + len(crafted)] for m in want} == {
        "P^2 y != y^3", "P^3 y4 must vanish (k > 2)", "P^2 z != z^5", "P(y4_2)^4 != 0",
    }
    truncation = sum(m.startswith("P(") for want in messages for m in want)
    assert (sum(map(len, messages)), truncation) == (226, 66)


def test_validate_sweeps_once_on_the_generators(pool, monkeypatch):
    calls = []
    residues = truncated.adem_residues

    def spy(p, instances, compose, subtract):
        calls.append((p, list(instances)))
        return residues(p, calls[-1][1], compose, subtract)

    monkeypatch.setattr(truncated, "adem_residues", spy)
    rng = random.Random(910)
    unstable_shape = oracle_derived(3, (1, 1, 2))
    models = list(pool) + list(unstable_shape)
    models += [perturbed(rng, a) for a in models]
    failing = 0
    for a in models:
        calls.clear()
        failing += not validate_action(a).ok
        assert len(calls) == 1
        p, instances = calls[0]
        # Every in-range instance on each generator, in basis order.
        assert p == a.p
        assert instances == [
            (ae, be, e)
            for ae, be, d in adem_instances(a.p, tuple(sorted(set(a.degrees))), a.top_degree)
            for e in a.basis_of_degree(d)
            if sum(e) == 1
        ]
    assert failing == 132


def test_instances_above_half_the_degree_vanish_on_generators(pool):
    """The instability step of ``validate_action``'s proof: R_ab(y_i) = 0
    whenever b > m_i and a < p*b, for every target degree up to the top."""
    checked = 0
    for model in pool:
        p, top = model.p, model.top_degree
        for i, m in enumerate(model.half_degrees):
            unit = tuple(int(j == i) for j in range(model.l))
            for b in range(m + 1, top):
                for a_exp in range(1, p * b):
                    if 2 * m + 2 * (a_exp + b) * (p - 1) > top:
                        break
                    assert adem_instance_holds(model, a_exp, b, unit), (model, a_exp, b, i)
                    checked += 1
    assert checked == 735


def test_preserves_truncation_counts(pool):
    def unstable(tables):
        return sum(not preserves_truncation(a, total_powers(a)) for a in tables)

    assert unstable(pool) == 0
    # The per-monomial system lists unstable tables; derive_actions does not.
    for tables, count in (
        (oracle_derived(3, (1, 1, 2)), (16, 30)),
        (oracle_derived(3, (1, 1, 1, 2)), (64, 98)),
        (oracle_derived(7, (2, 2)), (0, 40)),
    ):
        assert (unstable(tables), len(tables)) == count
    # validate_action accepts exactly the tables derive_actions lists, and
    # names the truncation on each table it rejects.
    for shape, want in (((3, (1, 1, 2)), 14), ((3, (1, 1, 1, 2)), 34)):
        _, blocks = free_entries(*shape)
        listed = [
            entry_vector(a, blocks)
            for a in derive_actions(shape[0], list(shape[1]), max_unknowns=19)
        ]
        accepted = []
        for a in oracle_derived(*shape):
            report = validate_action(a)
            if report.ok:
                accepted.append(entry_vector(a, blocks))
            else:
                assert truncation_messages(a), a
                assert set(truncation_messages(a)) <= set(report.unstable_failures)
        assert accepted == listed and len(listed) == want
    a = derived(3, (2, 2))[0]
    y0, y1 = a.gen(0), a.gen(1)
    assert preserves_truncation(a, [y0, y1, y0 * y1])
    # (y4_0 + y4_1)^4 = y4_0^3 y4_1 + y4_0 y4_1^3
    assert not preserves_truncation(a, [y0 + y1])


def filtered_adem_instances(p, degrees, top):
    """Reference: every a < p*b, kept when the instance fits below top."""
    out = []
    for d in degrees:
        for b in range(1, d // 2 + 1):
            for a in range(1, p * b):
                if d + 2 * (a + b) * (p - 1) <= top:
                    out.append((a, b, d))
    return tuple(sorted(out, key=lambda t: (t[0] + t[1], t[2], t[0])))


def test_adem_instances_match_filter_reference():
    # 1-3 generators of half-degree 1-8 at each prime, up to top degree 80
    # so that the reference loop stays cheap.
    shapes = 0
    for p in (3, 5, 7, 11):
        for l in (1, 2, 3):
            for ms in itertools.combinations_with_replacement(range(1, 9), l):
                if p * sum(ms) > 40:
                    continue
                a = AlgebraPresentation(p, [(f"y{i}", m) for i, m in enumerate(ms)])
                degrees = tuple(a.nonzero_degrees())
                assert adem_instances(p, degrees, a.top_degree) == (
                    filtered_adem_instances(p, degrees, a.top_degree)
                ), (p, ms)
                shapes += 1
    assert shapes == 161


def test_adem_instance_count_matches_listed_instances():
    for p in (3, 5, 7, 11):
        for top in (0, 8, 2 * p * (p + 1), 6 * p * 5, 2 * p * 17):
            dims = {d: d // 2 + 1 for d in range(0, top + 1, 2)}
            for d in dims:
                assert adem_instance_count(p, {d: 1}, top) == len(adem_instances(p, (d,), top))
            assert adem_instance_count(p, dims, top) == sum(
                dims[d] for *_, d in adem_instances(p, tuple(dims), top)
            )


def test_instances_checked_pinned_on_truncation_shapes():
    # Every instance times every basis monomial of its source degree,
    # although the sweep evaluates only the generator monomials.
    for shape, want in (((3, (1, 1, 2)), 152), ((3, (1, 1, 1, 2)), 1041)):
        a = oracle_derived(*shape)[0]
        assert validate_action(a).instances_checked == want


def test_validate_lists_instances_on_generator_degrees_only(pool, monkeypatch):
    calls = []
    listed = truncated.adem_instances

    def spy(p, degrees, top):
        calls.append(degrees)
        return listed(p, degrees, top)

    monkeypatch.setattr(truncated, "adem_instances", spy)
    for a in pool:
        calls.clear()
        validate_action(a)
        assert calls == [tuple(sorted(set(a.degrees)))]


def test_degree_checked_at_construction():
    with pytest.raises(AlgebraError):
        AlgebraPresentation(3, [("y", 2)], {("y", 1): {(1,): 1}})


def test_negative_exponent_rejected_at_construction():
    # Such an entry would send the Cartan recursion below the unit.
    with pytest.raises(AlgebraError, match="negative exponent"):
        AlgebraPresentation(3, [("y", 2)], {("y", 1): {(-1,): 1}})
    with pytest.raises(AlgebraError, match="negative exponent"):
        AlgebraPresentation(5, [("x", 1), ("y", 2)], {("y", 1): {(6, -1): 1}})


# ---------------------------------------------------------------------------
# filtration and indecomposables


def test_filtration_single_generator():
    a = s3_model(3, 2)
    assert filtration(a, 2, 4).dim == 0          # the generator is indecomposable
    assert filtration(a, 2, 8).dim == 1          # span of y^2
    assert filtration(a, 3, 8).dim == 0
    assert filtration(a, 1, 8).dim == 1


def test_word_length_counts_match_filtration(pool):
    for a in pool:
        for d in a.nonzero_degrees():
            counts = a.word_length_counts(d)
            assert sum(counts) == a.dim(d)
            for t in range(1, a.p + 2):
                assert sum(counts[t:]) == filtration(a, t, d).dim


def test_word_length_counts_match_a_per_degree_count(pool):
    """The counts made in one pass over the buckets are those of each
    degree's own basis, and empty where the degree has no monomial."""
    for a in pool:
        for d in range(a.top_degree + 3):
            lengths = [sum(m) for m in a.basis_of_degree(d)]
            want = tuple(lengths.count(t) for t in range(max(lengths, default=-1) + 1))
            assert a.word_length_counts(d) == want
            assert sum(want) == a.dim(d)


def test_deep_filtration_vanishes_single_generator():
    for p, m in [(3, 2), (5, 2), (5, 4)]:
        a = s3_model(p, m)
        for d in range(0, a.top_degree + 1):
            assert filtration(a, p + 1, d).dim == 0


def test_deep_filtration_vanishes_in_witness_degree(pool):
    # products of p+1 generators cannot land in degree 2*p*m_1
    for a in list(pool)[::5]:
        d = 2 * a.p * a.half_degrees[0]
        assert filtration(a, a.p + 1, d).dim == 0


def test_filtration_matches_rref_of_unit_rows(pool):
    # Reference: the span of the unit rows, put through general elimination.
    for a in pool:
        for d in a.nonzero_degrees():
            if not d:
                continue
            basis = a.basis_of_degree(d)
            n = len(basis)
            for t in range(1, a.p + 2):
                rows = [
                    [1 if j == idx else 0 for j in range(n)]
                    for idx, exps in enumerate(basis)
                    if sum(exps) >= t
                ]
                assert filtration(a, t, d) == Subspace.from_vectors(a.p, n, rows)


def q_class(x, gens):
    """The class of x in the indecomposables: its coefficient on each
    generator in gens."""
    l = x.presentation.l
    return tuple(x.coefficient(tuple(int(k == i) for k in range(l))) for i in gens)


def test_indecomposables_single_generator():
    a = s3_model(3, 2)
    q4 = indecomposables(a, 4)
    assert q4 == (0,)                       # dim Q^4 = 1
    assert q_class(a.gen(0), q4) == (1,)
    assert indecomposables(a, 8) == ()


def test_indecomposables_two_generators():
    a = two_gen_shape()
    q8 = indecomposables(a, 8)
    assert q8 == (1,)                       # only y8; y4^2 is decomposable
    assert q_class(a.gen(1), q8) == (1,)
    assert q_class(a.gen(0) * a.gen(0), q8) == (0,)
    assert a.dim(8) == 2


def test_induced_q_map_examples():
    a = two_gen_shape()
    p1 = SteenrodElement.power(3, 1)
    m = induced_q_map(a, p1, 4)
    assert m.entries == ((1,),)             # P^1 y4 = y8 on indecomposables
    unit = SteenrodElement.unit(3)
    assert induced_q_map(a, unit, 4) == identity(3, 1)
    b = s3_model(3, 2)
    z = induced_q_map(b, p1, 4)             # target Q^8 = 0
    assert z.rows == 0 and z.cols == 1


def test_induced_q_map_section_independent():
    # adding a decomposable to the section input cannot change the map
    a = two_gen_shape()
    p1 = SteenrodElement.power(3, 1)
    q8 = indecomposables(a, 8)
    img1 = q_class(a.act(p1, a.gen(0)), q8)
    img2 = q_class(a.act(p1, a.gen(0) + a.element({(2, 0): 2})), q8)
    assert img1 == img2
    # y4^2 above has another degree than y4; here the decomposable g0*g1
    # shares g2's degree 4, and P^1 of it is nonzero
    b = random_table(random.Random(3), 3, (1, 1, 2, 4))
    q8, g0g1 = indecomposables(b, 8), b.element({(1, 1, 0, 0): 1})
    assert not b.act(p1, g0g1).is_zero()
    img = q_class(b.act(p1, b.gen(2)), q8)
    assert img == q_class(b.act(p1, b.gen(2) + g0g1), q8) == (2,)


def test_induced_q_map_reads_the_stored_table(pool):
    """Entry (r, c) of P^s on Q^e is the coefficient of generator target[r]
    in the stored entry P^s y_{source[c]}: no Cartan evaluation.  The pool
    links no generators, so random tables (not valid actions) add nonzero
    maps."""
    rng = random.Random(29)
    shapes = ((2, 4), (1, 2, 4), (2, 2, 4), (1, 3, 5))
    tables = [two_gen_shape()] + [random_table(rng, 3, ms) for ms in shapes for _ in range(3)]
    nonzero = 0
    for a in list(pool) + tables:
        gen_degrees = sorted(set(a.degrees))
        for e in gen_degrees:
            source = indecomposables(a, e)
            for s in range((gen_degrees[-1] - e) // (2 * (a.p - 1)) + 1):
                d = e + 2 * s * (a.p - 1)
                if d not in gen_degrees:
                    continue
                target = indecomposables(a, d)
                m = induced_q_map(a, SteenrodElement.power(a.p, s), e)
                columns = [q_class(a.action_entry(i, s), target) for i in source]
                assert (m.entries, m.cols) == (tuple(zip(*columns)), len(source))
                nonzero += s > 0 and not m.is_zero()
    assert nonzero


def test_element_degree_flags():
    a = two_gen_shape()
    x = a.gen(0)
    assert x.degree() == 4
    mixed = a.gen(0) + a.gen(1)
    assert mixed.degree() is None
    assert a.zero().degree() is None
    assert a.gen(0).in_filtration(1)
    assert not a.gen(0).in_filtration(2)
    assert (a.gen(0) * a.gen(0)).in_filtration(2)


def test_built_elements_equal_their_public_rebuild(pool):
    """Generators, unit, zero, the action, products, sums and scalings are
    built unchecked; each equals its rebuild through the public
    constructor, with the same terms in the same order."""
    rng = random.Random(61)
    built = 0

    def same(x):
        nonlocal built
        rebuilt = AlgebraElement(x.presentation, x.terms)
        assert list(rebuilt.terms.items()) == list(x.terms.items())
        assert rebuilt == x
        built += 1
        return x

    for a in pool:
        p = a.p
        for x in [a.zero(), a.one()] + [a.gen(i) for i in range(a.l)]:
            same(x)
        same(a.gen(0) ** p * a.gen(0))  # beyond the truncation: zero
        for d in rng.sample(a.nonzero_degrees(), 3):
            x, y = random_element(rng, a, d), random_element(rng, a, d)
            z = random_element(rng, a, rng.choice(a.nonzero_degrees()))
            for value in (x + y, x - y, x - x, x.scale(rng.randrange(-p, 2 * p)), x.scale(p)):
                same(value)
            same(x * z)
            for k in range(3):
                same(a.act_power(k + 1, x))
            steps = range(2 * (p - 1), a.top_degree - d + 1, 2 * (p - 1))
            words = [SteenrodMonomial.unit(p), SteenrodMonomial(p, (0, 1), (1,))]
            words += [w for q in steps for w in steenrod_basis(p, q, top=a.top_degree)]
            for w in rng.sample(words, min(4, len(words))):
                same(a.act_word(w, x))
                same(a.act(SteenrodElement(p, {w: rng.randrange(1, p)}), x))
            same(a.act(SteenrodElement.power(p, 1) + SteenrodElement.power(p, 1), x))
    assert built == 4926


def test_public_element_constructor_keeps_its_checks():
    a = two_gen_shape()
    with pytest.raises(AlgebraError, match="exponent vector has wrong length"):
        AlgebraElement(a, {(1,): 1})
    with pytest.raises(AlgebraError, match="negative exponent"):
        AlgebraElement(a, {(-1, 1): 1})
    with pytest.raises(AlgebraError, match="exponent vector has wrong length"):
        a.element({(1, 0, 0): 1})
    with pytest.raises(AlgebraError, match="negative exponent"):
        a.element({(2, -1): 1})
    # beyond the truncation and zero mod p: dropped, the rest reduced
    assert a.element({(4, 0): 1, (1, 1): 3, (0, 1): 5}).terms == {(0, 1): 2}


def test_with_action_checks_every_entry():
    # Free entries on y4 (m=2): P^1 in degree 8; on y8 (m=4): P^1..P^3 in
    # degrees 12, 16, 20.
    probe = AlgebraPresentation(3, [("y4", 2), ("y8", 4)])
    a = probe.with_action({(0, 1): {(0, 1): 1}, (1, 1): {(3, 0): 2}})
    want = two_gen_shape()
    assert a.stored_entries() == want.stored_entries()
    assert a.autofilled == want.autofilled == (("y4", 2), ("y8", 4))
    for i, k in want.stored_entries():
        assert a.action_entry(i, k).terms == want.action_entry(i, k).terms
    bad = [
        ({(0, 1): {(1, 1): 1}}, "not of its degree"),   # y4*y8 has degree 12, not 8
        ({(0, 1): {(0, 1, 0): 1}}, "not of its degree"),  # wrong arity
        ({(0, 1): {(4, 0): 1}}, "not of its degree"),   # beyond the truncation
        ({(0, 0): {(1, 0): 1}}, "no free entry"),       # k = 0
        ({(0, 2): {(3, 0): 1}}, "no free entry"),       # k = m_i: forced
        ({(1, 4): {(3, 0): 1}}, "no free entry"),
        ({(2, 1): {}}, "no free entry"),                # no third generator
        ({(0, 1): {(0, 1): 0}}, "not in 1..2"),
        ({(0, 1): {(0, 1): 3}}, "not in 1..2"),
        ({(0, 1): {(0, 1): -1}}, "not in 1..2"),
    ]
    for action, message in bad:
        with pytest.raises(AlgebraError, match=message):
            probe.with_action(action)


def test_prime_mismatch_rejected():
    a = s3_model(3, 2)
    with pytest.raises(AlgebraError):
        a.act(SteenrodElement.power(5, 1), a.gen(0))


def test_coords_requires_concentrated_degree():
    a = two_gen_shape()
    with pytest.raises(AlgebraError):
        a.coords(a.gen(0) + a.gen(1), 4)
    # lexicographic basis of degree 8: [(0,1), (2,0)] = [y8, y4^2]
    assert a.coords(a.gen(1), 8) == (1, 0)
    assert a.from_coords((1, 0), 8) == a.gen(1)


def test_word_coords_matches_coords_of_act_word():
    a = s3_model(3, 2)
    for d in a.nonzero_degrees():
        for e in range(2, d, 2):
            for w in steenrod_basis(3, d - e, top=a.top_degree):
                for m in a.basis_of_degree(e):
                    want = a.coords(a.act_word(w, a.element({m: 1})), d)
                    assert a.word_coords(w, m, d) == want
    with pytest.raises(AlgebraError):
        a.word_coords(SteenrodMonomial(5, (0, 0), (1,)), (1,), 8)
    with pytest.raises(AlgebraError):  # P^2 y = y^3 lands in degree 12
        a.word_coords(SteenrodMonomial(3, (0, 0), (2,)), (1,), 6)


def test_autofill_records_forced_entries():
    a = AlgebraPresentation(3, [("y", 2)], {("y", 1): {(2,): 1}})
    assert a.autofilled == (("y", 2),)
    assert a.action_entry(0, 2) == a.gen(0) ** 3


def test_render_polynomial():
    a = two_gen_shape()
    x = a.element({(1, 1): 2, (3, 0): 1})
    assert render_polynomial(x) == "2*y4*y8 + y4^3"
    assert render_polynomial(a.zero()) == "0"
    assert render_polynomial(a.one()) == "1"
