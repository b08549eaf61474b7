import hashlib
import itertools
import json
import pathlib
import random

import pytest

from dnalg import theorems
from dnalg.cli import render_presentation
from dnalg.dn import check_dn, max_dn
from dnalg.fp import _poly_value, solve, solve_polynomial_system
from dnalg.steenrod import SteenrodElement
from dnalg.theorems import (
    DeriveBoundExceeded,
    IdealNotClosed,
    check_prop_a,
    check_thm_a,
    derive_actions,
    normalize_generators,
    p1_normal_form_ok,
    reduce_frobenius,
    substitution_matrix,
    thmc_bound,
    transport,
)
from dnalg.truncated import (
    AlgebraError,
    AlgebraPresentation,
    adem_instances,
    generator_instances,
    induced_q_map,
    preserves_truncation,
    render_polynomial,
    validate_action,
)

from conftest import (
    POOL_TUPLES,
    decide_digests,
    derived,
    entry_vector,
    free_entries,
    model_pool,
    oracle_derived,
    random_element,
    random_table,
    reference_adem_equations,
    s3_model,
    stable,
    table_of,
)
from fp_oracles import matmul


# ---------------------------------------------------------------------------
# generator normalization.  Normalization is linear algebra over the action
# table, so the tests run on arbitrary well-typed tables, valid or not.


def test_normalize_two_sources_one_target():
    # u and v both hit w linearly; the interval form must retarget one of them
    a = AlgebraPresentation(
        3,
        [("u", 2), ("v", 2), ("w", 4)],
        {("u", 1): {(0, 0, 1): 1}, ("v", 1): {(0, 0, 1): 1}},
    )
    norm = normalize_generators(a)
    ok, problems = p1_normal_form_ok(norm.presentation)
    assert ok, problems
    assert len(norm.p1_targets) == 1  # only one generator still hits w


def test_normalize_absorbs_decomposable_tail():
    # P^1 u = w + u^2 must become exactly a generator after absorption
    a = AlgebraPresentation(
        3,
        [("u", 2), ("w", 4)],
        {("u", 1): {(0, 1): 1, (2, 0): 1}},
    )
    norm = normalize_generators(a)
    b = norm.presentation
    ok, problems = p1_normal_form_ok(b)
    assert ok, problems
    w_new = b.act_power(1, b.gen(0))
    assert w_new == b.gen(1)  # exact equality, no remainder


def test_normalize_cascading_absorption():
    # u hits v with a tail, v hits w with a tail; absorbing v's tail must
    # re-express v's image so that both links become exact
    a = AlgebraPresentation(
        3,
        [("u", 2), ("v", 4), ("w", 6)],
        {
            ("u", 1): {(0, 1, 0): 1, (2, 0, 0): 1},
            ("v", 1): {(0, 0, 1): 1, (1, 1, 0): 2},
        },
    )
    norm = normalize_generators(a)
    b = norm.presentation
    assert b.act_power(1, b.gen(0)) == b.gen(1)
    assert b.act_power(1, b.gen(1)) == b.gen(2)
    ok, problems = p1_normal_form_ok(b)
    assert ok, problems


def test_normalize_keeps_already_normal():
    a = AlgebraPresentation(
        3, [("y4", 2), ("y8", 4)], {("y4", 1): {(0, 1): 1}}
    )
    norm = normalize_generators(a)
    assert norm.p1_targets == {0: 1}
    assert norm.presentation.act_power(1, norm.presentation.gen(0)) == (
        norm.presentation.gen(1)
    )


def test_normalize_random_tables_satisfy_predicate():
    rng = random.Random(41)
    shapes = [(2, 4), (2, 2, 4), (2, 4, 4), (1, 2, 4), (2, 4, 6), (1, 3)]
    for _ in range(30):
        a = random_table(rng, 3, rng.choice(shapes))
        norm = normalize_generators(a)
        ok, problems = p1_normal_form_ok(norm.presentation)
        assert ok, problems
        # graded dimensions survive
        for d in range(0, a.top_degree + 1, 2):
            assert a.dim(d) == norm.presentation.dim(d)


def test_normalize_presentation_is_the_transport_of_its_images():
    # The images returned reproduce the presentation returned, on valid
    # and invalid tables alike.
    rng = random.Random(47)
    shapes = [(3, (2, 2, 4)), (3, (2, 4, 6)), (3, (2, 2, 4, 4)), (5, (2, 2, 6))]
    failures = 0
    for n in range(50):
        p, ms = shapes[n % len(shapes)]
        a = random_table(rng, p, ms)
        norm = normalize_generators(a)
        failures += render_presentation(norm.presentation) != render_presentation(
            transport(a, list(norm.images))
        )
    assert failures == 0


def test_normalize_preserves_composite_q_ranks():
    rng = random.Random(43)
    p1 = SteenrodElement.power(3, 1)
    for _ in range(15):
        a = random_table(rng, 3, rng.choice([(2, 4), (2, 2, 4), (2, 4, 6)]))
        norm = normalize_generators(a)
        b = norm.presentation
        for d in sorted(set(a.degrees)):
            old = induced_q_map(a, p1, d)
            new = induced_q_map(b, p1, d)
            for steps in (1, 2, 3):
                mo, mn = old, new
                e = d
                for _ in range(steps - 1):
                    e += 2 * (a.p - 1)
                    mo = matmul(induced_q_map(a, p1, e), mo)
                    mn = matmul(induced_q_map(b, p1, e), mn)
                assert mo.rank() == mn.rank()


def test_transport_commutes_with_action():
    rng = random.Random(47)
    for _ in range(10):
        a = random_table(rng, 3, (2, 4))
        images = [a.gen(0), a.gen(1) + a.element({(2, 0): rng.randrange(3)})]
        b = transport(a, images)
        # the substitution intertwines P^k on generators by construction;
        # check it also intertwines on a product
        x_b = b.gen(0) * b.gen(1)
        x_a = images[0] * images[1]
        for k in (1, 2):
            lhs = a.act_power(k, x_a)
            # push the transported value back through the substitution
            rhs_b = b.act_power(k, x_b)
            rhs = a.zero()
            for exps, c in rhs_b.terms.items():
                term = a.one().scale(c)
                for i, e in enumerate(exps):
                    for _ in range(e):
                        term = term * images[i]
                rhs = rhs + term
            assert lhs == rhs


def test_transport_rejects_singular_linear_part():
    a = AlgebraPresentation(
        3,
        [("y2", 1), ("y4", 2)],
        {("y2", 1): {(3, 0): 1}, ("y4", 1): {(0, 2): 1}, ("y4", 2): {(0, 3): 1}},
    )
    assert validate_action(a).ok
    # y4 -> y2^2 leaves degree 4 without a generator, yet every transported
    # value lies in the image of the substitution, so only the rank of the
    # linear part shows that it is singular.
    with pytest.raises(AlgebraError, match="not invertible"):
        transport(a, [a.gen(0), a.gen(0) ** 2])
    # A rescaled generator, and a generator plus a decomposable, keep the
    # linear part invertible.
    b = transport(a, [a.gen(0).scale(2), a.gen(1) + a.gen(0) ** 2])
    assert validate_action(b).ok


def _transport_by_solve(a, images):
    """The general transport: solve against the substitution matrix in
    every degree, whatever the images are."""
    action = {}
    for i, m in enumerate(a.half_degrees):
        for k in range(1, m + 1):
            value = a.act_power(k, images[i])
            d = 2 * m + 2 * k * (a.p - 1)
            if value.is_zero():
                action[(a.names[i], k)] = {}
                continue
            sol = solve(substitution_matrix(a, images, d), a.coords(value, d))
            action[(a.names[i], k)] = {
                e: c for e, c in zip(a.basis_of_degree(d), sol) if c
            }
    return AlgebraPresentation(a.p, list(zip(a.names, a.half_degrees)), action)


def test_identity_transport_matches_solve(pool):
    rng = random.Random(53)
    models = list(pool) + [
        random_table(rng, 3, rng.choice([(2, 4), (2, 2, 4), (2, 4, 6)]))
        for _ in range(10)
    ]
    for a in models:
        images = [a.gen(i) for i in range(a.l)]
        got = transport(a, images)
        want = _transport_by_solve(a, images)
        assert got.stored_entries() == want.stored_entries()
        for i, k in want.stored_entries():
            # same entries, with their terms in the same order
            assert list(got.action_entry(i, k).terms.items()) == list(
                want.action_entry(i, k).terms.items()
            )


def test_identity_transport_is_the_presentation_itself(pool):
    rng = random.Random(59)
    models = list(pool) + [
        random_table(rng, 3, rng.choice([(2, 4), (2, 2, 4), (2, 4, 6)]))
        for _ in range(10)
    ]
    for a in models:
        assert transport(a, [a.gen(i) for i in range(a.l)]) is a
    assert len(pool) == 88
    for a in pool:
        assert normalize_generators(a).presentation is a
    # So the result keeps what a rebuild would not: the autofilled record,
    # and a stored entry above the half-degree.
    a = AlgebraPresentation(3, [("y", 2)], {("y", 1): {(2,): 1}, ("y", 3): {}})
    b = transport(a, [a.gen(0)])
    assert b.autofilled == (("y", 2),) and b.stored_entries() == [(0, 1), (0, 2), (0, 3)]
    rebuilt = _transport_by_solve(a, [a.gen(0)])
    assert rebuilt.autofilled == () and rebuilt.stored_entries() == [(0, 1), (0, 2)]


def test_verdicts_are_invariant_under_truncation_preserving_substitutions(pool):
    """Each substitution permutes the generators of equal degree, rescales
    them, and adds to each a random decomposable of its degree when the
    image still satisfies x^{p+1} = 0.  Transporting a pool table along it
    changes no verdict, and the new table is again one that derive lists."""
    rng = random.Random(3)
    draws = permuted = tails = additions = 0
    for a in pool:
        p, ms = a.p, a.half_degrees
        _, blocks = free_entries(p, ms)
        listed = {entry_vector(t, blocks) for t in derived(p, ms)}
        verdicts = (
            validate_action(a).ok,
            max_dn(a),
            check_thm_a(a).by_key(),
            check_prop_a(normalize_generators(a), p - 1).ok,
        )
        for _ in range(2):
            target = list(range(a.l))
            for m in set(ms):
                same = [i for i in range(a.l) if ms[i] == m]
                for i, j in zip(same, rng.sample(same, len(same))):
                    target[i] = j
            images = []
            for i, m in enumerate(ms):
                x = a.gen(target[i]).scale(rng.randrange(1, p))
                tail = a.element({
                    e: rng.randrange(p) for e in a.basis_of_degree(2 * m) if sum(e) > 1
                })
                tails += not tail.is_zero()
                if not tail.is_zero() and preserves_truncation(a, [x + tail]):
                    x, additions = x + tail, additions + 1
                images.append(x)
            b = transport(a, images)
            assert (
                validate_action(b).ok,
                max_dn(b),
                check_thm_a(b).by_key(),
                check_prop_a(normalize_generators(b), p - 1).ok,
            ) == verdicts, (a, images)
            assert entry_vector(b, blocks) in listed, (a, images)
            draws += 1
            permuted += target != list(range(a.l))
    # x^p * tail != 0 for x = c * y_j and every nonzero decomposable tail of
    # degree |y_j|, so no addition survives the truncation check.
    assert (draws, permuted, tails, additions) == (176, 18, 66, 0)


# ---------------------------------------------------------------------------
# pure-power lifting


def test_prop_a_pass_on_linked_shape():
    a = AlgebraPresentation(
        3, [("y4", 2), ("y8", 4)], {("y4", 1): {(0, 1): 1}}
    )
    result = check_prop_a(a, 2)
    assert result.ok and result.checked == 1


def test_p1_hits_a_generator_exactly_only_with_coefficient_one():
    # P^1 y4 = 2*y8 is indecomposable but not y8 itself: both readers of
    # P^1 on the generators must see that.
    a = AlgebraPresentation(
        3, [("y4", 2), ("y8", 4)], {("y4", 1): {(0, 1): 2}}
    )
    assert p1_normal_form_ok(a) == (
        False, ["P^1 y4 is neither decomposable nor a generator"]
    )
    result = check_prop_a(a, 2)
    assert result.failures == ((0, 1, 1),) and result.checked == 1


def test_prop_a_fails_for_sphere_model():
    a = s3_model(3, 2)
    result = check_prop_a(a, 2)
    assert not result.ok
    assert result.failures == ((0, 0, 2),)


def test_prop_a_vacuous_when_decomposables_have_no_pure_powers():
    a = AlgebraPresentation(
        3, [("u", 2), ("v", 2), ("w", 4)], {("u", 1): {(1, 1, 0): 1}}
    )
    result = check_prop_a(a, 2)
    assert result.ok and result.checked == 0


def test_prop_a_order_restriction():
    # the pure power y^2 only matters once n >= 2
    a = s3_model(3, 2)
    assert check_prop_a(a, 1).ok
    assert not check_prop_a(a, 2).ok


@pytest.mark.parametrize("n", [0, -3, 4])
def test_prop_a_rejects_order_outside_one_to_p(n):
    # A meaningless order must not pass vacuously with nothing checked.
    with pytest.raises(AlgebraError, match="1 <= n <= p"):
        check_prop_a(s3_model(3, 2), n)


# ---------------------------------------------------------------------------
# induced-map range checks


def test_thm_a_s3_at_p5_fails_exactly_at_c2_t1():
    a = s3_model(5, 2)
    result = check_thm_a(a)
    fails = [(v.family, v.a, v.c, v.t) for v in result.failures()]
    assert fails == [("A3", 0, 2, 1)]
    v = result.failures()[0]
    assert v.dim_source == 1 and v.dim_target == 0


def test_thm_a_vacuous_on_zero_algebra():
    a = AlgebraPresentation(3, [])
    result = check_thm_a(a)
    assert result.ok
    assert not result.surjectivity and not result.isomorphism


def test_thm_a_passes_on_torus_like_models():
    for p, m in [(3, 1), (5, 1), (3, 3), (5, 5)]:
        for a in derived(p, (m,)):
            assert check_thm_a(a).ok


def test_thm_a_holds_on_every_pool_table_above_half_p(pool):
    # Theorem A: a stable table with max_dn > (p-1)/2 passes all three
    # families.  s3_model(5, 2) fails A3 at max_dn = 2 = (p-1)/2, so the
    # hypothesis is sharp.
    above = [a for a in pool if 2 * max_dn(a) > a.p - 1]
    assert len(above) == 16
    for a in above:
        assert check_thm_a(a).ok, a


def test_thm_a_iso_on_linked_table():
    # on the linked two-generator table the induced map is invertible
    a = AlgebraPresentation(
        3, [("y4", 2), ("y8", 4)], {("y4", 1): {(0, 1): 1}}
    )
    result = check_thm_a(a)
    entry = [v for v in result.isomorphism if (v.a, v.c, v.t) == (0, 2, 1)]
    assert len(entry) == 1
    assert entry[0].ok and entry[0].rank == 1


def test_thm_a_index_ranges():
    a = s3_model(5, 2)
    result = check_thm_a(a)
    for v in result.surjectivity:
        assert 1 <= v.t <= min(v.b, 5 - v.c) and v.b > 0 and 0 < v.c < 5
        assert v.target_degree <= a.top_degree
    for v in result.vanishing:
        assert v.c <= v.t < 5
        assert v.source_degree <= a.top_degree
    for v in result.isomorphism:
        assert 1 <= v.t < v.c
        assert v.source_degree <= a.top_degree


@pytest.mark.parametrize("p,ms", [(5, (2,)), (3, (3, 6)), (3, (2, 3))])
def test_thm_a_enumerates_every_index_tuple(p, ms):
    # completeness of the sweep, from the stated inequalities with generous
    # caps instead of the implementation's loop structure
    models = derived(p, ms)
    if not models:
        pytest.skip("no model for this shape")
    a = models[0]
    top = a.top_degree
    want_a1, want_a2, want_a3 = set(), set(), set()
    for aa in range(8):
        pa = p**aa
        for c in range(1, p):
            if 2 * pa * c <= top:
                for t in range(1, c):
                    want_a3.add(("A3", aa, None, c, t))
            for b in range(1, top + 1):
                if 2 * pa * (p * b + c) > top:
                    break
                for t in range(1, min(b, p - c) + 1):
                    want_a1.add(("A1", aa, b, c, t))
                for t in range(c, p):
                    want_a2.add(("A2", aa, b, c, t))
    result = check_thm_a(a)
    assert {v.key() for v in result.surjectivity} == want_a1
    assert {v.key() for v in result.vanishing} == want_a2
    assert {v.key() for v in result.isomorphism} == want_a3


def _q_rank_by_matrix(a, s, e):
    mat = induced_q_map(a, SteenrodElement.power(a.p, s), e)
    return mat.cols, mat.rows, mat.rank()


def test_q_rank_matches_full_induced_map(pool, monkeypatch):
    # Every (s, e) that check_thm_a visits on the pool models.
    visited = []
    real = theorems._q_rank

    def spy(a, s, e):
        visited.append((a, s, e))
        return real(a, s, e)

    monkeypatch.setattr(theorems, "_q_rank", spy)
    for a in pool:
        check_thm_a(a)
    assert visited
    for a, s, e in visited:
        assert real(a, s, e) == _q_rank_by_matrix(a, s, e)


def test_q_rank_with_both_q_spaces_nonzero():
    # P^1 y4 = y8 + y4^2 at p = 3: Q^4 and Q^8 are both one-dimensional.
    a = AlgebraPresentation(
        3, [("y4", 2), ("y8", 4)], {("y4", 1): {(0, 1): 1, (2, 0): 1}}
    )
    assert theorems._q_rank(a, 1, 4) == _q_rank_by_matrix(a, 1, 4) == (1, 1, 1)
    b = AlgebraPresentation(3, [("y4", 2), ("y8", 4)], {("y4", 1): {(2, 0): 1}})
    assert theorems._q_rank(b, 1, 4) == _q_rank_by_matrix(b, 1, 4) == (1, 1, 0)


# ---------------------------------------------------------------------------
# Frobenius-degree reduction


def test_reduce_all_coprime_gives_zero_algebra():
    a = s3_model(3, 2)
    red = reduce_frobenius(a)
    assert red.presentation.l == 0
    assert red.kept == ()


def test_reduce_single_generator_divisible():
    a = s3_model(3, 3)  # forced table: P^3 y = y^3
    red = reduce_frobenius(a)
    b = red.presentation
    assert b.half_degrees == (1,)
    assert b.action_entry(0, 1) == b.gen(0) ** 3
    assert validate_action(b).ok


def test_reduce_iterates_to_termination():
    a = s3_model(3, 3)
    seen = []
    current = a
    while current.l:
        seen.append(current.half_degrees)
        if all(m % current.p for m in current.half_degrees):
            break
        current = reduce_frobenius(current).presentation
    assert seen == [(3,), (1,)]


def test_reduce_rejects_escaping_action():
    # P^1 on a dropped generator lands on kept generators only
    a = AlgebraPresentation(
        3, [("y6", 3), ("y8", 4)], {("y8", 1): {(2, 0): 1}}
    )
    with pytest.raises(IdealNotClosed) as err:
        reduce_frobenius(a)
    assert err.value.generator == "y8"


def test_reduce_thm_a_coherence():
    # richest all-divisible model: the a=1 sweep upstairs matches the a=0
    # sweep on the reduction, verdict for verdict
    models = [m for m in derived(3, (3, 6)) if not m.action_entry(1, 3).is_zero()]
    assert models
    for a in models:
        red = reduce_frobenius(a)
        upstairs = {
            k: ok for k, ok in check_thm_a(a).by_key().items() if k[1] == 1
        }
        downstairs = {
            k: ok for k, ok in check_thm_a(red.presentation).by_key().items() if k[1] == 0
        }
        assert {(f, b, c, t) for (f, _, b, c, t) in upstairs} == {
            (f, b, c, t) for (f, _, b, c, t) in downstairs
        }
        for (f, _, b, c, t), ok in upstairs.items():
            assert downstairs[(f, 0, b, c, t)] == ok


# ---------------------------------------------------------------------------
# sphere-product bound


def test_thmc_bound_examples():
    assert thmc_bound(5, [3]) == 2
    assert thmc_bound(3, [1, 1, 1]) == 3
    assert thmc_bound(3, [3, 7]) == 0


def test_thmc_bound_input_validation():
    with pytest.raises(ValueError):
        thmc_bound(5, [4])
    with pytest.raises(ValueError):
        thmc_bound(4, [3])
    with pytest.raises(ValueError):
        thmc_bound(5, [])


# ---------------------------------------------------------------------------
# exhaustive action derivation


def test_derive_p3_m2():
    sols = derived(3, (2,))
    coeffs = sorted(s.action_entry(0, 1).coefficient((2,)) for s in sols)
    assert coeffs == [1, 2]


def test_derive_p5_m2():
    sols = derived(5, (2,))
    coeffs = sorted(s.action_entry(0, 1).coefficient((3,)) for s in sols)
    assert coeffs == [2, 3]
    assert all((3 * c * c) % 5 == 2 for c in coeffs)


def test_derive_p5_m4():
    sols = derived(5, (4,))
    coeffs = sorted(s.action_entry(0, 1).coefficient((2,)) for s in sols)
    assert coeffs == [1, 2, 3, 4]
    assert all(pow(c, 4, 5) == 1 for c in coeffs)


def test_derive_outputs_validate(pool):
    rng = random.Random(51)
    for a in rng.sample(list(pool), 6):
        assert validate_action(a).ok


def test_derive_models_pass_order_one_fail_order_p():
    rng = random.Random(53)
    models = list(derived(3, (2,))) + list(derived(5, (4,)))
    for a in models:
        assert check_dn(a, 1).ok
        assert not check_dn(a, a.p).ok


def test_derive_bound_exceeded():
    with pytest.raises(DeriveBoundExceeded):
        derive_actions(5, [4, 4], max_unknowns=12)


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2)])
def test_derive_agrees_with_direct_validation(p, m):
    # exhaustively: a coefficient choice is derived iff it validates
    probe = AlgebraPresentation(p, [("y", m)])
    d = 2 * m + 2 * (p - 1)
    basis = probe.basis_of_degree(d)
    assert len(basis) == 1
    derived_coeffs = {
        s.action_entry(0, 1).coefficient(basis[0]) for s in derived(p, (m,))
    }
    for lam in range(p):
        a = AlgebraPresentation(p, [("y", m)], {("y", 1): {basis[0]: lam}})
        assert validate_action(a).ok == (lam in derived_coeffs)


# Each has at most 729 coefficient vectors.
BRUTE_FORCE_SHAPES = [
    (3, (2,)), (3, (1, 2)), (3, (1, 3)), (3, (2, 3)), (3, (3, 6)), (3, (2, 2)),
    (5, (2,)), (5, (4,)), (5, (1, 2)), (5, (1, 5)), (7, (2,)), (7, (3,)),
]


@pytest.mark.parametrize("p,ms", BRUTE_FORCE_SHAPES)
def test_derive_matches_brute_force_validation(p, ms):
    # Independent oracle: walk every coefficient vector of the free entries
    # (k-major, then generator, then basis order) in itertools.product order
    # and keep a table iff validate_action accepts it and its total powers
    # preserve the truncation.
    probe, blocks = free_entries(p, ms)
    unknowns = sum(len(basis) for *_, basis in blocks)
    assert 0 < unknowns and p ** unknowns <= 729
    kept = []
    for vector in itertools.product(range(p), repeat=unknowns):
        table = table_of(probe, blocks, vector)
        if validate_action(table).ok and stable([table]):
            kept.append(render_presentation(table))
    assert [render_presentation(a) for a in derived(p, ms)] == kept


def test_truncation_equations_vanish_exactly_on_stable_tables():
    # At a numeric table, every coefficient of P(y_i)^{p+1} vanishes iff
    # preserves_truncation holds on the total powers.
    rng = random.Random(61)
    cases = [(a, free_entries(3, (1, 1, 2))) for a in oracle_derived(3, (1, 1, 2))]
    cases += [(random_table(rng, 3, (2, 2)), free_entries(3, (2, 2))) for _ in range(200)]
    verdicts = []
    for a, (probe, blocks) in cases:
        equations = theorems._truncation_equations(probe, theorems._symbolic_entries(probe, blocks))
        point = dict(enumerate(entry_vector(a, blocks)))
        vanish = not any(_poly_value(f, point, a.p) for f in equations)
        assert vanish == bool(stable([a])), a
        verdicts.append(vanish)
    assert verdicts[:30].count(False) == 16
    assert 0 < verdicts[30:].count(True) < 200


def test_derive_system_vanishes_exactly_on_valid_tables():
    # The system derive solves, evaluated at a table's own coefficients,
    # vanishes iff validate_action accepts the table: both read the same
    # instances on the generators and the same truncation product.
    rng = random.Random(62)
    cases = [(shape, a) for shape in POOL_TUPLES for a in derived(*shape)]
    cases += [((3, (1, 1, 2)), a) for a in oracle_derived(3, (1, 1, 2))]
    for shape in ((3, (2, 2)), (3, (1, 2, 3)), (5, (1, 2)), (5, (2, 2))):
        cases += [(shape, random_table(rng, *shape)) for _ in range(30)]
    systems = {}
    verdicts = []
    for shape, a in cases:
        if shape not in systems:
            probe, blocks = free_entries(*shape)
            systems[shape] = blocks, theorems._derive_equations(probe, blocks)
        blocks, equations = systems[shape]
        point = dict(enumerate(entry_vector(a, blocks)))
        vanish = not any(_poly_value(f, point, a.p) for f in equations)
        assert vanish == validate_action(a).ok, a
        verdicts.append(vanish)
    # 88 pool tables, 14 of the 30 oracle tables and 3 of the 120 random
    # tables are valid.
    assert (len(verdicts), verdicts.count(True)) == (238, 105)
    assert verdicts[88:118].count(True) == 14


def test_derive_infeasible_configurations_are_empty():
    # no consistent table exists when a generator needs m=3 at p=5
    assert derived(5, (3,)) == ()
    # nor on the pair of criterion 5 at p=3, even without the truncation
    # equations: the per-monomial system alone has no solution
    assert derived(3, (2, 4)) == ()
    assert oracle_derived(3, (2, 4)) == ()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_derive_is_empty_exactly_off_the_classical_degrees(p):
    # The one-generator case of Steenrod's realization problem: a table on
    # one generator of half-degree m exists exactly when m = p^k * d with
    # d dividing p - 1.
    for m in range(1, 2 * p + 1):
        d = m
        while d % p == 0:
            d //= p
        want = (p - 1) % d == 0
        assert bool(derive_actions(p, [m], max_unknowns=64)) == want, (p, m)


DERIVE_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "derive_tables.json").read_text()
)


def test_adem_equations_match_the_reference_kernel():
    # Same equations in the same order, each with its monomials in the same
    # order, on the instances derive uses (generators) and on the oracle's
    # (every basis monomial).
    shapes = POOL_TUPLES + [
        (3, (2, 4)), (3, (3, 6)), (3, (1, 1, 1, 1)), (5, (1, 1, 1)), (7, (1, 1, 1)),
        (7, (2, 2)), (3, (1, 2, 3)),
    ]
    compared = 0
    for p, ms in shapes:
        probe, blocks = free_entries(p, ms)
        entries = theorems._symbolic_entries(probe, blocks)
        on_generators = generator_instances(probe)
        on_monomials = [
            (ae, be, exps)
            for ae, be, d in adem_instances(p, tuple(probe.nonzero_degrees()), probe.top_degree)
            for exps in probe.basis_of_degree(d)
        ]
        for instances in (on_generators, on_monomials):
            got = theorems._adem_equations(probe, entries, instances)
            want = reference_adem_equations(probe, entries, instances)
            assert [list(f.items()) for f in got] == [list(f.items()) for f in want], (p, ms)
            compared += len(want)
    assert compared == 1625


def test_derive_equations_are_homogeneous_for_the_unknown_grading():
    # The solver may branch once per scaling orbit only if every equation
    # derive solves is homogeneous modulo p - 1 for the grading it passes.
    # (5,(2,5)) is a pool shape.
    shapes = POOL_TUPLES + [(3, (2, 4)), (3, (3, 6)), (7, (1, 1, 2))]
    checked = several = 0
    for p, ms in shapes:
        probe, blocks = free_entries(p, ms)
        grading = theorems._unknown_grading(blocks, probe.l)
        for f in theorems._derive_equations(probe, blocks):
            degrees = {
                tuple(sum(grading[x][j] for x in m) % (p - 1) for j in range(probe.l))
                for m in f
            }
            assert len(degrees) <= 1, (p, ms, f)
            checked += 1
            several += len(f) > 1
    assert (checked, several) == (205, 164)


@pytest.mark.parametrize("p,ms,count", [(5, (2, 2), 24), (7, (2, 2), 40)])
def test_derive_matches_the_ungraded_solver(p, ms, count):
    # The graded solve finds one solution per scaling orbit at each branch
    # and maps it onto the others; it must give the coefficient vectors the
    # ungraded solve lists, in the same order.
    probe, blocks = free_entries(p, ms)
    unknowns = sum(len(basis) for *_, basis in blocks)
    want = solve_polynomial_system(p, unknowns, theorems._derive_equations(probe, blocks))
    assert len(want) == count
    assert [entry_vector(a, blocks) for a in derive_actions(p, list(ms))] == want


def test_derived_tables_equal_their_public_rebuild():
    # derive builds its tables with with_action on the probe; each equals
    # the table the public constructor makes from the same coefficients.
    golden = (key.split(":") for key in DERIVE_GOLDEN)
    shapes = set(POOL_TUPLES) | {(int(p), tuple(int(m) for m in ms.split(","))) for p, ms in golden}
    checked = 0
    for p, ms in sorted(shapes):
        probe, blocks = free_entries(p, ms)
        for a in derived(p, ms):
            b = table_of(probe, blocks, entry_vector(a, blocks))
            assert (a.names, a.half_degrees, a.autofilled) == (b.names, b.half_degrees, b.autofilled)
            assert a.stored_entries() == b.stored_entries()
            for i, k in b.stored_entries():
                assert a.action_entry(i, k).terms == b.action_entry(i, k).terms
            assert render_presentation(a) == render_presentation(b)
            for d in range(a.top_degree + 2):
                assert a.basis_of_degree(d) == b.basis_of_degree(d)
            checked += 1
    assert checked == 209


def test_derive_without_free_entries_builds_no_basis():
    # A shape with no free entry reads no degree basis while it derives, so
    # its table leaves the monomial scan to the first reader.
    (a,) = derive_actions(7, [1, 1, 1])
    assert a._basis_buckets is None
    assert a.dim(2) == 3


def test_derive_without_unknowns_matches_validate_action():
    # With no free coefficient derive solves a system of constants; the
    # forced table (P^{m_i} y_i = y_i^p, every other entry zero) must be
    # listed exactly when validate_action accepts it.
    shapes = []
    for p in (3, 5, 7):
        for l in (1, 2, 3):
            for ms in itertools.combinations_with_replacement(range(1, 2 * p + 1), l):
                probe, blocks = free_entries(p, ms)
                if not any(basis for *_, basis in blocks):
                    shapes.append((p, ms, table_of(probe, blocks, ())))
    for p, ms, forced in shapes:
        want = [forced] if validate_action(forced).ok else []
        got = derive_actions(p, list(ms))
        assert [render_presentation(a) for a in got] == [render_presentation(a) for a in want], (p, ms)
    assert (len(shapes), sum(validate_action(t).ok for *_, t in shapes)) == (39, 18)


@pytest.mark.parametrize("shape", sorted(DERIVE_GOLDEN))
def test_derive_reproduces_golden_tables(shape):
    # Keyed "p:m1,m2,..."; the digest is the sha256 of the JSON list of the
    # rendered tables, so it pins every table and their order.
    p, ms = shape.split(":")
    tables = derived(int(p), tuple(int(m) for m in ms.split(",")))
    rendered = json.dumps([render_presentation(t) for t in tables])
    want = DERIVE_GOLDEN[shape]
    assert len(tables) == want["count"]
    assert hashlib.sha256(rendered.encode()).hexdigest() == want["sha256"]


ORACLE_SHAPES = [(shape, 12) for shape in sorted(DERIVE_GOLDEN)] + [
    ("3:1,1,2", 12), ("3:1,1,1,2", 19),
]


@pytest.mark.parametrize("shape,max_unknowns", ORACLE_SHAPES)
def test_derive_equals_the_stable_tables_of_the_per_monomial_system(shape, max_unknowns):
    # The oracle solves every Adem instance on every basis monomial; derive
    # solves the instances on the generators plus the truncation equations.
    # By validate_action's proposition they agree on the stable tables.
    p, ms = shape.split(":")
    p, ms = int(p), tuple(int(m) for m in ms.split(","))
    tables = derive_actions(p, list(ms), max_unknowns=max_unknowns)
    want = stable(oracle_derived(p, ms))
    assert [render_presentation(a) for a in tables] == [render_presentation(a) for a in want]


def test_derive_reproduces_tables_beyond_the_default_bound():
    # (3,(2,2,2)) has 18 unknowns, so the default max_unknowns=12 refuses
    # it.  The digest (same form as derive_tables.json) was generated by the
    # polynomial-system solver over every Adem instance on every basis
    # monomial; every one of the 128 tables passed validate_action and
    # preserves the truncation, and plain one-variable-at-a-time
    # elimination over those per-monomial equations gave the same list.
    # The instances on the generators plus the truncation equations give
    # the same digest.
    with pytest.raises(DeriveBoundExceeded):
        derive_actions(3, [2, 2, 2])
    tables = derive_actions(3, [2, 2, 2], max_unknowns=18)
    rendered = json.dumps([render_presentation(t) for t in tables])
    assert len(tables) == 128
    assert hashlib.sha256(rendered.encode()).hexdigest() == (
        "5012a3ba64c4b629fdf075f085c312749116081b6326c572478ad70601197a13"
    )


@pytest.mark.parametrize("p,ms,max_unknowns,count,digest", [
    (7, (1, 2, 3), 39, 336,
     "09390ffefd19611423315082ce87e2fd4bd88550ea7ad1526b5e0e88e4474699"),
    (3, (2, 4, 6), 34, 0,
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (5, (2, 2, 2), 30, 544,
     "30694d375c1862efa2793d2898b0534ad7c6be73edd40aac1ffecbdf184f59d8"),
    (7, (1, 1, 2), 23, 62,
     "580ddb1d1d6f13bdaed2b9cc5940139b67878ada29eab8e0d00921f47f5a9585"),
])
def test_derive_pins_shapes_with_many_unknowns(p, ms, max_unknowns, count, digest):
    # Same digest form as derive_tables.json.  The digests of the first two
    # were generated by the per-monomial system (the conftest oracle) as
    # well, which takes seconds on these shapes; (3,(2,4,6)) has no table.
    # Those of (5,(2,2,2)) and (7,(1,1,2)) were generated by the same
    # equations solved without the grading, which branches on every value
    # and takes about 1.5 s and 2-3 s there.
    with pytest.raises(DeriveBoundExceeded):
        derive_actions(p, list(ms), max_unknowns=max_unknowns - 1)
    tables = derive_actions(p, list(ms), max_unknowns=max_unknowns)
    rendered = json.dumps([render_presentation(t) for t in tables])
    assert len(tables) == count
    assert hashlib.sha256(rendered.encode()).hexdigest() == digest


DECIDE_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "decide_answers.json").read_text()
)


def test_decide_golden_covers_the_pool():
    assert sorted(DECIDE_GOLDEN) == sorted(
        f"{p}:{','.join(map(str, ms))}" for p, ms in POOL_TUPLES
    )
    assert sum(len(v) for v in DECIDE_GOLDEN.values()) == len(model_pool())


@pytest.mark.parametrize("shape", sorted(DECIDE_GOLDEN))
def test_decide_reproduces_golden_answers(shape):
    # Keyed like the derive golden; one entry per derived model, in order,
    # holding the digests of validate_action, normalize_generators and
    # check_thm_a and the value of max_dn (see conftest.decide_digests).
    p, ms = shape.split(":")
    models = derived(int(p), tuple(int(m) for m in ms.split(",")))
    assert [decide_digests(a) for a in models] == DECIDE_GOLDEN[shape]
