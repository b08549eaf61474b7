import hashlib
import itertools
import json
import random

import pytest

from dnalg.fp import (
    ChainRep,
    FpMatrix,
    Subspace,
    chain_interval_form,
    poly_mul_into,
    poly_reduce,
    poly_substitute,
    solve,
    solve_polynomial_system,
    sum_and_intersection,
)

from fp_oracles import (
    all_vectors,
    composite,
    identity,
    includes,
    intersect,
    is_partial_permutation,
    matmul,
    nullspace,
    zeros,
)


def span_size(p, vectors, dim):
    """Oracle: count the vectors in the span by brute-force enumeration."""
    seen = set()
    for coeffs in itertools.product(range(p), repeat=len(vectors)):
        v = tuple(
            sum(c * vec[i] for c, vec in zip(coeffs, vectors)) % p
            for i in range(dim)
        )
        seen.add(v)
    return len(seen)


def oracle_rank(p, rows, dim):
    n = span_size(p, rows, dim)
    r = 0
    while p**r < n:
        r += 1
    assert p**r == n
    return r


def test_rank_identity():
    assert identity(3, 2).rank() == 2


def test_rank_dependent_rows_mod5():
    m = FpMatrix.from_rows(5, [[1, 2], [2, 4]])
    assert m.rank() == 1


def test_rank_matches_enumeration_oracle():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[rng.randrange(3) for _ in range(6)] for _ in range(4)]
        m = FpMatrix.from_rows(3, rows)
        assert m.rank() == oracle_rank(3, rows, 6)


def test_solve_identity():
    m = identity(3, 3)
    assert solve(m, (1, 2, 0)) == (1, 2, 0)
    assert nullspace(m).dim == 0


def test_solve_zero_matrix_no_solution():
    m = zeros(3, 2, 2)
    assert solve(m, (1, 0)) is None


def test_solve_against_exhaustive_search():
    rng = random.Random(5)
    for _ in range(8) :
        rows = [[rng.randrange(5) for _ in range(4)] for _ in range(3)]
        m = FpMatrix.from_rows(5, rows)
        b = tuple(rng.randrange(5) for _ in range(3))
        sol = solve(m, b)
        hits = [v for v in all_vectors(5, 4) if m.matvec(v) == b]
        if sol is None:
            assert not hits
        else:
            assert m.matvec(sol) == b
            # solution count = p^(nullspace dim)
            ns = nullspace(m)
            assert len(hits) == 5**ns.dim
            for v in hits:
                diff = tuple((x - y) % 5 for x, y in zip(v, sol))
                assert ns.contains(diff)


def test_subspace_sum_and_intersection_basics():
    u = Subspace.from_vectors(3, 2, [(1, 0)])
    v = Subspace.from_vectors(3, 2, [(0, 1)])
    s, i = sum_and_intersection(u, v)
    assert s == Subspace.from_vectors(3, 2, [(1, 0), (0, 1)])
    assert i.dim == 0


def test_subspace_lattice_axioms_random():
    rng = random.Random(7)
    for _ in range(15):
        u = Subspace.from_vectors(
            5, 4, [[rng.randrange(5) for _ in range(4)] for _ in range(2)]
        )
        v = Subspace.from_vectors(
            5, 4, [[rng.randrange(5) for _ in range(4)] for _ in range(2)]
        )
        s, i = sum_and_intersection(u, v)
        assert includes(s, u) and includes(s, v)
        assert includes(u, i) and includes(v, i)
        assert s.dim + i.dim == u.dim + v.dim


def test_dimension_formula_against_membership_count():
    rng = random.Random(3)
    for _ in range(5):
        u = Subspace.from_vectors(
            3, 4, [[rng.randrange(3) for _ in range(4)] for _ in range(2)]
        )
        v = Subspace.from_vectors(
            3, 4, [[rng.randrange(3) for _ in range(4)] for _ in range(2)]
        )
        inter = intersect(u, v)
        both = sum(1 for w in all_vectors(3, 4) if u.contains(w) and v.contains(w))
        assert both == 3**inter.dim


def test_echelon_canonicity():
    rng = random.Random(13)
    for _ in range(10):
        basis = [[rng.randrange(5) for _ in range(5)] for _ in range(3)]
        u = Subspace.from_vectors(5, 5, basis)
        # a second generating set of the same space: random combinations
        combos = []
        for _ in range(6):
            cs = [rng.randrange(5) for _ in range(3)]
            combos.append(
                [sum(c * row[i] for c, row in zip(cs, basis)) % 5 for i in range(5)]
            )
        v = Subspace.from_vectors(5, 5, combos)
        if v.dim == u.dim:
            assert u == v
        else:
            assert includes(u, v)


def test_ambient_mismatch_rejected():
    u = Subspace.from_vectors(3, 2, [(1, 0)])
    v = Subspace.from_vectors(3, 3, [(1, 0, 0)])
    with pytest.raises(ValueError):
        u.add(v)
    with pytest.raises(ValueError):
        u.contains((1, 0, 0))
    w = Subspace.from_vectors(5, 2, [(1, 0)])
    with pytest.raises(ValueError):
        u.add(w)


def test_solve_rejects_bad_rhs_length():
    with pytest.raises(ValueError):
        solve(identity(3, 2), (1, 2, 3))


def test_nullspace_vectors_annihilate():
    m = FpMatrix.from_rows(3, [[1, 2, 0], [0, 1, 1]])
    ns = nullspace(m)
    for row in ns.basis:
        assert m.matvec(row) == (0, 0)


# ---------------------------------------------------------------------------
# chain interval form


def test_chain_zero_maps_identity_bases():
    chain = ChainRep(3, (2, 2), (zeros(3, 2, 2),))
    form = chain_interval_form(chain)
    assert form.bases[0] == identity(3, 2)
    assert form.maps[0].is_zero()
    assert sorted(form.intervals) == [(0, 0), (0, 0), (1, 1), (1, 1)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_single_node_chain_has_identity_basis(p):
    # A one-node chain has no map, so its interval form is the identity.
    for d in range(5):
        form = chain_interval_form(ChainRep(p, (d,), ()))
        assert form.bases[0] == identity(p, d)


def test_chain_sum_of_two_targets():
    f = FpMatrix.from_rows(3, [[1], [1]])
    form = chain_interval_form(ChainRep(3, (1, 2), (f,)))
    assert form.maps[0].entries == ((1,), (0,))
    assert is_partial_permutation(form.maps[0])


def _random_chain(rng, p, length, max_dim):
    dims = tuple(rng.randrange(max_dim + 1) for _ in range(length + 1))
    maps = tuple(
        FpMatrix.from_rows(
            p,
            [[rng.randrange(p) for _ in range(dims[i])] for _ in range(dims[i + 1])],
            dims[i],
        )
        for i in range(length)
    )
    return ChainRep(p, dims, maps)


def test_chain_interval_form_random_properties():
    rng = random.Random(17)
    for _ in range(30):
        chain = _random_chain(rng, 3, 3, 3)
        form = chain_interval_form(chain)
        new_chain = ChainRep(3, chain.dims, form.maps)
        for m in form.maps:
            assert is_partial_permutation(m)
        for b, d in zip(form.bases, chain.dims):
            assert b.rank() == d  # invertible change of basis
        # all composite ranks preserved
        for i in range(len(chain.dims)):
            for j in range(i, len(chain.dims)):
                assert (
                    composite(chain, i, j).rank() == composite(new_chain, i, j).rank()
                )
        # the change of basis intertwines old and new maps
        for i, f in enumerate(chain.maps):
            lhs = matmul(f, form.bases[i].transpose())
            rhs = matmul(form.bases[i + 1].transpose(), form.maps[i])
            assert lhs == rhs


def _sparse_chain(rng, p):
    """1 to 5 nodes of dimension at most 4, joined by maps with many zero
    entries, so that threads die and younger ones get corrected."""
    nodes = rng.randrange(1, 6)
    dims = tuple(rng.randrange(5) for _ in range(nodes))
    density = rng.choice((0.2, 0.5, 0.9))
    maps = tuple(
        FpMatrix.from_rows(
            p,
            [
                [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(dims[i])]
                for _ in range(dims[i + 1])
            ],
            dims[i],
        )
        for i in range(nodes - 1)
    )
    return ChainRep(p, dims, maps)


def test_chain_interval_form_digest_is_pinned():
    # The bases, maps and intervals of 2 000 seeded sparse chains over
    # p = 3, 5, 7, in order: any change in which basis the sweep picks shows.
    rng = random.Random(43)
    h = hashlib.sha256()
    for _ in range(2000):
        form = chain_interval_form(_sparse_chain(rng, rng.choice((3, 5, 7))))
        h.update(json.dumps([
            [b.entries for b in form.bases],
            [m.entries for m in form.maps],
            form.intervals,
        ]).encode())
    assert h.hexdigest() == (
        "8953174b3cd237d99004bfa789a2465506986f65c4ca4211372be095fa4f13c9"
    )


def test_chain_intervals_partition_dimensions():
    rng = random.Random(23)
    for _ in range(10):
        chain = _random_chain(rng, 5, 4, 3)
        form = chain_interval_form(chain)
        for node, d in enumerate(chain.dims):
            alive = sum(1 for (b, e) in form.intervals if b <= node <= e)
            assert alive == d


# ---------------------------------------------------------------------------
# sparse polynomials and the polynomial-system solver


def poly_value(f, point, p):
    """Oracle: evaluate a polynomial at a point of F_p^n term by term."""
    total = 0
    for m, c in f.items():
        for x in m:
            c *= point[x]
        total += c
    return total % p


def random_poly(rng, p, n, terms, degree):
    f = {}
    for _ in range(terms):
        m = tuple(sorted(rng.randrange(n) for _ in range(rng.randrange(degree + 1))))
        f[m] = f.get(m, 0) + rng.randrange(1, p)
    return poly_reduce(f, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_poly_product_reduces_by_fermat(p):
    # x^(p-1) * x = x^p, read as x on F_p; x^(p-1) * x^(p-1) = x^(p-1).
    acc = {}
    poly_mul_into(acc, {(0,) * (p - 1): 1}, {(0,): 1, (1,): 2}, p)
    assert poly_reduce(acc, p) == {(0,): 1, tuple([0] * (p - 1) + [1]): 2}
    acc = {}
    poly_mul_into(acc, {(0,) * (p - 1): 1}, {(0,) * (p - 1): 1}, p)
    assert poly_reduce(acc, p) == {(0,) * (p - 1): 1}


def test_poly_substitute_agrees_with_evaluation():
    rng = random.Random(71)
    for p in (3, 5):
        for _ in range(40):
            f = random_poly(rng, p, 3, 5, 2 * p)
            g = random_poly(rng, p, 3, 3, 2)
            g = {m: c for m, c in g.items() if 0 not in m}
            h = poly_substitute(f, 0, g, p)
            assert all(0 not in m for m in h)
            for point in itertools.product(range(p), repeat=3):
                moved = (poly_value(g, point, p),) + point[1:]
                assert poly_value(h, point, p) == poly_value(f, moved, p)


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3), (7, 2)])
def test_polynomial_system_matches_brute_force(p, n):
    # Every point of F_p^n, kept iff all equations vanish there: the solver
    # must return exactly these, in lexicographic order.
    rng = random.Random(73 + p)
    for trial in range(30):
        equations = [
            random_poly(rng, p, n, rng.randrange(1, 4), rng.choice([1, 2, 3]))
            for _ in range(rng.randrange(1, n + 2))
        ]
        want = [
            point for point in itertools.product(range(p), repeat=n)
            if all(poly_value(f, point, p) == 0 for f in equations)
        ]
        assert solve_polynomial_system(p, n, equations) == want, (trial, equations)


def test_polynomial_system_edge_cases():
    # no equation: every point; a nonzero constant: none; scalar multiples
    # of one equation count once.
    assert solve_polynomial_system(3, 2, []) == list(itertools.product(range(3), repeat=2))
    assert solve_polynomial_system(3, 2, [{(): 2}, {(0,): 1}]) == []
    twice = [{(0, 0): 1, (): 2}, {(0, 0): 2, (): 1}, {}]
    assert solve_polynomial_system(3, 1, twice) == [(1,), (2,)]


def random_graded_system(rng, p, n):
    """A random Z^l grading of n variables (about a third of them with
    degrees that are multiples of p - 1, whose characters are trivial) and
    a random system homogeneous for it modulo p - 1.  Some systems get an
    equation x^(p-1) + c, which has no solution unless c = p - 1."""
    l = rng.randrange(1, 4)
    grading = [
        tuple((p - 1) * rng.randrange(-1, 2) for _ in range(l)) if rng.random() < 0.3
        else tuple(rng.randrange(-p, p) for _ in range(l))
        for _ in range(n)
    ]

    def degree(m):
        return tuple(sum(grading[x][j] for x in m) % (p - 1) for j in range(l))

    def monomial():
        return tuple(sorted(rng.randrange(n) for _ in range(rng.randrange(4))))

    equations = []
    for _ in range(rng.randrange(1, n + 2)):
        lead = monomial()
        f = {lead: rng.randrange(1, p)}
        for _ in range(12):
            m = monomial()
            if degree(m) == degree(lead):
                f[m] = f.get(m, 0) + rng.randrange(1, p)
        equations.append(poly_reduce(f, p))
    if rng.random() < 0.25:
        equations.append({(rng.randrange(n),) * (p - 1): 1, (): rng.randrange(1, p)})
    return grading, equations


@pytest.mark.parametrize("p,max_n", [(3, 6), (5, 5), (7, 4)])
def test_graded_polynomial_system_matches_brute_force(p, max_n):
    # With a grading the solver tries one nonzero value per coset at a
    # branch and maps the solutions found onto the rest of each coset by a
    # scaling; the result must be the ungraded solver's, which is every
    # point of F_p^n at which all equations vanish, in lexicographic order.
    rng = random.Random(79 + p)
    empty = trivial = 0
    for trial in range(40):
        n = rng.randrange(1, max_n + 1)
        grading, equations = random_graded_system(rng, p, n)
        want = [
            point for point in itertools.product(range(p), repeat=n)
            if all(poly_value(f, point, p) == 0 for f in equations)
        ]
        assert solve_polynomial_system(p, n, equations) == want, (trial, grading, equations)
        assert solve_polynomial_system(p, n, equations, grading) == want, (trial, grading, equations)
        empty += not want
        trivial += any(all(x % (p - 1) == 0 for x in w) for w in grading)
    assert 0 < empty < 40 and trivial > 0


def test_graded_polynomial_system_rejects_a_grading_of_another_length():
    with pytest.raises(ValueError):
        solve_polynomial_system(3, 2, [{(0,): 1}], [(1,)])
