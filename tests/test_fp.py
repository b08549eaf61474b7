import itertools
import random

import pytest

from dnalg.fp import (
    ChainRep,
    FpMatrix,
    Subspace,
    all_vectors,
    chain_interval_form,
    is_partial_permutation,
    nullspace,
    solve,
    sum_and_intersection,
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
    assert FpMatrix.identity(3, 2).rank() == 2


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
    m = FpMatrix.identity(3, 3)
    res = solve(m, (1, 2, 0))
    assert res.solution == (1, 2, 0)
    assert res.nullspace.dim == 0


def test_solve_zero_matrix_no_solution():
    m = FpMatrix.zeros(3, 2, 2)
    assert solve(m, (1, 0)).solution is None


def test_solve_against_exhaustive_search():
    rng = random.Random(5)
    for _ in range(8) :
        rows = [[rng.randrange(5) for _ in range(4)] for _ in range(3)]
        m = FpMatrix.from_rows(5, rows)
        b = tuple(rng.randrange(5) for _ in range(3))
        res = solve(m, b)
        hits = [v for v in all_vectors(5, 4) if m.matvec(v) == b]
        if res.solution is None:
            assert not hits
        else:
            assert m.matvec(res.solution) == b
            # solution count = p^(nullspace dim)
            assert len(hits) == 5**res.nullspace.dim
            for v in hits:
                diff = tuple((x - y) % 5 for x, y in zip(v, res.solution))
                assert res.nullspace.contains(diff)


def test_subspace_sum_and_intersection_basics():
    u = Subspace.from_vectors(3, 2, [(1, 0)])
    v = Subspace.from_vectors(3, 2, [(0, 1)])
    s, i = sum_and_intersection(u, v)
    assert s == Subspace.full(3, 2)
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
        assert s.includes(u) and s.includes(v)
        assert u.includes(i) and v.includes(i)
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
        inter = u.intersect(v)
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
            assert u.includes(v)


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
        solve(FpMatrix.identity(3, 2), (1, 2, 3))


def test_nullspace_vectors_annihilate():
    m = FpMatrix.from_rows(3, [[1, 2, 0], [0, 1, 1]])
    ns = nullspace(m)
    for row in ns.basis:
        assert m.matvec(row) == (0, 0)


# ---------------------------------------------------------------------------
# chain interval form


def test_chain_zero_maps_identity_bases():
    chain = ChainRep(3, (2, 2), (FpMatrix.zeros(3, 2, 2),))
    form = chain_interval_form(chain)
    assert form.bases[0] == FpMatrix.identity(3, 2)
    assert form.maps[0].is_zero()
    assert sorted(form.intervals) == [(0, 0), (0, 0), (1, 1), (1, 1)]


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
                    chain.composite(i, j).rank() == new_chain.composite(i, j).rank()
                )
        # the change of basis intertwines old and new maps
        for i, f in enumerate(chain.maps):
            lhs = f.matmul(form.bases[i].transpose())
            rhs = form.bases[i + 1].transpose().matmul(form.maps[i])
            assert lhs == rhs


def test_chain_intervals_partition_dimensions():
    rng = random.Random(23)
    for _ in range(10):
        chain = _random_chain(rng, 5, 4, 3)
        form = chain_interval_form(chain)
        for node, d in enumerate(chain.dims):
            alive = sum(1 for (b, e) in form.intervals if b <= node <= e)
            assert alive == d
