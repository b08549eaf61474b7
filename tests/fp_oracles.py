"""Brute-force and structural oracles over F_p that only the tests use,
built on the public names of ``dnalg.fp``."""

import itertools

from dnalg.fp import ChainRep, FpMatrix, Subspace, sum_and_intersection


def all_vectors(p: int, n: int):
    """Iterate every vector of F_p^n (exponential)."""
    return itertools.product(range(p), repeat=n)


def zeros(p: int, rows: int, cols: int) -> FpMatrix:
    return FpMatrix.from_rows(p, [[0] * cols for _ in range(rows)], cols)


def includes(u: Subspace, v: Subspace) -> bool:
    """Whether v lies in u."""
    return all(u.contains(w) for w in v.basis)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    return sum_and_intersection(u, v)[1]


def composite(chain: ChainRep, start: int, end: int) -> FpMatrix:
    """The composite map of a chain from node ``start`` to node ``end``."""
    m = FpMatrix.identity(chain.modulus, chain.dims[start])
    for i in range(start, end):
        m = chain.maps[i].matmul(m)
    return m


def nullspace(m: FpMatrix) -> Subspace:
    """The solutions of m x = 0, one basis vector per free column of the
    reduced echelon form."""
    p = m.modulus
    reduced, pivots = m.rref()
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [0] * m.cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-reduced.row(r)[f]) % p
        basis.append(v)
    return Subspace.from_vectors(p, m.cols, basis)


def is_partial_permutation(m: FpMatrix) -> bool:
    """Each column has at most one nonzero entry, equal to 1, and distinct
    nonzero columns hit distinct rows."""
    used_rows = set()
    for j in range(m.cols):
        col = m.column(j)
        nz = [i for i, x in enumerate(col) if x]
        if not nz:
            continue
        if len(nz) > 1 or col[nz[0]] != 1 or nz[0] in used_rows:
            return False
        used_rows.add(nz[0])
    return True
