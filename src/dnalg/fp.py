"""Exact dense linear algebra over odd prime fields.

Matrices are immutable grids of reduced integer residues.  Subspaces are
kept in reduced row echelon form, so two equal subspaces are structurally
identical and compare equal.  Chains of maps between coordinate spaces can
be decomposed into interval form, in which every map is a 0/1 partial
permutation matrix and all composite ranks are preserved.

Everything here is a pure function over immutable values; concurrent use
needs no locking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_odd_prime(p: int) -> None:
    if not is_prime(p) or p % 2 == 0:
        raise ValueError(f"modulus must be an odd prime, got {p}")


Vector = tuple[int, ...]


def _reduce_rows(rows, p) -> tuple[Vector, ...]:
    return tuple(tuple(int(x) % p for x in row) for row in rows)


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


@dataclass(frozen=True)
class FpMatrix:
    """Dense matrix over F_p, stored as a tuple of row tuples."""

    modulus: int
    entries: tuple[Vector, ...]
    cols: int

    @classmethod
    def from_rows(cls, p: int, rows, cols: int | None = None) -> "FpMatrix":
        check_odd_prime(p)
        reduced = _reduce_rows(rows, p)
        if reduced:
            width = len(reduced[0])
            if any(len(r) != width for r in reduced):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        if cols is not None and reduced and width != cols:
            raise ValueError("cols does not match row width")
        return cls(p, reduced, width)

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls.from_rows(p, [[0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls.from_rows(p, [[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "FpMatrix":
        return FpMatrix.from_rows(
            self.modulus, [self.column(j) for j in range(self.cols)], self.rows
        )

    def matvec(self, v) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} for {self.rows}x{self.cols} matrix")
        p = self.modulus
        return tuple(sum(a * b for a, b in zip(row, v)) % p for row in self.entries)

    def matmul(self, other: "FpMatrix") -> "FpMatrix":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        p = self.modulus
        cols = [other.column(j) for j in range(other.cols)]
        rows = [
            [sum(a * b for a, b in zip(row, col)) % p for col in cols]
            for row in self.entries
        ]
        return FpMatrix.from_rows(p, rows, other.cols)

    def rref(self) -> tuple["FpMatrix", tuple[int, ...]]:
        rows, pivots = _rref([list(r) for r in self.entries], self.modulus)
        return FpMatrix.from_rows(self.modulus, rows, self.cols), tuple(pivots)

    def rank(self) -> int:
        _, pivots = self.rref()
        return len(pivots)

    def row_space(self) -> "Subspace":
        return Subspace.from_vectors(self.modulus, self.cols, self.entries)

    def column_space(self) -> "Subspace":
        return self.transpose().row_space()

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.entries)


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


@dataclass(frozen=True)
class SolveResult:
    solution: Vector | None
    nullspace: "Subspace"


def solve(m: FpMatrix, b) -> SolveResult:
    """Particular solution of m x = b (or None) plus the full nullspace."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    p = m.modulus
    aug = [list(row) + [int(v) % p] for row, v in zip(m.entries, b)]
    if not aug:
        # No equations: every vector solves.
        return SolveResult(tuple([0] * m.cols), Subspace.full(p, m.cols))
    rows, pivots = _rref(aug, p)
    if m.cols in pivots:
        return SolveResult(None, nullspace(m))
    x = [0] * m.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][m.cols]
    return SolveResult(tuple(x), nullspace(m))


def nullspace(m: FpMatrix) -> "Subspace":
    p = m.modulus
    rows, pivots = _rref([list(r) for r in m.entries], p)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-rows[r][f]) % p
        basis.append(v)
    return Subspace.from_vectors(p, m.cols, basis)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^n in canonical (reduced echelon) form.

    Equal subspaces have identical basis tuples, so ``==`` decides equality
    of subspaces.
    """

    modulus: int
    ambient_dim: int
    basis: tuple[Vector, ...]

    @classmethod
    def from_vectors(cls, p: int, ambient_dim: int, vectors) -> "Subspace":
        check_odd_prime(p)
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        rows, pivots = _rref(vecs, p) if vecs else ([], [])
        return cls(p, ambient_dim, tuple(tuple(r) for r in rows[: len(pivots)]))

    @classmethod
    def zero(cls, p: int, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(p, ambient_dim, [])

    @classmethod
    def full(cls, p: int, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(
            p, ambient_dim, FpMatrix.identity(p, ambient_dim).entries
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("ambient mismatch")
        p = self.modulus
        v = [int(x) % p for x in v]
        for row in self.basis:
            lead = next(i for i, x in enumerate(row) if x)
            if v[lead]:
                f = v[lead]
                v = [(a - f * b) % p for a, b in zip(v, row)]
        return not any(v)

    def includes(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains(v) for v in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_vectors(
            self.modulus, self.ambient_dim, self.basis + other.basis
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        _, inter = sum_and_intersection(self, other)
        return inter

    def __add__(self, other: "Subspace") -> "Subspace":
        return self.add(other)

    def _check(self, other: "Subspace") -> None:
        if self.modulus != other.modulus or self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")


def sum_and_intersection(u: Subspace, v: Subspace) -> tuple[Subspace, Subspace]:
    """Zassenhaus: one elimination yields both U+V and U∩V canonically."""
    u._check(v)
    p, n = u.modulus, u.ambient_dim
    block = [list(row) + list(row) for row in u.basis]
    block += [list(row) + [0] * n for row in v.basis]
    if not block:
        z = Subspace.zero(p, n)
        return z, z
    rows, pivots = _rref(block, p)
    sum_basis, inter_basis = [], []
    for row in rows[: len(pivots)]:
        left, right = row[:n], row[n:]
        if any(left):
            sum_basis.append(left)
        else:
            inter_basis.append(right)
    return (
        Subspace.from_vectors(p, n, sum_basis),
        Subspace.from_vectors(p, n, inter_basis),
    )


@dataclass(frozen=True)
class ChainRep:
    """A chain of linear maps F^{d_0} -> F^{d_1} -> ... -> F^{d_k}."""

    modulus: int
    dims: tuple[int, ...]
    maps: tuple[FpMatrix, ...]

    def __post_init__(self):
        check_odd_prime(self.modulus)
        if len(self.maps) != len(self.dims) - 1:
            raise ValueError("need one map per consecutive pair of spaces")
        for i, f in enumerate(self.maps):
            if f.modulus != self.modulus:
                raise ValueError("modulus mismatch in chain")
            if f.cols != self.dims[i] or f.rows != self.dims[i + 1]:
                raise ValueError(
                    f"map {i} has shape {f.rows}x{f.cols}, expected "
                    f"{self.dims[i + 1]}x{self.dims[i]}"
                )

    def composite(self, start: int, end: int) -> FpMatrix:
        """The composite map from node ``start`` to node ``end``."""
        m = FpMatrix.identity(self.modulus, self.dims[start])
        for i in range(start, end):
            m = self.maps[i].matmul(m)
        return m


@dataclass
class _Thread:
    birth: int
    vecs: dict[int, list[int]]
    death: int | None = None


@dataclass(frozen=True)
class IntervalForm:
    """Result of interval decomposition of a chain representation.

    ``bases[i]`` holds the new basis of node i as rows in the original
    coordinates; ``maps[i]`` is the matrix of the i-th chain map in the new
    bases (always a 0/1 partial permutation).  ``intervals`` lists the
    (birth, death) node range of each basis thread.
    """

    bases: tuple[FpMatrix, ...]
    maps: tuple[FpMatrix, ...]
    intervals: tuple[tuple[int, int], ...]


def chain_interval_form(chain: ChainRep) -> IntervalForm:
    """Choose compatible bases making every chain map a partial permutation.

    Sweeps left to right, carrying "threads" (basis vectors with a birth
    node).  When thread images become dependent, the younger thread is
    corrected by older ones over its whole lifetime, which keeps the basis
    change consistent; a thread whose image vanishes dies at that node.
    Composite ranks are untouched because each node only undergoes an
    invertible change of basis.
    """
    p = chain.modulus
    k = len(chain.dims) - 1
    threads: list[_Thread] = []
    active: list[_Thread] = []
    for r in range(chain.dims[0]):
        v = [1 if i == r else 0 for i in range(chain.dims[0])]
        th = _Thread(birth=0, vecs={0: v})
        threads.append(th)
        active.append(th)

    for node in range(1, k + 1):
        f = chain.maps[node - 1]
        pivots: list[tuple[int, list[int], _Thread | None]] = []
        survivors: list[_Thread] = []
        for th in active:
            u = list(f.matvec(th.vecs[node - 1]))
            for col, w, older in pivots:
                c = u[col]
                if c:
                    u = [(a - c * b) % p for a, b in zip(u, w)]
                    if older is not None:
                        for s in range(th.birth, node):
                            th.vecs[s] = [
                                (a - c * b) % p
                                for a, b in zip(th.vecs[s], older.vecs[s])
                            ]
            lead = next((i for i, x in enumerate(u) if x), None)
            if lead is None:
                th.death = node - 1
                continue
            inv = pow(u[lead], -1, p)
            u = [(x * inv) % p for x in u]
            for s in range(th.birth, node):
                th.vecs[s] = [(x * inv) % p for x in th.vecs[s]]
            th.vecs[node] = u
            pivots.append((lead, u, th))
            survivors.append(th)
        newborn = []
        for r in range(chain.dims[node]):
            u = [1 if i == r else 0 for i in range(chain.dims[node])]
            for col, w, _ in pivots:
                c = u[col]
                if c:
                    u = [(a - c * b) % p for a, b in zip(u, w)]
            lead = next((i for i, x in enumerate(u) if x), None)
            if lead is None:
                continue
            inv = pow(u[lead], -1, p)
            u = [(x * inv) % p for x in u]
            th = _Thread(birth=node, vecs={node: u})
            threads.append(th)
            newborn.append(th)
            pivots.append((lead, u, None))
        active = survivors + newborn

    for th in active:
        th.death = k

    alive_at = [
        [th for th in threads if th.birth <= i <= th.death] for i in range(k + 1)
    ]
    for i, alive in enumerate(alive_at):
        assert len(alive) == chain.dims[i]
    bases = tuple(
        FpMatrix.from_rows(p, [th.vecs[i] for th in alive_at[i]], chain.dims[i])
        for i in range(k + 1)
    )
    new_maps = []
    for i in range(k):
        rows_idx = {id(th): r for r, th in enumerate(alive_at[i + 1])}
        mat = [[0] * chain.dims[i] for _ in range(chain.dims[i + 1])]
        for c, th in enumerate(alive_at[i]):
            if th.death >= i + 1:
                mat[rows_idx[id(th)]][c] = 1
        new_maps.append(FpMatrix.from_rows(p, mat, chain.dims[i]))
    intervals = tuple((th.birth, th.death) for th in threads)
    return IntervalForm(bases, tuple(new_maps), intervals)


def all_vectors(p: int, n: int):
    """Iterate every vector of F_p^n (test oracles; exponential)."""
    return itertools.product(range(p), repeat=n)
