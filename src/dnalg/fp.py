"""Exact linear algebra and polynomial systems over odd prime fields.

Matrices are immutable grids of reduced integer residues.  Subspaces are
kept in reduced row echelon form, so two equal subspaces are structurally
identical and compare equal.  Chains of maps between coordinate spaces can
be decomposed into interval form, in which every map is a 0/1 partial
permutation matrix and all composite ranks are preserved.  Sparse
polynomials over F_p, read as functions on F_p^n, back a solver that
lists every common zero of a system of polynomial equations.

Everything here is a pure function over immutable values, except that
``poly_mul_into`` adds into the dict it is given; concurrent use needs no
locking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import eq


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

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.entries)


def solve(m: FpMatrix, b) -> Vector | None:
    """A particular solution of m x = b, or None when there is none."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    p = m.modulus
    aug = [list(row) + [int(v) % p] for row, v in zip(m.entries, b)]
    if not aug:
        # No equations: every vector solves.
        return tuple([0] * m.cols)
    rows, pivots = _rref(aug, p)
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][m.cols]
    return tuple(x)


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

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v) -> Vector:
        """What is left of v after clearing every pivot of the basis; it is
        zero exactly when v lies in the subspace."""
        if len(v) != self.ambient_dim:
            raise ValueError("ambient mismatch")
        p = self.modulus
        v = [int(x) % p for x in v]
        for row in self.basis:
            lead = next(i for i, x in enumerate(row) if x)
            if v[lead]:
                f = v[lead]
                v = [(a - f * b) % p for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

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


# ---------------------------------------------------------------------------
# sparse polynomials over F_p, read as functions on F_p^n
#
# A polynomial is a dict {monomial: nonzero residue}; a monomial is the
# sorted tuple of its variable indices, each repeated by its exponent, and
# () is the constant monomial.  Only values at points of F_p^n matter here,
# so every exponent is kept below p by x^p = x.

Poly = dict[tuple[int, ...], int]


def _mono_mul(m1: tuple[int, ...], m2: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not m1:
        return m2
    if not m2:
        return m1
    m = tuple(sorted(m1 + m2))
    if not any(map(eq, m, m[p - 1:])):  # every exponent is below p
        return m
    out: list[int] = []
    i = 0
    while i < len(m):
        j = i
        while j < len(m) and m[j] == m[i]:
            j += 1
        # both factors have exponents below p, so one step of x^p = x suffices
        out.extend(m[i:j] if j - i < p else m[i:j - p + 1])
        i = j
    return tuple(out)


def poly_mul_into(acc: dict, f: Poly, g: Poly, p: int) -> None:
    """Add f * g into acc, leaving its coefficients unreduced."""
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = _mono_mul(m1, m2, p)
            acc[m] = acc.get(m, 0) + c1 * c2


def poly_reduce(acc: dict, p: int) -> Poly:
    return {m: c % p for m, c in acc.items() if c % p}


def poly_substitute(f: Poly, v: int, g: Poly, p: int) -> Poly:
    """f with the variable v replaced by g, which must not contain v."""
    if not any(v in m for m in f):
        return f
    out: dict = {}
    if not g or list(g) == [()]:  # a constant: no product to expand
        c0 = g.get((), 0)
        for m, c in f.items():
            k = m.count(v)
            if k:
                if not c0:
                    continue
                m = tuple(x for x in m if x != v)
                c *= c0 ** k
            out[m] = out.get(m, 0) + c
        return poly_reduce(out, p)
    powers = [{(): 1}, g]
    for m, c in f.items():
        k = m.count(v)
        if not k:
            out[m] = out.get(m, 0) + c
            continue
        while len(powers) <= k:
            acc: dict = {}
            poly_mul_into(acc, powers[-1], g, p)
            powers.append(poly_reduce(acc, p))
        rest = tuple(x for x in m if x != v)
        poly_mul_into(out, {rest: c}, powers[k], p)
    return poly_reduce(out, p)


def _poly_value(f: Poly, values: dict[int, int], p: int) -> int:
    total = 0
    for m, c in f.items():
        for x in m:
            c *= values[x]
        total += c
    return total % p


def _echelon(equations, p: int) -> list[Poly]:
    """Row-reduce polynomials as vectors over their monomials, leading with
    the monomial of highest total degree.  The rows returned span the same
    equations and have distinct monic leading monomials, so zero rows and
    scalar multiples are gone, and every linear consequence of the
    equations is spanned by the rows of total degree <= 1."""
    rows: dict[tuple[int, ...], Poly] = {}
    for f in equations:
        f = dict(f)
        while f:
            lead = max(f, key=lambda m: (len(m), m))
            row = rows.get(lead)
            if row is None:
                inv = pow(f[lead], -1, p)
                rows[lead] = {m: c * inv % p for m, c in f.items()}
                break
            c = f[lead]
            for m, d in row.items():
                x = (f.get(m, 0) - c * d) % p
                if x:
                    f[m] = x
                else:
                    f.pop(m, None)
    return list(rows.values())


def solve_polynomial_system(p: int, n: int, equations) -> list[Vector]:
    """Every point of F_p^n at which all the given polynomials vanish, in
    lexicographic order.

    One loop runs on each branch: row-reduce the equations (which drops
    zero equations and scalar multiples); abandon the branch at a nonzero
    constant; eliminate one variable of each equation of total degree 1 by
    affine substitution.  When no linear equation is left, the branch
    splits over the p values of the variable that occurs in the most
    equations.  When no equation is left, the variables neither eliminated
    nor fixed run freely, and the eliminated ones are read back in reverse
    order of elimination.
    """
    solutions: list[Vector] = []

    def branch(eqs: list[Poly], fixed: list[tuple[int, Poly]]) -> None:
        while True:
            eqs = _echelon(eqs, p)
            if any(list(f) == [()] for f in eqs):
                return
            linear = [f for f in eqs if all(len(m) <= 1 for m in f)]
            if not linear:
                break
            eqs = [f for f in eqs if not all(len(m) <= 1 for m in f)]
            for f in linear:
                for v, expr in fixed:
                    f = poly_substitute(f, v, expr, p)
                if list(f) == [()]:
                    return
                if f:
                    v = min(m[0] for m in f if m)
                    inv = pow(f[(v,)], -1, p)
                    expr = {m: -c * inv % p for m, c in f.items() if m != (v,)}
                    fixed = fixed + [(v, expr)]
                    eqs = [poly_substitute(g, v, expr, p) for g in eqs]
        if eqs:
            counts: dict[int, int] = {}
            for f in eqs:
                for x in {x for m in f for x in m}:
                    counts[x] = counts.get(x, 0) + 1
            v = max(counts, key=lambda x: (counts[x], -x))
            for value in range(p):
                const = {(): value} if value else {}
                branch([poly_substitute(f, v, const, p) for f in eqs], fixed + [(v, const)])
            return
        done = {v for v, _ in fixed}
        free = [x for x in range(n) if x not in done]
        for point in itertools.product(range(p), repeat=len(free)):
            values = dict(zip(free, point))
            for v, expr in reversed(fixed):
                values[v] = _poly_value(expr, values, p)
            solutions.append(tuple(values[x] for x in range(n)))

    branch(list(equations), [])
    return sorted(solutions)
