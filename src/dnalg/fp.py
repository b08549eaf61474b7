"""Exact linear algebra and polynomial systems over odd prime fields.

Matrices are immutable grids of reduced integer residues.  Subspaces are
kept in reduced row echelon form, so two equal subspaces are structurally
identical and compare equal.  Chains of maps between coordinate spaces can
be decomposed into interval form, in which every map is a 0/1 partial
permutation matrix and all composite ranks are preserved.  Sparse
polynomials over F_p, read as functions on F_p^n, back a solver that
lists every common zero of a system of polynomial equations.

``Record`` is the one equality idiom of dnalg's value classes: a subclass
defines ``_key()``, and compares and hashes by it.

Everything here is a pure function over immutable values, except that
``poly_mul_into`` adds into the dict it is given; concurrent use needs no
locking.
"""

from __future__ import annotations

import itertools
from operator import eq


class Record:
    """Compares and hashes by ``_key()``; values of different classes are
    never equal."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


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


class FpMatrix(Record):
    """Dense matrix over F_p, stored as a tuple of row tuples."""

    def __init__(self, modulus: int, entries: tuple[Vector, ...], cols: int):
        self.modulus = modulus
        self.entries = entries
        self.cols = cols

    def _key(self):
        return self.modulus, self.entries, self.cols

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


class Subspace(Record):
    """A subspace of F_p^n in canonical (reduced echelon) form.

    Equal subspaces have identical basis tuples, so ``==`` decides equality
    of subspaces.
    """

    def __init__(self, modulus: int, ambient_dim: int, basis: tuple[Vector, ...]):
        self.modulus = modulus
        self.ambient_dim = ambient_dim
        self.basis = basis

    def _key(self):
        return self.modulus, self.ambient_dim, self.basis

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

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_vectors(
            self.modulus, self.ambient_dim, self.basis + other.basis
        )

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


class ChainRep:
    """A chain of linear maps F^{d_0} -> F^{d_1} -> ... -> F^{d_k}."""

    def __init__(self, modulus: int, dims: tuple[int, ...], maps: tuple[FpMatrix, ...]):
        check_odd_prime(modulus)
        if len(maps) != len(dims) - 1:
            raise ValueError("need one map per consecutive pair of spaces")
        for i, f in enumerate(maps):
            if f.modulus != modulus:
                raise ValueError("modulus mismatch in chain")
            if f.cols != dims[i] or f.rows != dims[i + 1]:
                raise ValueError(
                    f"map {i} has shape {f.rows}x{f.cols}, expected "
                    f"{dims[i + 1]}x{dims[i]}"
                )
        self.modulus = modulus
        self.dims = dims
        self.maps = maps


class IntervalForm:
    """Result of interval decomposition of a chain representation.

    ``bases[i]`` holds the new basis of node i as rows in the original
    coordinates; ``maps[i]`` is the matrix of the i-th chain map in the new
    bases (always a 0/1 partial permutation).  ``intervals`` lists the
    (birth, death) node range of each basis thread.
    """

    def __init__(
        self,
        bases: tuple[FpMatrix, ...],
        maps: tuple[FpMatrix, ...],
        intervals: tuple[tuple[int, int], ...],
    ):
        self.bases = bases
        self.maps = maps
        self.intervals = intervals


def chain_interval_form(chain: ChainRep) -> IntervalForm:
    """Choose compatible bases making every chain map a partial permutation.

    Each basis thread is a string of images: a list ``[birth, v_birth, ...,
    v_death, death]`` in which the chain map sends each vector to the next
    one and the last vector to zero.  The sweep goes left to right and
    clears, node by node, the images of the live threads and then the unit
    vectors against the pivots found so far; a unit vector that survives
    starts a new thread.  Clearing an image against an older thread's vector
    subtracts the same multiple of the older string from the younger one
    over the younger one's whole life, so both stay strings of images; an
    image that clears to zero ends its thread.  Composite ranks are
    untouched because each node only undergoes an invertible change of
    basis.
    """
    p = chain.modulus
    k = len(chain.dims) - 1
    threads: list[list] = []  # every thread, in order of birth
    active: list[list] = []
    for node, dim in enumerate(chain.dims):
        images = [chain.maps[node - 1].matvec(th[-1]) for th in active]
        units = [[1 if i == r else 0 for i in range(dim)] for r in range(dim)]
        pivots: list[tuple[int, list[int], list]] = []
        survivors = []
        for th, u in zip(active + [[node] for _ in units], images + units):
            for col, w, older in pivots:
                c = u[col]
                if c:
                    u = [(a - c * b) % p for a, b in zip(u, w)]
                    th[1:] = [
                        [(a - c * b) % p for a, b in zip(v, x)]
                        for v, x in zip(th[1:], older[1 + th[0] - older[0]:])
                    ]
            lead = next((i for i, x in enumerate(u) if x), None)
            if lead is None:
                if len(th) > 1:  # a live thread dies; a dependent unit is dropped
                    th.append(node - 1)
                continue
            inv = pow(u[lead], -1, p)
            th[1:] = [[x * inv % p for x in v] for v in th[1:] + [u]]
            if len(th) == 2:  # born at this node
                threads.append(th)
            pivots.append((lead, th[-1], th))
            survivors.append(th)
        active = survivors
    for th in active:
        th.append(k)

    alive_at = [
        [t for t, th in enumerate(threads) if th[0] <= i <= th[-1]] for i in range(k + 1)
    ]
    for i, alive in enumerate(alive_at):
        assert len(alive) == chain.dims[i]
    bases = tuple(
        FpMatrix.from_rows(p, [threads[t][1 + i - threads[t][0]] for t in alive], chain.dims[i])
        for i, alive in enumerate(alive_at)
    )
    new_maps = []
    for i in range(k):
        row_of = {t: r for r, t in enumerate(alive_at[i + 1])}
        mat = [[0] * chain.dims[i] for _ in range(chain.dims[i + 1])]
        for c, t in enumerate(alive_at[i]):
            if t in row_of:
                mat[row_of[t]][c] = 1
        new_maps.append(FpMatrix.from_rows(p, mat, chain.dims[i]))
    intervals = tuple((th[0], th[-1]) for th in threads)
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


def _primitive_root(p: int) -> int:
    order = p - 1
    divisors = [q for q in range(2, p) if order % q == 0]
    return next(g for g in range(2, p) if all(pow(g, order // q, p) != 1 for q in divisors))


def _split_torus(group: list[Vector], v: int, order: int):
    """Split a subgroup G of the torus at the character chi_v of variable v.

    G is given by generators, each the tuple of the exponents (mod ``order``
    = p - 1) of a primitive root that the characters of the variables take
    on it.  Euclid's algorithm on the v-th exponents, applied to whole
    generators, keeps G and leaves at most one generator h with a nonzero
    v-th exponent e, so chi_v(G) is generated by chi_v(h).  Returns the
    index d = gcd(e, order) of chi_v(G) in F_p^*, h, and generators of
    G ∩ ker chi_v: the other nonzero generators and (order / d) * h unless
    it is zero.  When chi_v is trivial on G, that is (order, None, G).
    """
    pivot, rest = None, []
    for h in group:
        if h[v] and pivot is not None:
            while h[v]:
                q = pivot[v] // h[v]
                pivot, h = h, tuple((a - q * b) % order for a, b in zip(pivot, h))
        if h[v]:
            pivot = h
        elif any(h):
            rest.append(h)
    if pivot is None:
        return order, None, group
    d, e = order, pivot[v]
    while e:
        d, e = e, d % e
    power = tuple(order // d * a % order for a in pivot)
    return d, pivot, rest + [power] if any(power) else rest


def solve_polynomial_system(p: int, n: int, equations, grading=None) -> list[Vector]:
    """Every point of F_p^n at which all the given polynomials vanish, in
    lexicographic order.

    One loop runs on each branch: row-reduce the equations (which drops
    zero equations and scalar multiples); abandon the branch at a nonzero
    constant; eliminate one variable of each equation of total degree 1 by
    affine substitution.  When no linear equation is left, the branch
    splits over the p values of the variable that occurs in the most
    equations, among those whose character (below) is nontrivial on the
    branch's subgroup G when there are any.  When no equation is left, the
    variables neither eliminated nor fixed run freely, and the eliminated
    ones are read back in reverse order of elimination.

    ``grading``, when given, holds one Z^l degree w_v per variable, and the
    caller guarantees that every equation is homogeneous for it modulo
    p - 1: the degrees sum_{x in m} w_x of its monomials m agree modulo
    p - 1 (the constant monomial has degree 0).  Then the torus (F_p^*)^l,
    acting by x_v -> chi_v(c) x_v with chi_v(c) = prod_j c_j^{w_vj}, maps
    solutions to solutions, and the solver branches once per orbit: at a
    branch on v fixed by the subgroup G of the torus, it tries 0 (keeping G)
    and one value c per coset of chi_v(G) in F_p^* (passing on
    G ∩ ker chi_v).  An element h of G with chi_v(G) generated by chi_v(h)
    maps the solutions with x_v = c onto those with x_v = chi_v(h)^k c, so
    the solutions found under c, mapped by h, h^2, ..., list every other
    value of its coset, each solution once.  The result is the full sorted
    list either way; a grading for which some equation is not homogeneous
    gives a wrong one.
    """
    if grading is not None and len(grading) != n:
        raise ValueError(f"grading has {len(grading)} degrees for {n} variables")
    order = p - 1
    root = None  # a primitive root of p, found at the first branch it serves
    solutions: list[Vector] = []

    def branch(eqs: list[Poly], fixed: list[tuple[int, Poly]], group: list | None) -> None:
        nonlocal root
        while True:
            eqs = _echelon(eqs, p)
            if any(list(f) == [()] for f in eqs):
                return
            linear = [f for f in eqs if all(len(m) <= 1 for m in f)]
            if not linear:
                break
            eqs = [f for f in eqs if not all(len(m) <= 1 for m in f)]
            # Every fixed variable is substituted out of eqs when it is
            # fixed, so a linear row holds only those fixed in this batch.
            start = len(fixed)
            for f in linear:
                for v, expr in fixed[start:]:
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
            if group is None:  # the whole torus, one generator per grading direction
                columns = (tuple(x % order for x in c) for c in zip(*grading or ()))
                group = [c for c in columns if any(c)]
            # A variable that G moves splits the branch into cosets.
            v = max(counts, key=lambda x: (any(h[x] for h in group), counts[x], -x))
            branch([poly_substitute(f, v, {}, p) for f in eqs], fixed + [(v, {})], group)
            d, h, kernel = _split_torus(group, v, order)
            nonzero = range(1, p)
            if h:
                root = root or _primitive_root(p)
                nonzero = [pow(root, s, p) for s in range(d)]
                step = [pow(root, e, p) for e in h]
            for value in nonzero:
                const = {(): value}
                first = len(solutions)
                branch([poly_substitute(f, v, const, p) for f in eqs], fixed + [(v, const)], kernel)
                if h:  # h, h^2, ... map them onto the rest of the coset of value
                    found = solutions[first:]
                    for _ in range(order // d - 1):
                        found = [tuple(a * b % p for a, b in zip(x, step)) for x in found]
                        solutions.extend(found)
            return
        done = {v for v, _ in fixed}
        free = [x for x in range(n) if x not in done]
        for point in itertools.product(range(p), repeat=len(free)):
            values = dict(zip(free, point))
            for v, expr in reversed(fixed):
                values[v] = _poly_value(expr, values, p)
            solutions.append(tuple(values[x] for x in range(n)))

    branch(list(equations), [], None)
    return sorted(solutions)
