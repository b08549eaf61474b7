"""Structure theory for validated truncated algebras.

Contents: a generator normalization putting the first reduced power into
partial-permutation form on indecomposables; a pure-power lifting check on
normalized presentations; surjectivity/vanishing/isomorphism sweeps for the
induced maps on indecomposables; a Frobenius-degree reduction that divides
all generator degrees by p; an upper bound for compatible higher
commutativity on products of odd spheres; and a solver that finds all
Adem-consistent action tables for given generator degrees.

Everything here is a pure function with deterministic output order; the
solver returns the tables in lexicographic order of their coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .fp import (
    ChainRep,
    FpMatrix,
    Poly,
    chain_interval_form,
    check_odd_prime,
    poly_mul_into,
    poly_reduce,
    solve,
    solve_polynomial_system,
)
from .steenrod import SteenrodElement, adem_relation
from .truncated import (
    AlgebraElement,
    AlgebraError,
    AlgebraPresentation,
    Exponents,
    adem_instance_holds,
    adem_instances,
    indecomposables,
    induced_q_map,
)


# ---------------------------------------------------------------------------
# presentation isomorphisms by generator substitution


def substitution_matrix(a: AlgebraPresentation, images: list[AlgebraElement], d: int) -> FpMatrix:
    """Matrix, on the degree-d monomial basis, of the algebra map sending
    generator i to images[i]."""
    basis = a.basis_of_degree(d)
    cols = []
    for exps in basis:
        img = a.one()
        for i, e in enumerate(exps):
            for _ in range(e):
                img = img * images[i]
        cols.append(a.coords(img, d))
    rows = [[cols[c][r] for c in range(len(basis))] for r in range(len(basis))]
    return FpMatrix.from_rows(a.p, rows, len(basis))


def transport(
    a: AlgebraPresentation, images: list[AlgebraElement]
) -> AlgebraPresentation:
    """Re-coordinatize a presentation along generator images.

    ``images[i]`` must be a degree-preserving element of ``a`` whose linear
    parts form an invertible change of generators, else ``AlgebraError`` is
    raised; the new presentation has the same names and degrees, with the
    action conjugated through the substitution.
    """
    for i, img in enumerate(images):
        if img.degree() != 2 * a.half_degrees[i]:
            raise AlgebraError("substitution must preserve generator degrees")
    # When every image is its own generator, the substitution matrix is the
    # identity in every degree and coordinates pass through unsolved.
    identity = all(img == a.gen(i) for i, img in enumerate(images))
    if not identity:
        # The linear part must be invertible: in each generator degree, the
        # images' coefficients on that degree's generators have full rank.
        units = [tuple(int(j == i) for j in range(a.l)) for i in range(a.l)]
        for m in set(a.half_degrees):
            gens = [i for i, h in enumerate(a.half_degrees) if h == m]
            rows = [[images[i].coefficient(units[j]) for j in gens] for i in gens]
            if FpMatrix.from_rows(a.p, rows).rank() < len(gens):
                raise AlgebraError("substitution is not invertible")
    inverses: dict[int, FpMatrix] = {}

    def backward(x: AlgebraElement, d: int) -> dict[Exponents, int]:
        if x.is_zero():
            return {}
        coords = a.coords(x, d)
        if not identity:
            mat = inverses.get(d)
            if mat is None:
                mat = substitution_matrix(a, images, d)
                inverses[d] = mat
            coords = solve(mat, coords)
            if coords is None:
                raise AlgebraError("substitution is not invertible")
        return {e: c for e, c in zip(a.basis_of_degree(d), coords) if c}

    action = {}
    for i, m in enumerate(a.half_degrees):
        for k in range(1, m + 1):
            value = a.act_power(k, images[i])
            d = 2 * m + 2 * k * (a.p - 1)
            action[(a.names[i], k)] = backward(value, d)
    return AlgebraPresentation(a.p, list(zip(a.names, a.half_degrees)), action)


# ---------------------------------------------------------------------------
# generator normalization


@dataclass(frozen=True)
class NormalizedPresentation:
    """A normalized presentation plus the change-of-generators record."""

    presentation: AlgebraPresentation
    images: tuple[AlgebraElement, ...]  # new generators inside the original algebra
    p1_targets: dict[int, int]          # i -> j whenever P^1 y_i = y_j exactly

    @property
    def p(self) -> int:
        return self.presentation.p


def p1_normal_form_ok(a: AlgebraPresentation) -> tuple[bool, list[str]]:
    """The normalization predicate, checked independently of how the
    presentation was produced: P^1 of each generator is either decomposable
    or exactly another generator, injectively."""
    problems = []
    targets: dict[int, int] = {}
    for i in range(a.l):
        w = a.act_power(1, a.gen(i))
        if w.in_filtration(2):
            continue
        monos = w.monomials()
        if len(monos) == 1 and sum(monos[0][0]) == 1 and monos[0][1] == 1:
            targets[i] = monos[0][0].index(1)
        else:
            problems.append(f"P^1 {a.names[i]} is neither decomposable nor a generator")
    hit: dict[int, int] = {}
    for i, j in targets.items():
        if j in hit:
            problems.append(
                f"P^1 sends both {a.names[hit[j]]} and {a.names[i]} to {a.names[j]}"
            )
        else:
            hit[j] = i
    return (not problems, problems)


def normalize_generators(a: AlgebraPresentation) -> NormalizedPresentation:
    """Choose generators so that P^1 of each is decomposable or exactly
    another generator, injectively.

    Step 1 runs the interval decomposition on the chains of induced maps on
    indecomposables (one chain per degree class modulo 2(p-1)), which makes
    every induced matrix a 0/1 partial permutation.  Step 2 absorbs the
    decomposable remainders.  Every new generator is an element of ``a``:
    going up in degree, the image of a generator y_j hit by y_i becomes P^1
    of the image of y_i (by naturality, P^1 of the new y_i), so the
    replacements cascade.  The presentation is ``transport(a, images)``,
    one substitution at the end.
    """
    p = a.p
    step = 2 * (p - 1)
    p1 = SteenrodElement.power(p, 1)
    gen_degrees = sorted(set(a.degrees))
    # One chain per residue class mod 2(p-1) that meets generator degrees;
    # the first reduced power moves along such a chain.
    classes: dict[int, list[int]] = {}
    for d in gen_degrees:
        classes.setdefault(d % step, []).append(d)
    new_basis: dict[int, FpMatrix] = {}
    for res, degs in classes.items():
        lo, hi = min(degs), max(degs)
        nodes = list(range(lo, hi + 1, step))
        dims = tuple(indecomposables(a, d).dim for d in nodes)
        maps = tuple(
            induced_q_map(a, p1, nodes[i]) for i in range(len(nodes) - 1)
        )
        form = chain_interval_form(ChainRep(p, dims, maps))
        for d, basis in zip(nodes, form.bases):
            if basis.rows:
                new_basis[d] = basis

    images: list[AlgebraElement] = []
    for i in range(a.l):
        d = 2 * a.half_degrees[i]
        q = indecomposables(a, d)
        row = new_basis[d].row(q.gen_indices.index(i))
        images.append(q.lift(row))

    # Absorb decomposable remainders, lowest degrees first (generators are
    # listed by ascending half-degree, so images[i] is final when reached).
    targets: dict[int, int] = {}
    for i in range(a.l):
        w = a.act_power(1, images[i])
        if w.in_filtration(2):  # zero or decomposable
            continue
        # Step 1 makes the class of w exactly one new basis row.
        q = indecomposables(a, w.degree())
        j = q.gen_indices[new_basis[q.degree].entries.index(q.project(w))]
        targets[i] = j
        images[j] = w
    normal = transport(a, images)

    ok, problems = p1_normal_form_ok(normal)
    if not ok:
        raise AlgebraError("normalization failed: " + "; ".join(problems))
    return NormalizedPresentation(normal, tuple(images), targets)


# ---------------------------------------------------------------------------
# pure-power lifting check on a normalized presentation


@dataclass(frozen=True)
class PropAResult:
    ok: bool
    failures: tuple[tuple[int, int, int], ...]  # (i, j, t): P^1 y_i contains y_j^t
    checked: int


def check_prop_a(norm: NormalizedPresentation | AlgebraPresentation, n: int) -> PropAResult:
    """Whenever P^1(y_i) contains a pure power y_j^t with 1 <= t <= n, some
    generator must hit y_j exactly under P^1.  The order n must lie in 1..p."""
    a = norm.presentation if isinstance(norm, NormalizedPresentation) else norm
    if not 1 <= n <= a.p:
        raise AlgebraError("order must satisfy 1 <= n <= p")
    ok_targets = set()
    for k in range(a.l):
        w = a.act_power(1, a.gen(k))
        monos = w.monomials()
        if len(monos) == 1 and sum(monos[0][0]) == 1 and monos[0][1] == 1:
            ok_targets.add(monos[0][0].index(1))
    failures = []
    checked = 0
    for i in range(a.l):
        w = a.act_power(1, a.gen(i))
        for exps, c in w.monomials():
            support = [j for j, e in enumerate(exps) if e]
            if len(support) != 1:
                continue
            j = support[0]
            t = exps[j]
            if 1 <= t <= n:
                checked += 1
                if j not in ok_targets:
                    failures.append((i, j, t))
    return PropAResult(not failures, tuple(failures), checked)


# ---------------------------------------------------------------------------
# induced-map range checks on indecomposables


@dataclass(frozen=True)
class RangeVerdict:
    family: str
    a: int
    b: int | None
    c: int
    t: int
    source_degree: int
    target_degree: int
    dim_source: int
    dim_target: int
    rank: int
    ok: bool

    def key(self):
        return (self.family, self.a, self.b, self.c, self.t)

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields, in declaration order


@dataclass(frozen=True)
class RangeCheckResult:
    surjectivity: tuple[RangeVerdict, ...]   # family "A1"
    vanishing: tuple[RangeVerdict, ...]      # family "A2"
    isomorphism: tuple[RangeVerdict, ...]    # family "A3"

    @property
    def verdicts(self) -> tuple[RangeVerdict, ...]:
        return self.surjectivity + self.vanishing + self.isomorphism

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def failures(self) -> list[RangeVerdict]:
        return [v for v in self.verdicts if not v.ok]

    def by_key(self) -> dict:
        return {v.key(): v.ok for v in self.verdicts}


def _q_rank(a: AlgebraPresentation, s: int, e: int) -> tuple[int, int, int]:
    """(dim source, dim target, rank) of P^s on indecomposables from degree e."""
    ds = a.half_degrees.count(e // 2)  # e is even: dim Q^e counts generators
    dt = a.half_degrees.count(e // 2 + s * (a.p - 1))
    if not ds or not dt:
        return ds, dt, 0
    return ds, dt, induced_q_map(a, SteenrodElement.power(a.p, s), e).rank()


def check_thm_a(a: AlgebraPresentation) -> RangeCheckResult:
    """Sweep the three index families over the whole degree range.

    Surjectivity: Q^{2p^a(pb+c)} is covered by P^{p^a t} from below for
    1 <= t <= min(b, p-c).  Vanishing: P^{p^a t} kills Q^{2p^a(pb+c)} for
    c <= t < p.  Isomorphism: P^{p^a t} maps Q^{2p^a c} isomorphically for
    1 <= t < c.
    """
    p = a.p
    top = a.top_degree
    surject, vanish, iso = [], [], []
    pa = 1
    aa = 0
    while 4 * pa <= top:
        for c in range(1, p):
            # isomorphism family
            if 2 * pa * c <= top:
                for t in range(1, c):
                    src = 2 * pa * c
                    tgt = 2 * pa * (t * p + c - t)
                    ds, dt, r = _q_rank(a, pa * t, src)
                    iso.append(
                        RangeVerdict(
                            "A3", aa, None, c, t, src, tgt, ds, dt, r,
                            ok=(r == ds == dt),
                        )
                    )
            b = 1
            while 2 * pa * (p * b + c) <= top:
                tgt = 2 * pa * (p * b + c)
                for t in range(1, min(b, p - c) + 1):
                    src = 2 * pa * (p * (b - t) + c + t)
                    ds, dt, r = _q_rank(a, pa * t, src)
                    surject.append(
                        RangeVerdict(
                            "A1", aa, b, c, t, src, tgt, ds, dt, r,
                            ok=(r == dt),
                        )
                    )
                for t in range(c, p):
                    src = tgt
                    tgt2 = 2 * pa * (p * (b + t) + c - t)
                    ds, dt, r = _q_rank(a, pa * t, src)
                    vanish.append(
                        RangeVerdict(
                            "A2", aa, b, c, t, src, tgt2, ds, dt, r,
                            ok=(r == 0),
                        )
                    )
                b += 1
        pa *= p
        aa += 1
    return RangeCheckResult(tuple(surject), tuple(vanish), tuple(iso))


# ---------------------------------------------------------------------------
# Frobenius-degree reduction


class IdealNotClosed(AlgebraError):
    def __init__(self, name: str, k: int, value: AlgebraElement):
        super().__init__(
            f"the ideal of generators with half-degree prime to p is not "
            f"action-closed: P^{k} {name} has a term outside it"
        )
        self.generator = name
        self.k = k
        self.value = value


@dataclass(frozen=True)
class ReducedAlgebra:
    presentation: AlgebraPresentation  # generators z_d with half-degree h_d
    kept: tuple[int, ...]              # indices into the original generators
    h: tuple[int, ...]


def reduce_frobenius(a: AlgebraPresentation) -> ReducedAlgebra:
    """Quotient by the ideal of generators with half-degree prime to p and
    divide the surviving degrees by p, transporting P^{pr} to P^r.

    Closure of the ideal under the action is re-checked, not assumed; a
    violation is reported with the offending generator and power.
    """
    p = a.p
    kept = tuple(i for i, m in enumerate(a.half_degrees) if m % p == 0)
    dropped = set(range(a.l)) - set(kept)

    def in_ideal(exps: Exponents) -> bool:
        return any(exps[i] for i in dropped)

    for i in sorted(dropped):
        for k in range(1, a.half_degrees[i] + 1):
            entry = a.action_entry(i, k)
            bad = a.element({e: c for e, c in entry.terms.items() if not in_ideal(e)})
            if not bad.is_zero():
                raise IdealNotClosed(a.names[i], k, bad)

    h = tuple(a.half_degrees[i] // p for i in kept)
    names = tuple(a.names[i] for i in kept)
    position = {i: d for d, i in enumerate(kept)}

    def push(x: AlgebraElement) -> dict[Exponents, int]:
        out: dict[Exponents, int] = {}
        for exps, c in x.terms.items():
            if in_ideal(exps):
                continue
            zexps = tuple(exps[i] for i in kept)
            out[zexps] = (out.get(zexps, 0) + c) % p
        return out

    action = {}
    for d, i in enumerate(kept):
        for r in range(1, h[d] + 1):
            action[(names[d], r)] = push(a.action_entry(i, p * r))
    reduced = AlgebraPresentation(p, list(zip(names, h)), action)
    return ReducedAlgebra(reduced, kept, h)


# ---------------------------------------------------------------------------
# compatible-commutativity bound for products of odd spheres


def thmc_bound(p: int, sphere_dims: list[int]) -> int:
    """Largest n with n * m_l <= p, where the largest sphere is S^{2m_l - 1}.

    Returns 0 when even n = 1 fails.  For m_l = 1 the literal criterion
    reads n <= p; see the CLI report caveat.
    """
    check_odd_prime(p)
    if not sphere_dims:
        raise ValueError("need at least one sphere dimension")
    for dim in sphere_dims:
        if dim < 1 or dim % 2 == 0:
            raise ValueError(f"sphere dimensions must be odd and positive, got {dim}")
    m_l = (max(sphere_dims) + 1) // 2
    return p // m_l


# ---------------------------------------------------------------------------
# action-table solver


class DeriveBoundExceeded(RuntimeError):
    def __init__(self, unknowns: int, bound: int):
        super().__init__(
            f"{unknowns} free action coefficients exceed the configured "
            f"bound {bound}; raise max_unknowns to search this model"
        )
        self.unknowns = unknowns
        self.bound = bound


def _adem_equations(a: AlgebraPresentation, blocks, instances) -> list[Poly]:
    """The coefficients of LHS - RHS of every instance (P^a, P^b, monomial),
    as polynomials over F_p in the free entries of ``blocks``: variable v is
    the v-th basis coefficient, counting through the blocks in order."""
    p, one = a.p, {(): 1}
    # (generator, power index) -> {monomial: coefficient polynomial}
    entries: dict[tuple[int, int], dict[Exponents, Poly]] = {}
    for i, m in enumerate(a.half_degrees):
        unit = tuple(int(j == i) for j in range(a.l))
        entries[(i, 0)] = {unit: one}
        entries[(i, m)] = {tuple(p * e for e in unit): one}
    v = 0
    for i, k, basis in blocks:
        entries[(i, k)] = {e: {(v + n,): 1} for n, e in enumerate(basis)}
        v += len(basis)
    memo: dict[tuple[int, Exponents], dict[Exponents, Poly]] = {}

    def power(k: int, exps: Exponents) -> dict[Exponents, Poly]:
        """P^k on one monomial, by the recursion of ``_act_power_raw``."""
        if (k, exps) not in memo:
            i = max((j for j, e in enumerate(exps) if e), default=-1)
            acc: dict[Exponents, dict] = {}
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

    equations = []
    for ae, be, exps in instances:
        diff: dict[Exponents, dict] = {}
        words = [((ae, be), 1)] + [
            ((s, t) if t else (s,), -c) for c, s, t in adem_relation(p, ae, be)
        ]
        for pows, c in words:
            terms = {exps: {(): c}}
            for k in reversed(pows):
                acc: dict[Exponents, dict] = {}
                for x, f in terms.items():
                    for e, g in power(k, x).items():
                        poly_mul_into(acc.setdefault(e, {}), f, g, p)
                terms = {e: f for e, g in acc.items() if (f := poly_reduce(g, p))}
            for e, f in terms.items():
                poly_mul_into(diff.setdefault(e, {}), one, f, p)
        equations.extend(poly_reduce(f, p) for f in diff.values())
    return equations


def derive_actions(
    p: int, half_degrees: list[int], max_unknowns: int = 12
) -> list[AlgebraPresentation]:
    """All Adem-consistent action tables on T^{[p+1]} generators of the given
    half-degrees, in lexicographic order of their coefficient vectors.

    Each coefficient of P^k y_i (1 <= k < m_i) on the degree basis is one
    variable, numbered k-major, then by generator, then in basis order
    (P^{m_i} y_i = y_i^p is forced).  Each coefficient of P^a P^b minus its
    normal form, on each basis monomial, is one polynomial equation over
    F_p; ``solve_polynomial_system`` eliminates what is linear and branches
    on what stays nonlinear.  ``max_unknowns`` bounds the variable count
    before any elimination.  With no variable, the one forced table is
    checked numerically."""
    check_odd_prime(p)
    if max_unknowns < 0:
        raise ValueError(f"max_unknowns must be >= 0, got {max_unknowns}")
    ms = sorted(half_degrees)
    names = [f"y{2 * m}" for m in ms]
    if len(set(names)) != len(names):
        names = [f"y{2 * m}_{i}" for i, m in enumerate(ms)]
    gens = list(zip(names, ms))
    probe = AlgebraPresentation(p, gens)

    # One block of unknowns per entry P^k y_i below the forced top, k-major.
    blocks = [
        (i, k, probe.basis_of_degree(2 * m + 2 * k * (p - 1)))
        for k in range(1, max(ms, default=1))
        for i, m in enumerate(ms)
        if k < m
    ]
    total_unknowns = sum(len(basis) for _, _, basis in blocks)
    if total_unknowns > max_unknowns:
        raise DeriveBoundExceeded(total_unknowns, max_unknowns)

    instances = [
        (ae, be, exps)
        for ae, be, d in adem_instances(p, tuple(probe.nonzero_degrees()), probe.top_degree)
        for exps in probe.basis_of_degree(d)
    ]

    def table(vector) -> AlgebraPresentation:
        coeffs = iter(vector)
        return AlgebraPresentation(p, gens, {
            (names[i], k): {e: c for e, c in zip(basis, coeffs) if c}
            for i, k, basis in blocks
        })

    if not total_unknowns:
        forced = table(())
        return [forced] if all(adem_instance_holds(forced, *t) for t in instances) else []
    equations = _adem_equations(probe, blocks, instances)
    return [table(v) for v in solve_polynomial_system(p, total_unknowns, equations)]
