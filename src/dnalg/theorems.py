"""Structure theory for validated truncated algebras.

Contents: a generator normalization putting the first reduced power into
partial-permutation form on indecomposables; a pure-power lifting check on
normalized presentations; surjectivity/vanishing/isomorphism sweeps for the
induced maps on indecomposables; a Frobenius-degree reduction that divides
all generator degrees by p; an upper bound for compatible higher
commutativity on products of odd spheres; and an exhaustive solver that
enumerates all Adem-consistent action tables for given generator degrees.

Everything here is a pure function with deterministic output order; the
exhaustive solver enumerates coefficient assignments lexicographically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fp import ChainRep, FpMatrix, chain_interval_form, check_odd_prime, solve
from .steenrod import SteenrodElement
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
    parts form an invertible change of generators; the new presentation has
    the same names and degrees, with the action conjugated through the
    substitution.
    """
    for i, img in enumerate(images):
        if img.degree() != 2 * a.half_degrees[i]:
            raise AlgebraError("substitution must preserve generator degrees")
    # When every image is its own generator, the substitution matrix is the
    # identity in every degree and coordinates pass through unsolved.
    identity = all(img == a.gen(i) for i, img in enumerate(images))
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
            coords = solve(mat, coords).solution
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


def _compose_images(
    a: AlgebraPresentation,
    first: list[AlgebraElement],
    second: list[AlgebraElement],
) -> list[AlgebraElement]:
    """Substitute ``first`` (elements of a) into each element of ``second``,
    read off by exponent vectors; composes two generator substitutions."""
    out = []
    for img in second:
        total = a.zero()
        for exps, c in img.terms.items():
            term = a.one().scale(c)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * first[i]
            total = total + term
        out.append(total)
    return out


def normalize_generators(a: AlgebraPresentation) -> NormalizedPresentation:
    """Choose generators so that P^1 of each is decomposable or exactly
    another generator, injectively.

    Step 1 runs the interval decomposition on the chains of induced maps on
    indecomposables (one chain per degree class modulo 2(p-1)), which makes
    every induced matrix a 0/1 partial permutation.  Step 2 absorbs the
    decomposable remainders by replacing each hit generator y_j with the
    full value P^1(y_i); processing degrees upward keeps the replacement
    triangular and cascades correctly.
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
    current = transport(a, images)
    total_images = images

    # Absorb decomposable remainders, lowest degrees first.
    order = sorted(range(a.l), key=lambda i: (a.half_degrees[i], i))
    for i in order:
        w = current.act_power(1, current.gen(i))
        if w.is_zero() or w.in_filtration(2):
            continue
        qt = indecomposables(current, w.degree())
        coords = qt.project(w)
        nonzero = [j for j, c in enumerate(coords) if c]
        assert len(nonzero) == 1 and coords[nonzero[0]] == 1
        j = qt.gen_indices[nonzero[0]]
        tail = w - current.gen(j)
        if tail.is_zero():
            continue
        step_images = [
            current.gen(t) if t != j else w for t in range(current.l)
        ]
        current = transport(current, step_images)
        total_images = _compose_images(a, total_images, step_images)

    ok, problems = p1_normal_form_ok(current)
    if not ok:
        raise AlgebraError("normalization failed: " + "; ".join(problems))
    targets: dict[int, int] = {}
    for i in range(current.l):
        w = current.act_power(1, current.gen(i))
        if not w.is_zero() and not w.in_filtration(2):
            targets[i] = w.monomials()[0][0].index(1)
    return NormalizedPresentation(current, tuple(total_images), targets)


# ---------------------------------------------------------------------------
# pure-power lifting check on a normalized presentation


@dataclass(frozen=True)
class PropAResult:
    ok: bool
    failures: tuple[tuple[int, int, int], ...]  # (i, j, t): P^1 y_i contains y_j^t
    checked: int


def check_prop_a(norm: NormalizedPresentation | AlgebraPresentation, n: int) -> PropAResult:
    """Whenever P^1(y_i) contains a pure power y_j^t with 1 <= t <= n, some
    generator must hit y_j exactly under P^1."""
    a = norm.presentation if isinstance(norm, NormalizedPresentation) else norm
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
        return {
            "family": self.family,
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "t": self.t,
            "source_degree": self.source_degree,
            "target_degree": self.target_degree,
            "dim_source": self.dim_source,
            "dim_target": self.dim_target,
            "rank": self.rank,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class RangeCheckResult:
    surjectivity: tuple[RangeVerdict, ...]   # family "A1"
    vanishing: tuple[RangeVerdict, ...]      # family "A2"
    isomorphism: tuple[RangeVerdict, ...]    # family "A3"

    @property
    def ok(self) -> bool:
        return all(
            v.ok for v in self.surjectivity + self.vanishing + self.isomorphism
        )

    def failures(self) -> list[RangeVerdict]:
        return [
            v
            for v in self.surjectivity + self.vanishing + self.isomorphism
            if not v.ok
        ]

    def by_key(self) -> dict:
        return {
            v.key(): v.ok
            for v in self.surjectivity + self.vanishing + self.isomorphism
        }


def _q_rank(a: AlgebraPresentation, s: int, e: int) -> tuple[int, int, int]:
    """(dim source, dim target, rank) of P^s on indecomposables from degree e."""
    ds = a.degrees.count(e)
    dt = a.degrees.count(e + 2 * s * (a.p - 1))
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
# exhaustive action solver


class DeriveBoundExceeded(RuntimeError):
    def __init__(self, unknowns: int, bound: int):
        super().__init__(
            f"{unknowns} free action coefficients exceed the configured "
            f"bound {bound}; raise max_unknowns to search this model"
        )
        self.unknowns = unknowns
        self.bound = bound


def derive_actions(
    p: int, half_degrees: list[int], max_unknowns: int = 12
) -> list[AlgebraPresentation]:
    """All Adem-consistent action tables on T^{[p+1]} generators of the given
    half-degrees.

    Depth-first search over the free coefficients, with blocks ordered by
    the power index k so that a relation P^a P^b fires (and prunes) as soon
    as every entry with k <= a+b is assigned; the forced top entries
    P^{m_i} y_i = y_i^p are available from the start.  Output is ordered
    lexicographically in the coefficient vectors.
    """
    check_odd_prime(p)
    ms = sorted(half_degrees)
    names = [f"y{2 * m}" for m in ms]
    if len(set(names)) != len(names):
        names = [f"y{2 * m}_{i}" for i, m in enumerate(ms)]
    probe = AlgebraPresentation(p, list(zip(names, ms)))

    # One block of unknowns per (generator, k) entry below the forced top,
    # in k-major order.
    blocks: list[tuple[str, int, list[Exponents]]] = []
    total_unknowns = 0
    for k in range(1, max(ms) if ms else 1):
        for i, m in enumerate(ms):
            if k < m:
                d = 2 * m + 2 * k * (p - 1)
                basis = probe.basis_of_degree(d)
                blocks.append((names[i], k, basis))
                total_unknowns += len(basis)
    if total_unknowns > max_unknowns:
        raise DeriveBoundExceeded(total_unknowns, max_unknowns)

    degrees = tuple(probe.nonzero_degrees())
    instances = [
        (ae, be, exps)
        for ae, be, d in adem_instances(p, degrees, probe.top_degree)
        for exps in probe.basis_of_degree(d)
    ]
    # Monomials on which the derived identity (P^1)^p = 0 can be tested as
    # soon as every P^1 entry is known; it prunes long before the pairwise
    # relations that imply it become fully determined.
    p1_test_monos = [
        exps
        for d in degrees
        if d + 2 * p * (p - 1) <= probe.top_degree
        for exps in probe.basis_of_degree(d)
    ]

    def fire_level(idx: int) -> int:
        """Entries available after assigning blocks[:idx]: all k up to this."""
        if idx == len(blocks):
            return max(2 * sum(ms), 1) * p  # everything is known at a leaf
        return blocks[idx][1] - 1

    solutions: list[AlgebraPresentation] = []

    def build(assigned: dict) -> AlgebraPresentation:
        action = {
            (name, k): {e: c for e, c in zip(basis, assigned[(name, k)]) if c}
            for (name, k, basis) in blocks
            if (name, k) in assigned
        }
        return AlgebraPresentation(p, list(zip(names, ms)), action)

    def dfs(idx: int, assigned: dict, prev_level: int, parent):
        level = fire_level(idx)
        if level > prev_level:
            candidate = build(assigned)
            if parent is not None:
                # The parent's table agrees with this one on every entry with
                # power index <= prev_level, and P^k reads no entry above k:
                # its P^k memo is valid here for k <= prev_level, no higher.
                candidate._inherit_powers(parent, prev_level)
            if prev_level < 1 <= level:
                for exps in p1_test_monos:
                    terms = {exps: 1}
                    for _ in range(p):
                        terms = candidate._act_power_terms(1, terms)
                        if not terms:
                            break
                    if terms:
                        return
            for ae, be, exps in instances:
                if prev_level < ae + be <= level:
                    if not adem_instance_holds(candidate, ae, be, exps):
                        return
            prev_level, parent = level, candidate
        if idx == len(blocks):
            # every instance has fired along the path, so the table is valid;
            # the leaf's candidate, just built from ``assigned``, is the table
            solutions.append(parent)
            return
        name, k, basis = blocks[idx]
        for coeffs in itertools.product(range(p), repeat=len(basis)):
            assigned[(name, k)] = coeffs
            dfs(idx + 1, assigned, prev_level, parent)
        del assigned[(name, k)]

    dfs(0, {}, 0, None)
    return solutions
