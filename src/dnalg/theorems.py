"""Structure theory for validated truncated algebras.

Contents: a generator normalization putting the first reduced power into
partial-permutation form on indecomposables; a pure-power lifting check on
normalized presentations; surjectivity/vanishing/isomorphism sweeps for the
induced maps on indecomposables; a Frobenius-degree reduction that divides
all generator degrees by p; an upper bound for compatible higher
commutativity on products of odd spheres; and a solver that finds all
Adem-consistent action tables that preserve the truncation, for given
generator degrees.

Everything here is a pure function with deterministic output order; the
solver returns the tables in lexicographic order of their coefficients.
"""

from __future__ import annotations

from operator import add, sub

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
from .steenrod import SteenrodElement
from .truncated import (
    AlgebraElement,
    AlgebraError,
    AlgebraPresentation,
    Exponents,
    adem_residues,
    frobenius,
    generator_instances,
    indecomposables,
    induced_q_map,
    pure_power,
    truncation_product,
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

    When every image is its own generator the result is ``a`` itself:
    presentations are immutable and their caches value-transparent, so the
    caller keeps the warm memos.  Unlike a rebuild, ``a`` keeps its
    ``autofilled`` record and stores exactly the entries it was given,
    including any P^k y_i with k > m_i, which a rebuild drops, and not the
    zero entries below m_i that a rebuild stores.
    """
    for i, img in enumerate(images):
        if img.degree() != 2 * a.half_degrees[i]:
            raise AlgebraError("substitution must preserve generator degrees")
    if all(img == a.gen(i) for i, img in enumerate(images)):
        return a
    # The linear part must be invertible: in each generator degree, the
    # images' coefficients on that degree's generators have full rank.
    units = [pure_power(a.l, i) for i in range(a.l)]
    for m in set(a.half_degrees):
        gens = [i for i, h in enumerate(a.half_degrees) if h == m]
        rows = [[images[i].coefficient(units[j]) for j in gens] for i in gens]
        if FpMatrix.from_rows(a.p, rows).rank() < len(gens):
            raise AlgebraError("substitution is not invertible")
    inverses: dict[int, FpMatrix] = {}

    def backward(x: AlgebraElement, d: int) -> dict[Exponents, int]:
        if x.is_zero():
            return {}
        mat = inverses.get(d)
        if mat is None:
            mat = inverses[d] = substitution_matrix(a, images, d)
        coords = solve(mat, a.coords(x, d))
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


class NormalizedPresentation:
    """A normalized presentation plus the change-of-generators record."""

    def __init__(
        self,
        presentation: AlgebraPresentation,
        images: tuple[AlgebraElement, ...],  # new generators inside the original algebra
        p1_targets: dict[int, int],          # i -> j whenever P^1 y_i = y_j exactly
    ):
        self.presentation = presentation
        self.images = images
        self.p1_targets = p1_targets

    @property
    def p(self) -> int:
        return self.presentation.p


def _p1_on_generators(a: AlgebraPresentation) -> tuple[list[AlgebraElement], dict[int, int]]:
    """P^1 of each generator, and i -> j for each y_i with P^1 y_i = y_j."""
    images = [a.act_power(1, a.gen(i)) for i in range(a.l)]
    targets = {}
    for i, w in enumerate(images):
        monos = w.monomials()
        if len(monos) == 1 and sum(monos[0][0]) == 1 and monos[0][1] == 1:
            targets[i] = monos[0][0].index(1)
    return images, targets


def p1_normal_form_ok(a: AlgebraPresentation) -> tuple[bool, list[str]]:
    """The normalization predicate, checked independently of how the
    presentation was produced: P^1 of each generator is either decomposable
    or exactly another generator, injectively."""
    images, targets = _p1_on_generators(a)
    problems = [
        f"P^1 {a.names[i]} is neither decomposable nor a generator"
        for i, w in enumerate(images)
        if i not in targets and not w.in_filtration(2)
    ]
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
        dims = tuple(len(indecomposables(a, d)) for d in nodes)
        maps = tuple(
            induced_q_map(a, p1, nodes[i]) for i in range(len(nodes) - 1)
        )
        form = chain_interval_form(ChainRep(p, dims, maps))
        for d, basis in zip(nodes, form.bases):
            if basis.rows:
                new_basis[d] = basis

    units = [pure_power(a.l, i) for i in range(a.l)]
    images: list[AlgebraElement] = []
    for i in range(a.l):
        d = 2 * a.half_degrees[i]
        gens = indecomposables(a, d)
        row = new_basis[d].row(gens.index(i))
        images.append(a.element({units[j]: c for j, c in zip(gens, row)}))

    # Absorb decomposable remainders, lowest degrees first (generators are
    # listed by ascending half-degree, so images[i] is final when reached).
    targets: dict[int, int] = {}
    for i in range(a.l):
        w = a.act_power(1, images[i])
        if w.in_filtration(2):  # zero or decomposable
            continue
        # Step 1 makes the class of w exactly one new basis row.
        d = w.degree()
        gens = indecomposables(a, d)
        j = gens[new_basis[d].entries.index(tuple(w.coefficient(units[k]) for k in gens))]
        targets[i] = j
        images[j] = w
    normal = transport(a, images)

    ok, problems = p1_normal_form_ok(normal)
    if not ok:
        raise AlgebraError("normalization failed: " + "; ".join(problems))
    return NormalizedPresentation(normal, tuple(images), targets)


# ---------------------------------------------------------------------------
# pure-power lifting check on a normalized presentation


class PropAResult:
    def __init__(
        self,
        ok: bool,
        failures: tuple[tuple[int, int, int], ...],  # (i, j, t): P^1 y_i contains y_j^t
        checked: int,
    ):
        self.ok = ok
        self.failures = failures
        self.checked = checked


def check_prop_a(norm: NormalizedPresentation | AlgebraPresentation, n: int) -> PropAResult:
    """Whenever P^1(y_i) contains a pure power y_j^t with 1 <= t <= n, some
    generator must hit y_j exactly under P^1.  The order n must lie in 1..p."""
    a = norm.presentation if isinstance(norm, NormalizedPresentation) else norm
    if not 1 <= n <= a.p:
        raise AlgebraError("order must satisfy 1 <= n <= p")
    images, targets = _p1_on_generators(a)
    ok_targets = set(targets.values())
    failures = []
    checked = 0
    for i, w in enumerate(images):
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


class RangeVerdict:
    def __init__(
        self,
        family: str,
        a: int,
        b: int | None,
        c: int,
        t: int,
        source_degree: int,
        target_degree: int,
        dim_source: int,
        dim_target: int,
        rank: int,
        ok: bool,
    ):
        self.family = family
        self.a = a
        self.b = b
        self.c = c
        self.t = t
        self.source_degree = source_degree
        self.target_degree = target_degree
        self.dim_source = dim_source
        self.dim_target = dim_target
        self.rank = rank
        self.ok = ok

    def key(self):
        return (self.family, self.a, self.b, self.c, self.t)

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields, in declaration order


class RangeCheckResult:
    def __init__(
        self,
        surjectivity: tuple[RangeVerdict, ...],   # family "A1"
        vanishing: tuple[RangeVerdict, ...],      # family "A2"
        isomorphism: tuple[RangeVerdict, ...],    # family "A3"
    ):
        self.surjectivity = surjectivity
        self.vanishing = vanishing
        self.isomorphism = isomorphism

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


class ReducedAlgebra:
    def __init__(
        self,
        presentation: AlgebraPresentation,  # generators z_d with half-degree h_d
        kept: tuple[int, ...],              # indices into the original generators
    ):
        self.presentation = presentation
        self.kept = kept


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
    return ReducedAlgebra(reduced, kept)


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


def _symbolic_entries(a: AlgebraPresentation, blocks) -> dict[tuple[int, int], dict[Exponents, Poly]]:
    """P^k y_i for 0 <= k <= m_i, as {monomial: coefficient polynomial} over
    F_p in the free entries of ``blocks``: variable v is the v-th basis
    coefficient, counting through the blocks in order.  P^0 y_i = y_i and
    P^{m_i} y_i = y_i^p are forced."""
    one = {(): 1}
    entries: dict[tuple[int, int], dict[Exponents, Poly]] = {}
    for i, m in enumerate(a.half_degrees):
        entries[(i, 0)] = {pure_power(a.l, i): one}
        entries[(i, m)] = {pure_power(a.l, i, a.p): one}
    v = 0
    for i, k, basis in blocks:
        entries[(i, k)] = {e: {(v + n,): 1} for n, e in enumerate(basis)}
        v += len(basis)
    return entries


def _unknown_grading(blocks, l: int) -> list[tuple[int, ...]]:
    """The Z^l degree of each variable of ``blocks`` (see
    ``_symbolic_entries``): scaling each generator y_j by c_j in F_p^*
    scales the coefficient of y^e in P^k y_i by c^e / c_i, so that
    coefficient has degree e - unit_i.  The forced entries have degree 0
    modulo p - 1, so every equation of ``_derive_equations`` is homogeneous
    modulo p - 1."""
    grading = []
    for i, _, basis in blocks:
        unit = pure_power(l, i)
        grading.extend(tuple(map(sub, e, unit)) for e in basis)
    return grading


def _adem_equations(a: AlgebraPresentation, entries, instances) -> list[Poly]:
    """The coefficients of the residue of every instance (P^a, P^b,
    monomial) (``truncated.adem_residues``), as polynomials in the variables
    of ``entries`` (see ``_symbolic_entries``).  ``power`` is
    ``_act_power_raw`` over polynomials, with its closed form on y_i^p: the
    coefficients c satisfy c^p = c as functions on F_p^n, which is how the
    solver's polynomials multiply."""
    p, one = a.p, {(): 1}
    memos: dict[int, dict[Exponents, dict[Exponents, Poly]]] = {}

    def power(k: int, exps: Exponents) -> dict[Exponents, Poly]:
        """P^k (k >= 1) on one monomial, memoized per k."""
        memo = memos.get(k)
        if memo is None:
            memo = memos[k] = {}
        cached = memo.get(exps)
        if cached is not None:
            return cached
        i = len(exps) - 1
        while i >= 0 and not exps[i]:
            i -= 1
        if i >= 0 and exps[i] == p and sum(exps) == p:  # y_i^p: P(y_i^p) = P(y_i)^p
            q, r = divmod(k, p)
            g = entries[(i, q)] if not r and q <= a.half_degrees[i] else {}
            out = memo[exps] = frobenius(p, g)
            return out
        acc: dict[Exponents, dict] = {}
        if i >= 0:  # else the unit: P^k 1 = 0
            x = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            for e1, c1 in power(k, x).items():
                if e1[i] < p:  # distinct e1 raise to distinct monomials
                    acc[e1[:i] + (e1[i] + 1,) + e1[i + 1:]] = dict(c1)
            m = a.half_degrees[i]
            for j in range(1, min(k - 1, m) + 1):
                g = entries[(i, j)]
                for e1, c1 in power(k - j, x).items():
                    for e2, c2 in g.items():
                        e = tuple(map(add, e1, e2))
                        if max(e) <= p:
                            poly_mul_into(acc.setdefault(e, {}), c1, c2, p)
            if k <= m:
                for e2, c2 in entries[(i, k)].items():
                    e = tuple(map(add, x, e2))
                    if max(e) <= p:
                        poly_mul_into(acc.setdefault(e, {}), one, c2, p)
        out = memo[exps] = {e: c for e, f in acc.items() if (c := poly_reduce(f, p))}
        return out

    def compose(s: int, t: int, exps: Exponents) -> dict[Exponents, Poly]:
        """P^s P^t on one monomial, in fresh dicts when t >= 1."""
        if not t:
            return power(s, exps)
        acc: dict[Exponents, dict] = {}
        for x, f in power(t, exps).items():
            for e, g in power(s, x).items():
                poly_mul_into(acc.setdefault(e, {}), f, g, p)
        return {e: c for e, g in acc.items() if (c := poly_reduce(g, p))}

    def add_scaled(residue: dict, c: int, image: dict[Exponents, Poly]) -> None:
        for e, f in image.items():
            acc = residue.setdefault(e, {})
            for m, v in f.items():
                acc[m] = acc.get(m, 0) + c * v

    residues = adem_residues(p, instances, compose, add_scaled)
    return [poly_reduce(f, p) for *_, residue in residues for f in residue.values()]


def _truncation_equations(a: AlgebraPresentation, entries) -> list[Poly]:
    """Every coefficient of P(y_i)^{p+1}, where P(y_i) = sum_k P^k y_i, in
    the variables of ``entries`` (``truncated.truncation_product``): each is
    quadratic, since the Frobenius image keeps the coefficients."""
    p = a.p

    def add_scaled(acc: dict, f: Poly, image: dict[Exponents, Poly]) -> None:
        for e, g in image.items():
            poly_mul_into(acc.setdefault(e, {}), f, g, p)

    equations = []
    for i, m in enumerate(a.half_degrees):
        # The entries have distinct degrees, so their monomials are distinct.
        total = {e: f for k in range(m + 1) for e, f in entries[(i, k)].items()}
        product = truncation_product(p, total, add_scaled)
        equations.extend(poly_reduce(f, p) for f in product.values())
    return equations


def _derive_equations(a: AlgebraPresentation, blocks) -> list[Poly]:
    """The system ``derive_actions`` solves on the generator-only
    presentation ``a``: every in-range Adem instance on the generator of its
    degree (``truncated.generator_instances``), then the truncation
    equations."""
    entries = _symbolic_entries(a, blocks)
    return _adem_equations(a, entries, generator_instances(a)) + _truncation_equations(a, entries)


def derive_actions(
    p: int, half_degrees: list[int], max_unknowns: int = 12
) -> list[AlgebraPresentation]:
    """All action tables on T^{[p+1]} generators of the given half-degrees
    that preserve the truncation and satisfy every in-range Adem instance,
    in lexicographic order of their coefficient vectors.

    Each coefficient of P^k y_i (1 <= k < m_i) on the degree basis is one
    variable, numbered k-major, then by generator, then in basis order
    (P^{m_i} y_i = y_i^p is forced).  The equations over F_p are
    ``validate_action``'s checks with the unknowns kept symbolic: the
    residues of ``truncated.generator_instances`` and the coefficients of
    the ``truncated.truncation_product`` of each total power P(y_i) =
    sum_k P^k y_i.  By the proposition in ``validate_action``'s docstring,
    the solutions are exactly the tables that it accepts.  The solver
    eliminates what is linear and branches on what stays nonlinear.  The
    equations are homogeneous modulo p - 1 for the grading of the unknowns
    by generator scalings (``_unknown_grading``), so the solver branches once
    per scaling orbit and returns the full sorted solution list.
    ``max_unknowns`` bounds the variable count before any elimination.
    Each table is built on the generator-only probe with
    ``AlgebraPresentation.with_action``."""
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

    def table(vector) -> AlgebraPresentation:
        coeffs = iter(vector)
        return probe.with_action({
            (i, k): {e: c for e, c in zip(basis, coeffs) if c}
            for i, k, basis in blocks
        })

    equations = _derive_equations(probe, blocks)
    grading = _unknown_grading(blocks, len(ms))
    return [table(v) for v in solve_polynomial_system(p, total_unknowns, equations, grading)]
