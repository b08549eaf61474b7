"""Decision procedure for the decomposable-correction condition.

An unstable algebra satisfies the order-n condition when every relation
``sum theta_i(alpha_i)`` landing in the decomposables can be corrected by
decomposable classes nu_i so that ``sum theta_i(alpha_i - nu_i)`` lands in
the (n+1)-fold decomposables.  Because the correction for each pair uses
the same operation theta_i, the condition is a family of subspace
inclusions, one per target degree and per support set of
(source-degree, operation) slots:

    (sum_s theta_s(A^{e_s})) cap D A^d   <=   sum_s theta_s(D A^{e_s}) + D^{n+1} A^d

The search is restricted to homogeneous instances, support sets of bounded
size, and operations drawn from the admissible basis (optionally all monic
F_p-combinations where that basis is small).  Every bound is recorded in
the report; hitting one is never silent.

D^{n+1} A^d is a coordinate subspace: the span of the monomials with n+1
or more factors.  So ``check_instance`` solves on the other coordinates
only, with no column for D^{n+1}, and the dimensions in its certificate
are counts of monomials plus the rank of the projected corrections.

Cases are independent pure computations merged in a fixed order (degree,
then slot enumeration order), so the sweep is deterministic and could be
fanned out to workers without changing the report.

One sweep serves every order.  D^{n+1} shrinks as n grows, so the orders a
case passes form a prefix, and each case yields the largest one: with the
coordinates of A^d sorted by word length, it is one less than the shortest
monomial left over when image ∩ D A^d is reduced modulo the corrections.
A degree is trivial at order n (every inclusion holds) when its shortest
decomposable monomial has more than n factors, which the presentation's
word-length counts answer without building a subspace.  ``check_instance``
applies the same test first: when A^d has no monomial of n or fewer
factors, A^d = D^{n+1} A^d, so the instance is satisfied by zero
corrections and nothing is evaluated.  ``check_dn(n)``
runs the sweep with the orders capped at n and stops at the first case
below n; ``max_dn`` caps them at p-1 and takes the least order over the
cases, building each degree's slots and each case's subspaces once.
"""

from __future__ import annotations

import itertools
import math

from .fp import FpMatrix, Record, Subspace, solve, sum_and_intersection
from .steenrod import (
    SteenrodElement,
    basis_of_degree as steenrod_basis,
    render_element,
)
from .truncated import (
    AlgebraElement,
    AlgebraError,
    AlgebraPresentation,
    filtration,
    render_polynomial,
)

Exponents = tuple[int, ...]


class DnSearchConfig(Record):
    def __init__(self, max_support: int = 2, theta_dim_bound: int = 3):
        # A support bound below 1 leaves no case to check, so every order
        # would pass.
        if max_support < 1:
            raise ValueError("max_support must be >= 1")
        if theta_dim_bound < 0:
            raise ValueError("theta_dim_bound must be >= 0")
        self.max_support = max_support
        self.theta_dim_bound = theta_dim_bound

    def _key(self):
        return self.max_support, self.theta_dim_bound


class DnInstance:
    """A homogeneous list of (operation, class) pairs with one target degree."""

    def __init__(
        self,
        presentation: AlgebraPresentation,
        pairs: tuple[tuple[SteenrodElement, AlgebraElement], ...],
        n: int,
    ):
        if n < 1:
            raise AlgebraError(f"instance order must be >= 1, got {n}")
        degs = set()
        for theta, alpha in pairs:
            if theta.p != presentation.p:
                raise AlgebraError("prime mismatch")
            if alpha.presentation is not presentation:
                raise AlgebraError("presentation mismatch")
            td, ad = theta.degree(), alpha.degree()
            if td is None or ad is None:
                raise AlgebraError("instance pairs must be homogeneous and nonzero")
            degs.add(td + ad)
        if len(degs) != 1:
            raise AlgebraError("instance pairs must share one target degree")
        self.presentation = presentation
        self.pairs = pairs
        self.n = n

    @property
    def target_degree(self) -> int:
        theta, alpha = self.pairs[0]
        return theta.degree() + alpha.degree()

    def evaluate(self) -> AlgebraElement:
        a = self.presentation
        out = a.zero()
        for theta, alpha in self.pairs:
            out = out + a.act(theta, alpha)
        return out

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "target_degree": self.target_degree,
            "pairs": [
                {
                    "theta": render_element(theta),
                    "alpha": render_polynomial(alpha),
                    "source_degree": alpha.degree(),
                }
                for theta, alpha in self.pairs
            ],
        }


class DnVerdict:
    def __init__(
        self,
        status: str,  # "satisfied-with-witness" | "violated" | "vacuous"
        instance: DnInstance,
        witness: tuple[AlgebraElement, ...] | None = None,
        certificate: dict | None = None,
    ):
        self.status = status
        self.instance = instance
        self.witness = witness
        self.certificate = certificate

    def to_dict(self) -> dict:
        out = {"status": self.status, "instance": self.instance.to_dict()}
        if self.witness is not None:
            out["witness"] = [render_polynomial(nu) for nu in self.witness]
        if self.certificate is not None:
            out["certificate"] = dict(self.certificate)
        return out


def check_instance(inst: DnInstance) -> DnVerdict:
    """Decide one instance on the coordinates of n or fewer factors.

    D^{n+1} A^d is the span of the other monomials, so a value lies in
    corrections + D^{n+1} exactly when it agrees with a correction there:
    D^{n+1} needs no columns, its dimension is a count of monomials, and
    corrections + D^{n+1} adds the rank of the projected corrections.
    When no coordinate has n or fewer factors, A^d = D^{n+1} A^d and the
    zero corrections are a witness, read off the word-length counts."""
    a = inst.presentation
    p, d = a.p, inst.target_degree
    if not any(a.word_length_counts(d)[:inst.n + 1]):
        return DnVerdict("satisfied-with-witness", inst, witness=(a.zero(),) * len(inst.pairs))
    total = inst.evaluate()
    if not total.in_filtration(2):
        return DnVerdict("vacuous", inst)
    basis_d = a.basis_of_degree(d)
    kept = [r for r, m in enumerate(basis_d) if sum(m) <= inst.n]
    columns: list[list[int]] = []  # each correction theta(m), on the kept coordinates
    groups: list[list[Exponents]] = []  # per pair, its decomposable monomials
    for theta, alpha in inst.pairs:
        dec_monos = [m for m in a.basis_of_degree(alpha.degree()) if sum(m) >= 2]
        groups.append(dec_monos)
        for mono in dec_monos:
            images = [(c, a.word_coords(w, mono, d)) for w, c in theta.terms.items()]
            columns.append([sum(c * v[r] for c, v in images) % p for r in kept])
    target = a.coords(total, d)
    rows = [[c[i] for c in columns] for i in range(len(kept))]
    solution = solve(FpMatrix.from_rows(p, rows, len(columns)), [target[r] for r in kept])
    if solution is None:
        deep = len(basis_d) - len(kept)
        return DnVerdict(
            "violated",
            inst,
            certificate={
                "target_degree": d,
                "dim_correction_span": deep + Subspace.from_vectors(p, len(kept), columns).dim,
                "dim_deep_filtration": deep,
                "value": render_polynomial(total),
            },
        )
    witness = []
    pos = 0
    for dec_monos in groups:
        witness.append(a.element(dict(zip(dec_monos, solution[pos:pos + len(dec_monos)]))))
        pos += len(dec_monos)
    return DnVerdict("satisfied-with-witness", inst, witness=tuple(witness))


class _Slot:
    def __init__(
        self,
        source_degree: int,
        theta: SteenrodElement,
        columns: tuple[tuple[int, ...], ...],  # theta on each monomial of A^e, in A^d
        # The next two take the coordinates of A^d sorted by word length.
        image: Subspace,          # theta(A^e)
        corrections: Subspace,    # theta(D A^e)
    ):
        self.source_degree = source_degree
        self.theta = theta
        self.columns = columns
        self.image = image
        self.corrections = corrections


class DegreeResult(Record):
    def __init__(
        self,
        degree: int,
        slots: int,
        cases: int,
        ok: bool,
        trivial: bool = False,
        cases_by_support_size: tuple[tuple[int, int], ...] = (),
    ):
        self.degree = degree
        self.slots = slots
        self.cases = cases
        self.ok = ok
        self.trivial = trivial
        self.cases_by_support_size = cases_by_support_size

    def _key(self):
        return (self.degree, self.slots, self.cases, self.ok, self.trivial,
                self.cases_by_support_size)

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "slots": self.slots,
            "cases": self.cases,
            "cases_by_support_size": {
                str(size): count for size, count in self.cases_by_support_size
            },
            "ok": self.ok,
            "trivial": self.trivial,
        }


class DnReport(Record):
    def __init__(
        self,
        presentation: AlgebraPresentation,
        n: int,
        config: DnSearchConfig,
        ok: bool,
        degrees: tuple[DegreeResult, ...],
        violation: DnVerdict | None,
        incomplete_theta_degrees: tuple[int, ...],
    ):
        self.presentation = presentation
        self.n = n
        self.config = config
        self.ok = ok
        self.degrees = degrees
        self.violation = violation
        self.incomplete_theta_degrees = incomplete_theta_degrees

    def _key(self):
        return (self.presentation, self.n, self.config, self.ok, self.degrees,
                self.violation, self.incomplete_theta_degrees)

    def search_bounds(self) -> dict:
        return {
            "max_support": self.config.max_support,
            "theta_dim_bound": self.config.theta_dim_bound,
            "homogeneous_only": True,
            "incomplete_theta_degrees": list(self.incomplete_theta_degrees),
        }

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "overall": self.ok,
            "degrees": [r.to_dict() for r in self.degrees],
            "violation": None if self.violation is None else self.violation.to_dict(),
            "search_bounds": self.search_bounds(),
        }


def _monic_combinations(p: int, words, bound: int):
    """Single monomials, plus all monic combinations when few enough words.

    One word is already the full enumeration up to scalars, so truncation is
    only reported for two or more words above the bound."""
    singles = [((i,), (1,)) for i in range(len(words))]
    if len(words) < 2 or len(words) > bound:
        return singles, len(words) >= 2 and len(words) > bound
    combos = []
    for coeffs in itertools.product(range(p), repeat=len(words)):
        first = next((c for c in coeffs if c), None)
        if first != 1:
            continue
        support = tuple(i for i, c in enumerate(coeffs) if c)
        combos.append((support, tuple(coeffs[i] for i in support)))
    return combos, False


def _build_slots(a, d, config, incomplete, words_of):
    """Candidate (source degree, operation) slots for one target degree,
    deduplicated by the projective class of the induced matrix.  Operation
    degrees whose combinations were cut at the bound go into ``incomplete``.
    ``words_of`` maps an operation degree to its Bockstein-free admissible
    words; it is filled here and shared by the target degrees of one sweep."""
    p, buckets = a.p, a._degree_buckets()
    basis_d = buckets[d]
    dim = len(basis_d)
    order = sorted(range(dim), key=lambda r: sum(basis_d[r]))
    slots: list[_Slot] = []
    seen_matrices: set = set()
    step = 2 * (p - 1)  # Bockstein-free operations live in degrees 2k(p-1)
    for e in range(d % step or step, d, step):
        basis_e = buckets.get(e)
        if not basis_e:
            continue
        q = d - e
        words = words_of.get(q)
        if words is None:
            words = words_of[q] = [
                w for w in steenrod_basis(p, q, top=a.top_degree) if not any(w.eps)
            ]
        if not words:
            continue
        combos, truncated = _monic_combinations(p, words, config.theta_dim_bound)
        if truncated:
            incomplete.add(q)
        mats = [[a.word_coords(w, m, d) for m in basis_e] for w in words]
        for support, coeffs in combos:
            if coeffs == (1,):  # one word: its columns are already reduced
                cols = mats[support[0]]
            else:
                cols = [
                    tuple(
                        sum(c * mats[i][j][r] for i, c in zip(support, coeffs)) % p
                        for r in range(dim)
                    )
                    for j in range(len(basis_e))
                ]
            if all(not any(col) for col in cols):
                continue
            # normalize the projective class for dedup: first nonzero entry 1
            flat = tuple(x for col in cols for x in col)
            lead = next(x for x in flat if x)
            inv = pow(lead, -1, p)
            key = (e, tuple((x * inv) % p for x in flat))
            if key in seen_matrices:
                continue
            seen_matrices.add(key)
            theta = SteenrodElement(
                p, {words[i]: c for i, c in zip(support, coeffs)}
            )
            by_length = [[col[r] for r in order] for col in cols]
            image = Subspace.from_vectors(p, len(order), by_length)
            corr = Subspace.from_vectors(
                p, len(order),
                [v for v, m in zip(by_length, basis_e) if sum(m) >= 2],
            )
            slots.append(_Slot(e, theta, tuple(cols), image, corr))
    return slots


def _violation(a, d, n, sel) -> DnVerdict:
    """The re-checkable instance of a case that fails at order n.  The
    inclusion is rebuilt in the monomial basis of A^d, whose canonical
    subspaces fix which failing vector the instance is made from."""
    p, dim = a.p, a.dim(d)
    columns = [col for s in sel for col in s.columns]
    _, inter = sum_and_intersection(
        Subspace.from_vectors(p, dim, columns), filtration(a, 2, d)
    )
    corrections = [
        col
        for s in sel
        for col, m in zip(s.columns, a.basis_of_degree(s.source_degree))
        if sum(m) >= 2
    ]
    rhs = Subspace.from_vectors(p, dim, corrections) + filtration(a, n + 1, d)
    vec = next(v for v in inter.basis if not rhs.contains(v))
    sol = solve(FpMatrix.from_rows(p, columns, dim).transpose(), vec)
    assert sol is not None
    pairs = []
    pos = 0
    for s in sel:
        alpha = a.from_coords(sol[pos:pos + len(s.columns)], s.source_degree)
        pos += len(s.columns)
        if not alpha.is_zero():
            pairs.append((s.theta, alpha))
    inst = DnInstance(a, tuple(pairs), n)
    verdict = check_instance(inst)
    assert verdict.status == "violated"
    certificate = dict(verdict.certificate or {})
    certificate["dim_image_cap_decomposables"] = inter.dim
    certificate["dim_corrections_plus_deep"] = rhs.dim
    return DnVerdict("violated", inst, certificate=certificate)


def _case_order(sel, lengths, cap: int) -> int:
    """The largest order up to cap at which one case's inclusion holds.

    The slots' coordinates run by word length (``lengths``), so the
    reduced image rows whose pivot has two or more factors span
    image ∩ D^2, and such a row lies in corrections + D^{n+1} exactly when
    its remainder modulo the corrections vanishes on every coordinate of n
    or fewer factors.  A remainder whose first nonzero coordinate has t
    factors therefore holds up to order t - 1."""
    image, corrections = sel[0].image, sel[0].corrections
    if len(sel) > 1:
        p, dim = image.modulus, image.ambient_dim
        image = Subspace.from_vectors(p, dim, [v for s in sel for v in s.image.basis])
        corrections = Subspace.from_vectors(
            p, dim, [v for s in sel for v in s.corrections.basis]
        )
    order = cap
    for row in image.basis:
        lead = next(i for i, x in enumerate(row) if x)
        if lengths[lead] < 2:
            continue  # outside D^2
        rest = corrections.reduce(row)
        t = next((lengths[i] for i, x in enumerate(rest) if x), None)
        if t is not None and t - 1 < order:
            order = t - 1
    return order


def _sweep(a: AlgebraPresentation, config: DnSearchConfig, lo: int, hi: int) -> DnReport:
    """Decide every order in [lo, hi] in one pass over degrees and cases.

    ``best`` is the least order, capped at hi, up to which every case seen
    so far holds.  The result is the report of order ``best``, or, when a
    case fails at lo, the report of order lo with that case's violation."""
    best = hi
    swept = []  # (degree, shortest decomposable length, result, incomplete)
    violation: DnVerdict | None = None
    words_of: dict[int, list] = {}  # operation degree -> words, see _build_slots
    for d in a.nonzero_degrees()[1:]:  # degree 0 holds the unit alone
        counts = a.word_length_counts(d)
        shortest = next((t for t in range(2, len(counts)) if counts[t]), math.inf)
        if shortest > best:  # trivial at every order still in play
            swept.append((d, shortest, None, set()))
            continue
        incomplete: set[int] = set()
        slots = _build_slots(a, d, config, incomplete, words_of)
        lengths = [t for t, c in enumerate(counts) for _ in range(c)]
        cases = 0
        by_size: list[tuple[int, int]] = []
        stopped = None
        for size in range(1, config.max_support + 1):
            size_cases = 0
            for sel in itertools.combinations(slots, size):
                cases += 1
                size_cases += 1
                best = _case_order(sel, lengths, best)
                # Below shortest the degree is trivial at every order left;
                # below lo this case fails at lo.
                if best < max(shortest, lo):
                    stopped = sel
                    break
            by_size.append((size, size_cases))
            if stopped is not None:
                break
        if best < lo:
            violation = _violation(a, d, lo, stopped)
        result = DegreeResult(
            d, len(slots), cases, violation is None, cases_by_support_size=tuple(by_size)
        )
        swept.append((d, shortest, result, incomplete))
        if violation is not None:
            break
    order = best if violation is None else lo
    degrees: list[DegreeResult] = []
    incomplete = set()
    for d, shortest, result, cut in swept:
        if shortest > order:
            degrees.append(DegreeResult(d, 0, 0, True, trivial=True))
        else:
            degrees.append(result)
            incomplete |= cut
    return DnReport(
        presentation=a,
        n=order,
        config=config,
        ok=violation is None,
        degrees=tuple(degrees),
        violation=violation,
        incomplete_theta_degrees=tuple(sorted(incomplete)),
    )


def check_dn(
    a: AlgebraPresentation, n: int, config: DnSearchConfig | None = None
) -> DnReport:
    """Sweep all target degrees and bounded support sets at order n; stop at
    the first violation, which is returned as a re-checkable instance."""
    if not 1 <= n <= a.p:
        raise AlgebraError("order must satisfy 1 <= n <= p")
    return _sweep(a, config or DnSearchConfig(), n, n)


def max_dn_report(a: AlgebraPresentation, config: DnSearchConfig | None = None) -> DnReport:
    """The check_dn report of the largest n in [1, p-1] that passes, from
    one sweep.  D^{n+1} shrinks as n grows, so the orders a case passes
    form a prefix; the answer is the least over the cases of the largest
    order each passes, capped at p-1.  Order 1 always passes; with no
    generators there is no case, so every order passes and the answer is
    p-1, as ``check_dn`` finds at each order."""
    return _sweep(a, config or DnSearchConfig(), 1, a.p - 1)


def max_dn(a: AlgebraPresentation, config: DnSearchConfig | None = None) -> int:
    """Largest n in [1, p-1] passing check_dn, from the one sweep of
    ``max_dn_report``."""
    return max_dn_report(a, config).n
