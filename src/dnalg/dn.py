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

Cases are independent pure computations merged in a fixed order (degree,
then slot enumeration order), so the sweep is deterministic and could be
fanned out to workers without changing the report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fp import FpMatrix, Subspace, solve, sum_and_intersection
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


@dataclass(frozen=True)
class DnSearchConfig:
    max_support: int = 2
    theta_dim_bound: int = 3


@dataclass(frozen=True)
class DnInstance:
    """A homogeneous list of (operation, class) pairs with one target degree."""

    presentation: AlgebraPresentation
    pairs: tuple[tuple[SteenrodElement, AlgebraElement], ...]
    n: int

    def __post_init__(self):
        degs = set()
        for theta, alpha in self.pairs:
            td, ad = theta.degree(), alpha.degree()
            if td is None or ad is None:
                raise AlgebraError("instance pairs must be homogeneous and nonzero")
            degs.add(td + ad)
        if len(degs) != 1:
            raise AlgebraError("instance pairs must share one target degree")

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


@dataclass(frozen=True)
class DnVerdict:
    status: str  # "satisfied-with-witness" | "violated" | "vacuous"
    instance: DnInstance
    witness: tuple[AlgebraElement, ...] | None = None
    certificate: dict | None = None

    def to_dict(self) -> dict:
        out = {"status": self.status, "instance": self.instance.to_dict()}
        if self.witness is not None:
            out["witness"] = [render_polynomial(nu) for nu in self.witness]
        if self.certificate is not None:
            out["certificate"] = dict(self.certificate)
        return out


def check_instance(inst: DnInstance) -> DnVerdict:
    """Decide one instance by solving the assembled linear system."""
    a = inst.presentation
    p = a.p
    d = inst.target_degree
    total = inst.evaluate()
    if not total.in_filtration(2):
        return DnVerdict("vacuous", inst)
    # Corrections and the deep filtration assemble into one linear system.
    basis_d = a.basis_of_degree(d)
    ncols_amb = len(basis_d)
    columns: list[tuple[int, ...]] = []
    col_groups: list[tuple[int, list[Exponents]]] = []  # (pair index, D-basis monomials)
    for idx, (theta, alpha) in enumerate(inst.pairs):
        e = alpha.degree()
        dec_monos = [m for m in a.basis_of_degree(e) if sum(m) >= 2]
        col_groups.append((idx, dec_monos))
        for mono in dec_monos:
            img = a.act(theta, a.element({mono: 1}))
            columns.append(a.coords(img, d))
    deep = filtration(a, inst.n + 1, d)
    columns.extend(deep.basis)
    if columns:
        mat = FpMatrix.from_rows(p, [list(c) for c in columns], ncols_amb).transpose()
    else:
        mat = FpMatrix.zeros(p, ncols_amb, 0)
    target = a.coords(total, d)
    result = solve(mat, target)
    if result.solution is None:
        image = Subspace.from_vectors(p, ncols_amb, [list(c) for c in columns])
        return DnVerdict(
            "violated",
            inst,
            certificate={
                "target_degree": d,
                "dim_correction_span": image.dim,
                "dim_deep_filtration": deep.dim,
                "value": render_polynomial(total),
            },
        )
    witness = []
    pos = 0
    for _, dec_monos in col_groups:
        nu = a.zero()
        for mono in dec_monos:
            nu = nu + a.element({mono: result.solution[pos]})
            pos += 1
        witness.append(nu)
    return DnVerdict("satisfied-with-witness", inst, witness=tuple(witness))


@dataclass(frozen=True)
class _Slot:
    source_degree: int
    theta: SteenrodElement
    image: Subspace          # theta(A^e) inside A^d coordinates
    corrections: Subspace    # theta(D A^e)
    matrix: FpMatrix         # full map A^e -> A^d


@dataclass(frozen=True)
class DegreeResult:
    degree: int
    slots: int
    cases: int
    ok: bool
    trivial: bool = False
    cases_by_support_size: tuple[tuple[int, int], ...] = ()

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


@dataclass(frozen=True)
class DnReport:
    presentation: AlgebraPresentation
    n: int
    config: DnSearchConfig
    ok: bool
    degrees: tuple[DegreeResult, ...]
    violation: DnVerdict | None
    incomplete_theta_degrees: tuple[int, ...]

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


def _build_slots(a, d, config, incomplete):
    """Candidate (source degree, operation) slots for one target degree,
    deduplicated by the projective class of the induced matrix."""
    p = a.p
    slots: list[_Slot] = []
    seen_matrices: set = set()
    for e in range(2, d + 1, 2):
        basis_e = a.basis_of_degree(e)
        if not basis_e:
            continue
        q = d - e
        if q <= 0 or q % (2 * (p - 1)):
            continue  # Bockstein-free operations live in degrees 2k(p-1)
        words = [
            w for w in steenrod_basis(p, q, top=a.top_degree)
            if not any(w.eps)
        ]
        if not words:
            continue
        combos, truncated = _monic_combinations(p, words, config.theta_dim_bound)
        if truncated:
            incomplete.add(q)
        mats = {}
        for i, w in enumerate(words):
            cols = [a.coords(a.act_word(w, a.element({m: 1})), d) for m in basis_e]
            mats[i] = cols
        for support, coeffs in combos:
            cols = [
                tuple(
                    sum(c * mats[i][j][r] for i, c in zip(support, coeffs)) % p
                    for r in range(a.dim(d))
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
            rows = [[cols[j][r] for j in range(len(basis_e))] for r in range(a.dim(d))]
            mat = FpMatrix.from_rows(p, rows, len(basis_e))
            image = mat.column_space()
            dec_cols = [
                list(cols[j]) for j, m in enumerate(basis_e) if sum(m) >= 2
            ]
            corr = Subspace.from_vectors(p, a.dim(d), dec_cols)
            slots.append(_Slot(e, theta, image, corr, mat))
    return slots


def _extract_instance(a, d, n, slots_sel, offending: Subspace, rhs: Subspace):
    """Turn a failed inclusion into a concrete violating instance."""
    vec = next(v for v in offending.basis if not rhs.contains(v))
    stacked_cols: list[list[int]] = []
    widths = []
    for s in slots_sel:
        widths.append(s.matrix.cols)
        for j in range(s.matrix.cols):
            stacked_cols.append(list(s.matrix.column(j)))
    mat = FpMatrix.from_rows(a.p, stacked_cols, a.dim(d)).transpose()
    sol = solve(mat, vec).solution
    assert sol is not None
    pairs = []
    pos = 0
    for s, w in zip(slots_sel, widths):
        alpha = a.from_coords(sol[pos:pos + w], s.source_degree)
        pos += w
        if not alpha.is_zero():
            pairs.append((s.theta, alpha))
    return DnInstance(a, tuple(pairs), n)


def check_dn(
    a: AlgebraPresentation, n: int, config: DnSearchConfig | None = None
) -> DnReport:
    """Sweep all target degrees and bounded support sets; stop at the first
    violation, which is returned as a re-checkable instance."""
    if not 1 <= n <= a.p:
        raise AlgebraError("order must satisfy 1 <= n <= p")
    config = config or DnSearchConfig()
    incomplete: set[int] = set()
    degree_results: list[DegreeResult] = []
    violation: DnVerdict | None = None
    for d in range(2, a.top_degree + 1, 2):
        if not a.dim(d):
            continue
        dec = filtration(a, 2, d)
        deep = filtration(a, n + 1, d)
        if dec.dim == 0 or deep.dim == dec.dim:
            # Corrections absorb the whole decomposable piece: every
            # inclusion in this degree holds for free.
            degree_results.append(DegreeResult(d, 0, 0, True, trivial=True))
            continue
        slots = _build_slots(a, d, config, incomplete)
        cases = 0
        by_size: list[tuple[int, int]] = []
        ok = True
        for size in range(1, config.max_support + 1):
            size_cases = 0
            for combo in itertools.combinations(range(len(slots)), size):
                sel = [slots[i] for i in combo]
                image = sel[0].image
                rhs = sel[0].corrections
                for s in sel[1:]:
                    image = image + s.image
                    rhs = rhs + s.corrections
                rhs = rhs + deep
                _, inter = sum_and_intersection(image, dec)
                cases += 1
                size_cases += 1
                if not rhs.includes(inter):
                    inst = _extract_instance(a, d, n, sel, inter, rhs)
                    verdict = check_instance(inst)
                    assert verdict.status == "violated"
                    certificate = dict(verdict.certificate or {})
                    certificate["dim_image_cap_decomposables"] = inter.dim
                    certificate["dim_corrections_plus_deep"] = rhs.dim
                    violation = DnVerdict(
                        "violated", inst, certificate=certificate
                    )
                    ok = False
                    break
            by_size.append((size, size_cases))
            if not ok:
                break
        degree_results.append(
            DegreeResult(d, len(slots), cases, ok, cases_by_support_size=tuple(by_size))
        )
        if not ok:
            break
    overall = violation is None
    return DnReport(
        presentation=a,
        n=n,
        config=config,
        ok=overall,
        degrees=tuple(degree_results),
        violation=violation,
        incomplete_theta_degrees=tuple(sorted(incomplete)),
    )


def _max_dn_report(a: AlgebraPresentation, config: DnSearchConfig | None = None) -> DnReport:
    """The check_dn report of the largest n in [1, p-1] that passes; the
    order filtration is monotone, so an ascending scan that stops at the
    first failure is exact."""
    if a.l < 1:
        raise AlgebraError("need at least one generator")
    best = None
    for n in range(1, a.p):
        report = check_dn(a, n, config)
        if not report.ok:
            break
        best = report
    assert best is not None, "order 1 must always pass"
    return best


def max_dn(a: AlgebraPresentation, config: DnSearchConfig | None = None) -> int:
    """Largest n in [1, p-1] passing check_dn."""
    return _max_dn_report(a, config).n
