"""Truncated polynomial algebras with an unstable Steenrod action.

A presentation fixes an odd prime p and even-degree generators y_i of
degree 2*m_i, truncated at height p+1 (y_i^{p+1} = 0, y_i^p != 0).  The
action table stores P^k on each generator for 1 <= k <= m_i; everything
else is derived: P^0 is the identity, P^k vanishes for k > m_i, the
Bockstein acts as zero (all degrees are even), and products follow the
Cartan formula.  ``validate_action`` checks that the table really defines
an action, on the generators alone: the unstable conditions, the
truncation (each total power P(y_i) has P(y_i)^{p+1} = 0, since P is a ring
map and y_i^{p+1} = 0), and every Adem relation instance that lands inside
the degree range.  Together these imply every instance on every monomial
(see its docstring).  The constructor cleans the table once (coefficients
mod p, no zero term, no monomial beyond the truncation), so the unstable and
truncation checks read the stored entries and build no element.

Presentations are immutable after construction (caches are internal and
value-transparent); all operations are pure.  ``with_action`` builds a table
on the same generators without re-checking them, sharing the degree buckets
and per-degree basis indices: these depend on the generators alone and are
never mutated once built (``basis_of_degree`` hands out copies).  It shares
the buckets as they stand and builds none: a table whose source never
scanned its monomials scans them the first time something reads them.

The public ``AlgebraElement`` constructor and ``element`` check every term:
its arity and signs, and they drop monomials beyond the truncation and
reduce coefficients mod p.  The builder ``_element`` skips that where the
terms are clean by construction: ``gen``, ``one`` and ``zero``;
``action_entry``, whose entries the constructor cleaned; ``act``,
``act_power`` and ``act_word``, whose kernels reduce mod p and never leave
the truncation; products, once their zero coefficients are dropped; sums
and scalings, once reduced mod p.  The tests rebuild every such element
through the public constructor.

P^k of each monomial is computed once per presentation and kept in one memo
dict per power index k; on y_i and on y_i^p it is read off the table (see
``_act_power_raw``).  ``validate_action`` and the symbolic system of
``theorems.derive_actions`` share one Adem system, each piece taking the
caller's kernel or coefficient arithmetic: the instances on the generators
(``generator_instances``), their residues (``adem_residues``), the
truncation product x^{p+1} = x^p * x (``truncation_product``) and the
Frobenius image x^p (``frobenius``).
"""

from __future__ import annotations

import functools
import itertools
from operator import add

from .fp import FpMatrix, Record, Subspace, check_odd_prime
from .steenrod import (
    SteenrodElement,
    SteenrodMonomial,
    adem_relation,
    adem_rewrite,
)

Exponents = tuple[int, ...]


def pure_power(l: int, i: int, e: int = 1) -> Exponents:
    """The exponent vector of y_i^e among l generators."""
    return (0,) * i + (e,) + (0,) * (l - 1 - i)


class AlgebraError(ValueError):
    pass


class AlgebraElement(Record):
    """A linear combination of truncated monomials, tied to a presentation."""

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation: "AlgebraPresentation", terms: dict[Exponents, int]):
        self.presentation = presentation
        p = presentation.p
        clean: dict[Exponents, int] = {}
        for exps, c in terms.items():
            if len(exps) != presentation.l:
                raise AlgebraError("exponent vector has wrong length")
            if any(e < 0 for e in exps):
                raise AlgebraError("negative exponent")
            if any(e > p for e in exps):
                continue  # beyond truncation height, the monomial is zero
            c %= p
            if c:
                clean[exps] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        degs = {self.presentation.monomial_degree(e) for e in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def in_filtration(self, t: int) -> bool:
        """Whether every monomial is a product of at least t generators."""
        return all(sum(e) >= t for e in self.terms)

    def monomials(self) -> list[tuple[Exponents, int]]:
        return sorted(self.terms.items())

    def coefficient(self, exps: Exponents) -> int:
        return self.terms.get(tuple(exps), 0)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        p = self.presentation.p
        return _element(self.presentation, {e: r for e, c in terms.items() if (r := c % p)})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def scale(self, c: int) -> "AlgebraElement":
        p = self.presentation.p
        terms = {e: r for e, v in self.terms.items() if (r := v * c % p)}
        return _element(self.presentation, terms)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        p = self.presentation.p
        terms: dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if any(x > p for x in e):
                    continue
                terms[e] = (terms.get(e, 0) + c1 * c2) % p
        return _element(self.presentation, {e: c for e, c in terms.items() if c})

    def __pow__(self, n: int) -> "AlgebraElement":
        result = self.presentation.one()
        for _ in range(n):
            result = result * self
        return result

    def _key(self):
        return id(self.presentation), tuple(sorted(self.terms.items()))

    def __repr__(self):
        return f"AlgebraElement({render_polynomial(self)})"

    def _check(self, other: "AlgebraElement") -> None:
        if self.presentation is not other.presentation:
            raise AlgebraError("presentation mismatch")


def _element(presentation: "AlgebraPresentation", terms: dict[Exponents, int]) -> AlgebraElement:
    """An ``AlgebraElement`` built unchecked, for ``terms`` that are clean
    by construction: every exponent vector has the presentation's arity,
    no negative entry and none above p, and every coefficient is nonzero
    and reduced mod p."""
    x = object.__new__(AlgebraElement)
    x.presentation = presentation
    x.terms = terms
    return x


def render_polynomial(x: AlgebraElement) -> str:
    if x.is_zero():
        return "0"
    names = x.presentation.names
    parts = []
    for exps, c in x.monomials():
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


class AlgebraPresentation:
    """Generators, degrees and the reduced-power table of a truncated algebra."""

    def __init__(
        self,
        p: int,
        generators: list[tuple[str, int]],
        action: dict[tuple[str, int], dict[Exponents, int]] | None = None,
    ):
        check_odd_prime(p)
        self.p = p
        if not all(m >= 1 for _, m in generators):
            raise AlgebraError("half-degrees must be >= 1")
        if [m for _, m in generators] != sorted(m for _, m in generators):
            raise AlgebraError("generators must be listed with ascending half-degree")
        names = [name for name, _ in generators]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate generator name")
        self.names: tuple[str, ...] = tuple(names)
        self.half_degrees: tuple[int, ...] = tuple(m for _, m in generators)
        self._index = {name: i for i, name in enumerate(names)}
        self._action: dict[tuple[int, int], dict[Exponents, int]] = {}
        self.autofilled: tuple[tuple[str, int], ...] = ()
        self._basis_buckets: dict[int, list[Exponents]] | None = None
        self._length_counts: dict[int, tuple[int, ...]] | None = None
        # degree d -> {monomial: its row in the coordinates of degree d}
        self._basis_index: dict[int, dict[Exponents, int]] = {}
        # power index k -> {monomial: P^k(monomial)}; see the module docstring
        self._power_memo: dict[int, dict[Exponents, dict[Exponents, int]]] = {}

        action = action or {}
        filled = []
        for key, poly in action.items():
            name, k = key
            if name not in self._index:
                raise AlgebraError(f"unknown generator {name!r}")
            if k < 1:
                raise AlgebraError("action entries start at P^1")
            self._action[(self._index[name], k)] = dict(poly)
        for i, m in enumerate(self.half_degrees):
            if (i, m) not in self._action:
                # The top reduced power on a generator is forced to the p-th
                # power by unstability; fill it in and record that we did.
                self._action[(i, m)] = {pure_power(self.l, i, p): 1}
                filled.append((self.names[i], m))
        self.autofilled = tuple(filled)
        for (i, k), poly in self._action.items():
            want = 2 * self.half_degrees[i] + 2 * k * (p - 1)
            for exps in poly:
                if len(exps) != self.l:
                    raise AlgebraError("action polynomial has wrong arity")
                if min(exps) < 0:
                    raise AlgebraError("negative exponent")
                if max(exps) <= p and self.monomial_degree(exps) != want:
                    raise AlgebraError(
                        f"P^{k} {self.names[i]} entry has degree "
                        f"{self.monomial_degree(exps)}, expected {want}"
                    )
            self._action[(i, k)] = {e: c % p for e, c in poly.items() if c % p and max(e) <= p}

    def with_action(
        self, action: dict[tuple[int, int], dict[Exponents, int]]
    ) -> "AlgebraPresentation":
        """A presentation on these generators with the entries P^k y_i of
        ``action``, keyed by (generator index, k) for 1 <= k < m_i; every
        P^{m_i} y_i = y_i^p is filled in and recorded in ``autofilled``, as
        the constructor does, sharing the generator-only caches as they
        stand, built or not (see the module docstring).  Each monomial must
        lie in the basis of its entry's degree and each coefficient in
        1..p-1, else ``AlgebraError``."""
        p, l = self.p, self.l
        for (i, k), poly in action.items():
            if not (0 <= i < l and 1 <= k < self.half_degrees[i]):
                raise AlgebraError(f"P^{k} on generator {i} is no free entry")
            index = self._index_of_degree(2 * self.half_degrees[i] + 2 * k * (p - 1))
            for exps, c in poly.items():
                if exps not in index:
                    raise AlgebraError(f"P^{k} {self.names[i]} entry {exps} is not of its degree")
                if not 0 < c < p:
                    raise AlgebraError(f"coefficient {c} is not in 1..{p - 1}")
        a = object.__new__(AlgebraPresentation)
        a.p, a.names, a.half_degrees, a._index = p, self.names, self.half_degrees, self._index
        a._action = {key: dict(poly) for key, poly in action.items()}
        for i, m in enumerate(self.half_degrees):
            a._action[(i, m)] = {pure_power(l, i, p): 1}
        a.autofilled = tuple(zip(self.names, self.half_degrees))
        a._basis_buckets, a._basis_index = self._basis_buckets, self._basis_index
        a._length_counts, a._power_memo = None, {}
        return a

    # -- structure ----------------------------------------------------------

    @property
    def l(self) -> int:
        return len(self.names)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(2 * m for m in self.half_degrees)

    @property
    def top_degree(self) -> int:
        return sum(2 * m * self.p for m in self.half_degrees)

    def monomial_degree(self, exps: Exponents) -> int:
        return sum(2 * m * e for m, e in zip(self.half_degrees, exps))

    def _degree_buckets(self) -> dict[int, list[Exponents]]:
        """Every monomial with exponents <= p, bucketed by degree in one
        pass; each bucket is lexicographic because the scan is.  A second
        product over each generator's degree contributions 0, 2m, ..., 2mp
        runs in step with the exponent vectors, so each degree is one sum
        over a tuple."""
        if self._basis_buckets is None:
            buckets: dict[int, list[Exponents]] = {}
            p = self.p
            steps = [range(0, 2 * m * (p + 1), 2 * m) for m in self.half_degrees]
            for exps, d in zip(
                itertools.product(range(p + 1), repeat=self.l),
                map(sum, itertools.product(*steps)),
            ):
                buckets.setdefault(d, []).append(exps)
            self._basis_buckets = buckets
        return self._basis_buckets

    def basis_of_degree(self, d: int) -> list[Exponents]:
        """All monomials of degree d with exponents <= p, lexicographic."""
        return list(self._degree_buckets().get(d, ()))

    def dim(self, d: int) -> int:
        return len(self._degree_buckets().get(d, ()))

    def nonzero_degrees(self) -> list[int]:
        return sorted(self._degree_buckets())

    def word_length_counts(self, d: int) -> tuple[int, ...]:
        """Entry t counts the degree-d monomials that are products of
        exactly t generators, so the entries from t on sum to
        ``filtration(self, t, d).dim``.  Every degree is counted in one pass
        over the buckets, the first time any is asked."""
        if self._length_counts is None:
            self._length_counts = {}
            for e, bucket in self._degree_buckets().items():
                lengths = list(map(sum, bucket))
                self._length_counts[e] = tuple(map(lengths.count, range(max(lengths) + 1)))
        return self._length_counts.get(d, ())

    # -- elements ------------------------------------------------------------

    def element(self, terms: dict[Exponents, int]) -> AlgebraElement:
        return AlgebraElement(self, terms)

    def zero(self) -> AlgebraElement:
        return _element(self, {})

    def one(self) -> AlgebraElement:
        return _element(self, {tuple([0] * self.l): 1})

    def gen(self, i: int) -> AlgebraElement:
        return _element(self, {pure_power(self.l, i): 1})

    def generator(self, name: str) -> AlgebraElement:
        return self.gen(self._index[name])

    def coords(self, x: AlgebraElement, d: int) -> tuple[int, ...]:
        """Coordinates of a degree-d element in the monomial basis."""
        return self._coords_of_terms(x.terms, d)

    def word_coords(
        self, mono: SteenrodMonomial, exps: Exponents, d: int
    ) -> tuple[int, ...]:
        """Coordinates of a word applied to one monomial, landing in degree
        d: ``coords(act_word(mono, element({exps: 1})), d)`` without
        building either element."""
        if mono.p != self.p:
            raise AlgebraError("prime mismatch")
        return self._coords_of_terms(self._act_word_terms(mono, {exps: 1}), d)

    def _index_of_degree(self, d: int) -> dict[Exponents, int]:
        index = self._basis_index.get(d)
        if index is None:
            basis = self._degree_buckets().get(d, ())
            index = self._basis_index[d] = {e: r for r, e in enumerate(basis)}
        return index

    def _coords_of_terms(self, terms: dict, d: int) -> tuple[int, ...]:
        index = self._index_of_degree(d)
        v = [0] * len(index)
        for exps, c in terms.items():
            r = index.get(exps)
            if r is None:
                raise AlgebraError("element is not concentrated in the given degree")
            v[r] = c
        return tuple(v)

    def from_coords(self, v, d: int) -> AlgebraElement:
        basis = self.basis_of_degree(d)
        return self.element({e: c for e, c in zip(basis, v)})

    # -- action --------------------------------------------------------------

    def action_entry(self, i: int, k: int) -> AlgebraElement:
        """P^k on generator i as stored/derived (k=0 identity, k>m_i zero)."""
        if k == 0:
            return self.gen(i)
        return _element(self, dict(self._action.get((i, k), {})))

    def stored_entries(self) -> list[tuple[int, int]]:
        return sorted(self._action)

    # Internal action arithmetic runs on raw {exponents: coeff} dicts; the
    # AlgebraElement wrappers exist for the public surface only.  The Cartan
    # kernels _act_power_raw and _act_power_terms keep their own inline loops:
    # routing them through a shared summing helper made derive 12-28% slower.

    def _act_power_raw(self, k: int, exps: Exponents) -> dict:
        """P^k (k >= 1) on one monomial, by recursion on its last generator
        factor: P^k(x y_i) = sum_j P^{k-j}(x) P^j(y_i), memoized per k.
        The j = 0 term is P^k(x) with exponent i raised by one, and the
        j = k term is the stored entry P^k(y_i) times x.

        On y_i the value is the cleaned entry P^k y_i itself, which no caller
        may mutate, and zero above m_i.  On y_i^p the recursion would run p
        levels deep; the total power P = sum_k P^k that it computes is a ring
        map and Frobenius is one, so P(y_i^p) = P(y_i)^p = sum c^p mono^p
        over the square-free monomials of P(y_i), with c^p = c in F_p.
        P^k(y_i^p) is therefore zero unless k = p*q with q <= m_i, and then
        the square-free part of the entry P^q(y_i) raised to the p-th power.
        Both closed forms hold for any table, valid or not."""
        memo = self._power_memo.get(k)
        if memo is None:
            memo = self._power_memo[k] = {}
        cached = memo.get(exps)
        if cached is not None:
            return cached
        i = len(exps) - 1
        while i >= 0 and not exps[i]:
            i -= 1
        if sum(exps) <= 1:  # the unit (P^k 1 = 0 for k >= 1), or y_i: the stored entry
            read = i >= 0 and k <= self.half_degrees[i]
            out = memo[exps] = self._action.get((i, k), {}) if read else {}
            return out
        p = self.p
        if exps[i] == p and sum(exps) == p:  # y_i^p: the closed form above
            q, r = divmod(k, p)
            g = self._action.get((i, q), {}) if not r and q <= self.half_degrees[i] else {}
            out = memo[exps] = frobenius(p, g)
            return out
        x = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
        acc: dict[Exponents, int] = {}
        for e1, c1 in self._act_power_raw(k, x).items():
            if e1[i] < p:  # distinct e1 raise to distinct monomials
                acc[e1[:i] + (e1[i] + 1,) + e1[i + 1:]] = c1
        m = self.half_degrees[i]
        for j in range(1, min(k - 1, m) + 1):
            g = self._action.get((i, j))
            if not g:
                continue
            for e1, c1 in self._act_power_raw(k - j, x).items():
                for e2, c2 in g.items():
                    e = tuple(map(add, e1, e2))
                    if max(e) <= p:
                        acc[e] = acc.get(e, 0) + c1 * c2
        if k <= m:
            for e2, c2 in self._action.get((i, k), {}).items():
                e = tuple(map(add, x, e2))
                if max(e) <= p:
                    acc[e] = acc.get(e, 0) + c2
        out = memo[exps] = {e: c % p for e, c in acc.items() if c % p}
        return out

    def _act_power_terms(self, k: int, terms: dict) -> dict:
        p = self.p
        memo = self._power_memo.get(k, {})
        out: dict[Exponents, int] = {}
        for exps, c in terms.items():
            image = memo.get(exps)
            if image is None:
                image = self._act_power_raw(k, exps)
            for e, v in image.items():
                out[e] = out.get(e, 0) + c * v
        return {e: v % p for e, v in out.items() if v % p}

    def _act_word_terms(self, mono: SteenrodMonomial, terms: dict) -> dict:
        if mono.eps[-1]:
            return {}
        out = terms
        for i in range(len(mono.pows) - 1, -1, -1):
            out = self._act_power_terms(mono.pows[i], out)
            if mono.eps[i] or not out:
                return {} if mono.eps[i] else out
        return out

    def _act_terms(self, pairs, terms: dict) -> dict:
        """The sum of c * word(terms) over (word, c) pairs, reduced mod p."""
        p = self.p
        out: dict[Exponents, int] = {}
        for mono, c in pairs:
            for e, v in self._act_word_terms(mono, terms).items():
                w = (out.get(e, 0) + c * v) % p
                if w:
                    out[e] = w
                elif e in out:
                    del out[e]
        return out

    def act_power(self, k: int, x: AlgebraElement) -> AlgebraElement:
        """P^k on an element, by the Cartan formula on each monomial."""
        if k < 0:
            raise AlgebraError("negative reduced power")
        if k == 0:
            return x
        return _element(self, self._act_power_terms(k, x.terms))

    def act_word(self, mono: SteenrodMonomial, x: AlgebraElement) -> AlgebraElement:
        """Apply a word right-to-left; the Bockstein kills everything here."""
        if mono.p != self.p:
            raise AlgebraError("prime mismatch")
        return _element(self, self._act_word_terms(mono, x.terms))

    def act(self, theta: SteenrodElement, x: AlgebraElement) -> AlgebraElement:
        if theta.p != self.p:
            raise AlgebraError("prime mismatch")
        return _element(self, self._act_terms(theta.terms.items(), x.terms))

    def __repr__(self):
        gens = ", ".join(f"{n}:{2 * m}" for n, m in zip(self.names, self.half_degrees))
        return f"AlgebraPresentation(p={self.p}, [{gens}])"


# ---------------------------------------------------------------------------
# validation


class AdemFailure(Record):
    def __init__(self, a: int, b: int, monomial: Exponents, degree: int):
        self.a = a
        self.b = b
        self.monomial = monomial
        self.degree = degree

    def _key(self):
        return self.a, self.b, self.monomial, self.degree


class ActionValidation(Record):
    def __init__(
        self,
        ok: bool,
        unstable_failures: tuple[str, ...],
        adem_failures: tuple[AdemFailure, ...],
        instances_checked: int,
    ):
        self.ok = ok
        self.unstable_failures = unstable_failures
        self.adem_failures = adem_failures
        self.instances_checked = instances_checked

    def _key(self):
        return self.ok, self.unstable_failures, self.adem_failures, self.instances_checked

    def to_dict(self) -> dict:
        """The fields in order, each failure as a dict of its fields."""
        return {
            "ok": self.ok,
            "unstable_failures": self.unstable_failures,
            "adem_failures": tuple(
                {"a": f.a, "b": f.b, "monomial": f.monomial, "degree": f.degree}
                for f in self.adem_failures
            ),
            "instances_checked": self.instances_checked,
        }


@functools.lru_cache(maxsize=None)
def adem_instances(p: int, degrees: tuple[int, ...], top: int) -> tuple[tuple[int, int, int], ...]:
    """All (a, b, source degree) with a < p*b whose two sides can act within
    the degree range [0, top] on a class of one of the given degrees."""
    out = []
    for d in degrees:
        reach = (top - d) // (2 * (p - 1))  # the largest a + b that fits
        for b in range(1, min(d // 2, reach - 1) + 1):  # a >= 1 needs b < reach
            for a in range(1, min(p * b, reach - b + 1)):
                out.append((a, b, d))
    return tuple(sorted(out, key=lambda t: (t[0] + t[1], t[2], t[0])))


def adem_instance_count(p: int, degrees: dict[int, int], top: int) -> int:
    """The sum of ``len(adem_instances(p, (d,), top)) * degrees[d]``, in
    closed form.  For each b in 1..last the a run over 1 <= a <
    min(p*b, reach - b + 1): p*b - 1 of them while (p+1)*b <= reach + 1,
    that is up to b = k, and reach - b after."""
    out = 0
    for d, mult in degrees.items():
        reach = (top - d) // (2 * (p - 1))
        last = min(d // 2, reach - 1)
        if last >= 1:
            k = min(last, (reach + 1) // (p + 1))
            out += mult * (p * k * (k + 1) // 2 - k + (last - k) * (2 * reach - last - k - 1) // 2)
    return out


@functools.lru_cache(maxsize=None)
def _adem_normal_form(p: int, a: int, b: int) -> tuple[tuple[SteenrodMonomial, int], ...]:
    """The admissible normal form of P^a P^b, as (word, coefficient) pairs."""
    return tuple(adem_rewrite(SteenrodMonomial(p, (0, 0, 0), (a, b))).terms.items())


def adem_instance_holds(
    a: AlgebraPresentation, a_exp: int, b_exp: int, exps: Exponents
) -> bool:
    """Whether P^a P^b and its admissible normal form agree on one monomial."""
    x = {exps: 1}
    lhs = a._act_power_terms(a_exp, a._act_power_terms(b_exp, x))
    return lhs == a._act_terms(_adem_normal_form(a.p, a_exp, b_exp), x)


def frobenius(p: int, terms: dict) -> dict:
    """x^p for the x with these terms: by Frobenius, the sum of c * mono^p
    over its square-free monomials (any other mono^p leaves the truncation),
    with c^p = c in F_p, and as functions on F_p^n.  The coefficients pass
    through untouched, so ints and ``Poly``s both work.  With no generator
    the one monomial is (), read as (0,) here and in ``truncation_product``."""
    return {tuple(p * x for x in e): c for e, c in terms.items() if max(e or (0,)) <= 1}


def truncation_product(p: int, terms: dict, add_scaled) -> dict:
    """The coefficients of x^{p+1} = x^p * x, unreduced, for the x with these
    clean terms: for each term c * mono^p of x^p, ``add_scaled(acc, c,
    image)`` adds c times the image mono^p * x into acc."""
    out: dict = {}
    for e1, c1 in frobenius(p, terms).items():
        image = {}
        for e2, c2 in terms.items():
            e = tuple(map(add, e1, e2))
            if max(e or (0,)) <= p:
                image[e] = c2
        add_scaled(out, c1, image)
    return out


def _add_scaled(acc: dict, c: int, image: dict) -> None:
    for e, v in image.items():
        acc[e] = acc.get(e, 0) + c * v


def preserves_truncation(a: AlgebraPresentation, images) -> bool:
    """Whether x^{p+1} = 0 in T for every x in ``images``, so that y_i -> x_i
    respects the relations y_i^{p+1} = 0."""
    p = a.p
    return not any(
        v % p for x in images for v in truncation_product(p, x.terms, _add_scaled).values()
    )


def generator_instances(a: AlgebraPresentation) -> list[tuple[int, int, Exponents]]:
    """Every in-range Adem instance (a, b, y_i) on the generator y_i of its
    degree: in ``adem_instances`` order, then by descending index among the
    generators of one degree, which is their basis order.  No degree basis
    is read."""
    units: dict[int, list[Exponents]] = {}
    for i in reversed(range(a.l)):
        units.setdefault(2 * a.half_degrees[i], []).append(pure_power(a.l, i))
    instances = adem_instances(a.p, tuple(sorted(units)), a.top_degree)
    return [(ae, be, x) for ae, be, d in instances for x in units[d]]


def adem_residues(p: int, instances, compose, add_scaled):
    """LHS - RHS of each instance (a, b, x) in ``instances``, yielded in their
    order as (a, b, x, residue), with unreduced coefficients.
    ``compose(s, t, x)`` is P^s P^t x (P^s x when t = 0), a fresh dict when
    t >= 1, and ``add_scaled(residue, c, image)`` adds c * image to residue.
    Each word of a normal form (``adem_relation``) is composed once per
    monomial, with coefficient 1, into a table that lives for one call; the
    left side P^a P^b x (b >= 1) is shared by no other instance, so it is
    composed fresh and becomes the residue."""
    table: dict[tuple[int, int, Exponents], dict] = {}
    for a_exp, b_exp, x in instances:
        residue = compose(a_exp, b_exp, x)
        for c, s, t in adem_relation(p, a_exp, b_exp):
            image = table.get((s, t, x))
            if image is None:
                image = table[s, t, x] = compose(s, t, x)
            add_scaled(residue, -c, image)
        yield a_exp, b_exp, x, residue


def _monomial_counts(a: AlgebraPresentation) -> dict[int, int]:
    """The number of monomials of each degree, with no monomial built: the
    product over generators of the steps 0, 2m_i, ..., 2m_i*p."""
    counts = {0: 1}
    for m in a.half_degrees:
        out: dict[int, int] = {}
        for d, n in counts.items():
            for step in range(0, 2 * m * (a.p + 1), 2 * m):
                out[d + step] = out.get(d + step, 0) + n
        counts = out
    return counts


def validate_action(a: AlgebraPresentation) -> ActionValidation:
    """Check that the table defines an action, on the generators alone:
    unstability, the truncation, and every in-range Adem instance.

    The total power P = sum_k P^k of an action is a ring map of T, so
    P(y_i)^{p+1} = P(y_i^{p+1}) = 0; a table with P(y_i)^{p+1} != 0 is no
    action.  Instances of relations with an interposed Bockstein hold
    automatically (the Bockstein acts as zero in even degrees), so only the
    P^a P^b family is enumerated, for a < p*b and 2b <= |x|.  If the
    unstable checks and the truncation hold, the instances on each y_i
    imply all others:
    - If 2b > |x|, P^b x = 0, and each word P^{a+b-t} P^t of the normal form
      has a >= p*t, so a+b-t > |P^t x|/2: the instance vanishes.
    - Let V be the span of the words of length <= 2 and J the kernel of
      V -> A, spanned by the R_ab.  The Cartan coproduct (Milnor, 1958)
      sends R_ab to 0 in A (x) A, so psi(R_ab) lies in J (x) V + V (x) J.
    - P is a ring map of T, so the classes that J kills form a subalgebra.
      It holds the generators, so it is T.
    ``instances_checked`` is the number of instances times the basis
    monomials of their source degree, which the proof covers.  It is
    counted in closed form (``adem_instance_count``), not enumerated, and
    is the same figure; only the instances on generator degrees are listed.
    """
    p, action = a.p, a._action
    unstable: list[str] = []
    truncation: list[str] = []
    above = sorted(key for key in action if key[1] > a.half_degrees[key[0]])
    for i, m in enumerate(a.half_degrees):
        name, unit = a.names[i], pure_power(a.l, i)
        if action[(i, m)] != {pure_power(a.l, i, p): 1}:
            unstable.append(f"P^{m} {name} != {name}^{p}")
        for j, k in above:
            if j == i and action[(j, k)]:
                unstable.append(f"P^{k} {name} must vanish (k > {m})")
        # The entries of P(y_i) lie in distinct degrees, so their terms are disjoint.
        total = {unit: 1}
        for k in range(1, m + 1):
            total.update(action.get((i, k), {}))
        if any(v % p for v in truncation_product(p, total, _add_scaled).values()):
            truncation.append(f"P({name})^{p + 1} != 0")
    unstable += truncation

    power = a._act_power_raw

    def compose(s: int, t: int, x: Exponents) -> dict[Exponents, int]:
        if not t:
            return power(s, x)
        out: dict[Exponents, int] = {}
        for e, c in power(t, x).items():
            for f, v in power(s, e).items():
                out[f] = out.get(f, 0) + c * v
        return out

    residues = adem_residues(p, generator_instances(a), compose, _add_scaled)
    failures = [
        AdemFailure(a_exp, b_exp, x, a.monomial_degree(x))
        for a_exp, b_exp, x, residue in residues
        if any(v % p for v in residue.values())
    ]
    checked = adem_instance_count(p, _monomial_counts(a), a.top_degree)
    return ActionValidation(not unstable and not failures, tuple(unstable), tuple(failures), checked)


# ---------------------------------------------------------------------------
# filtration and indecomposables


def filtration(a: AlgebraPresentation, t: int, d: int) -> Subspace:
    """The span, inside the degree-d piece, of monomials that are products
    of at least t generators (t-fold decomposables; t=2 is the decomposable
    module)."""
    if t < 1:
        raise AlgebraError("filtration level must be >= 1")
    basis = a.basis_of_degree(d)
    n = len(basis)
    rows = []
    for idx, exps in enumerate(basis):
        if sum(exps) >= t:
            row = [0] * n
            row[idx] = 1
            rows.append(tuple(row))
    # Unit rows in increasing index order are already in reduced echelon form.
    return Subspace(a.p, n, tuple(rows))


def indecomposables(a: AlgebraPresentation, d: int) -> tuple[int, ...]:
    """The indices of the degree-d generators: a basis of the indecomposables
    Q^d = A^d / (decomposables).  The class of an element x of degree d is
    its coefficient on each of them, that is on the generator's own exponent
    vector; decomposable monomials die."""
    return tuple(i for i, m in enumerate(a.half_degrees) if 2 * m == d)


def induced_q_map(a: AlgebraPresentation, theta: SteenrodElement, e: int) -> FpMatrix:
    """The matrix of theta on indecomposables, from degree e to e + deg theta.

    Well defined because the action preserves the decomposable filtration
    (Cartan formula), so the choice of section does not matter.
    """
    deg = theta.degree()
    if deg is None:
        raise AlgebraError("theta must be homogeneous")
    source = indecomposables(a, e)
    units = [pure_power(a.l, j) for j in indecomposables(a, e + deg)]
    images = [a.act(theta, a.gen(i)) for i in source]
    rows = [[x.coefficient(u) for x in images] for u in units]
    return FpMatrix.from_rows(a.p, rows, len(source))
