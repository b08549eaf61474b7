"""The mod-p Steenrod algebra at an odd prime.

Words in the Bockstein ``b`` and the reduced powers ``P^s`` are rewritten
into the admissible basis with the Adem relations.  Elements are F_p-linear
combinations of admissible monomials; multiplication concatenates words and
renormalizes.  The text form used by the CLI looks like ``2*P^3 P^1 + b P^2``.

All operations are pure functions over immutable values (normal forms are
memoized internally), so concurrent use needs no coordination.
"""

from __future__ import annotations

import functools
import re

from .fp import Record, check_odd_prime


def binom_mod(n: int, k: int, p: int) -> int:
    """Binomial coefficient mod p by Lucas; 0 outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    result = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        num = den = 1
        for i in range(ki):
            num = num * (ni - i) % p
            den = den * (i + 1) % p
        result = result * num * pow(den, -1, p) % p
        n //= p
        k //= p
    return result


class SteenrodMonomial(Record):
    """A word b^{e_0} P^{s_1} b^{e_1} ... P^{s_k} b^{e_k}.

    ``eps`` has length k+1 with entries in {0,1}; ``pows`` holds the k
    positive power exponents.  The word need not be admissible.
    """

    def __init__(self, p: int, eps: tuple[int, ...], pows: tuple[int, ...]):
        check_odd_prime(p)
        if len(eps) != len(pows) + 1:
            raise ValueError("eps must have one more entry than pows")
        if any(e not in (0, 1) for e in eps):
            raise ValueError("Bockstein exponents must be 0 or 1")
        if any(s < 1 for s in pows):
            raise ValueError("power exponents must be positive")
        self.p = p
        self.eps = eps
        self.pows = pows

    def _key(self):
        return self.p, self.eps, self.pows

    @classmethod
    def unit(cls, p: int) -> "SteenrodMonomial":
        return cls(p, (0,), ())

    @classmethod
    def bockstein(cls, p: int) -> "SteenrodMonomial":
        return cls(p, (1,), ())

    @classmethod
    def power(cls, p: int, s: int) -> "SteenrodMonomial":
        return cls(p, (0, 0), (s,))

    def degree(self) -> int:
        return sum(self.eps) + 2 * (self.p - 1) * sum(self.pows)

    def is_unit(self) -> bool:
        return not self.pows and self.eps == (0,)

    def is_admissible(self) -> bool:
        return self.first_inadmissible() is None

    def first_inadmissible(self) -> int | None:
        """Leftmost index i with s_i < p*s_{i+1} + e_i (0-based into pows)."""
        for i in range(len(self.pows) - 1):
            if self.pows[i] < self.p * self.pows[i + 1] + self.eps[i + 1]:
                return i
        return None

    def concat(self, other: "SteenrodMonomial") -> "SteenrodMonomial | None":
        """Word concatenation; None when the meeting Bocksteins square to 0."""
        if self.p != other.p:
            raise ValueError("prime mismatch")
        mid = self.eps[-1] + other.eps[0]
        if mid > 1:
            return None
        return SteenrodMonomial(
            self.p,
            self.eps[:-1] + (mid,) + other.eps[1:],
            self.pows + other.pows,
        )

    def sort_key(self):
        return (self.degree(), len(self.pows), self.pows, self.eps)


@functools.lru_cache(maxsize=None)
def adem_relation(p: int, a: int, b: int) -> tuple[tuple[int, int, int], ...]:
    """The Adem relation P^a P^b = sum c * P^s P^t for 0 < a < p*b, as
    (c, s, t) triples with c nonzero mod p, each word admissible and read as
    P^s alone when t = 0; in ``adem_rewrite``'s order (t = 0, then t
    descending)."""
    out = []
    for t in (0, *range(a // p, 0, -1)):
        c = binom_mod((p - 1) * (b - t) - 1, a - p * t, p)
        if c:
            out.append((c if (a + t) % 2 == 0 else p - c, a + b - t, t))
    return tuple(out)


def _adem_expand(m: SteenrodMonomial, i: int) -> list[tuple[int, SteenrodMonomial]]:
    """One Adem rewriting step on the inadmissible pair at pows index i."""
    p = m.p
    a, e, b = m.pows[i], m.eps[i + 1], m.pows[i + 1]
    out: list[tuple[int, SteenrodMonomial]] = []

    def emit(coeff, eps, pows):
        coeff %= p
        if coeff:
            out.append((coeff, SteenrodMonomial(p, eps, pows)))

    if e == 0:
        for c, s, t in adem_relation(p, a, b):
            if t:
                emit(c, m.eps, m.pows[:i] + (s, t) + m.pows[i + 2:])
            else:
                emit(c, m.eps[: i + 1] + m.eps[i + 2:], m.pows[:i] + (s,) + m.pows[i + 2:])
    else:
        for t in range(a // p + 1):
            sign = 1 if (a + t) % 2 == 0 else -1
            c = sign * binom_mod((p - 1) * (b - t), a - p * t, p)
            if c % p and m.eps[i] == 0:
                # Bockstein moves to the front of the pair.
                if t:
                    emit(c, m.eps[:i] + (1, 0) + m.eps[i + 2:],
                         m.pows[:i] + (a + b - t, t) + m.pows[i + 2:])
                else:
                    emit(c, m.eps[:i] + (1,) + m.eps[i + 2:],
                         m.pows[:i] + (a + b,) + m.pows[i + 2:])
            c2 = -sign * binom_mod((p - 1) * (b - t) - 1, a - p * t - 1, p)
            if c2 % p:
                if t:
                    emit(c2, m.eps, m.pows[:i] + (a + b - t, t) + m.pows[i + 2:])
                else:
                    if m.eps[i + 2] == 0:
                        emit(c2, m.eps[: i + 1] + (1,) + m.eps[i + 3:],
                             m.pows[:i] + (a + b,) + m.pows[i + 2:])
    return out


@functools.lru_cache(maxsize=None)
def _normal_form(m: SteenrodMonomial) -> tuple[tuple[SteenrodMonomial, int], ...]:
    i = m.first_inadmissible()
    if i is None:
        return ((m, 1),)
    terms: dict[SteenrodMonomial, int] = {}
    for coeff, mono in _adem_expand(m, i):
        for nm, c in _normal_form(mono):
            terms[nm] = (terms.get(nm, 0) + coeff * c) % m.p
    return tuple(sorted(
        ((mono, c) for mono, c in terms.items() if c),
        key=lambda mc: mc[0].sort_key(),
    ))


class SteenrodElement(Record):
    """An F_p-linear combination of admissible monomials."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[SteenrodMonomial, int] | None = None):
        check_odd_prime(p)
        self.p = p
        clean: dict[SteenrodMonomial, int] = {}
        for mono, c in (terms or {}).items():
            if mono.p != p:
                raise ValueError("prime mismatch")
            if not mono.is_admissible():
                raise ValueError(f"monomial {render_monomial(mono)} is not admissible")
            c %= p
            if c:
                clean[mono] = c
        self.terms = clean

    @classmethod
    def zero(cls, p: int) -> "SteenrodElement":
        return cls(p)

    @classmethod
    def unit(cls, p: int, coeff: int = 1) -> "SteenrodElement":
        return cls(p, {SteenrodMonomial.unit(p): coeff})

    @classmethod
    def bockstein(cls, p: int) -> "SteenrodElement":
        return cls(p, {SteenrodMonomial.bockstein(p): 1})

    @classmethod
    def power(cls, p: int, s: int) -> "SteenrodElement":
        if s == 0:
            return cls.unit(p)
        return cls(p, {SteenrodMonomial.power(p, s): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        degs = {m.degree() for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def monomials(self) -> list[tuple[SteenrodMonomial, int]]:
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key())

    def __add__(self, other: "SteenrodElement") -> "SteenrodElement":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = (terms.get(m, 0) + c) % self.p
        return SteenrodElement(self.p, terms)

    def scale(self, c: int) -> "SteenrodElement":
        return SteenrodElement(self.p, {m: v * c for m, v in self.terms.items()})

    def _key(self):
        return self.p, tuple(self.monomials())

    def __repr__(self):
        return f"SteenrodElement({self.p}, {render_element(self)!r})"

    def _check(self, other: "SteenrodElement") -> None:
        if self.p != other.p:
            raise ValueError("prime mismatch")


def adem_rewrite(m: SteenrodMonomial) -> SteenrodElement:
    """Admissible normal form of a word, by leftmost-pair Adem rewriting."""
    return SteenrodElement(m.p, dict(_normal_form(m)))


def multiply(x: SteenrodElement, y: SteenrodElement) -> SteenrodElement:
    """Product in the Steenrod algebra: concatenate words, renormalize."""
    if x.p != y.p:
        raise ValueError("prime mismatch")
    terms: dict[SteenrodMonomial, int] = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            word = mx.concat(my)
            if word is None:
                continue
            for nm, c in _normal_form(word):
                terms[nm] = (terms.get(nm, 0) + cx * cy * c) % x.p
    return SteenrodElement(x.p, terms)


def basis_of_degree(p: int, d: int, top: int | None = None) -> list[SteenrodMonomial]:
    """All admissible monomials of degree d.

    With ``top`` given, keeps only monomials that can act nontrivially on an
    unstable class of degree at most ``top - d`` (so on some element of an
    algebra whose highest nonzero degree is ``top``).
    """
    check_odd_prime(p)
    if d < 0:
        return []
    results: list[SteenrodMonomial] = []

    def build(remaining: int, leftmost: int | None, eps: tuple, pows: tuple):
        # eps/pows hold the suffix built so far; leftmost is its first power.
        for e0 in (0, 1):
            if remaining == e0:
                results.append(SteenrodMonomial(p, (e0,) + eps, pows))
        for e in (0, 1):
            low = 1 if leftmost is None else p * leftmost + e
            s = max(low, 1)
            while 2 * s * (p - 1) + e <= remaining:
                build(remaining - 2 * s * (p - 1) - e, s, (e,) + eps, (s,) + pows)
                s += 1

    build(d, None, (), ())
    if top is not None:
        results = [m for m in results if can_act_below(m, top - d)]
    return sorted(set(results), key=lambda m: m.sort_key())


def can_act_below(m: SteenrodMonomial, max_source_degree: int) -> bool:
    """Whether the word can act nontrivially on an unstable class of degree
    at most ``max_source_degree`` (P^s vanishes on degrees below 2s)."""
    if max_source_degree < 0:
        return False
    r = max_source_degree
    for i in range(len(m.pows) - 1, -1, -1):
        r += m.eps[i + 1]
        if 2 * m.pows[i] > r:
            return False
        r += 2 * m.pows[i] * (m.p - 1)
    return True


# ---------------------------------------------------------------------------
# text form

_TOKEN = re.compile(r"\s*(P\^(\d+)|b|\d+|\*|\+)")


def render_monomial(m: SteenrodMonomial) -> str:
    parts = []
    if m.eps[0]:
        parts.append("b")
    for s, e in zip(m.pows, m.eps[1:]):
        parts.append(f"P^{s}")
        if e:
            parts.append("b")
    return " ".join(parts) if parts else "1"


def render_element(x: SteenrodElement) -> str:
    if x.is_zero():
        return "0"
    parts = []
    for mono, c in x.monomials():
        if mono.is_unit():
            parts.append(str(c))
        elif c == 1:
            parts.append(render_monomial(mono))
        else:
            parts.append(f"{c}*{render_monomial(mono)}")
    return " + ".join(parts)


class SteenrodParseError(ValueError):
    pass


def parse_element(text: str, p: int) -> SteenrodElement:
    """Parse ``2*P^3 P^1 + b P^2`` style text into normal form."""
    check_odd_prime(p)
    result = SteenrodElement.zero(p)
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise SteenrodParseError("empty term")
        pos = 0
        coeff = 1
        eps = [0]
        pows: list[int] = []
        seen_factor = False
        while pos < len(chunk):
            match = _TOKEN.match(chunk, pos)
            if not match:
                raise SteenrodParseError(f"unexpected input at {chunk[pos:]!r}")
            tok = match.group(1)
            pos = match.end()
            if tok == "*":
                continue
            if tok == "b":
                eps[-1] += 1
                seen_factor = True
            elif tok.startswith("P^"):
                s = int(match.group(2))
                if s < 1:
                    raise SteenrodParseError("P^k requires k >= 1")
                pows.append(s)
                eps.append(0)
                seen_factor = True
            else:
                coeff = coeff * int(tok)
                seen_factor = True
        if not seen_factor:
            raise SteenrodParseError(f"cannot parse term {chunk!r}")
        if any(e > 1 for e in eps):
            continue  # a b b pair squares to zero
        word = SteenrodMonomial(p, tuple(eps), tuple(pows))
        result = result + adem_rewrite(word).scale(coeff)
    return result
