import itertools
import random

import pytest

from dnalg.steenrod import (
    SteenrodElement,
    SteenrodMonomial,
    adem_relation,
    adem_rewrite,
    basis_of_degree,
    binom_mod,
    can_act_below,
    multiply,
    parse_element,
    render_element,
    render_monomial,
)
from dnalg.steenrod import _adem_expand


def P(p, s):
    return SteenrodMonomial.power(p, s)


def word(p, *tokens):
    """Build a monomial from tokens like 'b', 1, 'b', 3 (ints are powers)."""
    eps = [0]
    pows = []
    for t in tokens:
        if t == "b":
            eps[-1] += 1
        else:
            pows.append(t)
            eps.append(0)
    return SteenrodMonomial(p, tuple(eps), tuple(pows))


def pascal(n, k, p):
    """Independent binomial-mod-p oracle via the recurrence."""
    if k < 0 or n < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [(a + b) % p for a, b in zip([0] + row, row + [0])]
    return row[k]


# ---------------------------------------------------------------------------
# degree and admissibility


def test_degree_examples():
    assert P(5, 2).degree() == 16
    assert SteenrodMonomial.bockstein(3).degree() == 1
    assert word(3, 3, 1).degree() == 16


def test_admissibility():
    assert word(3, 3, 1).is_admissible()
    assert not word(3, 1, 1).is_admissible()
    assert not word(3, 3, "b", 1).is_admissible()  # needs s >= p s' + 1
    assert word(3, 4, "b", 1).is_admissible()


# ---------------------------------------------------------------------------
# rewriting identities


@pytest.mark.parametrize("p", [3, 5, 7])
def test_p1_ppminus1_vanishes(p):
    assert adem_rewrite(word(p, 1, p - 1)).is_zero()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_p1_squared(p):
    got = multiply(SteenrodElement.power(p, 1), SteenrodElement.power(p, 1))
    assert got == SteenrodElement(p, {P(p, 2): 2})


def test_p2_p1_at_5():
    got = multiply(SteenrodElement.power(5, 2), SteenrodElement.power(5, 1))
    assert got == SteenrodElement(5, {P(5, 3): 3})


@pytest.mark.parametrize("p", [3, 5, 7])
def test_bockstein_squares_to_zero(p):
    b = SteenrodElement.bockstein(p)
    assert multiply(b, b).is_zero()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_iterated_first_power(p):
    import math

    it = SteenrodElement.unit(p)
    for m in range(1, p):
        it = multiply(SteenrodElement.power(p, 1), it)
        assert it == SteenrodElement.power(p, m).scale(math.factorial(m))
    # one more application collapses everything
    assert multiply(SteenrodElement.power(p, 1), it).is_zero()


def test_unit_is_identity():
    x = adem_rewrite(word(5, 2, "b", 1))
    assert multiply(SteenrodElement.unit(5), x) == x
    assert multiply(x, SteenrodElement.unit(5)) == x


def test_idempotence_and_degree_preservation():
    rng = random.Random(1)
    for _ in range(40):
        w = _random_word(rng, 3, 4)
        nf = adem_rewrite(w)
        for mono, _ in nf.terms.items():
            assert mono.is_admissible()
            assert mono.degree() == w.degree()
            assert adem_rewrite(mono) == SteenrodElement(3, {mono: 1})


def test_inadmissible_always_rewrites():
    for p in (3, 5):
        for b in range(1, 4):
            for a in range(1, p * b):
                w = word(p, a, b)
                nf = adem_rewrite(w)
                assert w not in nf.terms


def test_adem_relation_is_the_normal_form_of_each_pair():
    # 3 060 pairs (p, a, b) with 0 < a < p*b; no normal form holds a Bockstein.
    import math

    for p in (3, 5, 7, 11):
        for b in range(1, 16):
            for a in range(1, p * b):
                got = adem_relation(p, a, b)
                nf = adem_rewrite(word(p, a, b)).terms.items()
                assert not any(any(w.eps) for w, _ in nf)
                assert got == tuple((c, *w.pows, 0)[:3] for w, c in nf)
                # the closed Adem sum, with binomials from math.comb
                closed = {}
                for t in range(a // p + 1):
                    n = (p - 1) * (b - t) - 1
                    c = (-1) ** (a + t) * math.comb(n, a - p * t) % p if n >= 0 else 0
                    if c:
                        closed[(a + b - t, t)] = c
                assert {(s, t): c for c, s, t in got} == closed


def _random_word(rng, p, max_len):
    tokens = []
    for _ in range(rng.randrange(1, max_len + 1)):
        if rng.random() < 0.25:
            tokens.append("b")
        tokens.append(rng.randrange(1, 8))
    w = word(p, *tokens)
    return w


def test_associativity_small_degrees():
    rng = random.Random(2)
    count = 0
    while count < 60:
        a = _random_word(rng, 3, 2)
        b = _random_word(rng, 3, 2)
        c = _random_word(rng, 3, 2)
        if a.degree() + b.degree() + c.degree() > 40:
            continue
        count += 1
        ea, eb, ec = (adem_rewrite(m) for m in (a, b, c))
        assert multiply(multiply(ea, eb), ec) == multiply(ea, multiply(eb, ec))


def test_rewrite_order_independence():
    # reduce the rightmost inadmissible pair instead of the leftmost
    def rightmost_nf(m):
        terms = {}
        stack = [(1, m)]
        while stack:
            c, mono = stack.pop()
            idx = None
            for i in range(len(mono.pows) - 1):
                if mono.pows[i] < mono.p * mono.pows[i + 1] + mono.eps[i + 1]:
                    idx = i  # keep going: remember the last (rightmost)
            if idx is None:
                terms[mono] = (terms.get(mono, 0) + c) % mono.p
            else:
                for c2, m2 in _adem_expand(mono, idx):
                    stack.append((c * c2 % mono.p, m2))
        return SteenrodElement(m.p, terms)

    rng = random.Random(3)
    for _ in range(25):
        w = _random_word(rng, 3, 3)
        assert adem_rewrite(w) == rightmost_nf(w)


# ---------------------------------------------------------------------------
# coefficient oracle: the closed-form action on the rank-one classifying
# space, Lambda(x) (x) F_p[y] with y = beta(x).  Basis: x^d y^n, d in {0,1}.
# P^k(y^n) = C(n,k) y^{n+k(p-1)}, P^k(x) = 0 for k >= 1, beta(x) = y.


def _oracle_act_word(p, mono, elem):
    """elem: dict {(d, n): coeff}; apply the word right-to-left."""

    def apply_beta(e):
        out = {}
        for (d, n), c in e.items():
            if d:
                out[(0, n + 1)] = (out.get((0, n + 1), 0) + c) % p
        return out

    def apply_power(k, e):
        out = {}
        for (d, n), c in e.items():
            coeff = binom_mod(n, k, p) * c % p
            if coeff:
                key = (d, n + k * (p - 1))
                out[key] = (out.get(key, 0) + coeff) % p
        return out

    e = dict(elem)
    if mono.eps[-1]:
        e = apply_beta(e)
    for i in range(len(mono.pows) - 1, -1, -1):
        e = apply_power(mono.pows[i], e)
        if mono.eps[i]:
            e = apply_beta(e)
    return {k: v for k, v in e.items() if v}


def _oracle_act_element(p, element, start):
    total = {}
    for mono, c in element.terms.items():
        for key, v in _oracle_act_word(p, mono, start).items():
            total[key] = (total.get(key, 0) + c * v) % p
    return {k: v for k, v in total.items() if v}


@pytest.mark.parametrize("p", [3, 5])
def test_rewriting_matches_classifying_space_action(p):
    rng = random.Random(p)
    for _ in range(60):
        w = _random_word(rng, p, 3)
        nf = adem_rewrite(w)
        for start in [{(0, 1): 1}, {(1, 1): 1}, {(0, 3): 1}, {(1, 2): 1}]:
            direct = _oracle_act_word(p, w, start)
            via_nf = _oracle_act_element(p, nf, start)
            assert direct == via_nf, (render_monomial(w), start)


def test_pascal_agrees_with_lucas():
    for p in (3, 5, 7):
        for n in range(30):
            for k in range(30):
                assert binom_mod(n, k, p) == pascal(n, k, p)


# ---------------------------------------------------------------------------
# admissible bases


def test_basis_degree_zero():
    assert basis_of_degree(3, 0) == [SteenrodMonomial.unit(3)]


def test_basis_p3_degree4():
    assert basis_of_degree(3, 4) == [P(3, 1)]


def brute_force_basis(p, d):
    """Oracle: enumerate all words of degree d and keep the admissible ones."""
    found = set()
    max_powers = d // (2 * (p - 1)) if p > 1 else 0

    def rec(eps, pows, deg_left):
        if deg_left >= 0:
            for e0 in (0, 1):
                if deg_left == e0:
                    found.add(SteenrodMonomial(p, (e0,) + tuple(eps), tuple(pows)))
        for e in (0, 1):
            for s in range(1, max_powers + 1):
                cost = 2 * s * (p - 1) + e
                if cost <= deg_left:
                    rec((e,) + tuple(eps), (s,) + tuple(pows), deg_left - cost)

    rec((), (), d)
    return sorted(
        (m for m in found if m.is_admissible()), key=lambda m: m.sort_key()
    )


@pytest.mark.parametrize("d", [1, 4, 8, 9, 12, 13, 16, 17])
def test_basis_against_brute_force_p3(d):
    assert basis_of_degree(3, d) == brute_force_basis(3, d)


@pytest.mark.parametrize("d", [8, 16, 17, 24])
def test_basis_against_brute_force_p5(d):
    assert basis_of_degree(5, d) == brute_force_basis(5, d)


@pytest.mark.parametrize("d", [12, 24, 25, 36])
def test_basis_against_brute_force_p7(d):
    assert basis_of_degree(7, d) == brute_force_basis(7, d)


def test_basis_p3_degree13_contents():
    names = [render_monomial(m) for m in basis_of_degree(3, 13)]
    assert names == ["P^3 b", "b P^3"]


def test_top_restriction_prunes():
    full = basis_of_degree(3, 12)
    # acting into top degree 12 means the source must be degree 0
    restricted = basis_of_degree(3, 12, top=12)
    assert set(restricted) <= set(full)
    for m in restricted:
        assert can_act_below(m, 0)
    # P^3 requires a class of degree >= 6, so it cannot act on degree 0
    assert P(3, 3) in full and P(3, 3) not in restricted


# ---------------------------------------------------------------------------
# text form


def test_render_parse_round_trip():
    rng = random.Random(9)
    for _ in range(25):
        w = _random_word(rng, 5, 3)
        x = adem_rewrite(w).scale(rng.randrange(1, 5))
        assert parse_element(render_element(x), 5) == x


def test_parse_examples():
    assert parse_element("P^1 P^2", 3).is_zero()
    assert parse_element("2*P^3 P^1 + b P^2", 3) == SteenrodElement(
        3, {word(3, 3, 1): 2, word(3, "b", 2): 1}
    )
    assert parse_element("0 + P^1", 3) == SteenrodElement.power(3, 1)
    assert render_element(SteenrodElement.zero(7)) == "0"
    assert render_element(SteenrodElement.unit(7, 3)) == "3"
