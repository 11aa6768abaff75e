"""Exact dense-polynomial arithmetic.

The resultant oracle below uses the classical sign-tracked Euclidean
recursion over Fractions, which shares no code with the Bareiss
elimination in the library.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslink.arith import totient
from toruslink.errors import DivByZero, NotDivisible
from toruslink.polyring import (
    content,
    cyclotomic,
    degree,
    derivative,
    geometric,
    laurent_normalize,
    poly_add,
    poly_divmod,
    poly_eval_complex,
    poly_eval_int,
    poly_exact_div,
    poly_gcd,
    poly_mul,
    poly_sub,
    resultant,
    resultant_monic,
    squarefree_decomposition,
    x_pow_minus_one,
)

coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=7)
nonzero = coeffs.filter(lambda c: any(c))


def euclid_resultant(f, g):
    """Res(f, g) over Q by the remainder recursion; exact Fractions."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]

    def strip(h):
        while h and h[-1] == 0:
            h.pop()
        return h

    def rec(a, b):
        a, b = strip(list(a)), strip(list(b))
        if not a or not b:
            # Res with the zero polynomial: 1 only for two nonzero constants,
            # handled below; any positive-degree partner gives 0.
            return Fraction(0)
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return b[0] ** m
        if m == 0:
            return a[0] ** n
        # a = qb + r via rational long division
        r = list(a)
        q_lead = []
        while len(r) - 1 >= n and any(r):
            shift = len(r) - 1 - n
            c = r[-1] / b[-1]
            for i, bc in enumerate(b):
                r[shift + i] -= c * bc
            r = strip(r)
            if not r:
                break
        r = strip(r)
        if not r:
            return Fraction(0)
        k = len(r) - 1
        return (-1) ** (m * n) * b[-1] ** (m - k) * rec(b, r)

    return rec(f, g)


@given(coeffs, coeffs, coeffs)
def test_ring_axioms(a, b, c):
    assert poly_mul(a, b) == poly_mul(b, a)
    assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
    assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))
    assert poly_sub(poly_add(a, b), b) == poly_add(a, [])


# sparse divisors: t^k - 1, and coefficient lists with interior zeros
sparse = st.lists(st.sampled_from([0, 0, 0, -2, -1, 1, 3]), min_size=1, max_size=12).filter(any)
divisor = st.one_of(nonzero, st.integers(min_value=1, max_value=12).map(x_pow_minus_one), sparse)


@given(coeffs, divisor, coeffs)
def test_divmod_roundtrip(a, b, c):
    stripped = poly_add(a, [])
    prod = poly_mul(a, b)
    assert poly_exact_div(prod, b) == stripped
    q, r = poly_divmod(prod, b)
    assert q == stripped and r == []
    # a remainder below deg b comes back unchanged, whatever the divisor
    db = degree(b)
    low = poly_add(c[:db], [])
    assert poly_divmod(poly_add(prod, low), b) == (stripped, low)
    if low:
        with pytest.raises(NotDivisible):
            poly_exact_div(poly_add(prod, low), b)
    # t^db / b needs 1 / lead(b) as its first quotient coefficient
    if abs(b[db]) > 1:
        with pytest.raises(NotDivisible):
            poly_divmod([0] * db + [1], b)


def test_division_errors():
    with pytest.raises(NotDivisible):
        poly_exact_div([1, 1], [2])
    with pytest.raises(NotDivisible):
        poly_exact_div([1, 0, 1], [1, 1])
    with pytest.raises(DivByZero):
        poly_divmod([1, 1], [])


@given(st.integers(min_value=1, max_value=130))
def test_cyclotomic_product_is_binomial(r):
    prod = [1]
    for d in range(1, r + 1):
        if r % d == 0:
            prod = poly_mul(prod, cyclotomic(d))
    assert prod == x_pow_minus_one(r)


@given(st.integers(min_value=1, max_value=200))
def test_cyclotomic_degree(r):
    assert degree(cyclotomic(r)) == totient(r)


def test_cyclotomic_small_values():
    assert cyclotomic(1) == [-1, 1]
    assert cyclotomic(2) == [1, 1]
    assert cyclotomic(3) == [1, 1, 1]
    assert cyclotomic(6) == [1, -1, 1]
    assert cyclotomic(12) == [1, 0, -1, 0, 1]
    # first index where a coefficient outside {-1, 0, 1} appears
    assert min(cyclotomic(105)) == -2


@given(st.integers(min_value=2, max_value=199).filter(
    lambda p: all(p % k for k in range(2, p))))
def test_cyclotomic_prime_is_geometric(p):
    assert cyclotomic(p) == geometric(p)


@settings(max_examples=60)
@given(nonzero, nonzero)
def test_resultant_matches_euclid_oracle(f, g):
    assert resultant(f, g) == euclid_resultant(f, g)


@settings(max_examples=60)
@given(nonzero, nonzero)
def test_resultant_swap_sign(f, g):
    m, n = degree(f), degree(g)
    assert resultant(f, g) == (-1) ** (m * n) * resultant(g, f)


@settings(max_examples=40)
@given(nonzero, nonzero, nonzero)
def test_resultant_multiplicative(f, g, h):
    assert resultant(poly_mul(f, g), h) == resultant(f, h) * resultant(g, h)


@settings(max_examples=60)
@given(nonzero, st.integers(min_value=1, max_value=5))
def test_resultant_monic_agrees_with_bareiss(g, k):
    f = [0] * k + [1]
    f[0] = -1  # x^k - 1, monic
    assert resultant_monic(f, g) == resultant(f, g)


def test_resultant_monic_zero_conventions():
    assert resultant_monic([-1, 0, 1], []) == 0
    assert resultant_monic([1], []) == 1
    assert resultant_monic([1], [3, 1]) == 1


def test_resultant_known_values():
    # Res(x - 1, x^2 + 1) = 2; Res(x^2 - 2, x^2 - 3) = 1
    assert resultant([-1, 1], [1, 0, 1]) == 2
    assert resultant([-2, 0, 1], [-3, 0, 1]) == 1
    assert resultant_monic([-1, 1], [5]) == 5


@settings(max_examples=40)
@given(nonzero, nonzero, nonzero)
def test_gcd_divides_both(a, b, c):
    f, g = poly_mul(a, c), poly_mul(b, c)
    d = poly_gcd(f, g)
    assert d and d[-1] > 0
    assert euclid_divides(d, f) and euclid_divides(d, g)
    assert euclid_divides(c, d)


def euclid_divides(d, f):
    if not any(f):
        return True
    dd = [Fraction(c) for c in d]
    while dd and dd[-1] == 0:
        dd.pop()
    if len(dd) == 1:
        return True
    r = [Fraction(c) for c in f]
    n = len(dd) - 1
    while len(r) - 1 >= n:
        shift = len(r) - 1 - n
        c = r[-1] / dd[-1]
        for i, bc in enumerate(dd):
            r[shift + i] -= c * bc
        while r and r[-1] == 0:
            r.pop()
        if not r:
            return True
    return not r


@settings(max_examples=40)
@given(nonzero)
def test_squarefree_reconstruction(f):
    c, parts = squarefree_decomposition(f)
    rebuilt = [c]
    for a, mult in parts:
        assert a[-1] > 0
        for _ in range(mult):
            rebuilt = poly_mul(rebuilt, a)
    assert rebuilt == poly_add(f, [])
    # distinct parts are pairwise coprime
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert degree(poly_gcd(parts[i][0], parts[j][0])) == 0


def test_squarefree_known():
    f = poly_mul(poly_mul([1, 1], [1, 1]), [-1, 1])  # (x+1)^2 (x-1)
    c, parts = squarefree_decomposition(f)
    assert c == 1
    assert sorted(parts, key=lambda t: t[1]) == [([-1, 1], 1), ([1, 1], 2)]


@given(nonzero, st.integers(min_value=-4, max_value=4))
def test_eval_int_matches_horner(f, x):
    expected = sum(c * x**i for i, c in enumerate(f))
    assert poly_eval_int(f, x) == expected
    zc = poly_eval_complex(f, complex(x))
    assert abs(zc - expected) <= 1e-9 * (1 + abs(expected))


def test_laurent_normalize():
    assert laurent_normalize([0, 0, -2, -4]) == [2, 4]
    assert laurent_normalize([0, 3]) == [3]
    assert laurent_normalize([]) == []


@given(nonzero)
def test_derivative_degree(f):
    fp = derivative(f)
    if degree(f) >= 1:
        assert degree(fp) == degree(f) - 1 or all(c == 0 for c in fp)
    else:
        assert fp == []
