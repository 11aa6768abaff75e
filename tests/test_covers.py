"""Branched-cover homology orders, towers and Mahler measures."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslink.alexander import alexander_poly, torus_params
from toruslink.arith import divisors
from toruslink.covers import (
    acuna_short_check,
    homology_order_cyclic,
    mahler_measure_quadrature,
    mahler_measure_roots,
    tower_orders_knot,
    tower_orders_link,
)
from toruslink.errors import KnotCase, LinkCase, NonFinite, ZeroInput
from toruslink.polyring import (
    cyclotomic,
    poly_eval_complex,
    poly_mul,
    resultant_monic,
    x_pow_minus_one,
)


def oracle_order(p, q, m):
    """|prod over m-th roots of unity of Delta|, by float evaluation."""
    delta = alexander_poly(torus_params(p, q))
    prod = 1.0 + 0j
    for k in range(m):
        prod *= poly_eval_complex(delta, cmath.exp(2j * cmath.pi * k / m))
    return abs(prod)


def order_by_resultant(P, m):
    """|Res(t^m - 1, Delta)| by Bareiss elimination, after reducing m mod pq
    (Delta divides t^pq - 1) and t^m - 1 mod Delta."""
    delta = alexander_poly(P)
    if len(delta) == 1:
        return 1
    s = m % (P.p * P.q)
    if s == 0:
        # t^m - 1 then contains every root of Delta
        return 0
    return abs(resultant_monic(delta, x_pow_minus_one(s)))


def homology_multiplicative_parts(P, m):
    """|Res(Phi_r, Delta)| for each r | m: the cover order factors through
    the cyclotomic pieces of t^m - 1."""
    delta = alexander_poly(P)
    out = {}
    for r in divisors(m):
        if len(delta) == 1:
            out[r] = 1
        else:
            out[r] = abs(resultant_monic(delta, cyclotomic(r)))
    return out


def quadrature_polyval(f, grid):
    """The midpoint rule with np.polyval on whole 2^18-point blocks."""
    coeffs = np.array(f[::-1], dtype=float)
    total = 0.0
    block = 1 << 18
    for start in range(0, grid, block):
        j = np.arange(start, min(start + block, grid))
        zs = np.exp(2j * np.pi * (j + 0.5) / grid)
        vals = np.abs(np.polyval(coeffs, zs))
        if vals.min() < 1e-14:
            raise NonFinite("quadrature sample landed on a zero")
        total += np.log(vals).sum()
    return float(total / grid)


def test_homology_orders_known():
    P = torus_params(2, 3)
    assert [homology_order_cyclic(P, m) for m in range(1, 13)] == [1, 3, 4, 3, 1, 0, 1, 3, 4, 3, 1, 0]
    P = torus_params(2, 5)
    assert [homology_order_cyclic(P, m) for m in range(1, 11)] == [1, 5, 1, 5, 16, 5, 1, 5, 1, 0]
    P = torus_params(3, 4)
    assert [homology_order_cyclic(P, m) for m in range(1, 7)] == [1, 3, 16, 27, 1, 0]


def test_order_matches_resultant():
    # every knot with p < q <= 13, including T(1, q) (order 1) and every m
    # that the order of some root of Delta divides (order 0)
    zeros = 0
    for p in range(1, 14):
        for q in range(p + 1, 14):
            if math.gcd(p, q) != 1:
                continue
            P = torus_params(p, q)
            for m in range(1, 61):
                h = homology_order_cyclic(P, m)
                assert h == order_by_resultant(P, m), (p, q, m)
                zeros += h == 0
    assert zeros > 0


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=9)),
       st.integers(min_value=1, max_value=24))
def test_order_matches_float_product(pq, m):
    p, q = pq
    if math.gcd(p, q) != 1:
        return
    h = homology_order_cyclic(torus_params(p, q), m)
    est = oracle_order(p, q, m)
    assert abs(h - est) < 1e-6 * max(1.0, est)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 3), (2, 5), (3, 4), (3, 5)]), st.integers(min_value=1, max_value=30))
def test_order_multiplicative_in_cyclotomic_parts(pq, m):
    P = torus_params(*pq)
    parts = homology_multiplicative_parts(P, m)
    prod = 1
    for value in parts.values():
        prod *= value
    assert homology_order_cyclic(P, m) == prod


def test_homology_rejects_links():
    with pytest.raises(LinkCase):
        homology_order_cyclic(torus_params(2, 4), 2)
    with pytest.raises(ValueError):
        homology_order_cyclic(torus_params(2, 3), 0)


def test_knot_towers():
    r = tower_orders_knot(torus_params(2, 3), 2, 3)
    assert list(r.orders) == [1, 3, 3, 3]
    assert list(r.closed_form) == [1, 3, 3, 3]
    assert list(r.valuations) == [0, 0, 0, 0]
    assert not r.relative
    r = tower_orders_knot(torus_params(2, 3), 3, 2)
    assert list(r.orders) == [1, 4, 4]
    r = tower_orders_knot(torus_params(3, 5), 5, 2)
    assert list(r.orders) == [1, 81, 81]
    r = tower_orders_knot(torus_params(2, 3), 5, 3)
    assert list(r.orders) == [1, 1, 1, 1]
    with pytest.raises(LinkCase):
        tower_orders_knot(torus_params(2, 4), 2, 2)


def test_link_towers():
    r = tower_orders_link(torus_params(3, 3), (1, 1, 1), 2, 2)
    assert list(r.orders) == [1, 4, 16]
    assert list(r.valuations) == [0, 2, 4]
    assert r.relative and r.v == 0
    # v > 0: levels up to v are trivial by convention
    r = tower_orders_link(torus_params(2, 6), (1, 2), 2, 3)
    assert r.v == 1
    assert list(r.orders) == [1, 1, 2, 4]
    assert list(r.valuations) == [0, 0, 1, 2]
    # a root of ell-power order kills every deeper level
    r = tower_orders_link(torus_params(3, 6), (1, 1, 1), 3, 3)
    assert list(r.orders) == [1, 0, 0, 0]
    assert list(r.valuations) == [0, None, None, None]
    with pytest.raises(KnotCase):
        tower_orders_link(torus_params(2, 3), (1,), 2, 2)


def test_link_tower_first_level_is_evaluation():
    # relative order at n=1, ell=2 equals |Delta_z(-1)| when v = 0
    P = torus_params(3, 3)
    delta = [1, -1, 0, -1, 1]  # specialize_z with all-ones z keeps Delta
    value = abs(sum(c * (-1) ** i for i, c in enumerate(delta)))
    r = tower_orders_link(P, (1, 1, 1), 2, 1)
    assert r.orders[1] == value == 4


def test_mahler_roots_values():
    assert mahler_measure_roots([-1, 1]) == 1.0
    assert abs(mahler_measure_roots([-2, 1]) - 2.0) < 1e-9
    assert abs(mahler_measure_roots([1, -1, 1]) - 1.0) < 1e-9
    phi = (1 + 5**0.5) / 2
    assert abs(mahler_measure_roots([-1, -1, 1]) - phi) < 1e-9
    # Lehmer's polynomial
    lehmer = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    assert abs(mahler_measure_roots(lehmer) - 1.17628081825991) < 1e-9
    with pytest.raises(ZeroInput):
        mahler_measure_roots([])
    assert mahler_measure_roots([-7]) == 7.0
    huge = 10**400
    for f in ([1, huge], [huge], [huge, huge]):
        with pytest.raises(NonFinite):
            mahler_measure_roots(f)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 12]), min_size=1, max_size=5))
def test_mahler_cyclotomic_products(orders):
    f = [1]
    for r in orders:
        f = poly_mul(f, cyclotomic(r))
    assert abs(mahler_measure_roots(f) - 1.0) < 1e-9


def test_mahler_quadrature():
    # pure monomial: every sample has |f| = 1, so only roundoff remains
    assert abs(mahler_measure_quadrature([0, 1], 64)) < 1e-15
    assert abs(mahler_measure_quadrature([-2, 1], 1 << 16) - math.log(2)) < 1e-3
    phi = (1 + 5**0.5) / 2
    assert abs(mahler_measure_quadrature([-1, -1, 1], 1 << 18) - math.log(phi)) < 1e-3
    delta = alexander_poly(torus_params(2, 3))
    assert abs(mahler_measure_quadrature(delta, 1 << 18)) < 1e-2
    with pytest.raises(ZeroInput):
        mahler_measure_quadrature([0], 64)
    with pytest.raises(ValueError):
        mahler_measure_quadrature([1, 1], 8)
    with pytest.raises(NonFinite):
        mahler_measure_quadrature([1, 10**400], 64)
    # bit for bit against np.polyval, on grids inside one 2^12-point
    # sub-block (16, 17, 1000), one point past it (4097) and three points
    # past a 2^18-point block
    polys = [[0, 1], [-2, 1], [1, 1], [3, 0, -1, 4, 0, 0, 5], delta,
             alexander_poly(torus_params(5, 7)), alexander_poly(torus_params(6, 9))]
    for f in polys:
        for grid in (16, 17, 1000, 4097, (1 << 18) + 3):
            try:
                want = quadrature_polyval(f, grid)
            except NonFinite:
                with pytest.raises(NonFinite):
                    mahler_measure_quadrature(f, grid)
                continue
            assert mahler_measure_quadrature(f, grid) == want, (f, grid)


def test_mahler_quadrature_near_zero_guard():
    # grid 17 places a sample exactly on the zero of t + 1 at angle 1/2
    with pytest.raises(NonFinite):
        mahler_measure_quadrature([1, 1], 17)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=9).filter(
    lambda c: any(c) and c[-1] != 0 and c[0] != 0))
def test_jensen_agreement(f):
    # quadrature approximates log of the root formula for generic polynomials
    try:
        quad = mahler_measure_quadrature(f, 1 << 17)
    except NonFinite:
        return
    assert abs(quad - math.log(mahler_measure_roots(f))) < 1e-2


def test_acuna_short_tail():
    P = torus_params(2, 3)
    value = acuna_short_check(P, 60)
    assert abs(value - (4 ** (1 / 33) - 1)) < 1e-12
    # the tail sup shrinks as the window deepens
    assert acuna_short_check(P, 120) < value
    deep = acuna_short_check(P, 600)
    assert deep < 0.005
    with pytest.raises(LinkCase):
        acuna_short_check(torus_params(2, 4), 10)


def test_acuna_matches_recomputation():
    P = torus_params(2, 5)
    n_max = 40
    tail = range(max(1, (n_max + 1) // 2), n_max + 1)
    expected = 0.0
    for n in tail:
        h = homology_order_cyclic(P, n)
        if h:
            expected = max(expected, abs(h ** (1.0 / n) - 1.0))
    assert acuna_short_check(P, n_max) == pytest.approx(expected, abs=1e-15)
