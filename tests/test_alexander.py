"""Torus-link Alexander polynomials, factorizations and specializations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslink.alexander import (
    admissible_vector,
    alexander_poly,
    coloring_zero_order,
    cyclotomic_multiplicities,
    determinant,
    ell_colorable,
    hosokawa,
    specialize_z,
    torus_params,
)
from toruslink.arith import totient
from toruslink.errors import KnotCase, NonAdmissible, ZeroAlpha
from toruslink.polyring import (
    cyclotomic,
    geometric,
    laurent_normalize,
    poly_eval_int,
    poly_exact_div,
    poly_mul,
    x_pow_minus_one,
)

pairs = st.tuples(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))


def test_params_basic():
    P = torus_params(6, 4)
    assert (P.d, P.p_prime, P.q_prime, P.L) == (2, 3, 2, 12)
    assert not P.is_knot()
    assert torus_params(2, 3).is_knot()
    with pytest.raises(ValueError):
        torus_params(0, 3)


def test_known_polynomials():
    assert alexander_poly(torus_params(2, 3)) == [1, -1, 1]
    assert alexander_poly(torus_params(2, 5)) == [1, -1, 1, -1, 1]
    assert alexander_poly(torus_params(2, 2)) == [-1, 1]
    assert alexander_poly(torus_params(2, 4)) == [-1, 1, -1, 1]
    assert alexander_poly(torus_params(3, 3)) == [1, -1, 0, -1, 1]
    assert alexander_poly(torus_params(3, 4)) == [1, -1, 0, 1, 0, -1, 1]
    assert alexander_poly(torus_params(1, 7)) == [1]
    assert alexander_poly(torus_params(1, 1)) == [1]


@settings(max_examples=80)
@given(pairs)
def test_defining_identity(pq):
    """Delta * (t^p - 1)(t^q - 1) == (t^L - 1)^d (t - 1), exactly."""
    p, q = pq
    P = torus_params(p, q)
    delta = alexander_poly(P)
    lhs = poly_mul(delta, poly_mul(x_pow_minus_one(p), x_pow_minus_one(q)))
    rhs = x_pow_minus_one(1)
    for _ in range(P.d):
        rhs = poly_mul(rhs, x_pow_minus_one(P.L))
    assert lhs == rhs
    assert len(delta) - 1 == (p - 1) * (q - 1)
    assert delta[-1] == 1


@settings(max_examples=60)
@given(pairs)
def test_multiplicity_table(pq):
    P = torus_params(*pq)
    table = cyclotomic_multiplicities(P).entries
    assert all(1 <= m <= P.d for m in table.values())
    assert sum(m * totient(r) for r, m in table.items()) == (pq[0] - 1) * (pq[1] - 1)
    prod = [1]
    for r, m in table.items():
        for _ in range(m):
            prod = poly_mul(prod, cyclotomic(r))
    assert prod == alexander_poly(P)


def test_multiplicity_examples():
    assert cyclotomic_multiplicities(torus_params(2, 3)).entries == {6: 1}
    assert cyclotomic_multiplicities(torus_params(2, 4)).entries == {1: 1, 4: 1}
    assert cyclotomic_multiplicities(torus_params(3, 3)).entries == {1: 2, 3: 1}
    assert cyclotomic_multiplicities(torus_params(1, 9)).entries == {}


def test_determinants():
    expected = {
        (2, 3): 3, (2, 5): 5, (3, 4): 3, (3, 5): 1, (2, 4): 4,
        (2, 6): 6, (3, 3): 4, (4, 6): 12, (4, 4): 0, (3, 6): 0,
    }
    for pq, det in expected.items():
        assert determinant(torus_params(*pq)) == det
    # the ledger product against the dense route |Delta(-1)|
    for p in range(1, 61):
        for q in range(p, 61):
            P = torus_params(p, q)
            assert determinant(P) == abs(poly_eval_int(alexander_poly(P), -1)), (p, q)


def test_colorability():
    # trefoil is 3-colorable and nothing else small
    P = torus_params(2, 3)
    assert [ell for ell in (2, 3, 5, 7, 11, 13) if ell_colorable(P, ell)] == [3]
    assert coloring_zero_order(P, 3) == 2
    assert coloring_zero_order(P, 2) == 0
    # determinant 0: colorable for every prime
    Z = torus_params(4, 4)
    assert all(ell_colorable(Z, ell) for ell in (2, 3, 5, 7))
    assert coloring_zero_order(Z, 2) == 9
    assert coloring_zero_order(torus_params(2, 5), 5) == 4


def coloring_zero_order_dense(P, ell):
    """Multiplicity of t + 1 in Delta mod ell by repeated synthetic division
    over the field with ell elements."""
    f = [c % ell for c in alexander_poly(P)]
    while f and f[-1] == 0:
        f.pop()
    order = 0
    while f:
        # one synthetic-division pass at the root -1; the running value ends
        # as the remainder f(-1) and the intermediate values are the quotient
        quot = []
        acc = 0
        for a in reversed(f):
            acc = (a - acc) % ell
            quot.append(acc)
        if quot.pop() != 0:
            break
        f = quot[::-1]
        while f and f[-1] == 0:
            f.pop()
        order += 1
    return order


def test_coloring_zero_order_matches_dense():
    for p in range(1, 41):
        for q in range(p, 41):
            P = torus_params(p, q)
            for ell in (2, 3, 5, 7, 11, 13):
                assert coloring_zero_order(P, ell) == coloring_zero_order_dense(P, ell), (p, q, ell)
    with pytest.raises(ValueError):
        coloring_zero_order(torus_params(4, 6), 4)


def test_admissible_vector_validation():
    P = torus_params(4, 4)
    with pytest.raises(NonAdmissible):
        admissible_vector(P, (1, 3))  # wrong length for a 4-component link
    with pytest.raises(NonAdmissible):
        admissible_vector(P, (1, 0, 1, 1))
    with pytest.raises(NonAdmissible):
        admissible_vector(torus_params(2, 4), (2, 2))
    vec = admissible_vector(P, (1, 2, 1, 2))
    assert vec.alpha == 6


def test_specialize_values():
    assert specialize_z(torus_params(2, 4), (1, 1)) == [-1, 1, -1, 1]
    assert specialize_z(torus_params(2, 2), (2, 1)) == [-1, 1]
    assert specialize_z(torus_params(2, 6), (1, -3)) == [-1, 1, -1, 1, -1, 1]
    # knots ignore the specialization beyond validation
    assert specialize_z(torus_params(2, 3), (1,)) == [1, -1, 1]


def test_specialize_zero_alpha():
    with pytest.raises(ZeroAlpha):
        specialize_z(torus_params(2, 4), (1, -1))


def hosokawa_geometric(P, z):
    """The geometric-product route g_N^d / (g_(a p') g_(a q')), N = a p' q'."""
    a = abs(sum(z))
    num = [1]
    for _ in range(P.d):
        num = poly_mul(num, geometric(a * P.p_prime * P.q_prime))
    f = poly_exact_div(num, geometric(a * P.p_prime))
    f = poly_exact_div(f, geometric(a * P.q_prime))
    return laurent_normalize(f)


def test_hosokawa():
    assert hosokawa(torus_params(2, 4), (1, 1)) == [1, 0, 1]
    assert hosokawa(torus_params(3, 3), (1, 1, 1)) == [1, 1, 1]
    assert hosokawa(torus_params(2, 2), (2, 1)) == [1]
    for p in range(2, 13):
        for q in range(p, 13):
            P = torus_params(p, q)
            if not 2 <= P.d <= 4:
                continue
            for z in ((1,) * P.d, (2,) + (1,) * (P.d - 1), (-2,) + (1,) * (P.d - 1)):
                if sum(z) != 0:
                    assert hosokawa(P, z) == hosokawa_geometric(P, z), (p, q, z)
    with pytest.raises(KnotCase):
        hosokawa(torus_params(2, 3), (1,))


@settings(max_examples=80)
@given(st.tuples(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=12)),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4))
def test_hosokawa_times_binomial_is_specialization(pq, zs):
    P = torus_params(*pq)
    z = tuple(zs[: P.d])
    if not 2 <= P.d <= 4 or 0 in z or math.gcd(*z) != 1 or sum(z) == 0:
        return
    h = hosokawa(P, z)
    assert h == hosokawa_geometric(P, z)
    binomial = [1]
    for _ in range(P.d - 1):
        binomial = poly_mul(binomial, [-1, 1])
    assert poly_mul(h, binomial) == specialize_z(P, z)
