"""Root equidistribution scans.

walk_arc_count re-derives arc counts from first principles: enumerate the
angles k/L, look up the multiplicity of the corresponding cyclotomic factor,
and compare endpoints as exact rationals.  It shares no code path with the
inclusion-exclusion counting in the library.

The library's family totals are Moebius and divisor sums; the outer_*
oracles below enumerate every pair (p, q) <= X in X-by-X arrays instead.
scan's arc totals are floor sums over the four-term count; scan_per_pair
visits every pair and reads each link's count off its cyclotomic ledger.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toruslink.alexander import cyclotomic_multiplicities, torus_params
from toruslink.arith import factorize, omega
from toruslink.distribution import (
    ALL_LINKS,
    KNOTS_COPRIME,
    Arc,
    _floor_sum,
    _signed_divisors,
    arc,
    arc_count_direct,
    arc_count_single,
    count_coprime_pairs,
    count_coprime_pairs_mobius,
    count_roots_total,
    frequency_Fr,
    scan,
    weyl_sum,
)
from toruslink.moments import moment

fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=40)
fractions_64 = st.fractions(min_value=0, max_value=1, max_denominator=64)
small_pairs = st.tuples(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
PAIR_COUNT_XS = (1, 2, 3, 17, 100, 257)


def outer_coprime_pairs(X):
    P = np.arange(1, X + 1)
    return int((np.gcd.outer(P, P) == 1).sum())


def outer_roots_total(X, family):
    P = np.arange(1, X + 1)
    W = P - 1
    if family == ALL_LINKS:
        return int(W.sum()) ** 2
    mask = np.gcd.outer(P, P) == 1
    return int(np.outer(W, W)[mask].sum())


def outer_frequency(X, r):
    P = np.arange(1, X + 1)
    coprime = np.gcd.outer(P, P) == 1
    ndiv = (P % r) != 0
    hits = coprime & (np.outer(P, P) % r == 0) & ndiv[:, None] & ndiv[None, :]
    return Fraction(int(hits.sum()), int(coprime.sum()))


def walk_arc_count(p, q, a: Arc) -> int:
    P = torus_params(p, q)
    table = cyclotomic_multiplicities(P).entries
    total = 0
    for k in range(P.L):
        theta = Fraction(k, P.L)
        r = P.L // math.gcd(k, P.L)
        mult = table.get(r, 0)
        if mult == 0:
            continue
        inside = a.a <= theta <= a.b or (theta == 0 and a.b == 1)
        if inside:
            total += mult
    return total


class PerPairCounter:
    """The former library route: the table r -> N_r of primitive r-th
    roots of unity in the arc, by Moebius over the divisors of r, and the
    sum of M_r N_r over each link's cyclotomic ledger."""

    def __init__(self, a: Arc):
        self.an, self.ad = a.a.numerator, a.a.denominator
        self.bn, self.bd = a.b.numerator, a.b.denominator
        self.primitive = {1: 1 if (a.a == 0 or a.b == 1) else 0}

    def _span(self, n):
        return -(-self.an * n // self.ad) - 1, self.bn * n // self.bd

    def primitive_count(self, r):
        n = self.primitive.get(r)
        if n is None:
            below, hi = self._span(r)
            primes = [ell for ell, _ in factorize(r)]
            n = sum(s * (hi // e - below // e) for e, s in _signed_divisors(primes))
            self.primitive[r] = n
        return n

    def knot(self, p, q):
        # inclusion-exclusion on k in [1, pq - 1]: k/pq in the arc and k
        # divisible by neither p nor q
        pq = p * q
        below, hi = self._span(pq)
        below = max(below, 0)
        hi = min(hi, pq - 1)
        if below >= hi:
            return 0
        return (hi - below) - (hi // p - below // p) - (hi // q - below // q)

    def link(self, p, q):
        entries = cyclotomic_multiplicities(torus_params(p, q)).entries
        return sum(m * self.primitive_count(r) for r, m in entries.items())


def scan_per_pair(X, family, a):
    """(t_count, omega_count, arc_count, rows) by visiting every pair."""
    counter = PerPairCounter(a)
    t_count = omega_count = in_arc = 0
    rows = []
    for p in range(1, X + 1):
        for q in range(1, X + 1):
            d = math.gcd(p, q)
            if d != 1 and family == KNOTS_COPRIME:
                continue
            roots = (p - 1) * (q - 1)
            if d == 1:
                count = counter.knot(p, q)
            else:
                count = counter.link(p, q)
            t_count += 1
            omega_count += roots
            in_arc += count
            rows.append((p, q, d, roots, count))
    return t_count, omega_count, in_arc, rows


def test_arc_validation():
    with pytest.raises(ValueError):
        Arc(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        Arc(Fraction(-1, 10), Fraction(1, 2))
    assert arc("1/10", "7/20").b == Fraction(7, 20)


def test_arc_count_examples():
    A = arc("1/10", "7/20")
    B = arc(0, "1/2")
    point = arc("1/3", "1/3")
    expected = {
        (2, 3): (1, 1, 0),
        (2, 4): (1, 2, 0),
        (3, 4): (1, 3, 0),
        (4, 6): (3, 8, 1),
        (5, 5): (3, 10, 0),
    }
    for (p, q), counts in expected.items():
        P = torus_params(p, q)
        assert (arc_count_single(P, A), arc_count_single(P, B), arc_count_single(P, point)) == counts


def test_unknot_has_no_roots():
    assert arc_count_single(torus_params(1, 5), arc(0, 1)) == 0


@settings(max_examples=120)
@given(small_pairs, fractions_01, fractions_01)
def test_three_route_agreement(pq, x, y):
    a = Arc(min(x, y), max(x, y))
    P = torus_params(*pq)
    expected = walk_arc_count(*pq, a)
    assert arc_count_single(P, a) == expected
    assert arc_count_direct(P, a) == expected


@settings(max_examples=60)
@given(small_pairs, fractions_01)
def test_complementary_arcs(pq, c):
    """Closed arcs [0,c] and [c,1] double-count the boundary roots."""
    P = torus_params(*pq)
    lo = arc_count_single(P, Arc(Fraction(0), c))
    hi = arc_count_single(P, Arc(c, Fraction(1)))
    full = arc_count_single(P, arc(0, 1))
    boundary = arc_count_single(P, Arc(c, c))
    # the root at angle 0 sits in both halves (identified endpoints) on top
    # of the shared boundary point c, unless c is itself that endpoint
    zero = arc_count_single(P, Arc(Fraction(0), Fraction(0))) if 0 < c < 1 else 0
    assert lo + hi == full + boundary + zero


def test_pair_counts():
    assert count_coprime_pairs(1) == 1
    assert count_coprime_pairs(3) == 7
    assert count_coprime_pairs(10) == 63
    for X in PAIR_COUNT_XS:
        assert count_coprime_pairs(X) == count_coprime_pairs_mobius(X)
        assert count_coprime_pairs(X) == outer_coprime_pairs(X)


def test_roots_totals():
    assert count_roots_total(3, ALL_LINKS) == 9
    assert count_roots_total(5, ALL_LINKS) == 100
    assert count_roots_total(5, KNOTS_COPRIME) == 64
    # oracle: direct sum over the family
    total = sum(
        (p - 1) * (q - 1)
        for p in range(1, 13)
        for q in range(1, 13)
        if math.gcd(p, q) == 1
    )
    assert count_roots_total(12, KNOTS_COPRIME) == total
    for X in PAIR_COUNT_XS:
        for family in (KNOTS_COPRIME, ALL_LINKS):
            assert count_roots_total(X, family) == outer_roots_total(X, family)


def test_scan_full_circle():
    report, rows = scan(3, ALL_LINKS, arc(0, 1))
    assert report.observed_ratio == 1
    assert report.t_count == 9
    assert report.omega_count == 9
    assert rows is None


def test_scan_rows_sum_to_report():
    a = arc("1/10", "7/20")
    report, rows = scan(25, KNOTS_COPRIME, a, want_rows=True)
    assert all(len(row) == 5 for row in rows)
    assert sum(row[4] for row in rows) == report.arc_count
    assert scan(25, KNOTS_COPRIME, a) == (report, None)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from((KNOTS_COPRIME, ALL_LINKS)),
    fractions_64,
    fractions_64,
)
@example(12, ALL_LINKS, Fraction(1, 3), Fraction(1, 3))
@example(12, KNOTS_COPRIME, Fraction(5, 8), Fraction(5, 8))
@example(11, ALL_LINKS, Fraction(0), Fraction(17, 64))
@example(11, KNOTS_COPRIME, Fraction(0), Fraction(0))
@example(12, ALL_LINKS, Fraction(45, 64), Fraction(1))
@example(10, KNOTS_COPRIME, Fraction(1), Fraction(1))
def test_scan_rows_match_direct(X, family, x, y):
    a = Arc(min(x, y), max(x, y))
    report, rows = scan(X, family, a, want_rows=True)
    pairs = [
        (p, q) for p in range(1, X + 1) for q in range(1, X + 1)
        if family == ALL_LINKS or math.gcd(p, q) == 1
    ]
    assert [row[:2] for row in rows] == pairs
    for p, q, d, roots, count in rows:
        params = torus_params(p, q)
        assert (d, roots) == (params.d, (p - 1) * (q - 1))
        assert count == arc_count_direct(params, a), (p, q)
    assert report.t_count == len(rows)
    assert report.omega_count == count_roots_total(X, family)
    assert report.arc_count == sum(row[4] for row in rows)


TOTALS_ARCS = (
    arc(0, 0),
    arc(1, 1),
    arc(0, 1),
    arc("1/3", "1/3"),
    arc(0, "2/7"),
    arc("5/9", 1),
    arc("1/10", "7/20"),
    arc("1/2", "1/2"),
    arc("3/64", "61/64"),
)


def test_scan_totals_match_per_pair():
    for X in PAIR_COUNT_XS:
        for family in (KNOTS_COPRIME, ALL_LINKS):
            for a in TOTALS_ARCS:
                report, rows = scan(X, family, a, want_rows=X <= 17)
                t_count, omega_count, in_arc, want_rows = scan_per_pair(X, family, a)
                assert (report.t_count, report.omega_count, report.arc_count) == (
                    t_count, omega_count, in_arc,
                ), (X, family, a)
                if rows is not None:
                    assert rows == want_rows
    for family, a in ((KNOTS_COPRIME, arc("1/10", "7/20")), (ALL_LINKS, arc(0, "1/3"))):
        assert scan(400, family, a)[0].arc_count == scan_per_pair(400, family, a)[2]


def test_scan_totals_frozen():
    """Totals at X = 2000 as the per-pair route computed them."""
    a = arc("1/10", "7/20")
    assert scan(2000, KNOTS_COPRIME, a)[0].arc_count == 607445579512
    assert scan(2000, ALL_LINKS, a)[0].arc_count == 999003718064


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
)
@example(0, 1, 0, 0)
@example(0, 7, -5, -3)
@example(25, 1, -3, 4)
@example(40, 50, -49, -1)
def test_floor_sum_matches_direct(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a * j + b) // m for j in range(n))


def test_scan_predicted_ratio():
    report, _ = scan(60, KNOTS_COPRIME, arc("1/10", "7/20"))
    assert report.predicted_ratio == Fraction(1, 4)
    assert abs(float(report.observed_ratio) - 0.25) < 0.02


def test_frequency_exact_values():
    assert frequency_Fr(50, 6) == Fraction(246, 1547)
    assert frequency_Fr(200, 6) == Fraction(4000, 24463)
    with pytest.raises(ValueError):
        frequency_Fr(100, 1)


def oracle_frequency(X, r):
    hits = total = 0
    for p in range(1, X + 1):
        for q in range(1, X + 1):
            if math.gcd(p, q) != 1:
                continue
            total += 1
            if (p * q) % r == 0 and p % r and q % r:
                hits += 1
    return Fraction(hits, total)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=5, max_value=60))
def test_frequency_matches_bruteforce(r, X):
    assert frequency_Fr(X, r) == oracle_frequency(X, r)
    for Y in (1, 2, X, 4 * X):
        for s in range(2, 31):
            assert frequency_Fr(Y, s) == outer_frequency(Y, s), (Y, s)


def sieve_limit(r):
    """Density of coprime pairs carrying a proper split of r across p and q.

    Per ordered split r = ab (a,b > 1 coprime) the density of coprime pairs
    with a | p, b | q is 1/(r zeta(2)) * prod_{ell | r} ell/(ell+1) relative
    to zeta(2)^-1; summing the 2^omega(r) - 2 splits gives the value below.
    """
    lim = Fraction(2 ** omega(r) - 2, r)
    for ell, _ in factorize(r):
        lim *= Fraction(ell, ell + 1)
    return lim


def test_frequency_convergence():
    for r in (4, 6, 10, 12, 15, 30):
        gap = abs(float(frequency_Fr(1500, r)) - float(sieve_limit(r)))
        assert gap < 0.005, (r, gap)


def test_weyl_sums():
    for k in range(1, 4):
        assert abs(weyl_sum(150, k)) <= 0.05
    w = weyl_sum(80, 2)
    assert abs(weyl_sum(80, -2) - w.conjugate()) < 1e-12
    assert weyl_sum(1, 3) == 0j


def test_weyl_sums_match_moment_sums():
    """Bit-exact against sum of moments.moment over the coprime pairs up to X
    divided by sum of (p-1)(q-1); negative k has the moments of |k|."""
    ks = range(-12, 61)
    totals = dict.fromkeys(ks, 0)
    omega_count = 0
    for X in range(1, 41):
        # pairs with max(p, q) = X join the family at this X
        for p, q in {(X, j) for j in range(1, X + 1)} | {(j, X) for j in range(1, X + 1)}:
            if math.gcd(p, q) != 1:
                continue
            params = torus_params(p, q)
            omega_count += (p - 1) * (q - 1)
            for k in ks:
                totals[k] += moment(params, abs(k))
        for k in ks:
            want = complex(totals[k] / omega_count) if omega_count else 0j
            got = weyl_sum(X, k)
            assert (got.real, got.imag) == (want.real, want.imag), (X, k)
    assert weyl_sum(40, 0) == 1 + 0j
