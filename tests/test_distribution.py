"""Root equidistribution scans.

walk_arc_count re-derives arc counts from first principles: enumerate the
angles k/L, look up the multiplicity of the corresponding cyclotomic factor,
and compare endpoints as exact rationals.  It shares no code path with the
inclusion-exclusion counting in the library.

The library's family totals are Moebius and divisor sums; the outer_*
oracles below enumerate every pair (p, q) <= X in X-by-X arrays instead.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toruslink import distribution
from toruslink.alexander import cyclotomic_multiplicities, torus_params
from toruslink.arith import factorize, omega
from toruslink.distribution import (
    ALL_LINKS,
    KNOTS_COPRIME,
    Arc,
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


def test_scan_rows_and_jobs_determinism():
    a = arc("1/10", "7/20")
    r1, rows1 = scan(25, KNOTS_COPRIME, a, jobs=1, want_rows=True)
    r2, rows2 = scan(25, KNOTS_COPRIME, a, jobs=3, want_rows=True)
    assert r1 == r2
    assert rows1 == rows2
    assert all(len(row) == 5 for row in rows1)
    overall = sum(row[4] for row in rows1)
    assert overall == r1.arc_count


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


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    chunks in this process."""

    seen = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        chunks = list(chunks)
        assert len(chunks) <= self.seen[-1]
        return map(fn, chunks)


def test_scan_jobs_capped(monkeypatch):
    monkeypatch.setattr(distribution, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(distribution.os, "cpu_count", lambda: 4)
    RecordingPool.seen = []
    a = arc("1/10", "7/20")
    serial = scan(9, ALL_LINKS, a, want_rows=True)
    assert scan(9, ALL_LINKS, a, jobs=10**6, want_rows=True) == serial
    assert scan(9, ALL_LINKS, a, jobs=3, want_rows=True) == serial
    # 9 rows in chunks of ceil(9/4) = 3 leave 3 chunks for 4 CPUs
    assert RecordingPool.seen == [3, 3]
    assert scan(2, ALL_LINKS, a, jobs=10**6) == scan(2, ALL_LINKS, a)
    assert RecordingPool.seen == [3, 3, 2]
    for jobs in (0, -1):
        with pytest.raises(ValueError):
            scan(9, ALL_LINKS, a, jobs=jobs)


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
