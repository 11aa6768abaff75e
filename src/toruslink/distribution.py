"""Family-scan harness: enumerate torus knots/links up to a height bound,
count polynomial roots inside arcs of the circle, and compute the empirical
densities, divisor frequencies and Weyl sums that the closed-form limits
predict.

Arc endpoints are exact rationals and containment is a closed-interval
rational comparison, so boundary roots are never subject to float rounding.
The angles 0 and 1 name the same root; an arc containing either endpoint of
[0, 1] counts that root exactly once.

Counting is integer arithmetic throughout.  An arc [a, b] is kept as the
integer pairs (num, den) of its endpoints, so B_n, the n-th roots of unity
in the arc, is one floor and one ceiling division, and T(p, q) has
B_1 + d B_L - B_p - B_q roots in it.  Family totals are Moebius and divisor
sums (Hardy & Wright, ch. XVI) over one linear sieve up to X:
count_coprime_pairs, count_roots_total, frequency_Fr and weyl_sum take
O(X log X) time and O(X) memory.  scan sums the four-term count over the
family with floor sums instead of visiting its X^2 pairs.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .alexander import TorusParams, cyclotomic_multiplicities
from .arith import divisors, factorize, mobius
from .errors import Internal

KNOTS_COPRIME = "knots_coprime"
ALL_LINKS = "all_links"
FAMILIES = (KNOTS_COPRIME, ALL_LINKS)


@dataclass(frozen=True)
class Arc:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if not (0 <= self.a <= self.b <= 1):
            raise ValueError(f"need 0 <= a <= b <= 1, got [{self.a}, {self.b}]")


def arc(a, b) -> Arc:
    """Build an arc from anything Fraction accepts (ints, strings, Fractions)."""
    return Arc(Fraction(a), Fraction(b))


def _signed_divisors(primes) -> list[tuple[int, int]]:
    """(e, mu(e)) for the squarefree divisors e of a product of distinct primes."""
    out = [(1, 1)]
    for ell in primes:
        out += [(e * ell, -s) for e, s in out]
    return out


def _coprime_upto(n: int, primes) -> int:
    """#{1 <= j <= n : j divisible by none of the primes}."""
    return sum(s * (n // e) for e, s in _signed_divisors(primes))


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{0 <= j < n} floor((a j + b) / m) for n >= 0, m >= 1 and any
    integers a, b, by the Euclid-like recursion on (m, a) in O(log) steps
    (Graham, Knuth & Patashnik, Concrete Mathematics, 3.5).

    >>> _floor_sum(4, 3, 2, -1), sum((2 * j - 1) // 3 for j in range(4))
    (1, 1)
    """
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            return total
        # the lattice points under the line, counted column-wise instead
        n, b = divmod(top, m)
        m, a = a, m


class _ArcCounter:
    """Root counts in one closed arc [a, b], kept as integer endpoints.

    roots(n) is B_n, the n-th roots of unity in the arc: the
    floor(b n) - ceil(a n) + 1 integers k with a <= k/n <= b, less one when
    a = 0 and b = 1, where k = 0 and k = n name the same root.
    """

    def __init__(self, a: Arc):
        self.an, self.ad = a.a.numerator, a.a.denominator
        self.bn, self.bd = a.b.numerator, a.b.denominator
        self.one = 0 if (a.a == 0 and a.b == 1) else 1

    def roots(self, n: int) -> int:
        return self.bn * n // self.bd + (-self.an * n) // self.ad + self.one

    def roots_sum(self, c: int, n: int) -> int:
        """F(c, n): the sum of B_(c j) over 1 <= j <= n, as two floor sums."""
        b, a = self.bn * c, -self.an * c
        return _floor_sum(n, self.bd, b, b) + _floor_sum(n, self.ad, a, a) + self.one * n

    def pair(self, p: int, q: int, d: int) -> int:
        """Roots of Delta = (t - 1)(t^L - 1)^d / ((t^p - 1)(t^q - 1)) in the
        arc, d = gcd(p, q), L = pq/d; 0 when p = 1 or q = 1."""
        return self.roots(1) + d * self.roots(p * q // d) - self.roots(p) - self.roots(q)


def arc_count_single(params: TorusParams, a: Arc) -> int:
    """Roots of the Alexander polynomial of T(p, q) with angle in the arc,
    counted with multiplicity."""
    return _ArcCounter(a).pair(params.p, params.q, params.d)


def arc_count_direct(params: TorusParams, a: Arc) -> int:
    """Oracle route for arc_count_single: walk every angle k/L and look the
    multiplicity up in the cyclotomic table.  O(L) per pair; tests compare
    this against the fast route."""
    entries = cyclotomic_multiplicities(params).entries
    L = params.L
    total = 0
    for k in range(L):
        r = L // gcd(k, L) if k else 1
        m = entries.get(r, 0)
        if not m:
            continue
        if k == 0:
            inside = a.a == 0 or a.b == 1
        else:
            inside = a.a <= Fraction(k, L) <= a.b
        if inside:
            total += m
    return total


@dataclass(frozen=True)
class ScanReport:
    X: int
    family: str
    t_count: int
    omega_count: int
    arc: Optional[Arc]
    arc_count: int
    predicted_ratio: Fraction
    observed_ratio: Fraction


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _check_X(X: int) -> None:
    if X < 1:
        raise ValueError(f"need X >= 1, got {X}")


def _sieve(n: int) -> tuple[list[int], list[int]]:
    """Linear sieve up to n: (mu, spf), the Moebius function and the least
    prime factor of each 0 <= k <= n (mu[0] = 0, spf[0] = spf[1] = 0)."""
    mu = [1] * (n + 1)
    mu[0] = 0
    spf = [0] * (n + 1)
    primes = []
    for i in range(2, n + 1):
        if not spf[i]:
            spf[i] = i
            mu[i] = -1
            primes.append(i)
        least, mu_i = spf[i], mu[i]
        for ell in primes:
            if ell > least or i * ell > n:
                break
            spf[i * ell] = ell
            mu[i * ell] = -mu_i if ell < least else 0
    return mu, spf


def _prime_factors(n: int, spf: list[int]) -> list[int]:
    out = []
    while n > 1:
        ell = spf[n]
        out.append(ell)
        while n % ell == 0:
            n //= ell
    return out


def _coprime_pairs(X: int, mu: list[int]) -> int:
    return sum(m * (X // e) ** 2 for e, m in enumerate(mu) if m)


def _knot_roots_total(X: int, mu: list[int]) -> int:
    # Pairs with e | gcd(p, q) contribute (sum_{i <= n} (e i - 1))^2.
    total = 0
    for e, m in enumerate(mu):
        if m:
            n = X // e
            total += m * (e * n * (n + 1) // 2 - n) ** 2
    return total


def count_coprime_pairs(X: int) -> int:
    """#{(p, q) : 1 <= p, q <= X, gcd(p, q) = 1} as sum_e mu(e) floor(X/e)^2,
    with mu from one linear sieve: O(X) time and memory.

    >>> [count_coprime_pairs(X) for X in (1, 3, 10)]
    [1, 7, 63]
    """
    _check_X(X)
    return _coprime_pairs(X, _sieve(X)[0])


def count_coprime_pairs_mobius(X: int) -> int:
    """Same count through mu(d) computed one d at a time by factorization;
    must agree exactly with the sieve."""
    _check_X(X)
    return sum(mobius(e) * (X // e) ** 2 for e in range(1, X + 1))


def count_roots_total(X: int, family: str) -> int:
    """Sum of (p-1)(q-1) over the family up to X.

    For knots, sum_e mu(e) (e T(n) - n)^2 with n = floor(X/e) and
    T(n) = n(n+1)/2, O(X) after the sieve; for all links, (X(X-1)/2)^2.
    """
    _check_X(X)
    _check_family(family)
    if family == ALL_LINKS:
        total = sum(range(X)) ** 2
        if total != (X * (X - 1)) ** 2 // 4:
            raise Internal("all-links root total disagrees with its closed form")
        return total
    return _knot_roots_total(X, _sieve(X)[0])


def _arc_total(X: int, family: str, counter: _ArcCounter, mu: list[int]) -> int:
    F = counter.roots_sum
    if family == ALL_LINKS:
        total = X * X * counter.roots(1) - 2 * X * F(1, X)
        for g in range(1, X + 1):
            for e in range(1, X // g + 1):
                if mu[e]:
                    n, c = X // (g * e), g * e * e
                    total += g * mu[e] * sum(F(c * i, n) for i in range(1, n + 1))
        return total
    total = _coprime_pairs(X, mu) * counter.roots(1)
    for e, m in enumerate(mu):
        if m:
            n, c = X // e, e * e
            total += m * (sum(F(c * i, n) for i in range(1, n + 1)) - 2 * n * F(e, n))
    return total


def scan(
    X: int,
    family: str,
    a: Optional[Arc],
    want_rows: bool = False,
) -> tuple[ScanReport, Optional[list]]:
    """Aggregate arc counts over the whole family without visiting its pairs.

    Returns the report and, when want_rows is set, the per-pair list of
    (p, q, d, roots_total, roots_in_arc), row-major in (p, q).

    Proof sketch of the totals.  T(p, q) has B_1 + d B_L - B_p - B_q roots
    in the arc (_ArcCounter.pair), d = gcd(p, q), L = lcm(p, q).  Write
    F(c, n) = sum_{j <= n} B_(c j); each B is a floor minus a ceiling plus
    a constant, so F is two floor sums, O(log) steps each.
    - all_links: summing over p, q <= X gives
      X^2 B_1 + sum_{p,q} d B_L - 2X F(1, X).  Put p = g u, q = g v with
      gcd(u, v) = 1, so d = g and L = g u v, and remove the coprimality by
      Moebius over e | u, v (u = e i, v = e j): the middle sum is
      sum_g g sum_e mu(e) sum_{i,j <= N} B_(g e^2 i j), N = floor(X/(g e)),
      and the inner sum over j is F(g e^2 i, N).
    - knots_coprime: d = 1 and L = pq, and Moebius over e | p, q gives
      C(X) B_1 + sum_e mu(e) (sum_{i <= N} F(e^2 i, N) - 2 N F(e, N)),
      N = floor(X/e), C(X) the coprime pair count.
    There are O(X log^2 X) (g, e, i) triples for all_links and O(X log X)
    for knots, each O(log X) steps.  t_count and omega_count are the
    sieve closed forms of count_coprime_pairs and count_roots_total.
    """
    _check_X(X)
    _check_family(family)
    mu = _sieve(X)[0]
    if family == ALL_LINKS:
        t_count, omega = X * X, (X * (X - 1) // 2) ** 2
    else:
        t_count, omega = _coprime_pairs(X, mu), _knot_roots_total(X, mu)
    counter = _ArcCounter(a) if a is not None else None
    in_arc = _arc_total(X, family, counter, mu) if a is not None else 0
    rows = None
    if want_rows:
        rows = []
        for p in range(1, X + 1):
            for q in range(1, X + 1):
                d = gcd(p, q)
                if d == 1 or family == ALL_LINKS:
                    count = counter.pair(p, q, d) if a is not None else 0
                    rows.append((p, q, d, (p - 1) * (q - 1), count))
    predicted = (a.b - a.a) if a is not None else Fraction(0)
    observed = Fraction(in_arc, omega) if omega else Fraction(0)
    report = ScanReport(
        X=X,
        family=family,
        t_count=t_count,
        omega_count=omega,
        arc=a,
        arc_count=in_arc,
        predicted_ratio=predicted,
        observed_ratio=observed,
    )
    return report, rows


def frequency_limit(r: int) -> Fraction:
    """Limit of frequency_Fr(X, r) as X -> infinity:
    (2^omega(r) - 2)/r * prod over primes ell | r of ell/(ell + 1).

    For coprime (p, q) the condition splits r = r1 * r2 with gcd(r1, r2) = 1,
    r1, r2 > 1, r1 | p and r2 | q; there are 2^omega(r) - 2 such ordered
    splits.  Among coprime pairs, ell^a || r divides p with density
    ell^-a * ell/(ell + 1) (Hardy & Wright, ch. XVI), which gives the local
    factor.  Without it the constant overshoots: 1/3 instead of 1/6 at r = 6.

    >>> frequency_limit(6), frequency_limit(30), frequency_limit(4)
    (Fraction(1, 6), Fraction(1, 12), Fraction(0, 1))
    """
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    primes = [ell for ell, _ in factorize(r)]
    limit = Fraction(2 ** len(primes) - 2, r)
    for ell in primes:
        limit *= Fraction(ell, ell + 1)
    return limit


def frequency_Fr(X: int, r: int) -> Fraction:
    """Share of coprime pairs up to X with r | pq but r dividing neither
    p nor q, as an exact rational.

    Since M_r = [r | pq] - [r | p] - [r | q] for a knot, this is the share
    of torus knots T(p, q), p, q <= X, whose Delta vanishes at the
    primitive r-th roots of unity.  It tends to frequency_limit(r).

    With g = gcd(p, r) and m = r/g, a coprime pair has r | pq exactly when
    m | q; r dividing neither needs g > 1 and m > 1, and gcd(p, q) = 1
    needs gcd(p, m) = 1.  Writing q = m j, each such p contributes the
    j <= X/m coprime to p, a Moebius sum over the primes of p.  O(X log X)
    time and O(X) memory.

    >>> frequency_Fr(50, 6)
    Fraction(246, 1547)
    """
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    _check_X(X)
    mu, spf = _sieve(X)
    hits = 0
    for p in range(2, X + 1):
        g = gcd(p, r)
        m = r // g
        if g == 1 or m == 1 or m > X or gcd(p, m) != 1:
            continue
        hits += _coprime_upto(X // m, _prime_factors(p, spf))
    return Fraction(hits, _coprime_pairs(X, mu))


def weyl_sum(X: int, k: int) -> complex:
    """Moment average (1/#roots) * sum of S_k over coprime pairs up to X.

    Tends to 0 for k != 0 as X grows; k = 0 is the normalization and gives
    exactly 1.  S_k = pq[pq | k] - p[p | k] - q[q | k] + 1 depends on k
    only through its divisors, so the sum over pairs is a divisor sum over
    |k| plus the coprime-pair count.  Exact integer arithmetic until the
    final division; O(X) time and memory for the sieve.
    """
    _check_X(X)
    mu, _ = _sieve(X)
    omega = _knot_roots_total(X, mu)
    if omega == 0:
        return 0j
    n = abs(k)
    if n == 0:
        total = omega  # S_0 = (p - 1)(q - 1)
    else:
        total = _coprime_pairs(X, mu)
        for p in divisors(n):
            if p > X:
                break
            # the p[p | k] and q[q | k] terms, equal by symmetry
            total -= 2 * p * _coprime_upto(X, [ell for ell, _ in factorize(p)])
            for q in divisors(n // p):
                if q > X:
                    break
                if gcd(p, q) == 1:
                    total += p * q
    return complex(total / omega)
