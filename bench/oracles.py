"""Closed forms the benchmark checks the library against.

Nothing here imports toruslink.  Every value is derived from the
cyclotomic multiplicity table M_r of the polynomial in question, written
out again from its indicator formula, so a change that breaks the
library's own table is caught too.
"""

from fractions import Fraction
from math import gcd

# Prime for the modular identity checks on dense polynomials: a
# polynomial identity of degree < 10^5 that fails over Z fails at a
# random point mod this prime with probability below 10^-13.
MOD = (1 << 61) - 1


def factorize(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n):
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def totient(n):
    t = n
    for p, _ in factorize(n):
        t -= t // p
    return t


def valuation(ell, n):
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def is_prime(n):
    return n >= 2 and factorize(n) == [(n, 1)]


def prime_power_base(n):
    """p when n = p^k with k >= 1, else None."""
    f = factorize(n)
    return f[0][0] if len(f) == 1 else None


def mobius_sieve(n):
    """[mu(0)=0, mu(1), ..., mu(n)] by a linear sieve."""
    mu = [1] * (n + 1)
    mu[0] = 0
    is_comp = [False] * (n + 1)
    primes = []
    for i in range(2, n + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


# ---------------------------------------------------------------- ledgers


def torus_multiplicities(p, q):
    """M_r of the Alexander polynomial of T(p, q), zero entries dropped:
    M_r = d[r | L] - [r | p] - [r | q] + [r = 1]."""
    if p == 1 or q == 1:
        return {}
    d = gcd(p, q)
    L = p * q // d
    out = {}
    for r in divisors(L):
        m = d - (p % r == 0) - (q % r == 0) + (r == 1)
        if m:
            out[r] = m
    return out


def specialization_multiplicities(p, q, z):
    """M_r of (X^A - 1)^d (X - 1) / ((X^B - 1)(X^C - 1)) with a = |sum z|,
    A = a p' q', B = a p', C = a q'."""
    d = gcd(p, q)
    a = abs(sum(z))
    A, B, C = a * (p // d) * (q // d), a * (p // d), a * (q // d)
    out = {}
    for r in divisors(A):
        m = d - (B % r == 0) - (C % r == 0) + (r == 1)
        if m:
            out[r] = m
    return out


def res_cyclotomic(m, n):
    """|Res(Phi_m, Phi_n)| by Apostol's closed form (Proc. AMS 1970):
    for m > n it is p^phi(n) when m/n is a power of a prime p, else 1;
    it is 0 when m = n."""
    if m == n:
        return 0
    if m < n:
        m, n = n, m
    if m % n:
        return 1
    base = prime_power_base(m // n)
    return base ** totient(n) if base else 1


def order_against(ledger, cyclo_indices):
    """|Res(prod_{r in cyclo_indices} Phi_r, prod_s Phi_s^M_s)|."""
    out = 1
    for r in cyclo_indices:
        for s, mult in ledger.items():
            if r == s:
                return 0
            out *= res_cyclotomic(r, s) ** mult
    return out


def knot_cover_order(p, q, m):
    """|H_1| of the m-fold cyclic cover of T(p, q): prod over r | m."""
    return order_against(torus_multiplicities(p, q), divisors(m))


def fox_weber(p, q, ell, n):
    """Order of the ell^n-fold cover of the knot T(p, q):
    base^(ell^min(n, r) - 1) with r = v_ell(pq)."""
    if p % ell == 0:
        base = q
    elif q % ell == 0:
        base = p
    else:
        return 1
    return base ** (ell ** min(n, valuation(ell, p * q)) - 1)


def link_tower_orders(p, q, z, ell, n_max):
    """Relative orders of the link tower: level n > v pairs Delta_z with
    Phi_(ell^k) for v < k <= n; levels n <= v are 1."""
    ledger = specialization_multiplicities(p, q, z)
    v = max(valuation(ell, abs(c)) for c in z)
    out = []
    for n in range(n_max + 1):
        if n <= v:
            out.append(1)
        else:
            out.append(order_against(ledger, [ell**k for k in range(v + 1, n + 1)]))
    return out


def link_lambda(p, q, z, ell):
    d = gcd(p, q)
    a = abs(sum(z))
    pp, qp = p // d, q // d
    return (
        d * ell ** valuation(ell, a * pp * qp)
        - ell ** valuation(ell, a * pp)
        - ell ** valuation(ell, a * qp)
        + 1
    )


def link_fit_window(p, q, z, ell):
    """(lambda, first, last level) of the nu fit: it starts where
    phi(ell^n) > lambda and n > v, and spans three levels at least."""
    lam = link_lambda(p, q, z, ell)
    v = max(valuation(ell, abs(c)) for c in z)
    stab = 1
    while (ell - 1) * ell ** (stab - 1) <= lam:
        stab += 1
    start = max(v + 1, stab)
    return lam, start, max(5, start + 2)


def link_invariants(p, q, z, ell):
    """(mu, lambda, nu, nu_kind) of the z-specialized link: lambda from the
    valuation ledger, nu fitted on the Apostol tower."""
    lam, start, n_max = link_fit_window(p, q, z, ell)
    window = link_tower_orders(p, q, z, ell, n_max)[start:]
    if any(h == 0 for h in window):
        return 0, lam, None, "not_applicable"
    consts = {valuation(ell, h) - lam * n for n, h in enumerate(window, start)}
    if len(consts) != 1:
        return 0, lam, "non-affine", "relative"
    return 0, lam, consts.pop(), "relative"


def determinant(ledger):
    """|Delta(-1)| from |Phi_r(-1)|: 2 at r = 1 and r = 2^k (k >= 2), 0 at
    r = 2, p at r = 2p^k for an odd prime p, 1 otherwise."""
    out = 1
    for r, m in ledger.items():
        if r == 2:
            return 0
        if r == 1 or (r > 2 and prime_power_base(r) == 2):
            out *= 2**m
        elif r % 2 == 0 and r % 4 and prime_power_base(r // 2):
            out *= prime_power_base(r // 2) ** m
    return out


def coloring_zero_order(ledger, ell):
    """Multiplicity of (t + 1) in Delta mod ell.  Mod ell,
    Phi_(ell^k s) = Phi_s^phi(ell^k) for ell not dividing s, and -1 is a
    simple root of Phi_s exactly when s = 2 (s = 1 when ell = 2)."""
    target = 1 if ell == 2 else 2
    out = 0
    for r, m in ledger.items():
        k = valuation(ell, r)
        if r // ell**k == target:
            out += m * totient(ell**k)
    return out


# ----------------------------------------------------------- arc counts


def roots_in_arc(n, a, b):
    """#{0 <= k < n : k/n in [a, b]}, the angles 0 and 1 being one root."""
    lo = -((-a.numerator * n) // a.denominator)
    hi = min((b.numerator * n) // b.denominator, n - 1)
    count = max(0, hi - max(lo, 0) + 1)
    if b == 1 and a > 0:
        count += 1
    return count


def pair_arc_count(p, q, a, b):
    """Roots of Delta_(p,q) in [a, b]: Delta = (t^L - 1)^d (t - 1) /
    ((t^p - 1)(t^q - 1)), so the count is d F(L) - F(p) - F(q) + F(1)
    with F(n) the n-th roots of unity in the arc."""
    if p == 1 or q == 1:
        return 0
    d = gcd(p, q)
    return (
        d * roots_in_arc(p * q // d, a, b)
        - roots_in_arc(p, a, b)
        - roots_in_arc(q, a, b)
        + roots_in_arc(1, a, b)
    )


def family_arc_count(X, knots_only, a, b):
    small = [0] + [roots_in_arc(n, a, b) for n in range(1, X + 1)]
    f1 = small[1]
    total = 0
    for p in range(2, X + 1):
        fp = small[p]
        for q in range(2, X + 1):
            d = gcd(p, q)
            if d != 1 and knots_only:
                continue
            total += d * roots_in_arc(p * q // d, a, b) - fp - small[q] + f1
    return total


def coprime_pairs(X, mu):
    return sum(mu[e] * (X // e) ** 2 for e in range(1, X + 1))


def coprime_roots_total(X, mu):
    """Sum of (p-1)(q-1) over coprime p, q <= X by Moebius inversion:
    sum_e mu(e) (e T(X//e) - X//e)^2 with T(n) = n(n+1)/2."""
    total = 0
    for e in range(1, X + 1):
        if mu[e]:
            n = X // e
            total += mu[e] * (e * n * (n + 1) // 2 - n) ** 2
    return total


def weyl_value(X, k, mu):
    """(1/#roots) * sum over coprime p, q <= X of
    S_k = pq[pq | k] - p[p | k] - q[q | k] + 1, for k >= 1, by divisor sums."""
    def coprime_to(p):
        return sum(mu[e] * (X // e) for e in divisors(p))

    total = coprime_pairs(X, mu)
    for p in divisors(k):
        if p <= X:
            total -= 2 * p * coprime_to(p)
            for q in divisors(k // p):
                if q <= X and gcd(p, q) == 1:
                    total += p * q
    omega = coprime_roots_total(X, mu)
    return complex(total / omega) if omega else 0j


def frequency(X, r):
    """Share of coprime pairs p, q <= X with r | pq and r dividing neither.

    With g = gcd(p, r) and m = r/g, r | pq means m | q; then gcd(p, q) = 1
    needs gcd(p, m) = 1, and r not dividing q needs g > 1.  Writing q = m j
    the count for p is #{j <= X/m : gcd(j, p) = 1}, a Moebius sum over the
    prime divisors of p.
    """
    mu = mobius_sieve(X)
    hits = 0
    for p in range(1, X + 1):
        g = gcd(p, r)
        if p % r == 0 or g == 1 or gcd(p, r // g) != 1:
            continue
        n = X * g // r
        hits += sum(mu[e] * (n // e) for e in divisors(_radical(p)))
    return Fraction(hits, coprime_pairs(X, mu))


def _radical(n):
    out = 1
    for p, _ in factorize(n):
        out *= p
    return out


# ------------------------------------------------- modular polynomial checks


def eval_mod(f, x):
    out = 0
    for c in reversed(f):
        out = (out * x + c) % MOD
    return out


def pow_minus_one(x, k):
    return (pow(x, k, MOD) - 1) % MOD


def geometric_mod(x, k):
    """(x^k - 1)/(x - 1) mod MOD, for x != 1."""
    return pow_minus_one(x, k) * pow(x - 1, MOD - 2, MOD) % MOD


def equal_up_to_sign(u, v):
    return u % MOD == v % MOD or u % MOD == (-v) % MOD
