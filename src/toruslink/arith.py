"""Elementary number-theoretic primitives.

Everything here is exact big-integer arithmetic.  Trial division up to
sqrt(n) is all we need: the family scans never factor anything beyond
about 10^7, and exactness matters more than speed.
"""

from functools import lru_cache


def _check_positive(n: int) -> None:
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical factorization of n as ((prime, exponent), ...), primes increasing.

    >>> factorize(12)
    ((2, 2), (3, 1))
    >>> factorize(1)
    ()
    """
    _check_positive(n)
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


def require_prime(ell: int) -> None:
    """Raise ValueError unless ell is prime.

    >>> require_prime(4)
    Traceback (most recent call last):
    ...
    ValueError: 4 is not prime
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")


def mobius(n: int) -> int:
    """Moebius function: (-1)^k on squarefree n with k prime factors, else 0.

    >>> [mobius(n) for n in (1, 6, 12)]
    [1, 1, 0]
    """
    _check_positive(n)
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def totient(n: int) -> int:
    """Euler phi: count of 1 <= k <= n coprime to n."""
    _check_positive(n)
    t = n
    for p, _ in factorize(n):
        t -= t // p
    return t


def mangoldt_exp(n: int) -> int:
    """exp of the von Mangoldt function: ell when n is a power of the prime
    ell, 1 otherwise.  For n > 1 this is |Phi_n(1)|.

    >>> [mangoldt_exp(n) for n in (1, 8, 9, 12)]
    [1, 2, 3, 1]
    """
    _check_positive(n)
    fac = factorize(n)
    return fac[0][0] if len(fac) == 1 else 1


def omega(n: int) -> int:
    """Number of distinct prime divisors; omega(1) = 0."""
    _check_positive(n)
    return len(factorize(n))


def num_divisors(n: int) -> int:
    """Number of positive divisors, the product of (e_i + 1)."""
    _check_positive(n)
    out = 1
    for _, e in factorize(n):
        out *= e + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    _check_positive(n)
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def padic_valuation(ell: int, n: int) -> int:
    """Largest k with ell^k | n, for prime ell and nonzero n.

    >>> padic_valuation(2, 12)
    2
    """
    require_prime(ell)
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    m = abs(n)
    while m % ell == 0:
        m //= ell
        v += 1
    return v
