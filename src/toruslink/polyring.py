"""Exact dense integer polynomial arithmetic.

A polynomial is a plain list of ints; index i holds the coefficient of t^i.
The zero polynomial is the empty list, and the highest stored coefficient of
a nonzero polynomial is nonzero.  All operations are exact; nothing here
touches floating point except the two evaluation helpers.
"""

from functools import lru_cache
from math import gcd

from .arith import divisors
from .errors import DivByZero, NotDivisible, ZeroInput


def _strip(f: list[int]) -> list[int]:
    """Drop trailing zero coefficients so the representation is canonical."""
    n = len(f)
    while n > 0 and f[n - 1] == 0:
        n -= 1
    return f[:n]


def degree(f: list[int]) -> int:
    """Degree of f; the zero polynomial gets -1."""
    return len(_strip(f)) - 1


def laurent_normalize(f: list[int]) -> list[int]:
    """Canonical representative of f up to units +-t^a: nonzero constant
    term and positive leading coefficient."""
    f = _strip(f)
    if not f:
        return []
    k = 0
    while f[k] == 0:
        k += 1
    f = f[k:]
    if f[-1] < 0:
        f = [-c for c in f]
    return f


def poly_add(f: list[int], g: list[int]) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _strip(out)


def poly_sub(f: list[int], g: list[int]) -> list[int]:
    return poly_add(f, [-c for c in g])


def poly_mul(f: list[int], g: list[int]) -> list[int]:
    """Exact product by schoolbook convolution.

    >>> poly_mul([-1, 1], [1, 1])
    [-1, 0, 1]
    >>> poly_mul([1, 1, 1], [-1, 1])
    [-1, 0, 0, 1]
    """
    f, g = _strip(f), _strip(g)
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def poly_divmod(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Long division over the integers: f = q*g + r with deg r < deg g.

    Raises NotDivisible when a quotient coefficient would be fractional,
    which for our callers (monic divisors, or divisions known to be exact)
    is always the right signal.

    The remainder is reduced in place under a running length, and each step
    touches only the nonzero coefficients of g, so the cost is
    O(len f * nnz g): linear in len f for sparse divisors such as t^k - 1.

    >>> poly_divmod([1, 0, 0, 0, 0, 1], [-1, 0, 1])
    ([0, 1, 0, 1], [1, 1])
    """
    f, g = _strip(f), _strip(g)
    if not g:
        raise DivByZero("polynomial division by zero")
    # _strip returned a copy, so the remainder can be reduced in place
    r, n = f, len(f)
    dg = len(g) - 1
    lead = g[-1]
    low = [(j, c) for j, c in enumerate(g[:dg]) if c != 0]
    q = [0] * max(n - dg, 0)
    while n > dg:
        c, rem = divmod(r[n - 1], lead)
        if rem != 0:
            raise NotDivisible("leading coefficient not divisible")
        shift = n - 1 - dg
        q[shift] = c
        for j, gj in low:
            r[shift + j] -= c * gj
        # the top coefficient cancels exactly; trim it and any zeros below
        n -= 1
        while n > 0 and r[n - 1] == 0:
            n -= 1
    return q, r[:n]


def poly_exact_div(f: list[int], g: list[int]) -> list[int]:
    """Quotient h with f = g*h exactly; NotDivisible otherwise.

    >>> poly_exact_div([-1, 0, 0, 1], [-1, 1])
    [1, 1, 1]
    """
    q, r = poly_divmod(f, g)
    if r:
        raise NotDivisible("division left a remainder")
    return q


def x_pow_minus_one(k: int) -> list[int]:
    """t^k - 1."""
    if k <= 0:
        raise ValueError(f"need k >= 1, got {k}")
    f = [0] * (k + 1)
    f[0] = -1
    f[k] = 1
    return f


def geometric(k: int) -> list[int]:
    """g_k(t) = (t^k - 1)/(t - 1) = 1 + t + ... + t^(k-1)."""
    if k <= 0:
        raise ValueError(f"need k >= 1, got {k}")
    return [1] * k


@lru_cache(maxsize=None)
def _cyclotomic(r: int) -> tuple[int, ...]:
    # t^r - 1 divided by the cyclotomics of the proper divisors; every
    # division is exact, so the whole computation stays in Z[t].
    f = x_pow_minus_one(r)
    for d in divisors(r)[:-1]:
        f = poly_exact_div(f, list(_cyclotomic(d)))
    return tuple(f)


def cyclotomic(r: int) -> list[int]:
    """The r-th cyclotomic polynomial, monic of degree phi(r).

    >>> cyclotomic(1)
    [-1, 1]
    >>> cyclotomic(6)
    [1, -1, 1]
    """
    if r <= 0:
        raise ValueError(f"need r >= 1, got {r}")
    return list(_cyclotomic(r))


def poly_eval_int(f: list[int], x: int) -> int:
    """Exact Horner evaluation at an integer."""
    out = 0
    for c in reversed(f):
        out = out * x + c
    return out


def poly_eval_complex(f: list[int], z: complex) -> complex:
    """Horner evaluation in complex double precision."""
    out = 0j
    for c in reversed(f):
        out = out * z + c
    return out


def derivative(f: list[int]) -> list[int]:
    return _strip([i * c for i, c in enumerate(f)][1:])


def content(f: list[int]) -> int:
    """Nonnegative gcd of the coefficients; 0 for the zero polynomial."""
    c = 0
    for a in f:
        c = gcd(c, a)
    return c


def primitive_part(f: list[int]) -> list[int]:
    """f divided by its content, sign-fixed to a positive leading coefficient."""
    f = _strip(f)
    if not f:
        return []
    c = content(f)
    if f[-1] < 0:
        c = -c
    return [a // c for a in f]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # prem(a, b): remainder of lc(b)^k * a under b, staying integral.
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    while len(r) - 1 >= db and r:
        c = r[-1]
        shift = len(r) - 1 - db
        r = [x * lead for x in r]
        for j in range(db + 1):
            r[shift + j] -= c * b[j]
        r = _strip(r)
    return r


def poly_gcd(f: list[int], g: list[int]) -> list[int]:
    """Greatest common divisor in Z[t] (primitive pseudo-remainder sequence),
    normalized to a positive leading coefficient."""
    a, b = _strip(f), _strip(g)
    if not a:
        return [x * content(b) for x in primitive_part(b)]
    if not b:
        return [x * content(a) for x in primitive_part(a)]
    c = gcd(content(a), content(b))
    a, b = primitive_part(a), primitive_part(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, primitive_part(r)
    return [x * c for x in a]


def squarefree_decomposition(f: list[int]) -> tuple[int, list[tuple[list[int], int]]]:
    """Yun decomposition f = c * prod a_i^i with each a_i primitive,
    squarefree, positive-lead, and the a_i pairwise coprime.

    Returns (c, [(a_i, i), ...]); constant factors live entirely in c.
    """
    f = _strip(f)
    if not f:
        raise ZeroInput("squarefree decomposition of 0")
    c = content(f)
    if f[-1] < 0:
        c = -c
    a = [x // c for x in f]
    if len(a) == 1:
        return c, []
    g = poly_gcd(a, derivative(a))
    ci = poly_exact_div(a, g)
    di = poly_sub(poly_exact_div(derivative(a), g), derivative(ci))
    out = []
    i = 1
    while len(ci) > 1:
        ai = poly_gcd(ci, di)
        ci_next = poly_exact_div(ci, ai)
        di = poly_sub(poly_exact_div(di, ai), derivative(ci_next))
        if len(ai) > 1:
            out.append((ai, i))
        ci = ci_next
        i += 1
    return c, out


def _sylvester(f: list[int], g: list[int]) -> list[list[int]]:
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = []
    fd, gd = f[::-1], g[::-1]
    for i in range(n):
        row = [0] * size
        row[i : i + m + 1] = fd
        rows.append(row)
    for i in range(m):
        row = [0] * size
        row[i : i + n + 1] = gd
        rows.append(row)
    return rows


def resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g), bit-exact, via Bareiss fraction-free elimination of the
    Sylvester matrix.  Only link towers (through resultant_monic) and the
    tests use it; knot cover orders come from the cyclotomic ledger.

    >>> resultant([-1, 0, 1], [1, -1, 1])
    3
    >>> resultant([-5, 1], [-2, 1])
    3
    """
    f, g = _strip(f), _strip(g)
    if not f or not g:
        raise ZeroInput("resultant needs nonzero polynomials")
    m, n = len(f) - 1, len(g) - 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    mat = _sylvester(f, g)
    size = m + n
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, size):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = mat[k][k]
        for i in range(k + 1, size):
            row_i, row_k = mat[i], mat[k]
            cik = row_i[k]
            for j in range(k + 1, size):
                # Bareiss one-step: the division by the previous pivot is exact.
                row_i[j] = (row_i[j] * piv - cik * row_k[j]) // prev
            row_i[k] = 0
        prev = piv
    return sign * mat[size - 1][size - 1]


def resultant_monic(f: list[int], g: list[int]) -> int:
    """Res(f, g) for monic f, computed after reducing g mod f.

    Since lc(f) = 1, Res(f, g) = Res(f, g rem f) exactly; reducing first keeps
    the Sylvester matrix small when deg g is huge (link-tower quotients reach
    degree in the thousands while deg f stays below fifty).  It serves the
    link towers and the knot-order oracle of the tests.
    """
    f, g = _strip(f), _strip(g)
    if not f or f[-1] != 1:
        raise ValueError("resultant_monic needs a monic first argument")
    if not g:
        return 0 if len(f) > 1 else 1
    if len(f) == 1:
        return 1
    _, r = poly_divmod(g, f)
    if not r:
        return 0
    return resultant(f, r)
