"""Torus-link structure: parameters, Alexander polynomials, cyclotomic
multiplicities, determinants, colorability, and the Hosokawa polynomial.

T(p, q) is a knot when d = gcd(p, q) = 1 and a d-component link otherwise.
Degenerate parameters (p = 1 or q = 1) are the unknot-like cases: the
polynomial is 1 and the multiplicity table is empty, which is forced by the
root count (p-1)(q-1) = 0.
"""

from dataclasses import dataclass
from math import gcd

from . import polyring
from .arith import divisors, mangoldt_exp, require_prime
from .errors import Internal, KnotCase, NonAdmissible, NotDivisible, ZeroAlpha


@dataclass(frozen=True)
class TorusParams:
    """Validated pair (p, q) with the derived quantities every module uses."""

    p: int
    q: int
    d: int
    p_prime: int
    q_prime: int
    L: int

    def is_knot(self) -> bool:
        return self.d == 1


def torus_params(p: int, q: int) -> TorusParams:
    """Build the parameter record for T(p, q).

    >>> torus_params(4, 6)
    TorusParams(p=4, q=6, d=2, p_prime=2, q_prime=3, L=12)
    """
    if p <= 0 or q <= 0:
        raise ValueError(f"need positive p, q; got ({p}, {q})")
    d = gcd(p, q)
    return TorusParams(p=p, q=q, d=d, p_prime=p // d, q_prime=q // d, L=(p * q) // d)


@dataclass(frozen=True)
class CycFactorization:
    """Map r -> M_r of cyclotomic multiplicities of the Alexander polynomial.

    Zero multiplicities are omitted, so the table doubles as the exact root
    inventory: sum of M_r * phi(r) is (p-1)(q-1).
    """

    params: TorusParams
    entries: dict[int, int]


@dataclass(frozen=True)
class AdmissibleVector:
    z: tuple[int, ...]
    alpha: int


def admissible_vector(params: TorusParams, z) -> AdmissibleVector:
    """Validate a specialization vector: length d, no zero entry, gcd 1."""
    zt = tuple(int(c) for c in z)
    if len(zt) != params.d:
        raise NonAdmissible(
            f"z must have d = {params.d} entries, got {len(zt)}"
        )
    if any(c == 0 for c in zt):
        raise NonAdmissible("z must have no zero entry")
    g = 0
    for c in zt:
        g = gcd(g, c)
    if g != 1:
        raise NonAdmissible(f"gcd of z entries must be 1, got {g}")
    return AdmissibleVector(z=zt, alpha=sum(zt))


def _binomial_power(k: int, d: int) -> list[int]:
    # (t^k - 1)^d expanded directly; dense lists would be wasteful to multiply.
    out = [0] * (k * d + 1)
    c = 1
    for j in range(d + 1):
        out[k * j] = c if (d - j) % 2 == 0 else -c
        c = c * (d - j) // (j + 1)
    return out


def _torus_quotient(N: int, P: int, Q: int, d: int) -> list[int]:
    # (t^N - 1)^d (t - 1) / ((t^P - 1)(t^Q - 1)), up to units: the closed
    # form behind Delta (N = L) and every specialization Delta_z.
    num = polyring.poly_mul(_binomial_power(N, d), [-1, 1])
    f = polyring.poly_exact_div(num, polyring.x_pow_minus_one(P))
    f = polyring.poly_exact_div(f, polyring.x_pow_minus_one(Q))
    return polyring.laurent_normalize(f)


def alexander_poly(params: TorusParams) -> list[int]:
    """Alexander polynomial of T(p, q): exact division of (t^L - 1)^d (t - 1)
    by (t^p - 1)(t^q - 1).  Monic of degree (p-1)(q-1).

    >>> alexander_poly(torus_params(2, 3))
    [1, -1, 1]
    """
    p, q = params.p, params.q
    if p == 1 or q == 1:
        return [1]
    try:
        return _torus_quotient(params.L, p, q, params.d)
    except NotDivisible as exc:  # pragma: no cover
        raise Internal("Alexander closed form failed to divide") from exc


def cyclotomic_multiplicities(params: TorusParams) -> CycFactorization:
    """Multiplicity of each cyclotomic factor by the indicator formula
    M_r = d*[r | L] - [r | p] - [r | q] + [r = 1], zero entries dropped.

    >>> cyclotomic_multiplicities(torus_params(3, 3)).entries
    {1: 2, 3: 1}
    """
    p, q, d = params.p, params.q, params.d
    if p == 1 or q == 1:
        return CycFactorization(params=params, entries={})
    entries = {}
    for r in divisors(params.L):
        m = d - (p % r == 0) - (q % r == 0) + (r == 1)
        if m > 0:
            entries[r] = m
    return CycFactorization(params=params, entries=entries)


def specialize_z(params: TorusParams, z) -> list[int]:
    """One-variable specialization of the multivariable polynomial along z:
    (X^(a*p'*q') - 1)^d (X - 1) / ((X^(a*p') - 1)(X^(a*q') - 1)) with
    a = sum(z).  Knots ignore z entirely (the polynomial is symmetric), and
    a < 0 is folded to |a|, which only changes the representative by a unit.
    """
    vec = z if isinstance(z, AdmissibleVector) else admissible_vector(params, z)
    if params.d == 1:
        return alexander_poly(params)
    if vec.alpha == 0:
        raise ZeroAlpha("component sum of z is 0; the specialization degenerates")
    a = abs(vec.alpha)
    pp, qp = params.p_prime, params.q_prime
    return _torus_quotient(a * pp * qp, a * pp, a * qp, params.d)


def hosokawa(params: TorusParams, z) -> list[int]:
    """Hosokawa polynomial g_(a*p'*q')^d / (g_(a*p') g_(a*q')), the reduced
    link polynomial: specialize_z = (X - 1)^(d-1) * hosokawa, which is how
    it is computed (d - 1 exact divisions of Delta_z by X - 1)."""
    if params.d == 1:
        raise KnotCase("Hosokawa polynomial is defined for links (d >= 2)")
    vec = z if isinstance(z, AdmissibleVector) else admissible_vector(params, z)
    if vec.alpha == 0:
        raise ZeroAlpha("component sum of z is 0; the specialization degenerates")
    a = abs(vec.alpha)
    pp, qp = params.p_prime, params.q_prime
    f = _torus_quotient(a * pp * qp, a * pp, a * qp, params.d)
    for _ in range(params.d - 1):
        f = polyring.poly_exact_div(f, [-1, 1])
    return polyring.laurent_normalize(f)


def _abs_cyclotomic_at_minus_one(r: int) -> int:
    # |Phi_r(-1)| by the table in determinant's docstring; for even r > 2
    # both nontrivial cases read "r/2 is a power of the prime ell".
    if r <= 2:
        return 2 if r == 1 else 0
    return 1 if r % 2 else mangoldt_exp(r // 2)


def determinant(params: TorusParams) -> int:
    """|Delta(-1)|, the link determinant; 0 means infinite double-cover
    homology (happens for some links, never for knots).

    Read off the cyclotomic ledger as prod |Phi_r(-1)|^(M_r), with
    |Phi_r(-1)| = 2 for r = 1, 0 for r = 2, 2 for r = 2^j with j >= 2,
    ell for r = 2 ell^k with ell an odd prime, and 1 for every other r.

    >>> determinant(torus_params(4, 6))
    12
    >>> determinant(torus_params(4, 4))
    0
    """
    out = 1
    for r, m in cyclotomic_multiplicities(params).entries.items():
        out *= _abs_cyclotomic_at_minus_one(r) ** m
    return out


def ell_colorable(params: TorusParams, ell: int) -> bool:
    """Whether T(p, q) admits a nontrivial ell-coloring: ell | determinant."""
    require_prime(ell)
    return determinant(params) % ell == 0


def coloring_zero_order(params: TorusParams, ell: int) -> int:
    """Multiplicity of (t + 1) in the Alexander polynomial reduced mod ell.

    Upper-bounds the coloring rank.  Read off the cyclotomic ledger: mod
    ell, Phi_(s ell^k) = Phi_s^phi(ell^k) for ell not dividing s, and -1 is
    a root of Phi_s only for s = 2 (s = 1 when ell = 2), a simple one.  So
    the order is the sum of M_r phi(ell^k) over r = 2 ell^k (r = 2^k when
    ell = 2), k >= 0.

    >>> coloring_zero_order(torus_params(4, 6), 3)
    2
    """
    require_prime(ell)
    entries = cyclotomic_multiplicities(params).entries
    base = 1 if ell == 2 else 2
    order = entries.get(base, 0)
    power = ell
    while base * power <= params.L:  # every r in the ledger divides L
        order += entries.get(base * power, 0) * (power - power // ell)
        power *= ell
    return order
