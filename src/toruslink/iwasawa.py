"""ell-adic invariants of the completed Alexander polynomials.

The substitution X -> 1 + T turns a specialized polynomial into an element
of the Iwasawa algebra; since the input is an honest polynomial, so is the
output, and mu/lambda can be read off exact integer coefficients with no
working-precision bookkeeping at all.

For a link along z the polynomial is specialize_z's
Delta_z = (X^(a p'q') - 1)^d (X - 1) / ((X^(a p') - 1)(X^(a q') - 1)),
a = |alpha|.  mu is 0, and since lambda is additive and
lambda((1 + T)^k - 1) = ell^v(k) (Kummer's theorem on binomial
valuations), lambda(Delta_z) = d ell^v(a p'q') - ell^v(a p') - ell^v(a q') + 1.
Dropping the Torres factor X - 1 lowers lambda by one; when ell does not
divide p'q' the (X - 1)-free form has lambda (d - 2) ell^v(alpha).

For links the nu invariant is extracted empirically from the tower of
relative cover orders, so it is itself relative (shifted by the unknown
valuation of the base term); the report says which kind it carries.
"""

from dataclasses import dataclass
from math import comb
from typing import Optional

from .alexander import (
    AdmissibleVector,
    TorusParams,
    admissible_vector,
    alexander_poly,
    specialize_z,
)
from .arith import padic_valuation, require_prime
from .covers import TowerReport, tower_orders_knot, tower_orders_link
from .errors import FormulaMismatch, Internal, KnotCase, LinkCase, ZeroInput
from .polyring import _strip, geometric

NU_ABSOLUTE = "absolute"
NU_RELATIVE = "relative"
NU_NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class PadicPolynomial:
    """Exact image of an integer polynomial under X -> 1 + T, tagged with
    the prime at which valuations will be read."""

    ell: int
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class IwasawaInvariants:
    mu: int
    lam: int
    nu: Optional[int]
    nu_kind: str


def complete_at_ell(f: list[int], ell: int) -> PadicPolynomial:
    """Exact binomial-expansion substitution X -> 1 + T.

    >>> complete_at_ell([-1, 0, 0, 0, 1], 2).coeffs
    (0, 4, 6, 4, 1)
    """
    require_prime(ell)
    f = _strip(f)
    if not f:
        raise ZeroInput("cannot complete the zero polynomial")
    out = [0] * len(f)
    for i, c in enumerate(f):
        if c == 0:
            continue
        for j in range(i + 1):
            out[j] += c * comb(i, j)
    return PadicPolynomial(ell=ell, coeffs=tuple(out))


def weierstrass_mu_lambda(g: PadicPolynomial) -> tuple[int, int]:
    """(mu, lambda): minimal coefficient valuation and the first index
    attaining it.  For a polynomial with unit leading coefficient this is
    exactly the Weierstrass data ell^mu * (distinguished of degree lambda)
    * unit.

    >>> weierstrass_mu_lambda(PadicPolynomial(ell=2, coeffs=(8, 4, 2)))
    (1, 2)
    """
    nonzero = [(i, c) for i, c in enumerate(g.coeffs) if c != 0]
    if not nonzero:
        raise ZeroInput("mu/lambda of the zero series")
    vals = [(padic_valuation(g.ell, c), i) for i, c in nonzero]
    mu = min(v for v, _ in vals)
    lam = min(i for v, i in vals if v == mu)
    return mu, lam


def knot_invariants(params: TorusParams, ell: int, n_max: int = 4) -> IwasawaInvariants:
    """(mu, lambda, nu) for a torus knot: always (0, 0, 0), but verified two
    ways rather than asserted: the completed polynomial must be a unit, and
    every tower order must be coprime to ell."""
    return _knot_tower_invariants(params, ell, n_max)[1]


def _knot_tower_invariants(
    params: TorusParams, ell: int, n_max: int
) -> tuple[TowerReport, IwasawaInvariants]:
    """knot_invariants together with the tower it checked, so a caller
    that reports the tower builds it once."""
    if params.d != 1:
        raise LinkCase("knot invariants need gcd(p, q) = 1")
    require_prime(ell)
    mu, lam = weierstrass_mu_lambda(complete_at_ell(alexander_poly(params), ell))
    if (mu, lam) != (0, 0):
        raise Internal(f"knot completion not a unit: mu={mu}, lambda={lam}")
    tower = tower_orders_knot(params, ell, n_max)
    if any(v != 0 for v in tower.valuations):
        raise Internal(f"knot tower orders not coprime to {ell}: {tower.orders}")
    return tower, IwasawaInvariants(mu=0, lam=0, nu=0, nu_kind=NU_ABSOLUTE)


def _lambda_from_valuations(params: TorusParams, alpha: int, ell: int) -> int:
    # The factor ledger of the specialization: lambda of (X^k - 1) completed
    # is ell^v(k), the (X - 1) pieces contribute 1 apiece, and division
    # subtracts.  Everything reduces to three valuations of alpha multiples.
    a = abs(alpha)
    pp, qp, d = params.p_prime, params.q_prime, params.d
    return (
        d * ell ** padic_valuation(ell, a * pp * qp)
        - ell ** padic_valuation(ell, a * pp)
        - ell ** padic_valuation(ell, a * qp)
        + 1
    )


def link_mu_lambda(params: TorusParams, z, ell: int) -> tuple[int, int]:
    """Weierstrass (mu, lambda) of the completed z-specialization Delta_z,
    checked against the independent valuation ledger; disagreement means a
    bug, not an interesting link.

    mu is 0 and lambda = d ell^v(a p'q') - ell^v(a p') - ell^v(a q') + 1,
    a = |alpha|.  This counts the Torres factor X - 1: lambda of
    Delta_z / (X - 1) is one less, (d - 2) ell^v(alpha) when ell does not
    divide p'q'.

    >>> from toruslink.alexander import torus_params
    >>> link_mu_lambda(torus_params(3, 3), (1, 1, 1), 2)
    (0, 2)
    """
    if params.d == 1:
        raise KnotCase("link invariants need gcd(p, q) >= 2")
    require_prime(ell)
    vec = z if isinstance(z, AdmissibleVector) else admissible_vector(params, z)
    mu, lam = weierstrass_mu_lambda(complete_at_ell(specialize_z(params, vec), ell))
    want = _lambda_from_valuations(params, vec.alpha, ell)
    if mu != 0 or lam != want:
        raise FormulaMismatch(
            f"extracted (mu, lambda) = ({mu}, {lam}) but the valuation "
            f"ledger gives (0, {want})"
        )
    return mu, lam


def _stabilization_level(ell: int, lam: int) -> int:
    # Valuation growth per tower level equals lambda once phi(ell^n) exceeds
    # lambda; below that the primitive roots sit too close to 1.
    n = 1
    while (ell - 1) * ell ** (n - 1) <= lam:
        n += 1
    return n


def link_invariants(
    params: TorusParams, z, ell: int, n_max: Optional[int] = None
) -> IwasawaInvariants:
    """(mu, lambda) by Weierstrass extraction plus an empirical RELATIVE nu
    fitted from v_ell of the relative tower orders.

    The fit window starts where the growth law is guaranteed affine
    (phi(ell^n) > lambda and n > v) and needs three points; n_max=None sizes
    the tower accordingly.  Towers that hit a zero order (infinite homology)
    get nu_kind = "not_applicable".
    """
    return _link_tower_invariants(params, z, ell, n_max)[1]


def _link_tower_invariants(
    params: TorusParams, z, ell: int, n_max: Optional[int]
) -> tuple[TowerReport, IwasawaInvariants]:
    """link_invariants together with the tower its nu was fitted on; the
    tower ends at the last level of the fit window."""
    if params.d == 1:
        raise KnotCase("link invariants need gcd(p, q) >= 2")
    require_prime(ell)
    vec = z if isinstance(z, AdmissibleVector) else admissible_vector(params, z)
    mu, lam = link_mu_lambda(params, vec, ell)
    v = max(padic_valuation(ell, c) for c in vec.z)
    start = max(v + 1, _stabilization_level(ell, lam))
    if n_max is None:
        n_max = max(5, start + 2)
    if n_max < start + 2:
        raise ValueError(
            f"n_max = {n_max} leaves fewer than 3 fit points; need >= {start + 2}"
        )
    tower = tower_orders_link(params, vec, ell, n_max)
    window = range(start, n_max + 1)
    if any(tower.orders[n] == 0 for n in window):
        inv = IwasawaInvariants(mu=mu, lam=lam, nu=None, nu_kind=NU_NOT_APPLICABLE)
        return tower, inv
    consts = [tower.valuations[n] - mu * ell**n - lam * n for n in window]
    if len(set(consts)) != 1:
        raise Internal(
            f"tower valuations not affine on the stabilized window: {consts}"
        )
    return tower, IwasawaInvariants(mu=mu, lam=lam, nu=consts[0], nu_kind=NU_RELATIVE)


def lambda_decomposition_check(params: TorusParams, z, ell: int) -> bool:
    """Recompute lambda factor by factor: each geometric piece g_k completes
    to something with lambda = ell^v(k) - 1, and the specialization is
    (X-1)^(d-1) * g^d / (g * g).  Confirms the directly extracted lambda."""
    if params.d == 1:
        raise KnotCase("decomposition check is for links")
    require_prime(ell)
    vec = z if isinstance(z, AdmissibleVector) else admissible_vector(params, z)
    _, lam = link_mu_lambda(params, vec, ell)
    a = abs(vec.alpha)
    parts = {}
    for k in (a * params.p_prime * params.q_prime, a * params.p_prime, a * params.q_prime):
        mu_k, lam_k = weierstrass_mu_lambda(complete_at_ell(geometric(k), ell))
        if mu_k != 0:
            raise Internal(f"geometric factor g_{k} has mu = {mu_k}")
        parts[k] = lam_k
    combo = (
        (params.d - 1)
        + params.d * parts[a * params.p_prime * params.q_prime]
        - parts[a * params.p_prime]
        - parts[a * params.q_prime]
    )
    return combo == lam
