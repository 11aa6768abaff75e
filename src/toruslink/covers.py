"""Homology orders of cyclic branched covers, prime-power tower sequences,
and Mahler measures (root-based and quadrature).

The m-fold cover of a knot has |H_1| = |Res(t^m - 1, Delta)|, with 0
standing in for infinite homology.  Knot orders are read off the
cyclotomic ledger s -> M_s of Delta as the product of
|Phi_(s')(1)|^(M_s phi(s)/phi(s')) with s' = s / gcd(s, m), so no
polynomial is formed however deep the tower goes.  Link towers still pair
Delta_z with the tower quotients through the exact resultant.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import polyring
from .alexander import (
    AdmissibleVector,
    TorusParams,
    admissible_vector,
    cyclotomic_multiplicities,
    specialize_z,
    torus_params,
)
from .arith import mangoldt_exp, padic_valuation, require_prime, totient
from .errors import Internal, KnotCase, LinkCase, NonFinite, ZeroInput


@dataclass(frozen=True)
class TowerReport:
    """Orders |H_1| along the ell-power tower.

    For links the orders are RELATIVE: each entry is the product term over
    roots of unity of level above v = max v_ell(z_i), i.e. the quotient
    |H_1(M_(ell^n))| / |H_1(M_(ell^v))|; no closed form exists for the base
    term, so it is not computed.  A zero order means infinite homology, and
    its valuation slot holds None.
    """

    params: TorusParams
    z: Optional[AdmissibleVector]
    ell: int
    v: int
    orders: tuple[int, ...]
    valuations: tuple[Optional[int], ...]
    closed_form: Optional[tuple[int, ...]]
    relative: bool


def homology_order_cyclic(params: TorusParams, m: int) -> int:
    """|Res(t^m - 1, Delta_(p,q))| for a knot; 0 encodes infinite H_1.

    The order is prod over the ledger of |Res(t^m - 1, Phi_s)|^(M_s).
    t -> t^m maps the primitive s-th roots of unity onto the primitive
    s'-th roots, s' = s / gcd(s, m), phi(s)/phi(s') to one, so
    |Res(t^m - 1, Phi_s)| = |Phi_(s')(1)|^(phi(s)/phi(s')), and
    |Phi_(s')(1)| is 0 at s' = 1, ell at s' = ell^k, and 1 otherwise.

    >>> homology_order_cyclic(torus_params(2, 3), 2)
    3
    >>> homology_order_cyclic(torus_params(2, 3), 6)
    0
    """
    if params.d != 1:
        raise LinkCase("cyclic-cover orders via t^m - 1 are knot-only")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    out = 1
    for s, mult in cyclotomic_multiplicities(params).entries.items():
        image = s // math.gcd(s, m)
        if image == 1:
            # Phi_s divides t^m - 1: a root of Delta is an m-th root of unity
            return 0
        out *= mangoldt_exp(image) ** (mult * totient(s) // totient(image))
    return out


def _knot_closed_form(params: TorusParams, ell: int, n: int) -> int:
    # r = v_ell(pq); base q when ell | p, base p when ell | q, trivial otherwise.
    p, q = params.p, params.q
    if p % ell == 0:
        base = q
    elif q % ell == 0:
        base = p
    else:
        return 1
    r = padic_valuation(ell, p * q)
    return base ** (ell ** min(n, r) - 1)


def tower_orders_knot(params: TorusParams, ell: int, n_max: int) -> TowerReport:
    """Orders of the ell^n covers for n = 0..n_max, checked exactly against
    the closed form base^(ell^min(n, r) - 1)."""
    if params.d != 1:
        raise LinkCase("knot tower needs gcd(p, q) = 1")
    require_prime(ell)
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    orders = []
    predicted = []
    for n in range(n_max + 1):
        h = homology_order_cyclic(params, ell**n)
        want = _knot_closed_form(params, ell, n)
        if h != want:
            raise Internal(
                f"tower order for T({params.p},{params.q}) at {ell}^{n}: "
                f"ledger {h} vs closed form {want}"
            )
        orders.append(h)
        predicted.append(want)
    vals = tuple(padic_valuation(ell, h) if h else None for h in orders)
    return TowerReport(
        params=params,
        z=None,
        ell=ell,
        v=0,
        orders=tuple(orders),
        valuations=vals,
        closed_form=tuple(predicted),
        relative=False,
    )


def tower_orders_link(
    params: TorusParams, z, ell: int, n_max: int
) -> TowerReport:
    """Relative orders |Res((t^(ell^n) - 1)/(t^(ell^v) - 1), Delta_z)| for
    n = 0..n_max, where v = max v_ell(z_i).  Entries at n <= v are 1
    (empty product); a 0 entry means the cover has infinite homology and
    every deeper entry is 0 too."""
    if params.d == 1:
        raise KnotCase("link tower needs gcd(p, q) >= 2")
    require_prime(ell)
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    vec = z if isinstance(z, AdmissibleVector) else admissible_vector(params, z)
    v = max(padic_valuation(ell, c) for c in vec.z)
    delta = specialize_z(params, vec)
    orders = []
    dead = False
    for n in range(n_max + 1):
        if n <= v:
            orders.append(1)
            continue
        if dead:
            orders.append(0)
            continue
        # quotient (t^(ell^n) - 1)/(t^(ell^v) - 1) = sum of t^(j*ell^v)
        quot = [0] * (ell**n - ell**v + 1)
        for j in range(ell ** (n - v)):
            quot[j * ell**v] = 1
        h = abs(polyring.resultant_monic(delta, quot))
        if h == 0:
            dead = True
        orders.append(h)
    vals = tuple(padic_valuation(ell, h) if h else None for h in orders)
    return TowerReport(
        params=params,
        z=vec,
        ell=ell,
        v=v,
        orders=tuple(orders),
        valuations=vals,
        closed_form=None,
        relative=True,
    )


def _doubles(f: list[int]) -> np.ndarray:
    # Coefficients as doubles, highest degree first (the order of np.roots
    # and of Horner's rule); a coefficient beyond the double range is an
    # input error, not a crash.
    try:
        return np.array(f[::-1], dtype=float)
    except OverflowError as exc:
        raise NonFinite("a coefficient does not fit a double") from exc


def mahler_measure_roots(f: list[int]) -> float:
    """Multiplicative Mahler measure |lead| * prod max(1, |root|).

    Roots are found numerically on the squarefree factors only: repeated
    eigenvalues of the companion matrix cost about sqrt(eps) in accuracy,
    which would swamp the 1e-9 scale we certify, while simple roots are
    good to ~1e-13.
    """
    f = polyring._strip(f)
    if not f:
        raise ZeroInput("Mahler measure of 0")
    c, parts = polyring.squarefree_decomposition(f)
    out = float(_doubles([abs(c)])[0])
    for a, mult in parts:
        roots = np.roots(_doubles(a))
        m = abs(a[-1]) * np.prod(np.maximum(1.0, np.abs(roots)))
        out *= float(m) ** mult
    return out


def mahler_measure_quadrature(f: list[int], grid: int) -> float:
    """Midpoint-rule value of the logarithmic Mahler measure, the mean of
    log|f| over the unit circle sampled at angles (j + 1/2)/grid.

    The half-step offset means roots at rational angles (the only roots our
    cyclotomic products have) are never sampled exactly; a sample within
    1e-14 of a zero raises NonFinite and the caller should change grid.

    The samples are taken in blocks of 2^18 points, and Horner's rule runs
    on one reusable buffer of 2^12 complex points (64 KB, cache-resident),
    so the extra memory is fixed whatever the grid and the degree.
    """
    f = polyring._strip(f)
    if not f:
        raise ZeroInput("Mahler measure of 0")
    if grid < 16:
        raise ValueError(f"need grid >= 16, got {grid}")
    coeffs = _doubles(f)
    total = 0.0
    block = 1 << 18
    sub = 1 << 12
    buf = np.empty(min(sub, grid), dtype=complex)
    for start in range(0, grid, block):
        j = np.arange(start, min(start + block, grid))
        zs = np.exp(2j * np.pi * (j + 0.5) / grid)
        vals = np.empty(len(zs))
        for s in range(0, len(zs), sub):
            xs = zs[s : s + sub]
            # the steps of np.polyval, in place on a cache-sized buffer
            y = buf[: len(xs)]
            y.fill(0)
            for c in coeffs:
                y *= xs
                y += c
            np.abs(y, out=vals[s : s + len(xs)])
        if vals.min() < 1e-14:
            raise NonFinite("quadrature sample landed on a zero; change grid")
        total += np.log(vals).sum()
    return float(total / grid)


def acuna_short_check(params: TorusParams, n_max: int) -> float:
    """Largest |h_n^(1/n) - 1| over the tail n in [ceil(n_max/2), n_max],
    skipping n with h_n = 0.  The n-th root of the cover order converges to
    the Mahler measure of Delta, which is 1 here, so this shrinks as n_max
    grows; the tail window is what makes the returned value a convergence
    gauge rather than a small-n artifact."""
    if params.d != 1:
        raise LinkCase("cover-order limit is knot-only")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    out = 0.0
    for n in range(max(1, (n_max + 1) // 2), n_max + 1):
        h = homology_order_cyclic(params, n)
        if h == 0:
            continue
        out = max(out, abs(math.exp(math.log(h) / n) - 1.0))
    return out
