"""Seeded task lists for the four workloads.

Each workload cycles through a fixed schedule of task classes; one pass
through the schedule is a round.  Task i is a plain JSON-able dict drawn
for class i mod R in round i // R, so the same seed always gives the same
list and the library only ever sees these generated values.

Task cost depends steeply on the inputs (a resultant grows with the cube
of the degree), so independent draws would make a run's timings depend on
which sizes its seed happened to pick.  Instead each random number a class
draws follows a Kronecker sequence over the rounds, frac(offset + k alpha),
with an offset taken from the seed: over the rounds of one run every input
range is covered evenly, whatever the seed, while the inputs themselves
change with it.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

from oracles import is_prime, link_fit_window, link_tower_orders, valuation

WORKLOADS = ("family_scan", "cover_towers", "dense_invariants", "cli_oneshot")

_PRIMES = [n for n in range(2, 320) if all(n % d for d in range(2, int(n**0.5) + 1))]
_ALPHAS = [math.sqrt(p) % 1.0 for p in _PRIMES]


class Stratified:
    """The random numbers of one task: draw j of round k is
    frac(offset_j + k * alpha_j), offset_j seeded, alpha_j = frac(sqrt(p_j))."""

    def __init__(self, key, k):
        self.key, self.k, self.j = key, k, 0

    def random(self):
        j = self.j
        self.j += 1
        offset = random.Random(f"{self.key}:{j}").random()
        return (offset + self.k * _ALPHAS[j % len(_ALPHAS)]) % 1.0

    def randint(self, lo, hi):
        return lo + int(self.random() * (hi - lo + 1))

    def randrange(self, lo, hi):
        return lo + int(self.random() * (hi - lo))

    def choice(self, seq):
        return seq[int(self.random() * len(seq))]


def _coprime_pair(rng, lo, hi):
    while True:
        p, q = rng.randint(lo, hi), rng.randint(lo, hi)
        if p != q and gcd(p, q) == 1:
            return min(p, q), max(p, q)


def _link_pair(rng, lo, hi, d_max=5):
    while True:
        d = rng.randint(2, d_max)
        pp, qp = rng.randint(1, hi // d), rng.randint(1, hi // d)
        p, q = d * pp, d * qp
        if gcd(pp, qp) == 1 and lo <= p <= hi and lo <= q <= hi and p > 1 and q > 1:
            return min(p, q), max(p, q)


def _admissible_z(rng, d, lo=-3, hi=3):
    while True:
        z = [rng.choice([c for c in range(lo, hi + 1) if c]) for _ in range(d)]
        g = 0
        for c in z:
            g = gcd(g, c)
        if g == 1 and sum(z) != 0:
            return z


def _arc(rng):
    while True:
        den_a, den_b = rng.randint(2, 64), rng.randint(2, 64)
        a = Fraction(rng.randint(0, den_a), den_a)
        b = Fraction(rng.randint(0, den_b), den_b)
        if a + Fraction(1, 16) < b:
            return [a.numerator, a.denominator, b.numerator, b.denominator]


def _arc_text(arc):
    return f"[{arc[0]}/{arc[1]},{arc[2]}/{arc[3]}]"


# Every schedule below has 20 classes in three cost strata: 6 light ones,
# 10 bulk ones and 4 heavy ones, so the median task falls inside the bulk
# and the 90th percentile inside the heavy stratum, not on an edge between
# strata.  Within a stratum the input sizes, and with them the costs,
# spread over a range of 2 to 4 times: the machine this benchmark was
# tuned on switches between a fast and a slow state every second or so,
# and a quantile of a narrow cost band would jump with that state instead
# of moving in proportion to it.

# ------------------------------------------------------------ family_scan


def _scan(rng, family, lo, hi):
    X = rng.randint(lo, hi)
    small = min(X, 40)
    sample = [[rng.randint(2, small), rng.randint(2, small)] for _ in range(3)]
    return {"kind": "scan", "X": X, "family": family, "arc": _arc(rng), "sample": sample}


def _weyl(rng):
    return {"kind": "weyl", "X": rng.randint(60, 200), "k": rng.randint(1, 720)}


def _frequency(rng, lo, hi):
    return {"kind": "frequency", "X": rng.randint(lo, hi), "r": rng.randint(3, 30)}


def _roots_total(rng, lo, hi):
    return {"kind": "roots_total", "X": rng.randint(lo, hi)}


_KNOT_SCAN = lambda r: _scan(r, "knots_coprime", 70, 130)  # noqa: E731
_LINK_SCAN = lambda r: _scan(r, "all_links", 45, 75)  # noqa: E731
# Half of the bulk is array work: in the slow state the Fraction-bound
# scans take about 1.4 times as long and the NumPy-bound counts about 1.1
# times, so a bulk of scans alone makes task_p50_ms follow the state.
_FREQ_BULK = lambda r: _frequency(r, 1000, 1800)  # noqa: E731
_ROOTS_BULK = lambda r: _roots_total(r, 1000, 1800)  # noqa: E731

FAMILY_SCAN = (
    _KNOT_SCAN, _weyl, _FREQ_BULK, lambda r: _frequency(r, 300, 800), _LINK_SCAN,
    # The large-X frequency and root totals build X-by-X arrays: they are
    # kept on purpose, near X = 2500, so peak memory reads the same on
    # every seed.
    lambda r: _frequency(r, 2480, 2500), _ROOTS_BULK, lambda r: _roots_total(r, 300, 1200), _KNOT_SCAN,
    lambda r: _scan(r, "knots_coprime", 155, 160), _FREQ_BULK, _weyl, _LINK_SCAN,
    lambda r: _roots_total(r, 2480, 2500), _ROOTS_BULK, lambda r: _frequency(r, 300, 800), _KNOT_SCAN,
    lambda r: _scan(r, "all_links", 100, 104), _FREQ_BULK, lambda r: _roots_total(r, 300, 1200),
)


# ----------------------------------------------------------- cover_towers


def _sylvester_size(p, q, m):
    """Rows of the Sylvester matrix homology_order_cyclic forms: Delta of
    degree D against t^s - 1, s = m mod pq, reduced mod Delta when s >= D."""
    D, s = (p - 1) * (q - 1), m % (p * q)
    return 0 if s == 0 else D + min(s, D - 1)


@lru_cache(maxsize=None)
def _cover_orders(lo, hi):
    """Every knot T(p, q), p < q <= 17, and m <= 120 whose Sylvester matrix
    has lo to hi rows, sorted by size: the Bareiss cost follows the size."""
    out = [
        (_sylvester_size(p, q, m), p, q, m)
        for p in range(3, 18) for q in range(p + 1, 18) if gcd(p, q) == 1
        for m in range(2, 121)
    ]
    return [c[1:] for c in sorted(c for c in out if lo <= c[0] <= hi)]


def _cover_order(rng, lo, hi):
    p, q, m = rng.choice(_cover_orders(lo, hi))
    return {"kind": "cover_order", "p": p, "q": q, "m": m}


def _small_knot(rng):
    while True:
        p, q = _coprime_pair(rng, 2, 16)
        if (p - 1) * (q - 1) <= 30:
            return p, q


def _tower_knot(rng):
    p, q = _small_knot(rng)
    ell = rng.choice((2, 3, 5))
    return {"kind": "tower_knot", "p": p, "q": q, "ell": ell, "n": {2: 6, 3: 4, 5: 3}[ell]}


def _knot_invariants(rng):
    p, q = _small_knot(rng)
    return {"kind": "knot_invariants", "p": p, "q": q, "ell": rng.choice((2, 3, 5))}


def _spec_degree(p, q, z):
    d = gcd(p, q)
    a = abs(sum(z))
    return d * a * (p // d) * (q // d) + 1 - a * (p + q) // d


def _live_link_tower(rng, depths, degrees):
    """A link tower to depth ell^n (n from `depths`) whose orders stay
    nonzero: a tower that hits infinite homology stops building levels.
    The cost of a level grows with ell^n and with deg Delta_z."""
    while True:
        p, q = _link_pair(rng, 2, 12)
        z = _admissible_z(rng, gcd(p, q))
        ell = rng.choice(sorted(depths))
        n = depths[ell]
        v = max(valuation(ell, abs(c)) for c in z)
        if v < n and _spec_degree(p, q, z) in degrees and 0 not in link_tower_orders(p, q, z, ell, n):
            return {"kind": "tower_link", "p": p, "q": q, "z": z, "ell": ell, "n": n}


def _link_invariants(rng):
    # The fit window can reach deep levels; keep its tower below 2^10.
    while True:
        p, q = _link_pair(rng, 4, 16, d_max=4)
        z, ell = _admissible_z(rng, gcd(p, q), -2, 2), rng.choice((2, 3, 5))
        if ell ** link_fit_window(p, q, z, ell)[2] <= 1024 and _spec_degree(p, q, z) <= 40:
            return {"kind": "link_invariants", "p": p, "q": q, "z": z, "ell": ell}


# Knots up to p, q = 17 and m up to 120: the Bareiss resultant of Delta
# against t^m - 1, on 110 to 220 rows for the bulk and 270 to 300 for the
# heavy tail.
_BULK_ORDER = lambda r: _cover_order(r, 110, 220)  # noqa: E731
_HEAVY_ORDER = lambda r: _cover_order(r, 270, 300)  # noqa: E731
# Deep link levels at 2^14 keep the dense quotient in view; 2^16 takes
# several seconds per level and deeper ones do not finish.
_DEEP_LINK = lambda r: _live_link_tower(r, {2: 14}, range(4, 31))  # noqa: E731

COVER_TOWERS = (
    _BULK_ORDER, _tower_knot, _BULK_ORDER, _HEAVY_ORDER, _BULK_ORDER,
    _link_invariants, _BULK_ORDER, _DEEP_LINK, _BULK_ORDER,
    lambda r: _live_link_tower(r, {2: 10, 3: 6, 5: 4}, range(1, 41)),
    _BULK_ORDER, _HEAVY_ORDER, _BULK_ORDER, lambda r: _cover_order(r, 40, 90), _BULK_ORDER,
    _DEEP_LINK, _knot_invariants, _BULK_ORDER, lambda r: _cover_order(r, 40, 90), _BULK_ORDER,
)


# ------------------------------------------------------- dense_invariants

_PRIMES_TO_13 = (2, 3, 5, 7, 11, 13)


def _invariant(rng, p, q):
    return {"kind": "invariant", "p": p, "q": q, "ell": rng.choice(_PRIMES_TO_13), "x": rng.randrange(2, 1 << 60)}


def _two_component(rng, lo, hi):
    # T(2n, 2n + 2): the binomial (t^L - 1)^2 makes every quotient dense
    n = rng.randint(lo, hi)
    return _invariant(rng, 2 * n, 2 * n + 2)


def _specialize(rng):
    # complete_at_ell is quadratic in the degree, so Delta_z stays below 300.
    while True:
        p, q = _link_pair(rng, 4, 40)
        z = _admissible_z(rng, gcd(p, q), -2, 2)
        if _spec_degree(p, q, z) < 300:
            return {
                "kind": "specialize", "p": p, "q": q, "z": z,
                "ell": rng.choice((2, 3, 5)), "x": rng.randrange(2, 1 << 60),
            }


def _complete(rng):
    while True:
        p, q = _coprime_pair(rng, 5, 40)
        if (p - 1) * (q - 1) < 300:
            return {"kind": "complete", "p": p, "q": q, "ell": rng.choice((2, 3, 5)), "x": rng.randrange(2, 1 << 60)}


def _moments(rng):
    p, q = _coprime_pair(rng, 5, 60)
    return {"kind": "moments", "p": p, "q": q, "m": [0] + [rng.randrange(1, 4 * p * q) for _ in range(4)]}


@lru_cache(maxsize=None)
def _knots_of_degree(lo, hi):
    pairs = [((p - 1) * (q - 1), p, q) for p in range(2, 40) for q in range(p + 1, 40) if gcd(p, q) == 1]
    return [c[1:] for c in sorted(c for c in pairs if lo <= c[0] <= hi)]


def _quadrature(rng, lo, hi, grid_exp):
    # knots only: their roots are simple, so the midpoint rule is accurate
    p, q = rng.choice(_knots_of_degree(lo, hi))
    return {"kind": "mahler", "p": p, "q": q, "c": rng.choice((0, 2, 3)), "grid": 1 << grid_exp}


def _link_roots(rng):
    p, q = _link_pair(rng, 4, 20, d_max=4)
    return {"kind": "mahler", "p": p, "q": q, "c": 0, "grid": None}


def _torus_square(rng):
    # T(p, p), p odd near 100: (t^p - 1)^(p-2) (t - 1), binomial-sized
    # coefficients (even p adds a root at -1 and costs several times more)
    p = 2 * rng.randint(35, 49) + 1
    return _invariant(rng, p, p)


def _stretched_knot(rng):
    n = rng.randint(40, 70)
    return _invariant(rng, n, 2 * n + 1)


_DENSE_BULK = lambda r: _two_component(r, 18, 30)  # noqa: E731
_QUAD_BULK = lambda r: _quadrature(r, 40, 100, 18)  # noqa: E731
_DENSE_HEAVY = lambda r: _two_component(r, 42, 43)  # noqa: E731
_QUAD_HEAVY = lambda r: _quadrature(r, 100, 120, 20)  # noqa: E731

DENSE_INVARIANTS = (
    _DENSE_BULK, _moments, _QUAD_BULK, _torus_square, _specialize,
    _DENSE_HEAVY, _QUAD_BULK, _moments, _stretched_knot, _complete,
    _DENSE_BULK, _QUAD_HEAVY, _torus_square, _moments, _QUAD_BULK,
    _DENSE_HEAVY, _link_roots, _DENSE_BULK, _stretched_knot, _QUAD_HEAVY,
)


# ------------------------------------------------------------ cli_oneshot


def _cli(argv, command=None, rc=0, code=None, **check):
    return {"kind": "cli", "argv": [str(a) for a in argv], "command": command, "rc": rc, "code": code, **check}


def _cli_tower_link(rng):
    # Without --n the CLI sizes the link tower itself; ell = 2 on small
    # links keeps every level cheap.
    p, q = _link_pair(rng, 2, 8, d_max=4)
    z = _admissible_z(rng, gcd(p, q), -2, 2)
    z_arg = "--z=" + ",".join(map(str, z))
    return _cli(["tower", p, q, z_arg, "--ell", 2], "tower", p=p, q=q, z=z, ell=2)


def _cli_scan(rng):
    arc = _arc(rng)
    X = rng.randint(10, 70)
    family = rng.choice(("coprime", "all"))
    return _cli(["scan", X, family, _arc_text(arc)], "scan", X=X, family=family, arc=arc)


def _cli_reject(rng):
    # Each input must be refused with its exact code and exit status.
    p, q = _link_pair(rng, 4, 20)
    kp, kq = _coprime_pair(rng, 2, 15)
    bad_ell = rng.choice([n for n in range(4, 30) if not is_prime(n)])
    d = gcd(p, q)
    choices = (
        lambda: _cli(["moments", p, q], rc=1, code="LINK_CASE"),
        lambda: _cli(["tower", kp, kq, "--ell", bad_ell], rc=2, code="USAGE"),
        lambda: _cli(["scan", rng.randint(5, 30), "all", f"[0.{rng.randint(1, 4)},1/2]"], rc=2, code="USAGE"),
        lambda: _cli(["tower", p, q, "--ell", 2], rc=2, code="USAGE"),
        lambda: _cli(["tower", p, q, "--z=" + ",".join(["2"] * d), "--ell", 3], rc=1, code="NON_ADMISSIBLE"),
        lambda: _cli(["tower", kp, kq, "--z=1", "--ell", 2], rc=1, code="KNOT_CASE"),
    )
    return rng.choice(choices)()


def _cli_invariant(rng):
    p, q = rng.randint(2, 40), rng.randint(2, 40)
    return _cli(["invariant", p, q], "invariant", p=p, q=q)


def _cli_moments(rng):
    p, q = _coprime_pair(rng, 2, 40)
    return _cli(["moments", p, q], "moments", p=p, q=q)


def _cli_tower_knot(rng):
    p, q = _small_knot(rng)
    ell, n = rng.choice((2, 3)), rng.randint(2, 4)
    return _cli(["tower", p, q, "--ell", ell, "--n", n], "tower", p=p, q=q, ell=ell, n=n)


def _cli_tower_twice(rng):
    # `tower` on a knot builds its tower twice (the orders, then the
    # invariants); a depth-6 tower on a knot of degree 40 to 60 makes
    # that second build cost about as much as the interpreter start.
    while True:
        p, q = _coprime_pair(rng, 3, 30)
        if 40 <= (p - 1) * (q - 1) <= 60:
            return _cli(["tower", p, q, "--ell", 2, "--n", 6], "tower", p=p, q=q, ell=2, n=6)


def _cli_mahler(rng):
    p, q = _coprime_pair(rng, 2, 12)
    return _cli(["mahler", p, q, "--grid", 1 << rng.randint(14, 20)], "mahler", p=p, q=q)


def _cli_mahler_poly(rng):
    c = rng.randint(2, 5)
    return _cli(["mahler", f"--poly={-c},1", "--grid", 1 << rng.randint(14, 20)], "mahler", c=c)


def _cli_freq(rng):
    X, r = rng.randint(100, 1000), rng.randint(3, 30)
    return _cli(["scan", X, "coprime", "--freq", r], "scan", X=X, r=r)


CLI_ONESHOT = (
    _cli_invariant, _cli_moments, _cli_scan, _cli_tower_twice, _cli_reject,
    _cli_mahler, _cli_tower_link, _cli_freq, _cli_scan, _cli_reject,
    _cli_tower_twice, _cli_tower_knot, _cli_mahler_poly, _cli_scan, _cli_reject,
    _cli_tower_twice, _cli_invariant, _cli_tower_twice, _cli_freq, _cli_reject,
)

SCHEDULES = {
    "family_scan": FAMILY_SCAN,
    "cover_towers": COVER_TOWERS,
    "dense_invariants": DENSE_INVARIANTS,
    "cli_oneshot": CLI_ONESHOT,
}


# Fixed small tasks, one per kind: the untimed warm-up before every run,
# and the whole task list of a --tiny run.
TINY = {
    "family_scan": (
        {"kind": "scan", "X": 12, "family": "knots_coprime", "arc": [1, 10, 7, 20], "sample": [[3, 5]]},
        {"kind": "scan", "X": 12, "family": "all_links", "arc": [0, 1, 1, 2], "sample": [[4, 6]]},
        {"kind": "frequency", "X": 40, "r": 6},
        {"kind": "roots_total", "X": 40},
        {"kind": "weyl", "X": 20, "k": 12},
    ),
    "cover_towers": (
        {"kind": "cover_order", "p": 3, "q": 5, "m": 12},
        {"kind": "tower_knot", "p": 2, "q": 9, "ell": 3, "n": 3},
        {"kind": "tower_link", "p": 4, "q": 6, "z": [1, 2], "ell": 2, "n": 4},
        {"kind": "link_invariants", "p": 4, "q": 6, "z": [1, 2], "ell": 2},
        {"kind": "knot_invariants", "p": 3, "q": 4, "ell": 3},
    ),
    "dense_invariants": (
        {"kind": "invariant", "p": 6, "q": 9, "ell": 3, "x": 12345},
        {"kind": "specialize", "p": 4, "q": 6, "z": [1, 2], "ell": 3, "x": 12345},
        {"kind": "complete", "p": 3, "q": 5, "ell": 2, "x": 12345},
        {"kind": "moments", "p": 3, "q": 5, "m": [0, 7]},
        {"kind": "mahler", "p": 3, "q": 4, "c": 2, "grid": 1 << 12},
        {"kind": "mahler", "p": 4, "q": 6, "c": 0, "grid": None},
    ),
    "cli_oneshot": (
        _cli(["invariant", 3, 5], "invariant", p=3, q=5),
        _cli(["moments", 4, 6], rc=1, code="LINK_CASE"),
        _cli(["mahler", "--poly=-2,1", "--grid", 4096], "mahler", c=2),
    ),
}


def make_task(workload, seed, i, tiny=False):
    if tiny:
        return TINY[workload][i % len(TINY[workload])]
    schedule = SCHEDULES[workload]
    cls, k = i % len(schedule), i // len(schedule)
    return schedule[cls](Stratified(f"{workload}:{seed}:{cls}", k))


def round_length(workload, tiny=False):
    return len(TINY[workload] if tiny else SCHEDULES[workload])
