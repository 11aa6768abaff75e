"""Run one generated task against the library, turn its output into a
canonical record, and check that record by an independent route.

`run` is the only part that is timed.  `record` and `check` run after the
clock stops; a record holds plain ints, strings, floats and lists, so its
JSON text is what the output digest hashes.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd

import oracles


def frac(arc):
    return Fraction(arc[0], arc[1]), Fraction(arc[2], arc[3])


def frac_str(x):
    return f"{x.numerator}/{x.denominator}"


# ------------------------------------------------------------------ run


def run(lib, task, cli_env=None):
    """Run the task; return the raw output.  `lib` holds the toruslink
    modules under their short names (lib.alexander, lib.covers, ...)."""
    kind = task["kind"]
    if kind == "cli":
        return run_cli(task["argv"], cli_env)
    tp = lib.alexander.torus_params
    if kind == "scan":
        a, b = frac(task["arc"])
        report, _ = lib.distribution.scan(task["X"], task["family"], lib.distribution.arc(a, b))
        return report
    if kind == "frequency":
        return lib.distribution.frequency_Fr(task["X"], task["r"])
    if kind == "roots_total":
        return lib.distribution.count_roots_total(task["X"], "knots_coprime")
    if kind == "weyl":
        return lib.distribution.weyl_sum(task["X"], task["k"])
    if kind == "cover_order":
        return lib.covers.homology_order_cyclic(tp(task["p"], task["q"]), task["m"])
    if kind == "tower_knot":
        return lib.covers.tower_orders_knot(tp(task["p"], task["q"]), task["ell"], task["n"])
    if kind == "tower_link":
        return lib.covers.tower_orders_link(tp(task["p"], task["q"]), task["z"], task["ell"], task["n"])
    if kind == "link_invariants":
        return lib.iwasawa.link_invariants(tp(task["p"], task["q"]), task["z"], task["ell"])
    if kind == "knot_invariants":
        return lib.iwasawa.knot_invariants(tp(task["p"], task["q"]), task["ell"])
    if kind == "invariant":
        params = tp(task["p"], task["q"])
        return (
            lib.alexander.determinant(params),
            lib.alexander.alexander_poly(params),
            lib.alexander.ell_colorable(params, task["ell"]),
            lib.alexander.coloring_zero_order(params, task["ell"]),
        )
    if kind == "specialize":
        params = tp(task["p"], task["q"])
        spec = lib.alexander.specialize_z(params, task["z"])
        hos = lib.alexander.hosokawa(params, task["z"])
        return spec, hos, lib.iwasawa.complete_at_ell(spec, task["ell"])
    if kind == "complete":
        delta = lib.alexander.alexander_poly(tp(task["p"], task["q"]))
        return delta, lib.iwasawa.complete_at_ell(delta, task["ell"])
    if kind == "moments":
        params = tp(task["p"], task["q"])
        rec = lib.moments.moment_record(params)
        return (
            rec,
            lib.moments.mean_variance(rec),
            lib.moments.residue_table(params),
            lib.moments.parseval_check(params),
        )
    if kind == "mahler":
        f = lib.alexander.alexander_poly(tp(task["p"], task["q"]))
        if task["c"]:
            f = [-task["c"] * f[0]] + [f[i - 1] - task["c"] * f[i] for i in range(1, len(f))] + [f[-1]]
        roots = lib.covers.mahler_measure_roots(f)
        quad = lib.covers.mahler_measure_quadrature(f, task["grid"]) if task["grid"] else None
        return roots, quad
    raise ValueError(f"unknown task kind {kind!r}")


def run_python(argv, env):
    """One child interpreter, waited for; returns (rc, stdout, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    out, err = proc.communicate()
    return proc.returncode, out, err


def run_cli(argv, env, flags=()):
    """One `python -m toruslink.cli` process; returns (rc, stdout, stderr)."""
    return run_python([*flags, "-m", "toruslink.cli", *argv], env)


def cli_env(src_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --------------------------------------------------------------- record


def record(task, raw):
    """Canonical, JSON-able form of the output.  The first field of every
    record is one the check verifies exactly."""
    kind = task["kind"]
    if kind == "scan":
        return {
            "arc_count": raw.arc_count, "t_count": raw.t_count, "omega_count": raw.omega_count,
            "observed_ratio": frac_str(raw.observed_ratio), "predicted_ratio": frac_str(raw.predicted_ratio),
        }
    if kind == "frequency":
        return {"value": frac_str(raw)}
    if kind == "roots_total":
        return {"total": raw}
    if kind == "weyl":
        return {"value": [raw.real, raw.imag]}
    if kind == "cover_order":
        return {"order": raw}
    if kind in ("tower_knot", "tower_link"):
        return {"orders": list(raw.orders), "valuations": list(raw.valuations), "v": raw.v}
    if kind in ("link_invariants", "knot_invariants"):
        return {"lam": raw.lam, "mu": raw.mu, "nu": raw.nu, "nu_kind": raw.nu_kind}
    if kind == "invariant":
        det, delta, colorable, zero_order = raw
        return {"det": det, "coeffs": delta, "colorable": colorable, "zero_order": zero_order}
    if kind == "specialize":
        spec, hos, comp = raw
        return {"spec": spec, "hosokawa": hos, "completed": list(comp.coeffs), "ell": comp.ell}
    if kind == "complete":
        delta, comp = raw
        return {"completed": list(comp.coeffs), "delta": delta, "ell": comp.ell}
    if kind == "moments":
        rec, mv, residues, gap = raw
        return {
            "values": list(rec.values), "period": rec.period, "mean_variance": list(mv),
            "residues": [[k, n, r.real, r.imag] for (k, n), r in sorted(residues.items())],
            "parseval_gap": gap,
        }
    if kind == "mahler":
        roots, quad = raw
        return {"roots_measure": roots, "log_quadrature": quad}
    if kind == "cli":
        rc, out, err = raw
        return {"rc": rc, "stdout": out, "stderr": err.splitlines()[0] if err else ""}
    raise ValueError(f"unknown task kind {kind!r}")


def corrupt(value):
    """Change the first scalar in a record: the smoke test feeds these to
    the checks to show that every check catches a wrong output."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "1"
    if value is None:
        return 1
    if isinstance(value, list):
        return [corrupt(value[0])] + value[1:] if value else [1]
    key = next(iter(value))
    return {**value, key: corrupt(value[key])}


# ---------------------------------------------------------------- check


class Mismatch(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


def check(lib, task, rec):
    """Raise Mismatch if the record disagrees with the independent route."""
    globals()["_check_" + task["kind"]](lib, task, rec)


@lru_cache(maxsize=4)
def _mu(X):
    return oracles.mobius_sieve(X)


def _check_scan(lib, task, rec):
    X, family = task["X"], task["family"]
    a, b = frac(task["arc"])
    knots = family == "knots_coprime"
    want_t = lib.distribution.count_coprime_pairs_mobius(X) if knots else X * X
    want_omega = oracles.coprime_roots_total(X, _mu(X)) if knots else (X * (X - 1) // 2) ** 2
    want_arc = oracles.family_arc_count(X, knots, a, b)
    expect(rec["arc_count"] == want_arc, f"arc_count {rec['arc_count']} != {want_arc}")
    expect(rec["t_count"] == want_t, f"t_count {rec['t_count']} != {want_t}")
    expect(rec["omega_count"] == want_omega, f"omega_count {rec['omega_count']} != {want_omega}")
    expect(Fraction(rec["observed_ratio"]) == Fraction(want_arc, want_omega), "observed_ratio")
    expect(Fraction(rec["predicted_ratio"]) == b - a, "predicted_ratio")
    arc = lib.distribution.arc(a, b)
    for p, q in task["sample"]:
        params = lib.alexander.torus_params(p, q)
        counts = {
            lib.distribution.arc_count_single(params, arc),
            lib.distribution.arc_count_direct(params, arc),
            oracles.pair_arc_count(p, q, a, b),
        }
        expect(len(counts) == 1, f"T({p},{q}) arc counts disagree: {counts}")


def _check_frequency(lib, task, rec):
    want = oracles.frequency(task["X"], task["r"])
    expect(Fraction(rec["value"]) == want, f"frequency {rec['value']} != {frac_str(want)}")


def _check_roots_total(lib, task, rec):
    want = oracles.coprime_roots_total(task["X"], _mu(task["X"]))
    expect(rec["total"] == want, f"roots total {rec['total']} != {want}")


def _check_weyl(lib, task, rec):
    want = oracles.weyl_value(task["X"], task["k"], _mu(task["X"]))
    expect(rec["value"] == [want.real, want.imag], f"weyl {rec['value']} != {want}")


def _check_cover_order(lib, task, rec):
    want = oracles.knot_cover_order(task["p"], task["q"], task["m"])
    expect(rec["order"] == want, f"cover order {rec['order']} != Apostol {want}")


def _valuations(ell, orders):
    return [oracles.valuation(ell, h) if h else None for h in orders]


def _check_tower_knot(lib, task, rec):
    p, q, ell, n = task["p"], task["q"], task["ell"], task["n"]
    want = [oracles.fox_weber(p, q, ell, k) for k in range(n + 1)]
    expect(rec["orders"] == want, f"knot tower {rec['orders']} != Fox-Weber {want}")
    apostol = [oracles.knot_cover_order(p, q, ell**k) for k in range(n + 1)]
    expect(apostol == want, f"Apostol tower {apostol} != Fox-Weber {want}")
    expect(rec["valuations"] == _valuations(ell, want), "knot tower valuations")
    expect(rec["v"] == 0, "knot tower v")


def _check_tower_link(lib, task, rec):
    ell = task["ell"]
    want = oracles.link_tower_orders(task["p"], task["q"], task["z"], ell, task["n"])
    expect(rec["orders"] == want, f"link tower {rec['orders']} != Apostol {want}")
    expect(rec["valuations"] == _valuations(ell, want), "link tower valuations")
    expect(rec["v"] == max(oracles.valuation(ell, abs(c)) for c in task["z"]), "link tower v")


def _check_link_invariants(lib, task, rec):
    mu, lam, nu, kind = oracles.link_invariants(task["p"], task["q"], task["z"], task["ell"])
    got = (rec["mu"], rec["lam"], rec["nu"], rec["nu_kind"])
    expect(got == (mu, lam, nu, kind), f"link invariants {got} != {(mu, lam, nu, kind)}")


def _check_knot_invariants(lib, task, rec):
    got = (rec["lam"], rec["mu"], rec["nu"], rec["nu_kind"])
    expect(got == (0, 0, 0, "absolute"), f"knot invariants {got}")


def _check_delta(p, q, delta, x):
    """Delta (t^p - 1)(t^q - 1) = +-(t^L - 1)^d (t - 1), at t = x mod a prime."""
    if p == 1 or q == 1:
        expect(delta == [1], "trivial Alexander polynomial")
        return
    d = gcd(p, q)
    L = p * q // d
    expect(len(delta) - 1 == (p - 1) * (q - 1), "Alexander degree")
    expect(delta[-1] > 0 and delta[0] != 0, "Alexander normalization")
    M = oracles.MOD
    lhs = oracles.eval_mod(delta, x) * oracles.pow_minus_one(x, p) * oracles.pow_minus_one(x, q)
    rhs = pow(oracles.pow_minus_one(x, L), d, M) * (x - 1)
    expect(oracles.equal_up_to_sign(lhs, rhs), f"T({p},{q}) Alexander identity fails mod prime")


def _check_invariant(lib, task, rec):
    p, q, ell = task["p"], task["q"], task["ell"]
    ledger = oracles.torus_multiplicities(p, q)
    det = oracles.determinant(ledger)
    expect(rec["det"] == det, f"determinant {rec['det']} != {det}")
    _check_delta(p, q, rec["coeffs"], task["x"])
    expect(rec["colorable"] == (det % ell == 0), "colorability")
    zo = oracles.coloring_zero_order(ledger, ell)
    expect(rec["zero_order"] == zo, f"coloring zero order {rec['zero_order']} != {zo}")


def _check_completion(f, completed, x):
    expect(len(completed) == len(f), "completion length")
    expect(
        oracles.eval_mod(completed, x) == oracles.eval_mod(f, x + 1),
        "completion g(T) != f(1 + T) mod prime",
    )


def _check_specialize(lib, task, rec):
    p, q, z, x = task["p"], task["q"], task["z"], task["x"]
    d = gcd(p, q)
    a = abs(sum(z))
    A, B, C = a * (p // d) * (q // d), a * (p // d), a * (q // d)
    M = oracles.MOD
    spec, hos = rec["spec"], rec["hosokawa"]
    lhs = oracles.eval_mod(spec, x) * oracles.pow_minus_one(x, B) * oracles.pow_minus_one(x, C)
    rhs = pow(oracles.pow_minus_one(x, A), d, M) * (x - 1)
    expect(oracles.equal_up_to_sign(lhs, rhs), "specialization identity fails mod prime")
    lhs = oracles.eval_mod(hos, x) * oracles.geometric_mod(x, B) * oracles.geometric_mod(x, C)
    expect(oracles.equal_up_to_sign(lhs, pow(oracles.geometric_mod(x, A), d, M)), "Hosokawa identity")
    expect(len(spec) - 1 == d * A + 1 - B - C, "specialization degree")
    expect(len(hos) == len(spec) - (d - 1), "Hosokawa degree")
    expect(rec["ell"] == task["ell"], "completion prime")
    _check_completion(spec, rec["completed"], x)


def _check_complete(lib, task, rec):
    _check_completion(rec["delta"], rec["completed"], task["x"])
    _check_delta(task["p"], task["q"], rec["delta"], task["x"])
    expect(rec["ell"] == task["ell"], "completion prime")


def _check_moments(lib, task, rec):
    p, q = task["p"], task["q"]
    pq = p * q
    values = rec["values"]
    expect(sum(values) == 0, "moment mean over a period is not 0")
    expect(sum(v * v for v in values) == pq * (p - 1) * (q - 1), "moment variance identity")
    expect(rec["period"] == pq == len(values), "moment period")
    expect(rec["mean_variance"] == [0, (p - 1) * (q - 1)], "mean_variance")
    params = lib.alexander.torus_params(p, q)
    for m in task["m"]:
        brute = lib.moments.moment_bruteforce(params, m)
        expect(abs(brute - values[m % pq]) < 1e-6 * pq, f"S_{m} = {values[m % pq]} vs root sum {brute}")
    poles = [k for k in range(pq) if p % (pq // gcd(k, pq)) and q % (pq // gcd(k, pq))]
    expect([r[0] for r in rec["residues"]] == poles, "residue table poles")
    for k, n, re, im in rec["residues"]:
        want = -complex(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
        expect(n == pq and abs(complex(re, im) - want) < 1e-9, f"residue at {k}/{n}")
    expect(0 <= rec["parseval_gap"] < 1e-6, f"parseval gap {rec['parseval_gap']}")


# Root measures come from numerical roots of squarefree factors (about
# 1e-13 relative); the midpoint rule on a polynomial whose roots are simple
# reproduces log M to about 1e-12 at these degrees.
MAHLER_ROOT_TOL = 1e-9
MAHLER_QUAD_TOL = 1e-8


def _check_mahler(lib, task, rec):
    want = float(max(task["c"], 1))
    got = rec["roots_measure"]
    expect(abs(got - want) <= MAHLER_ROOT_TOL * want, f"root measure {got} != {want}")
    if task["grid"]:
        quad = rec["log_quadrature"]
        expect(abs(quad - math.log(got)) <= MAHLER_QUAD_TOL, f"quadrature {quad} vs log {math.log(got)}")
    else:
        expect(rec["log_quadrature"] is None, "quadrature not requested")


def _check_cli(lib, task, rec):
    expect(rec["rc"] == task["rc"], f"exit status {rec['rc']} != {task['rc']}: {rec['stderr']}")
    if task["code"] is not None:
        expect(rec["stderr"].startswith(f"error[{task['code']}]:"), f"stderr {rec['stderr']!r}")
        expect(rec["stdout"] == "", "rejected input printed output")
        return
    env = json.loads(rec["stdout"])
    expect(env["schema"] == 1 and env["command"] == task["command"], "envelope header")
    res = env["results"]
    argv = task["argv"]
    if argv[0] == "invariant":
        p, q = task["p"], task["q"]
        ledger = oracles.torus_multiplicities(p, q)
        expect(res["determinant"] == str(oracles.determinant(ledger)), "cli determinant")
        expect(res["multiplicities"] == {str(r): m for r, m in sorted(ledger.items())}, "cli multiplicities")
        _check_delta(p, q, [int(c) for c in res["coeffs"]], 1 + p * 1000 + q)
    elif argv[0] == "moments":
        p, q = task["p"], task["q"]
        expect(res["period"] == p * q and sum(res["values"]) == 0, "cli moments")
        expect(res["variance"] == (p - 1) * (q - 1) and res["parseval_gap"] < 1e-6, "cli variance")
    elif argv[0] == "scan" and "r" in task:
        want = oracles.frequency(task["X"], task["r"])
        expect(res["frequency"] == frac_str(want), "cli frequency")
    elif argv[0] == "scan":
        a, b = frac(task["arc"])
        want = oracles.family_arc_count(task["X"], task["family"] == "coprime", a, b)
        expect(res["arc_count"] == want, f"cli arc count {res['arc_count']} != {want}")
    elif argv[0] == "tower" and "z" in task:
        p, q, z, ell = task["p"], task["q"], task["z"], task["ell"]
        want = oracles.link_tower_orders(p, q, z, ell, len(res["orders"]) - 1)
        expect(res["orders"] == [str(h) for h in want], "cli link tower")
        mu, lam, nu, kind = oracles.link_invariants(p, q, z, ell)
        inv = res["invariants"]
        expect((inv["mu"], inv["lambda"], inv["nu"], inv["nu_kind"]) == (mu, lam, nu, kind), "cli link invariants")
    elif argv[0] == "tower":
        p, q, ell, n = task["p"], task["q"], task["ell"], task["n"]
        want = [str(oracles.fox_weber(p, q, ell, k)) for k in range(n + 1)]
        expect(res["orders"] == want and res["closed_form"] == want, "cli knot tower")
    elif argv[0] == "mahler":
        want = float(task.get("c", 1))
        expect(abs(res["roots_measure"] - want) <= MAHLER_ROOT_TOL * want, "cli root measure")
        expect(res["jensen_gap"] <= MAHLER_QUAD_TOL, f"cli jensen gap {res['jensen_gap']}")
