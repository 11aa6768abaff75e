"""Command-line interface.

Subcommands: invariant, moments, scan, tower, mahler.  Output is a JSON
envelope with a fixed key order so identical inputs give byte-identical
bytes; integers that can outgrow double precision (polynomial coefficients,
determinants, cover orders) are serialized as decimal strings.
"""

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import __version__
from .alexander import (
    alexander_poly,
    coloring_zero_order,
    cyclotomic_multiplicities,
    determinant,
    ell_colorable,
    torus_params,
)
from .arith import is_prime
from .covers import mahler_measure_quadrature, mahler_measure_roots
from .distribution import (
    ALL_LINKS,
    KNOTS_COPRIME,
    Arc,
    frequency_Fr,
    frequency_limit,
    scan,
)
from .errors import InvariantError
from .iwasawa import (
    _knot_tower_invariants,
    _link_tower_invariants,
    lambda_decomposition_check,
)
from .moments import mean_variance, moment_record, parseval_check, residue_table

SCHEMA = 1

_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def _envelope(command: str, inputs: dict, results: dict) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "results": results,
    }


def _emit(obj: dict, out) -> None:
    json.dump(obj, out, indent=2)
    out.write("\n")


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL.match(text):
        raise ValueError(
            f"{text!r} is not an exact rational; write it as num/den (floats are rejected)"
        )
    return Fraction(text)


def _parse_arc(text: str) -> Arc:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = body.split(",")
    if len(parts) != 2:
        raise ValueError(f"arc must look like [a,b], got {text!r}")
    a, b = (_parse_rational(s.strip()) for s in parts)
    return Arc(a, b)


def _parse_z(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise ValueError(f"--z expects a comma-separated integer list, got {text!r}")


def _primes_upto(bound: int) -> list[int]:
    return [n for n in range(2, bound + 1) if is_prime(n)]


def _cmd_invariant(args) -> int:
    params = torus_params(args.p, args.q)
    delta = alexander_poly(params)
    table = cyclotomic_multiplicities(params).entries
    det = determinant(params)
    colors = []
    for ell in _primes_upto(args.ell_bound):
        colors.append(
            {
                "ell": ell,
                "colorable": ell_colorable(params, ell),
                "zero_order": coloring_zero_order(params, ell),
            }
        )
    results = {
        "d": params.d,
        "p_prime": params.p_prime,
        "q_prime": params.q_prime,
        "L": params.L,
        "degree": len(delta) - 1,
        "coeffs": [str(c) for c in delta],
        "multiplicities": {str(r): m for r, m in sorted(table.items())},
        "determinant": str(det),
        "colorability": colors,
    }
    _emit(_envelope("invariant", {"p": args.p, "q": args.q}, results), sys.stdout)
    return 0


def _cmd_moments(args) -> int:
    params = torus_params(args.p, args.q)
    record = moment_record(params)
    mean, variance = mean_variance(record)
    residues = [
        {"root": f"{k}/{n}", "re": r.real, "im": r.imag}
        for (k, n), r in sorted(residue_table(params).items())
    ]
    if args.csv:
        sys.stdout.write("m,S_m\n")
        for m, v in enumerate(record.values):
            sys.stdout.write(f"{m},{v}\n")
        return 0
    results = {
        "period": record.period,
        "values": list(record.values),
        "mean": mean,
        "variance": variance,
        "residues": residues,
        "parseval_gap": parseval_check(params),
    }
    _emit(_envelope("moments", {"p": args.p, "q": args.q}, results), sys.stdout)
    return 0


def _family(name: str) -> str:
    return {"coprime": KNOTS_COPRIME, "all": ALL_LINKS}[name]


def _cmd_scan(args) -> int:
    family = _family(args.family)
    inputs = {"X": args.X, "family": args.family}
    if args.freq is not None:
        if args.freq < 2:
            raise ValueError(f"--freq needs r >= 2, got {args.freq}")
        value = frequency_Fr(args.X, args.freq)
        limit = frequency_limit(args.freq)
        inputs["freq"] = args.freq
        results = {
            "frequency": _frac_str(value),
            "frequency_float": float(value),
            "limit": _frac_str(limit),
            "limit_float": float(limit),
            "gap": abs(float(value) - float(limit)),
        }
        _emit(_envelope("scan", inputs, results), sys.stdout)
        return 0
    if args.arc is None:
        raise ValueError("scan needs an arc argument unless --freq is given")
    a = _parse_arc(args.arc)
    want_rows = args.per_pair is not None or args.csv
    report, rows = scan(args.X, family, a, want_rows=want_rows)
    inputs["arc"] = [_frac_str(a.a), _frac_str(a.b)]
    if args.per_pair is not None:
        with open(args.per_pair, "w") as fh:
            fh.write("p,q,d,roots_total,roots_in_arc\n")
            for row in rows:
                fh.write(",".join(str(x) for x in row) + "\n")
    if args.csv:
        sys.stdout.write("p,q,d,roots_total,roots_in_arc\n")
        for row in rows:
            sys.stdout.write(",".join(str(x) for x in row) + "\n")
        return 0
    results = {
        "t_count": report.t_count,
        "omega_count": report.omega_count,
        "arc_count": report.arc_count,
        "predicted_ratio": _frac_str(report.predicted_ratio),
        "observed_ratio": _frac_str(report.observed_ratio),
        "observed_ratio_float": float(report.observed_ratio),
        "gap": abs(float(report.observed_ratio) - float(report.predicted_ratio)),
    }
    _emit(_envelope("scan", inputs, results), sys.stdout)
    return 0


def _cmd_tower(args) -> int:
    params = torus_params(args.p, args.q)
    if not is_prime(args.ell):
        raise ValueError(f"--ell must be prime, got {args.ell}")
    inputs = {"p": args.p, "q": args.q, "ell": args.ell}
    if args.z is None:
        if params.d != 1:
            raise ValueError(
                f"T({args.p},{args.q}) is a {params.d}-component link; pass --z"
            )
        n_max = args.n if args.n is not None else 4
        inputs["n"] = n_max
        report, inv = _knot_tower_invariants(params, args.ell, n_max)
        results = {
            "relative": False,
            "v": report.v,
            "orders": [str(h) for h in report.orders],
            "closed_form": [str(h) for h in report.closed_form],
            "closed_form_agrees": True,
            "valuations": list(report.valuations),
            "invariants": {
                "mu": inv.mu,
                "lambda": inv.lam,
                "nu": inv.nu,
                "nu_kind": inv.nu_kind,
            },
        }
    else:
        z = _parse_z(args.z)
        inputs["z"] = z
        # the tower runs to the end of the nu fit window, so every level
        # the invariants were decided on is printed
        report, inv = _link_tower_invariants(params, z, args.ell, args.n)
        inputs["n"] = len(report.orders) - 1
        results = {
            "relative": True,
            "v": report.v,
            "orders": [str(h) for h in report.orders],
            "valuations": list(report.valuations),
            "invariants": {
                "mu": inv.mu,
                "lambda": inv.lam,
                "nu": inv.nu,
                "nu_kind": inv.nu_kind,
            },
            "lambda_decomposition_agrees": lambda_decomposition_check(
                params, z, args.ell
            ),
        }
    if args.csv:
        sys.stdout.write("n,order,valuation\n")
        for n, h in enumerate(report.orders):
            v = report.valuations[n]
            sys.stdout.write(f"{n},{h},{'' if v is None else v}\n")
        return 0
    _emit(_envelope("tower", inputs, results), sys.stdout)
    return 0


def _cmd_mahler(args) -> int:
    if args.poly is not None:
        if args.p is not None or args.q is not None:
            raise ValueError("give either p q or --poly, not both")
        f = [int(s) for s in args.poly.split(",")]
        inputs = {"poly": f, "grid": args.grid}
    else:
        if args.p is None or args.q is None:
            raise ValueError("mahler needs p q or --poly")
        params = torus_params(args.p, args.q)
        f = alexander_poly(params)
        inputs = {"p": args.p, "q": args.q, "grid": args.grid}
    m_roots = mahler_measure_roots(f)
    m_quad = mahler_measure_quadrature(f, args.grid)
    results = {
        "roots_measure": m_roots,
        "log_quadrature": m_quad,
        "jensen_gap": abs(m_quad - math.log(m_roots)),
    }
    _emit(_envelope("mahler", inputs, results), sys.stdout)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="toruslink",
        description="Exact invariants of torus knots and links.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariant", help="Alexander polynomial, multiplicities, determinant, colorability")
    inv.add_argument("p", type=int)
    inv.add_argument("q", type=int)
    inv.add_argument("--ell-bound", type=int, default=13, help="tabulate colorability for primes up to this bound")
    inv.set_defaults(fn=_cmd_invariant)

    mom = sub.add_parser("moments", help="root moment sequence of a torus knot")
    mom.add_argument("p", type=int)
    mom.add_argument("q", type=int)
    mom.add_argument("--csv", action="store_true", help="emit m,S_m rows instead of JSON")
    mom.set_defaults(fn=_cmd_moments)

    sc = sub.add_parser("scan", help="family scan: arc densities or divisor frequencies")
    sc.add_argument("X", type=int)
    sc.add_argument("family", choices=["coprime", "all"])
    sc.add_argument("arc", nargs="?", help="closed arc [a,b] with exact rational endpoints, e.g. [1/10,7/20]")
    sc.add_argument("--freq", type=int, default=None, metavar="R", help="report the frequency of r | pq instead of an arc count")
    sc.add_argument("--per-pair", default=None, metavar="FILE", help="write per-pair CSV rows to FILE")
    sc.add_argument("--csv", action="store_true", help="emit the per-pair table on stdout instead of JSON")
    sc.set_defaults(fn=_cmd_scan)

    tow = sub.add_parser("tower", help="cyclic cover orders along an ell-power tower")
    tow.add_argument("p", type=int)
    tow.add_argument("q", type=int)
    tow.add_argument("--z", default=None, help="specialization vector for links, e.g. 1,1,1")
    tow.add_argument("--ell", type=int, required=True)
    tow.add_argument("--n", type=int, default=None, help="tower depth (knots default 4; links size the fit window)")
    tow.add_argument("--csv", action="store_true", help="emit n,order,valuation rows instead of JSON")
    tow.set_defaults(fn=_cmd_tower)

    mah = sub.add_parser("mahler", help="Mahler measure, by roots and by quadrature")
    mah.add_argument("p", type=int, nargs="?", default=None)
    mah.add_argument("q", type=int, nargs="?", default=None)
    mah.add_argument("--poly", default=None, help="comma-separated coefficients, constant term first")
    mah.add_argument("--grid", type=int, default=1 << 20)
    mah.set_defaults(fn=_cmd_mahler)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvariantError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error[USAGE]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
