#!/usr/bin/env python3
"""Sweep the tightness-vs-covering sandwich on hub-and-satellite families.

Builds families of measures that share a heavy hub atom and place the
remaining mass on private satellites, then reports, per satellite mass p and
scale lambda, the defect bracket, the net covering radius, and the verdict.
The satellite mass is exactly the quantity the defect estimator must find,
so the sweep doubles as a calibration check for eps grids and center budgets.
"""

import argparse

import numpy as np

from qcompact import DiscreteMeasure, FiniteMetricSpace, verify_qprokh
from qcompact.serialize import write_report


def hub_family(n_satellites: int, p: float, spread: float = 10.0):
    n = n_satellites + 1
    d = np.full((n, n), 2.0 * spread)
    d[0, :] = spread
    d[:, 0] = spread
    np.fill_diagonal(d, 0.0)
    space = FiniteMetricSpace(d)
    family = []
    for k in range(1, n):
        mass = np.zeros(n)
        mass[0] = 1.0 - p
        mass[k] = p
        family.append(DiscreteMeasure(space, mass))
    return family


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--satellites", type=int, default=6)
    ap.add_argument("--masses", default="0.05,0.1,0.2,0.4")
    ap.add_argument("--lambdas", default="0.5,1.0,2.0")
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--out", default=None, help="write the table as JSON")
    args = ap.parse_args()

    masses = [float(x) for x in args.masses.split(",")]
    lambdas = [float(x) for x in args.lambdas.split(",")]

    rows = []
    print(f"{'p':>6} {'defect_lo':>10} {'defect_hi':>10} {'status':>14} hint")
    for p in masses:
        family = hub_family(args.satellites, p)
        report = verify_qprokh(family, lambdas, args.eps)
        rows.append(
            {
                "p": p,
                "defect_lower": report.mu_ut.lower,
                "defect_upper": report.mu_ut.upper,
                "status": report.status,
                "covering_by_lambda": {
                    str(r.lam): r.covering_radius for r in report.rows
                },
            }
        )
        print(
            f"{p:6.2f} {report.mu_ut.lower!s:>10} {report.mu_ut.upper:>10.4f} "
            f"{report.status:>14} {report.hint}"
        )

    if args.out:
        write_report(args.out, {"rows": rows})
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
