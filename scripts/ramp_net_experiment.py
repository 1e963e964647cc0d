#!/usr/bin/env python3
"""Half-factor study: net covering radius of steep-ramp families.

The family {t -> clamp((t - s)/h, 0, 1)} has oscillation defect 1 at any
window wider than h, yet a one-dimensional net covers it at radius about
1/2.  This script sweeps the ramp width h and the window delta and prints
the achieved covering radius next to the certified upper bound, making the
dimension constant sqrt(N/(2N+2)) and the factor-1/2 floor visible side by
side.
"""

import argparse

import numpy as np

from qcompact import PLPath, verify_qaa
from qcompact.serialize import write_report


def ramp_family(h: float, step: float):
    fam = []
    for s in np.arange(0.0, 1.0, step):
        knots = sorted({0.0, float(s), float(min(s + h, 1.0)), 1.0})
        vals = [[float(min(max((t - s) / h, 0.0), 1.0))] for t in knots]
        fam.append(PLPath(knots, vals))
    return fam


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--widths", default="0.08,0.04,0.02,0.01")
    ap.add_argument("--delta-factor", type=float, default=2.5,
                    help="window delta as a multiple of the ramp width")
    ap.add_argument("--step", type=float, default=0.005)
    ap.add_argument("--eps", type=float, default=0.005)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    rows = []
    print(f"{'h':>7} {'delta':>7} {'alpha':>7} {'cover':>7} {'bound':>7} status")
    for h in (float(x) for x in args.widths.split(",")):
        delta = args.delta_factor * h
        fam = ramp_family(h, args.step)
        report = verify_qaa(fam, [delta], 1.0, args.eps)
        row = report.rows[0]
        rows.append(
            {
                "h": h,
                "delta": delta,
                "alpha": row.alpha,
                "covering": row.covering,
                "bound": row.bound,
                "status": report.status,
            }
        )
        print(
            f"{h:7.3f} {delta:7.3f} {row.alpha:7.3f} {row.covering:7.3f} "
            f"{row.bound:7.3f} {report.status}"
        )

    if args.out:
        write_report(args.out, {"rows": rows})
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
