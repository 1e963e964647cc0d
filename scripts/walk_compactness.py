#!/usr/bin/env python3
"""Compactness defects of scaled random-walk ensembles across resolutions.

Samples +/- walk ensembles under diffusive scaling at several step counts,
then certifies the two-sided bound linking the tail and oscillation defects
to the path-space covering radius.  As the step count grows the paths get
rougher at fixed window width, so the oscillation trim and the net radius
move in opposite directions; the printed table shows both along with the
per-lambda guarantees.
"""

import argparse

from qcompact import sample_walks, verify_qsaa
from qcompact.serialize import write_report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", default="16,64,256")
    ap.add_argument("--paths", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20260824)
    ap.add_argument("--lambdas", default="0.5,1.0,2.0")
    ap.add_argument("--eps-grid", default="0.25")
    ap.add_argument("--delta-grid", default="0.01")
    ap.add_argument("--m-grid", default="2.0")
    ap.add_argument("--eps", type=float, default=0.05)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    lambdas = [float(x) for x in args.lambdas.split(",")]
    eps_grid = [float(x) for x in args.eps_grid.split(",")]
    delta_grid = [float(x) for x in args.delta_grid.split(",")]
    m_grid = [float(x) for x in args.m_grid.split(",")]

    rows = []
    print(
        f"{'n':>5} {'tail':>6} {'osc':>6} {'kept':>5} {'r_net':>7} "
        f"{'cover(lam)':>24} status"
    )
    for n in (int(x) for x in args.steps.split(",")):
        xi = [sample_walks(n, args.paths, scale=1.0, seed=args.seed + n)]
        report = verify_qsaa(xi, lambdas, eps_grid, delta_grid, m_grid, args.eps)
        covers = {str(r.lam): r.covering for r in report.lambda_rows}
        rows.append(
            {
                "n_steps": n,
                "tail": report.tail.value,
                "osc": report.osc.value,
                "kept": report.n_kept,
                "net_radius": report.net_radius,
                "covering_by_lambda": covers,
                "status": report.status,
            }
        )
        cover_str = " ".join(f"{v:.4f}" for v in covers.values())
        print(
            f"{n:5d} {report.tail.value:6.3f} {report.osc.value:6.3f} "
            f"{report.n_kept:5d} {report.net_radius:7.4f} {cover_str:>24} "
            f"{report.status}"
        )

    if args.out:
        write_report(args.out, {"rows": rows})
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
