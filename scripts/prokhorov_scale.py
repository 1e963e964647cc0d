#!/usr/bin/env python3
"""Time and memory of one exact lam-Prokhorov distance at scale.

Draws ``--n`` uniform points in the unit square and two Dirichlet(1) mass
vectors on them from ``--seed``, computes the lam-Prokhorov distance at
``--lam`` with its coupling certificate, and prints one JSON line: alpha*,
the flows the search solved, the seconds from building the space to the
checked answer, and the peak resident size of the process (``ru_maxrss``)
in MiB.  The peak covers the whole process, imports included, so each size
is measured in a process of its own:

    python scripts/prokhorov_scale.py --n 3000 --lam 1 --seed 0
"""

import argparse
import json
import resource
import time

import numpy as np

from qcompact import DiscreteMeasure, FiniteMetricSpace, prokhorov_distance


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1600)
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    coords = rng.random((args.n, 2))
    p_mass, q_mass = rng.dirichlet(np.ones(args.n)), rng.dirichlet(np.ones(args.n))

    start = time.perf_counter()
    space = FiniteMetricSpace(coords=coords)
    res = prokhorov_distance(DiscreteMeasure(space, p_mass), DiscreteMeasure(space, q_mass), args.lam)
    seconds = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({
        "n": args.n,
        "lam": args.lam,
        "seed": args.seed,
        "alpha_star": res.alpha_star,
        "flows": res.flows_solved,
        "seconds": round(seconds, 3),
        "peak_rss_mib": round(peak_kib / 1024, 1),
    }))


if __name__ == "__main__":
    main()
