"""Array helpers that several modules share.

``distinct`` gives the sorted distinct values that ``np.unique`` gives, by
the same sort.  Since numpy 2, ``np.unique`` (and with it ``np.union1d`` and
``np.quantile``) asks ``numpy.ma`` whether its argument is masked, and the
first such call imports ``numpy.ma``: 10 ms or more of a CLI job that
never reads a masked array.  ``probability_vector`` validates the masses of a
measure or the weights of a path ensemble.

The module imports no kernel, so a command that needs a helper runs no
kernel it does not call: ``gen-walks`` builds its ensemble without running
``prokhorov``.
"""

from __future__ import annotations

import numpy as np

from .tolerances import MASS_ROUND_TOL, MASS_SUM_TOL

__all__ = ["distinct", "probability_vector"]


def distinct(values) -> np.ndarray:
    """The sorted distinct entries of the finite array ``values``, flattened:
    ``np.unique(values)`` bit for bit.  Both sort a flat copy with numpy's
    default sort and keep the first entry of each run of equal ones, so of
    equal signed zeros the one that the sort puts first."""
    out = np.sort(np.ravel(values))
    keep = np.empty(out.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def probability_vector(values, what: str = "masses") -> np.ndarray:
    """``values`` validated and renormalized to total exactly 1, read-only.

    Entries must be finite and nonnegative (entries down to
    ``-MASS_ROUND_TOL`` are taken as 0), and their total must lie within
    ``MASS_SUM_TOL`` of 1 before it is divided out.  ``what`` names the
    entries in error messages.
    """
    values = np.array(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")
    if values.min(initial=0.0) < -MASS_ROUND_TOL:
        raise ValueError(f"{what} must be nonnegative")
    values = np.maximum(values, 0.0)
    total = float(values.sum())
    if abs(total - 1.0) > MASS_SUM_TOL:
        raise ValueError(f"{what} sum to {total!r}, not 1")
    values /= total
    values.setflags(write=False)
    return values
