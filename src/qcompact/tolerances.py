"""Numerical tolerances, in one place.

Each value is a rounding budget for one kind of check, not a modelling
parameter:

- ``MASS_SUM_TOL``: a mass vector whose total is further than this from 1 is
  rejected by ``probability_vector``, which renormalizes the rest: the masses
  of a ``DiscreteMeasure``, the weights of a ``PathEnsemble`` and path laws.
- ``FLOW_TOL``: residual budget of the max-flow arithmetic.  A coupling
  certificate is rechecked against it (row and column sums, flow plus slack,
  slack against alpha, flow on pairs beyond ``lam * alpha``);
  ``check_alpha_block`` accepts a min-cut gap up to it; ``verify_qprokh``
  compares covering radii with it.  The breakpoint sweep pads the value
  bounds that a solved deficiency puts on its search bracket by it, so a
  deficiency off by rounding cannot cut the answer out of the bracket.
- ``MASS_ROUND_TOL``: rounding allowed in a single mass: ``probability_vector``
  takes entries down to ``-MASS_ROUND_TOL`` as 0.
- ``CERT_TOL``: slack of the hard assertions on path nets: the per-sample
  approximation bound of ``aa_net``, the 3M norm bound on its snapped
  values, and the sandwich rows of ``verify_qaa`` and ``verify_qsaa``.
- ``PATH_BOUND_SLACK``: ``aa_net``'s preconditions (each path's sup norm at
  most ``bound_m``, its oscillation at most ``alpha``, and ``alpha`` at most
  ``2 * bound_m``) each hold up to this, so that bounds read off the family
  itself pass.
- ``NORM_BOUND_FLOOR``: ``verify_qsaa`` gives ``aa_net`` at least this as the
  norm bound, which must be positive, also when the kept paths are all zero
  (a norm level M* of 0).
- ``HULL_TOL``: a Chebyshev ball must contain every point up to this
  distance times ``max(1, radius)``, and its convex-hull certificate may
  leave this residual times ``max(1, radius, largest |coordinate|)``
  (``ball.hull_bound``).  The residual compares a combination of points with
  the center, so its rounding grows with the coordinates: a single point
  near 1e9 leaves up to about 1e-6 with a radius of 0.
  ``jung_check`` compares the radius with ``diam/2`` and the Jung bound up
  to the containment slack.  The certificate is a nonnegative combination of
  points on the ball's sphere, with weights summing to 1, that reproduces
  the center: the center's barycentric weights on the final support of the
  ball loop, which ``chebyshev_center`` and ``chebyshev_centers`` share, for
  every input, cospherical ones included.
- ``AFFINE_TOL``: the ball loop takes its center to lie in the affine hull
  of its support when the support's circumcenter is within this times the
  radius, and a point stops the walk toward that circumcenter only when it
  nears the sphere faster than this times the radius per unit of the walk;
  a slower one ends outside by at most this share of the walk's length.
- ``SUPPORT_WEIGHT_MIN``: a point whose certificate weight is at or below
  this is left out of the support, so the support lists only the points the
  combination really uses.
- ``INSIDE_REL``: the ball loop takes a point whose squared distance to the
  center is at least ``r2 * (1 - INSIDE_REL)`` (``r2`` the squared radius)
  as on the sphere already, so that it stops the walk at once.
- ``RESIDUAL_EPS``: the max-flow solver treats a residual capacity at or
  below this as saturated, so that it never augments along rounding residue.
  The flow it returns then falls short of the capacity of the cut it returns
  by at most this value times the number of edges that cut crosses (at most
  |P| + |Q| + |P||Q|), which stays below ``FLOW_TOL`` up to 10^6 edges.
- ``ORACLE_TOL``: largest disagreement the CLI accepts between the breakpoint
  sweep and the subset-enumeration oracle on small spaces.
- ``ORACLE_BISECT_TOL``: ``prokhorov_oracle`` bisects on alpha until its
  bracket is at most this wide, well inside ``ORACLE_TOL``.
- ``COORD_MATCH_RTOL``: a distance matrix given together with Euclidean
  coordinates must agree with the distances recomputed from them up to this
  times ``max(1, largest recomputed distance)``: room for the rounding of a
  differently ordered sum of squares and square root, not for another metric.
  ``same_as`` takes two spaces as the same when their matrices agree up to
  this times ``max(1, larger diameter)``.
- ``TRIANGLE_SLACK``: a space is accepted when
  ``d(i,j) <= d(i,k) + d(k,j) + TRIANGLE_SLACK * max(1, diameter)`` for
  every triple, so that matrices that were themselves computed in floating
  point pass despite their rounding.  A given ``dist`` alone is scanned for
  it.  A space built from coordinates is not: the rounding of its distances
  (a relative ``6 * gamma_{N+3}``, about 1.3e-14 at N = 16, plus
  ``3 * COORD_MATCH_RTOL`` when a ``dist`` comes with the coordinates) is
  bounded in closed form by ``metric._coordinate_triangle_bound``, and that
  bound stays below this slack up to dimensions near 10^6.
"""

MASS_SUM_TOL = 1e-9
MASS_ROUND_TOL = 1e-12
FLOW_TOL = 1e-9
CERT_TOL = 1e-9
PATH_BOUND_SLACK = 1e-12
NORM_BOUND_FLOOR = 1e-9
HULL_TOL = 1e-9
AFFINE_TOL = 1e-12
SUPPORT_WEIGHT_MIN = 1e-12
INSIDE_REL = 3e-13
ORACLE_TOL = 1e-9
ORACLE_BISECT_TOL = 1e-10
RESIDUAL_EPS = 1e-15
COORD_MATCH_RTOL = 1e-12
TRIANGLE_SLACK = 1e-9
