"""Executable equivalence checks across the Fenchel dual.

The dual of  min_x f(Ax) + h(x)  can itself be written in the same composite
shape,  min_v F(Bv) + H(v),  with F = h*, B = A*, and H(v) = f*(-v).  All
oracles of the dual spec are sign-and-swap rewirings of the primal oracles,
so a spec satisfying the oracle contracts dualizes for free;
:func:`~fenchelduo.oracles.dualize` builds it and is re-exported here.

Two classic consequences become deterministic numerical checks here: a
conditional-subgradient run on the primal replays, sign-flipped, as a
mirror-descent run on the dual; and the symmetric primal-dual iteration is
invariant (again up to signs) under swapping the problem with its dual.
"""

from __future__ import annotations

import numpy as np

from .engine import run_gcs, run_gmd, run_hybrid
from .oracles import ConstructionError, ProblemSpec, RangeError, dualize
from .steps import StepRule

__all__ = ["dualize", "check_bach_equivalence", "check_hybrid_symmetry"]


def _require_schedule(rule: StepRule):
    if not rule.is_schedule:
        raise RangeError(
            "equivalence checks need a deterministic step schedule; "
            f"got trajectory-dependent rule {type(rule).__name__}"
        )


def _deviation(*pairings) -> float:
    # worst |a + sign * b| over paired iterate histories, row by row so that no history is
    # stacked; sign = +-1.0 keeps it exact, and np.max keeps a NaN where max() would drop it
    return float(np.max([np.abs(a + sign * b).max() for firsts, seconds, sign in pairings
                         for a, b in zip(firsts, seconds, strict=True)]))


def check_bach_equivalence(spec: ProblemSpec, x0, rule: StepRule, k_max: int) -> float:
    """Max deviation between a primal conditional-subgradient run and the
    sign-mapped mirror-descent run on the dual started from -x0.

    The correspondence is (v_k, y_k, z_k) = (-x_k, -u_k, s_k); the returned
    value is the worst infinity-norm defect of v_k = -x_k, which y_k and z_k
    are functions of, over the whole run.  Exact in theory, so anything
    above 1e-12 indicates a wiring error.  ``run_gmd`` is itself the
    conditional-subgradient run of the dual spec, so this checks that
    ``dualize`` applied twice gives back the primal run; the comparison with
    a literal mirror-descent loop is in the test suite.
    """
    _require_schedule(rule)
    primal = run_gcs(spec, x0, rule, k_max)
    if primal.error:
        raise ConstructionError(f"primal run aborted: {primal.error}")
    dual = run_gmd(dualize(spec), -np.asarray(x0, dtype=float), rule, k_max)
    if dual.error:
        raise ConstructionError(f"dual run aborted: {dual.error}")
    return _deviation((dual.vs, primal.xs, 1.0))


def check_hybrid_symmetry(spec: ProblemSpec, x0, u0, rule: StepRule, k_max: int) -> float:
    """Max deviation between a symmetric run on the problem and one on its
    dual started from (-u0, x0).

    The pairings are (x'_k, u'_k) = (-u_k, x_k), of which (s'_k, z'_k) =
    (-z_k, s_k) are functions.
    """
    _require_schedule(rule)
    here = run_hybrid(spec, x0, u0, rule, k_max)
    if here.error:
        raise ConstructionError(f"primal run aborted: {here.error}")
    there = run_hybrid(dualize(spec), -np.asarray(u0, dtype=float),
                       np.asarray(x0, dtype=float), rule, k_max)
    if there.error:
        raise ConstructionError(f"dual run aborted: {there.error}")
    return _deviation((there.xs, here.us, 1.0), (there.us, here.xs, -1.0))
