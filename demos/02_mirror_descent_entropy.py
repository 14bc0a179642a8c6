"""Mirror descent in the entropy geometry, driven by the softmax oracle.

With h the negative entropy restricted to the simplex, the conjugate h* is
log-sum-exp and its subgradient oracle is softmax.  The iteration lives in the
dual space: v accumulates scaled gradients and the mirror point y = softmax(v)
is always a strictly positive probability vector, again with no projections.
The primal certificate is the weighted average of the mirror points or the
best mirror point so far, whichever has the lower primal value; the
certified gap bound uses Bregman distances of log-sum-exp, computed stably as
KL divergences between the softmax images.
"""

import numpy as np

import fenchelduo as fd

tilt = np.array([0.3, -0.2, 0.1])
spec = fd.make_entropy_lse(3, b=tilt)
trace = fd.run_gmd(spec, v0=np.zeros(3), rule=fd.FixedHarmonic(), k_max=400)

print("minimize 0.5*||y||^2 + <b, y> + sum_i y_i log y_i over the simplex,")
print(f"b = {tilt.tolist()}")
print()
print(f"{'k':>6} {'primal@cert':>14} {'dual@v_k':>14} {'true gap':>12} {'certified':>12}")
for k in (1, 2, 5, 10, 50, 100, 400):
    r = trace.row(k - 1)
    print(f"{k:6d} {r['primal']:14.8f} {r['dual']:14.8f} {r['true_gap']:12.3e} "
          f"{r['gap_bound']:12.3e}")

print()
# the trace keeps the v_k; each mirror point is y_k = softmax(v_k)
mirror_points = [spec.h_conj_grad(spec.linmap.adjoint(v)) for v in trace.vs[:-1]]
print("mirror points stay strictly inside the simplex:",
      bool(all(np.min(y) > 0 for y in mirror_points)))
print(f"final primal certificate: {np.round(trace.certificate, 6).tolist()}")

# the sharpened certificate uses the convexity slack of the entropy term and
# is strictly tighter than the plain one on this problem
plain, sharp = np.asarray(trace.gap_plain), np.asarray(trace.gap_sharp)
print("sharpened certificate strictly tighter at",
      int(np.sum(sharp < plain - 1e-12)), "of", trace.k, "iterations")
