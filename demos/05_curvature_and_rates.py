"""Relative curvature probes and the decay exponents they predict.

The gap certificate contracts at rate k^-(g-1) when the Bregman distance of
the smooth part grows like alpha^g along oracle step lines ("relative
g-curvature" with constant C).  A quadratic over the simplex has g = 2 and
C = 2 (the squared diameter), giving the classic 1/k decay.  A power
objective |t|^1.5/1.5 on the segment [-1, 1], reached through the simplex and
the map [1, -1], has g = 1.5 at its kink: the certificate then decays like
k^-0.5, and the empirical log-log slope agrees.
"""

import numpy as np

import fenchelduo as fd

quad = fd.make_quadratic_simplex(n=2)
power = fd.make_holder_power_simplex(1.5, 2, a=[[1.0, -1.0]])

est_quad = fd.probe_curvature(quad, gamma=2.0, n_samples=200, seed=0)
est_power = fd.probe_curvature(power, gamma=1.5, n_samples=200, seed=0)
print("sampled curvature constants (lower estimates):")
print(f"  quadratic/simplex, g=2.0: C ~ {est_quad.c_hat:.6f} (true constant 2)")
print(f"  power-1.5/segment, g=1.5: C ~ {est_power.c_hat:.6f}")
print()

for label, spec, expected in [("quadratic (g=2)", quad, -1.0),
                              ("power 1.5 (g=1.5)", power, -0.5)]:
    trace = fd.run_gcs(spec, np.array([1.0, 0.0]), fd.ExactLineSearch(), 1000)
    slope, r2 = fd.fit_rate(trace)
    print(f"{label}: certified gap slope {slope:+.3f} (r^2 {r2:.4f}), "
          f"predicted {expected:+.1f}")

print()
print("step-size rules on the quadratic, certified gap at k = 1000:")
rules = [("2/(k+2) schedule", fd.FixedHarmonic()),
         ("open loop g=2", fd.OpenLoop(2.0)),
         ("exact line search", fd.ExactLineSearch())]
for label, rule in rules:
    trace = fd.run_gcs(quad, np.array([1.0, 0.0]), rule, 1000)
    print(f"  {label:20s} {trace.gap_bound[-1]:.6e}")
