"""Conditional subgradient steps on a quadratic over the simplex, with a
certified duality gap at every iteration.

The solver never projects: each step asks the support-function oracle of the
simplex for the vertex that best opposes the current gradient and moves a
fraction alpha toward it.  Averaging the observed gradients produces a dual
certificate, and a one-line recursion maintains an upper bound on the duality
gap that is valid at every k.  With the 2/(k+2) schedule the bound is further
capped by 2C/(k+2), where C = 2 is the squared diameter of the simplex.
"""

import numpy as np

import fenchelduo as fd

spec = fd.make_quadratic_simplex(n=2)
trace = fd.run_gcs(spec, x0=[1.0, 0.0], rule=fd.FixedHarmonic(), k_max=1000)

print("minimize 0.5*||x||^2 over the probability simplex in R^2")
print("optimum: x* = (1/2, 1/2) with value 1/4, duality gap 0 at (x*, x*)")
print()
print(f"{'k':>6} {'primal':>12} {'dual':>12} {'true gap':>12} {'certified':>12} {'2C/(k+2)':>12}")
for k in (1, 2, 5, 10, 50, 100, 500, 1000):
    i = k - 1
    print(f"{k:6d} {trace.primal[i]:12.6f} {trace.dual[i]:12.6f} {trace.true_gap[i]:12.3e} "
          f"{trace.gap_bound[i]:12.3e} {4.0 / (k + 2):12.3e}")

gap = np.asarray(trace.true_gap)
bound = np.asarray(trace.gap_bound)
k = np.arange(1, trace.k + 1)
print()
print("sandwich 0 <= true gap <= certificate holds at every k:",
      bool(np.all(gap >= -1e-9) and np.all(gap <= bound + 1e-8)))
print("schedule cap 2C/(k+2) holds at every k:",
      bool(np.all(gap <= 4.0 / (k + 2) + 1e-12)))
