#!/usr/bin/env python3
"""A periodic well obtained by dualizing the kink-stability potential.

The bounded line well from phi^6 kink stability analysis holds its
translation zero mode at E = 0 for every coupling, plus a second algebraic
level (3/4) mu^2 at epsilon^2 = 1/2.  Mapping x -> i*theta produces a
periodic well whose ground state sits at -(3/4) mu^2.  The image of the
zero mode keeps E = 0 at every coupling, but it inherits a cos(mu*theta/2)
factor: it changes sign after one potential period and is a genuine
eigenstate only on the doubled circle.  The oracle shows exactly that.
"""

from dataclasses import replace

import numpy as np

from qespoly import (
    OracleConfig,
    lowest_eigenvalues,
    new_potential_states,
    periodicity_character,
    schrodinger_residual,
    verify_duality_pair,
)
from qespoly.potentials import phi6_kink, phi6_kink_dual


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


MU = 1.0

banner("Line side: zero mode at every coupling, extra level at eps^2 = 1/2")
# the well never rises above mu^2, so a level at or above it is a box state
# of the truncated line: it never decays, and no line domain holds it; the
# oracle widens the line until its top level has decayed, so ask for the
# three lowest levels, bound states at each of these couplings
for eps2 in (0.3, 0.5, 0.8):
    res = lowest_eigenvalues(OracleConfig(phi6_kink(eps2, MU), l=14.0, n=6000, count=3))
    print(f"  eps^2={eps2}: lowest levels {[f'{e:.6f}' for e in res.eigenvalues]}"
          f" on l = {res.config.l:g}")
print("  E = 0 is always there (translation mode); 0.75 appears at eps^2 = 0.5;")
print("  levels at or above sup V = mu^2 are box states, not levels of the well")

banner("Dual side, one potential period (2 pi / mu)")
spec = phi6_kink_dual(0.5, MU)
res = lowest_eigenvalues(OracleConfig(spec, n=1024, count=5))
print(f"  levels: {[f'{e:.6f}' for e in res.eigenvalues]}")
print("  -0.75 is the ground state; nothing sits at 0: the would-be E = 0")
print("  state is odd under a one-period shift, so the single cover rejects it")

banner("Dual side, doubled circle (4 pi / mu)")
# the circle's length is its spec's period, so the doubled circle is a spec
res2 = lowest_eigenvalues(OracleConfig(replace(spec, period=2 * spec.period), n=2048, count=6))
print(f"  levels: {[f'{e:.6f}' for e in res2.eigenvalues]}")
print("  both algebraic levels appear: -0.75 and 0.0")

banner("Closed-form states, residuals and characters")
states = new_potential_states(0.5, MU)
theta1 = np.linspace(0.0, 2 * np.pi / MU, 4096, endpoint=False)
theta2 = np.linspace(0.0, 4 * np.pi / MU, 8192, endpoint=False)
char_grid = np.linspace(0.0, 4 * np.pi / MU, 1024, endpoint=False)
for (energy, psi), grid in zip(states, (theta1, theta2)):
    r = schrodinger_residual(psi, energy, spec, grid)
    ch = periodicity_character(psi(char_grid))
    print(f"  E = {energy:+.4f}: residual {r:.2e}, one-period character {ch:+d}")

banner("E = 0 persists at every coupling (doubled circle)")
for eps2 in (0.2, 0.3, 0.7):
    spec_g = phi6_kink_dual(eps2, MU)
    res = lowest_eigenvalues(OracleConfig(replace(spec_g, period=2 * spec_g.period),
                                          n=2048, count=6))
    gap = min(abs(e) for e in res.eigenvalues)
    (energy, psi), = new_potential_states(eps2, MU)
    r = schrodinger_residual(psi, energy, spec_g, theta2)
    print(f"  eps^2={eps2}: nearest eigenvalue to 0 is {gap:.2e} away,"
          f" closed-form residual {r:.2e}")

banner("The pairing, end to end")
rep = verify_duality_pair(phi6_kink(0.5, MU), phi6_kink_dual(0.5, MU), 1e-3)
print(f"  line levels {rep.source} <-> circle levels {rep.dual}")
print(f"  rejected: {rep.rejected}")
