#!/usr/bin/env python3
"""Cross-check every analytic level against a finite-difference eigensolver
that shares nothing with the polynomial route except the potential.

Line problems: tridiagonal matrix, eigenvalues by Sturm bisection.  The
solve is repeated at half resolution; with a second-order stencil the
error must shrink by a factor of about 4, which the harmonic oscillator
demonstrates against its known spectrum.
"""

import numpy as np

from qespoly import OracleConfig, lowest_eigenvalues, qes_energies, verify_qes
from qespoly.potentials import dshg, harmonic
from qespoly.wavefunctions import build_qes_state, node_count, residual


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


banner("Harmonic sanity: exact spectrum 2n+1, second-order convergence")
res = lowest_eigenvalues(OracleConfig(harmonic(), l=10.0, n=4000, count=3))
for k, exact in enumerate((1.0, 3.0, 5.0)):
    ratio = (res.richardson[k] - exact) / (res.eigenvalues[k] - exact)
    print(f"  E_{k}: fine {res.eigenvalues[k]:.8f}  coarse {res.richardson[k]:.8f}"
          f"  error ratio {ratio:.3f} (expect ~4)")

banner("Double sinh-Gordon: oracle vs closed forms at zeta = 1")
for m in (1, 3, 4):
    out = verify_qes(m, 1.0, 1e-4)
    print(f"  M={m}:")
    for mt in out.matches:
        print(f"    analytic {mt.analytic:12.8f}  oracle {mt.oracle:12.8f}"
              f"  deviation {mt.deviation:.2e}")

banner("Beyond the algebraic part: the oracle sees the non-exact levels too")
m, zeta = 3, 1.0
res = lowest_eigenvalues(OracleConfig(dshg(m, zeta), l=5.0, n=8000, count=6))
analytic = qes_energies(m, zeta).energies()
for k, e in enumerate(res.eigenvalues):
    tag = "QES" if min(abs(e - a) for a in analytic) < 1e-3 else "non-exact"
    print(f"  E_{k} = {e:12.6f}  [{tag}]")

banner("Constructed eigenfunctions against the discretized operator")
grid = np.linspace(-5.0, 5.0, 8001)
for level in range(3):
    state = build_qes_state(3, 1.0, level)
    r = residual(state, dshg(3, 1.0), grid)
    print(f"  level {level}: nodes {node_count(state, grid)},"
          f"  sup-norm Schroedinger residual {r:.2e}")
