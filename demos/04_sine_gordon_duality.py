#!/usr/bin/env python3
"""The anti-isospectral map x -> i*theta in action.

Negating the potential and the spectrum sends the double sinh-Gordon well
to the double sine-Gordon potential on a circle.  The circle keeps only
states that return to themselves after one potential period (a half turn),
which kills every even-M candidate: the dual problem is algebraically
solvable for roughly half the parameter values of its parent.  The sextic
pair shows the same pairing on a shared domain.
"""

from dataclasses import replace

import numpy as np

from qespoly import (
    DsgRejection,
    OracleConfig,
    dsg_spectrum,
    dsg_weights_moments,
    dual_energies,
    lowest_eigenvalues,
    moments,
    qes_energies,
    verify_duality_pair,
    weights,
)
from qespoly.potentials import dsg, dshg, sextic_minus, sextic_plus


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


banner("Odd M: the sine-Gordon levels are the negated, reversed parent levels")
for m in (1, 3, 5):
    src = qes_energies(m, 1.0).energies()
    out = dsg_spectrum(m, 1.0)
    print(f"  M={m}: parent {[f'{e:.5f}' for e in src]}")
    print(f"        dual   {[f'{lv.energy:.5f}' for lv in out.levels]}")

banner("Even M: typed rejection with half-turn characters as evidence")
out = dsg_spectrum(2, 1.0)
assert isinstance(out, DsgRejection)
print(f"  M=2 rejected: {out.reason}")
print(f"  candidate characters: {out.characters} (-1 means sign flip)")
res = lowest_eigenvalues(OracleConfig(dsg(2, 1.0), n=1024, count=8))
cands = dual_energies(qes_energies(2, 1.0).energies())
for c in cands:
    gap = min(abs(e - c) for e in res.eigenvalues)
    print(f"  candidate {c:.4f}: nearest pi-periodic eigenvalue is {gap:.3f} away")
# the circle's length is its spec's period: pi for dsg, doubled here to 2 pi
res2 = lowest_eigenvalues(OracleConfig(replace(dsg(2, 1.0), period=2 * np.pi),
                                       n=2048, count=10))
for c in cands:
    gap = min(abs(e - c) for e in res2.eigenvalues)
    print(f"  candidate {c:.4f}: on the doubled (2 pi) circle it reappears, gap {gap:.1e}")

banner("Oracle confirmation of the M = 3 dual spectrum")
rep = verify_duality_pair(dshg(3, 1.0), dsg(3, 1.0), 1e-4)
print(f"  source {[f'{e:.5f}' for e in rep.source]}")
print(f"  dual   {[f'{e:.5f}' for e in rep.dual]}")
print(f"  pairs  {rep.pairs}   rejected: {rep.rejected}")

banner("Weights interchange end to end; moments flip sign with n")
src_w = weights(3, 1.0, "P").weights()
dual_w, dual_m = dsg_weights_moments(3, 1.0, "P")
print(f"  parent weights {[f'{w:+.6f}' for w in src_w]}")
print(f"  dual weights   {[f'{w:+.6f}' for w in dual_w.weights()]}")
src_m = moments(3, 1.0, "P", 6)
flips = [dual_m.values[n] / src_m.values[n] for n in range(1, 7)]
print(f"  mu_n(dual)/mu_n(parent) for n=1..6: {[f'{f:+.3f}' for f in flips]}")

banner("Sextic pair: same story on a shared line domain")
for m in (1, 2):
    rep = verify_duality_pair(sextic_plus(m), sextic_minus(m), 1e-3)
    print(f"  M={m}: levels {[f'{e:.6f}' for e in rep.source]}"
          f" <-> {[f'{e:.6f}' for e in rep.dual]}  rejected: {rep.rejected}")
