#!/usr/bin/env python3
"""Extract the algebraic part of the double sinh-Gordon spectrum and the
measure-side objects attached to it: discrete weights, norms, moments.

For integer M the lowest M levels are roots of the critical chain members.
The chains are orthogonal under signed discrete measures supported on their
own levels; the signed part is not a numerical artifact, it follows from
the recursion's sign pattern, and the norm identities check it exactly.
"""

import math
from fractions import Fraction

from qespoly import (
    ChainSpec,
    chain_plan,
    gen_family,
    moments,
    norm_weight_crosscheck,
    norms_closed,
    norms_from_recursion,
    qes_energies,
    three_term_form,
    weights,
)


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


banner("Spectra at zeta = 1 (node count orders the levels)")
for m in (1, 2, 3, 4, 5):
    rep = qes_energies(m, 1.0)
    levels = ", ".join(f"{lv.energy:.6f} ({lv.nodes} nodes, {lv.chain})"
                       for lv in rep.levels)
    print(f"  M={m}: {levels}")

print("\n  M=3 closed forms: 8 -+ 2*sqrt(5) =",
      f"{8-2*math.sqrt(5):.10f}, {8+2*math.sqrt(5):.10f}, and 6 exactly")

banner("Weights: the even-node chain of M = 3 has a negative weight")
for zeta in (0.25, 0.5, 1.0, 2.0):
    table = weights(3, zeta, "P")
    w = table.weights()
    print(f"  zeta={zeta}: w = [{w[0]:+.10f}, {w[1]:+.10f}]  sum = {sum(w):.12f}")
print("  closed form: 1/2 -+ (2*zeta+1)/(2*sqrt(1+4*zeta^2)) -> always one negative")

banner("Norm identities, exact and summed")
for n in range(4):
    gamma = norms_closed("P", 3, 0, n)
    print(f"  gamma_{n} (M=3 even chain) = {gamma.render()}")
form = three_term_form(gen_family(ChainSpec("P", Fraction(3), Fraction(0)), 6))
rec = norms_from_recursion(form)
print("  recursion route identical to closed form:",
      all(rec.values[n] == norms_closed("P", 3, 0, n) for n in range(6)))
check = norm_weight_crosscheck(3, 1.0, "P")
print(f"  discrete-sum crosscheck ok: {check.ok} "
      f"(max orthogonality defect {check.orthogonality_max:.2e})")

banner("Moments of the discrete measure and their growth")
seq = moments(3, 1.0, "P", 40)
print(f"  mu_0..mu_3 = {[f'{v:.6g}' for v in seq.values[:4]]}")
print(f"  mu_1 = (3+zeta)^2 - 2*zeta = 14 at zeta=1; mu_2 = -16*zeta + mu_1^2 = 180")
print(f"  |mu_n|^(1/n) at n=40: {seq.growth[-1]:.6f}")
print(f"  max |E_k| (the true limit): {seq.max_abs_energy:.6f}")
print(f"  (M+zeta)^2 comparator:      {seq.leading_order_comparator:.6f}")

banner("Chain plans: which chain carries which parity")
for m in (3, 4):
    for e in chain_plan(m).entries:
        print(f"  M={m}: {e.node_parity:5s} nodes from {e.chain_kind}(s={e.s}), "
              f"critical index {e.critical_index} = its number of levels")
