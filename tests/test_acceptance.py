"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line (run with -s to see them inline).

Criterion 8 reflects the corrected closed forms of the periodic kink-dual
well: its E = 0 state is the image of the line zero mode and changes sign
under a shift by one potential period, so that level lives on the doubled
circle while -(3/4) mu^2 lives on the single one.  The suite asserts the
full picture, including the absence of E = 0 from the single-period
spectrum.
"""

import math
import random
from fractions import Fraction

import numpy as np

from qespoly.duality import (
    ANTIPERIODIC,
    DsgRejection,
    dsg_spectrum,
    dsg_weights_moments,
    dual_energies,
    new_potential_states,
)
from qespoly.exactpoly import EnergyPoly, ParamPoly, poly_divide_exact
from qespoly.families import (
    ChainSpec,
    finkel_form,
    gen_R,
    gen_family,
    gen_quotient,
    three_term_form,
)
from qespoly.oracle import (
    OracleConfig,
    lowest_eigenvalues,
    verify_duality_pair,
    verify_qes,
)
from qespoly.potentials import (
    dsg,
    harmonic,
    phi6_kink_dual,
    sextic_minus,
    sextic_plus,
)
from qespoly.spectrum import (
    chain_plan,
    factorization_check,
    moments,
    norms_closed,
    norms_from_recursion,
    qes_energies,
    weights,
)
from qespoly.wavefunctions import build_qes_state, node_count, schrodinger_residual

HALF = Fraction(1, 2)


def report(num, ok, text):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def e_poly(*coeffs):
    converted = [ParamPoly(c) if isinstance(c, tuple) else ParamPoly.const(c)
                 for c in coeffs]
    return EnergyPoly(tuple(converted))


def test_01_symbolic_golden_match():
    p3 = {0: e_poly(1), 1: e_poly((0, 2), 1), 2: e_poly((0, 24, 20), (4, 12), 1)}
    p3[3] = e_poly((16, 18), 1) * p3[2]
    p3[4] = e_poly((576, 824, 468), (52, 44), 1) * p3[2]
    q3 = {0: e_poly(1), 1: e_poly((4, 6), 1)}
    q3[2] = e_poly((16, 14), 1) * q3[1]
    q3[3] = e_poly((576, 696, 308), (52, 36), 1) * q3[1]
    p4 = {0: e_poly(1), 1: e_poly((1, 2), 1), 2: e_poly((9, 44, 20), (10, 12), 1)}
    p4[3] = e_poly((25, 18), 1) * p4[2]
    p4[4] = e_poly((1225, 1292, 468), (74, 44), 1) * p4[2]
    q4 = {0: e_poly(1), 1: e_poly((1, 6), 1), 2: e_poly((9, 116, 84), (10, 20), 1)}
    q4[3] = e_poly((25, 22), 1) * q4[2]
    q4[4] = e_poly((1225, 1492, 660), (74, 52), 1) * q4[2]

    ok = True
    for kind, m, s, table in [("P", 3, Fraction(0), p3), ("Q", 3, HALF, q3),
                              ("P", 4, HALF, p4), ("Q", 4, Fraction(0), q4)]:
        fam = gen_family(ChainSpec(kind, Fraction(m), s), max(table))
        for n, want in table.items():
            ok = ok and fam[n] == want
    report(1, ok, "generated chains equal the printed tables exactly (zero tolerance)")


def test_02_qes_energies():
    got3 = qes_energies(3, 1.0).energies()
    want3 = [8 - 2 * math.sqrt(5), 6.0, 8 + 2 * math.sqrt(5)]
    got4 = qes_energies(4, 1.0).energies()
    want4 = [6.0, 14 - 4 * math.sqrt(3), 14.0, 14 + 4 * math.sqrt(3)]
    dev = max(
        max(abs(a - b) for a, b in zip(got3, want3)),
        max(abs(a - b) for a, b in zip(got4, sorted(want4))),
    )
    named = [6.0, 7.0717967697, 14.0, 20.9282032303]
    dev = max(dev, max(abs(a - b) for a, b in zip(got4, named)))
    report(2, dev <= 1e-10, f"M=3 and M=4 levels match closed forms (max dev {dev:.2e})")


def test_03_weights():
    ok = True
    worst = 0.0
    for zeta in (0.25, 0.5, 1.0, 2.0):
        r = math.sqrt(1 + 4 * zeta * zeta)
        tp3 = weights(3, zeta, "P")
        want = [0.5 - (2 * zeta + 1) / (2 * r), 0.5 + (2 * zeta + 1) / (2 * r)]
        worst = max(worst, max(abs(a - b) for a, b in zip(tp3.weights(), want)))
        ok = ok and tp3.weights()[0] < 0
        tq3 = weights(3, zeta, "Q")
        worst = max(worst, abs(tq3.weights()[0] - 1.0))
        rq = math.sqrt(zeta * zeta - zeta + 1)
        rp = math.sqrt(zeta * zeta + zeta + 1)
        tq4 = weights(4, zeta, "Q")
        want = [0.5 - (zeta + 1) / (2 * rq), 0.5 + (zeta + 1) / (2 * rq)]
        worst = max(worst, max(abs(a - b) for a, b in zip(tq4.weights(), want)))
        tp4 = weights(4, zeta, "P")
        want = [0.5 - (zeta + 1) / (2 * rp), 0.5 + (zeta + 1) / (2 * rp)]
        worst = max(worst, max(abs(a - b) for a, b in zip(tp4.weights(), want)))
        for table in (tp3, tq3, tq4, tp4):
            worst = max(worst, abs(sum(table.weights()) - 1.0))
    ok = ok and worst <= 1e-12
    report(3, ok, f"M=3/M=4 weight tables match closed forms (max dev {worst:.2e}), "
                  "sum to 1, and the even-chain ground weight is negative")


def test_04_norm_identities():
    ok = True
    for m in (3, 4, 5, 6):
        combos = ((("P", Fraction(0)), ("Q", HALF)) if m % 2
                  else (("P", HALF), ("Q", Fraction(0))))
        for kind, s in combos:
            fam = gen_family(ChainSpec(kind, Fraction(m), s), 11)
            seq = norms_from_recursion(three_term_form(fam))
            for n in range(11):
                ok = ok and seq.values[n] == norms_closed(kind, m, s, n)
        qcombos = ([("Pbar", Fraction(0)), ("Qbar", HALF)] if m % 2
                   else [("Rbar", HALF), ("Sbar", Fraction(0))])
        for qkind, s in qcombos:
            quot = gen_quotient(ChainSpec(qkind, Fraction(m), s), 11)
            seq = norms_from_recursion(three_term_form(quot))
            for n in range(11):
                closed = norms_closed(qkind, m, s, n)
                ok = ok and seq.values[n] == closed
                if n:
                    ok = ok and closed.coeffs[-1] > 0
    # discrete-sum crosscheck with the spot value -16 at M=3, zeta=1, n=1
    table = weights(3, 1.0, "P")
    fam = gen_family(ChainSpec("P", Fraction(3), Fraction(0)), 2)
    total = sum(w * fam[1].eval_numeric(1.0, e - 16.0) ** 2 for e, w in table.support)
    ok = ok and abs(total - (-16.0)) <= 1e-9 * 17.0
    report(4, ok, "recursion norms equal closed forms exactly (n<=10, M=3..6), "
                  f"quotient norms positive, discrete sum gives {total:.12f}")


def test_05_factorization():
    ok = all(factorization_check(m, 6).ok() for m in range(1, 9))
    report(5, ok, "post-critical members divide exactly with quotient-chain "
                  "quotients, M=1..8, n<=6 (zero tolerance)")


def test_06_oracle_line():
    worst = 0.0
    for m in (1, 3, 4):
        res = verify_qes(m, 1.0, 1e-4)
        worst = max(worst, max(mt.deviation for mt in res.matches))
    res = lowest_eigenvalues(OracleConfig(harmonic(), l=10.0, n=4000, count=3))
    ratios = [(res.richardson[k] - e) / (res.eigenvalues[k] - e)
              for k, e in enumerate((1.0, 3.0, 5.0))]
    ok = worst <= 1e-4 and all(3.6 <= r <= 4.4 for r in ratios)
    report(6, ok, f"line oracle matches every QES level (max dev {worst:.2e}); "
                  f"harmonic Richardson ratios {[f'{r:.2f}' for r in ratios]}")


def test_07_oracle_circle():
    res = lowest_eigenvalues(OracleConfig(dsg(3, 1.0), n=1024, count=6))
    root = math.sqrt(5.0)
    dev = max(min(abs(e - want) for e in res.eigenvalues)
              for want in (-8 - 2 * root, -6.0, -8 + 2 * root))
    ok = dev <= 1e-4
    res2 = lowest_eigenvalues(OracleConfig(dsg(2, 1.0), n=1024, count=8))
    gap = min(min(abs(e + el) for e in res2.eigenvalues)
              for el in qes_energies(2, 1.0).energies())
    ok = ok and gap > 1e-3
    outcome = dsg_spectrum(2, 1.0)
    ok = ok and isinstance(outcome, DsgRejection)
    ok = ok and all(c == ANTIPERIODIC for c in outcome.characters)
    report(7, ok, f"pi-periodic spectrum holds the M=3 duals (dev {dev:.2e}); "
                  f"M=2 candidates stay {gap:.2e} away and are half-turn odd")


def test_08_new_potential():
    mu = 1.0
    spec = phi6_kink_dual(0.5, mu)
    single = lowest_eigenvalues(OracleConfig(spec, n=1024, count=6))
    dev_ground = min(abs(e + 0.75) for e in single.eigenvalues)
    # the E=0 state is odd under a one-period shift: absent here...
    absent = min(abs(e) for e in single.eigenvalues) > 1e-3
    # ...and present on the doubled circle together with the ground state
    double = lowest_eigenvalues(
        OracleConfig(spec, n=2048, count=6, period_multiplier=2))
    dev_zero = min(abs(e) for e in double.eigenvalues)
    dev_ground2 = min(abs(e + 0.75) for e in double.eigenvalues)

    states = new_potential_states(0.5, mu)
    theta1 = np.linspace(0.0, 2 * np.pi / mu, 4096, endpoint=False)
    theta2 = np.linspace(0.0, 4 * np.pi / mu, 8192, endpoint=False)
    res0 = schrodinger_residual(states[0][1], states[0][0], spec, theta1)
    res2 = schrodinger_residual(states[1][1], states[1][0], spec, theta2)

    spec3 = phi6_kink_dual(0.3, mu)
    double3 = lowest_eigenvalues(
        OracleConfig(spec3, n=2048, count=6, period_multiplier=2))
    dev_zero3 = min(abs(e) for e in double3.eigenvalues)
    (state3_e, state3_psi), = new_potential_states(0.3, mu)
    res3 = schrodinger_residual(state3_psi, state3_e, spec3, theta2)

    ok = (dev_ground <= 1e-4 and absent and dev_zero <= 1e-4
          and dev_ground2 <= 1e-4 and res0 < 1e-6 and res2 < 1e-6
          and dev_zero3 <= 1e-4 and res3 < 1e-6)
    report(8, ok, "kink-dual well: -0.75 on one period (dev "
                  f"{dev_ground:.2e}), E=0 on the doubled circle (dev {dev_zero:.2e}, "
                  f"absent from the single cover), residuals {res0:.1e}/{res2:.1e}, "
                  f"and E=0 persists at eps^2=0.3 (dev {dev_zero3:.2e})")


def test_09_duality_algebra():
    levels = qes_energies(5, 1.3).energies()
    ok = dual_energies(dual_energies(levels)) == levels
    src = moments(3, 1.0, "P", 12)
    _, dual_mom = dsg_weights_moments(3, 1.0, "P")
    dev = max(abs(dual_mom.values[n] - (-1) ** n * src.values[n])
              / (1.0 + abs(src.values[n])) for n in range(13))
    ok = ok and dev <= 1e-12
    rep = verify_duality_pair(sextic_plus(1), sextic_minus(1), 1e-3)
    ok = ok and not rep.rejected
    report(9, ok, f"involution exact, sine-Gordon moments flip sign (dev {dev:.2e}), "
                  "sextic pair matches its negated mirror within 1e-3")


def test_10_moments():
    seq = moments(3, 1.0, "P", 40)
    ok = abs(seq.values[1] - 14.0) <= 1e-10 and abs(seq.values[2] - 180.0) <= 1e-10
    ratio = seq.growth[39] / seq.max_abs_energy
    ok = ok and abs(ratio - 1.0) <= 0.01
    report(10, ok, f"mu_1 = {seq.values[1]:.10f}, mu_2 = {seq.values[2]:.10f}; "
                   f"|mu_40|^(1/40) / max|E| = {ratio:.4f}")


def test_11_property_suite():
    rng = random.Random(20240817)
    ok = True
    for m in range(1, 9):
        for kind, s in ((("P", Fraction(0)), ("Q", HALF)) if m % 2
                        else (("P", HALF), ("Q", Fraction(0)))):
            fam = gen_family(ChainSpec(kind, Fraction(m), s), 8)
            ok = ok and all(p.is_monic() and p.degree() == n
                            for n, p in enumerate(fam.members))
        for s in (Fraction(0), HALF):
            r = gen_R(ChainSpec("R", Fraction(m), s), 13)
            p = gen_family(ChainSpec("P", Fraction(m), s), 6)
            q = gen_family(ChainSpec("Q", Fraction(m), s), 6)
            ok = ok and all(r[2 * n] == p[n] for n in range(7))
            ok = ok and all(r[2 * n + 1] == q[n] for n in range(6))
    grid = np.linspace(-5.0, 5.0, 4001)
    xs = np.linspace(0.05, 4.0, 40)
    for zeta in (0.5, 1.0, 2.0):
        for m in range(1, 9):
            for level in range(m):
                state = build_qes_state(m, zeta, level)
                ok = ok and node_count(state, grid) == level
                sym = state.eval(xs) - (1 if level % 2 == 0 else -1) * state.eval(-xs)
                ok = ok and float(np.max(np.abs(sym))) < 1e-12
        for m in range(3, 9):
            for kind, s in ((("P", Fraction(0)), ("Q", HALF)) if m % 2
                            else (("P", HALF), ("Q", Fraction(0)))):
                fam = gen_family(ChainSpec(kind, Fraction(m), s), 8)
                fin = finkel_form(three_term_form(fam), zeta)
                ok = ok and all(sg == -1 for sg in fin.a_signs_before_termination)
    # seeded random division reconstruction, exact
    for _ in range(20):
        a = EnergyPoly(tuple(
            ParamPoly(tuple(Fraction(rng.randint(-5, 5)) for _ in range(2)))
            for _ in range(rng.randint(1, 5))))
        spec = ChainSpec("P", Fraction(rng.randint(1, 6)), Fraction(0))
        b = gen_family(spec, rng.randint(1, 3)).members[-1]
        quo, rem = poly_divide_exact(a, b)
        ok = ok and quo * b + rem == a
    report(11, ok, "monicity/degree, interleaving, state parity, node counts, "
                   "recursion sign pattern and seeded division all hold for "
                   "M<=8, zeta in {0.5, 1, 2}")
