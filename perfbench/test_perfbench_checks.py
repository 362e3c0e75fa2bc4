"""Each benchmark check accepts the program's real output and rejects a
perturbed copy of it, so that no check is vacuous.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from qespoly import duality, families, oracle, potentials, spectrum  # noqa: E402

HALF = Fraction(1, 2)
POINT = (Fraction(3, 7), Fraction(-11, 5))


def _with_level(report, k, **changes):
    levels = list(report.levels)
    levels[k] = dataclasses.replace(levels[k], **changes)
    return dataclasses.replace(report, levels=tuple(levels))


def _with_weights(table, weights):
    support = tuple((e, w) for (e, _), w in zip(table.support, weights))
    return dataclasses.replace(table, support=support)


def _bump_coefficient(family, n, k, j):
    """The chain with coefficient zeta^j E^k of member n increased by 1."""
    members = list(family.members)
    energy = list(members[n].coeffs)
    param = list(energy[k].coeffs) + [Fraction(0)] * (j + 1)
    param[j] += 1
    energy[k] = type(energy[k])(tuple(param))
    members[n] = type(members[n])(tuple(energy))
    return dataclasses.replace(family, members=tuple(members))


# -- energies ------------------------------------------------------------

@pytest.mark.parametrize("m, zeta", [(3, 1.0), (4, 0.7), (7, 2.0)])
def test_spectrum_check_rejects_nudged_energy(m, zeta):
    report = spectrum.qes_energies(m, zeta)
    ref = checks.reference_levels(m, zeta)
    checks.check_spectrum(report, m, zeta, ref)
    for k in range(m):
        bad = _with_level(report, k, energy=report.levels[k].energy + 1e-6)
        with pytest.raises(CheckFailed):
            checks.check_spectrum(bad, m, zeta, ref)


def test_state_check_rejects_nudged_energy_and_wrong_nodes():
    m, zeta = 4, 1.0
    grid = workloads._grid(random.Random(0))
    task = workloads._solve_task(m, zeta, grid)
    out = task.run()
    task.check(out, {})
    ref = checks.reference_levels(m, zeta)
    state, samples, res = out["states"][2]
    nudged = dataclasses.replace(state, energy=state.energy + 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_state(nudged, samples, res, grid, m, zeta, ref[2])
    with pytest.raises(CheckFailed):  # samples of another level: wrong sign changes
        checks.check_state(state, out["states"][1][1], res, grid, m, zeta, ref[2])


def test_dsg_check_rejects_nudged_level_and_wrong_character():
    ref = checks.reference_levels(3, 1.0)
    odd = duality.dsg_spectrum(3, 1.0)
    checks.check_dsg(odd, 3, 1.0, ref)
    with pytest.raises(CheckFailed):
        checks.check_dsg(_with_level(odd, 1, energy=odd.levels[1].energy + 1e-6), 3, 1.0, ref)
    even = duality.dsg_spectrum(2, 1.0)
    checks.check_dsg(even, 2, 1.0, checks.reference_levels(2, 1.0))
    flipped = dataclasses.replace(even, characters=(1,) + tuple(even.characters[1:]))
    with pytest.raises(CheckFailed):
        checks.check_dsg(flipped, 2, 1.0, checks.reference_levels(2, 1.0))


# -- weights -------------------------------------------------------------

@pytest.mark.parametrize("m, zeta, kind", [(3, 1.0, "P"), (5, 0.5, "Q"), (8, 1.3, "P"),
                                           (9, 2.0, "P")])
def test_weight_check_rejects_each_flipped_sign(m, zeta, kind):
    plan = {k: (s, n) for k, s, n, _ in checks.level_plan(m)}
    s, n = plan[kind]
    ref = checks.reference_levels(m, zeta)
    table = spectrum.weights(m, zeta, kind)
    checks.check_weights(table, kind, m, s, n, zeta, ref)
    for k in range(n):
        w = table.weights()
        w[k] = -w[k]
        with pytest.raises(CheckFailed):
            checks.check_weights(_with_weights(table, w), kind, m, s, n, zeta, ref)


def test_moment_and_dsg_weight_checks_reject_flipped_sign():
    m, zeta = 5, 1.0
    s, n = Fraction(0), 3
    table = spectrum.weights(m, zeta, "P")
    seq = spectrum.moments(m, zeta, "P", 12)
    checks.check_moments(seq, table, 12)
    w = table.weights()
    w[0] = -w[0]
    with pytest.raises(CheckFailed):
        checks.check_moments(seq, _with_weights(table, w), 12)
    dtable, dseq = duality.dsg_weights_moments(m, zeta)
    checks.check_dsg_weights(dtable, dseq, table, seq, m, s, n, zeta)
    dw = dtable.weights()
    dw[-1] = -dw[-1]
    with pytest.raises(CheckFailed):
        checks.check_dsg_weights(_with_weights(dtable, dw), dseq, table, seq, m, s, n, zeta)


def test_crosscheck_check_rejects_large_deviation():
    m, zeta = 5, 1.0
    table = spectrum.weights(m, zeta, "P")
    report = spectrum.norm_weight_crosscheck(m, zeta, "P")
    checks.check_crosscheck(report, table, "P", m, Fraction(0), 3, zeta)
    bad = dataclasses.replace(report, norm_deviations=(0.0, 1e-3) + report.norm_deviations[2:])
    with pytest.raises(CheckFailed):
        checks.check_crosscheck(bad, table, "P", m, Fraction(0), 3, zeta)


# -- chains --------------------------------------------------------------

@pytest.mark.parametrize("kind, m, s", [("P", 3, Fraction(0)), ("Q", 4, HALF), ("Q", 9, HALF)])
def test_chain_check_rejects_changed_coefficient(kind, m, s):
    fam = families.gen_family(families.ChainSpec(kind, Fraction(m), s), 6)
    checks.check_main_chain(fam, kind, m, s, 6, POINT)
    for n, k, j in [(1, 0, 0), (3, 1, 2), (6, 5, 1), (6, 0, 6)]:
        with pytest.raises(CheckFailed):
            checks.check_main_chain(_bump_coefficient(fam, n, k, j), kind, m, s, 6, POINT)


def test_r_and_quotient_checks_reject_changed_coefficient():
    spec = families.ChainSpec("R", Fraction(9), Fraction(0))
    r = families.gen_R(spec, 10)
    sib = {("P", 9, Fraction(0)): families.gen_family(families.ChainSpec("P", 9, 0), 5)}
    checks.check_r_chain(r, 9, Fraction(0), 10, POINT, sib)
    with pytest.raises(CheckFailed):
        checks.check_r_chain(_bump_coefficient(r, 8, 2, 1), 9, Fraction(0), 10, POINT, sib)
    q = families.gen_quotient(families.ChainSpec("Rbar", Fraction(4), HALF), 6)
    checks.check_quotient_chain(q, "Rbar", 4, 6, POINT)
    with pytest.raises(CheckFailed):
        checks.check_quotient_chain(_bump_coefficient(q, 4, 0, 0), "Rbar", 4, 6, POINT)


def test_norm_and_factorization_checks_reject_changes():
    task = workloads._norms_task("Qbar", 9, HALF, 6)
    rec, closed = task.run()
    checks.check_norms(rec, closed, "Qbar", 9, HALF, 6)
    closed[3] = closed[3].scale(2)
    with pytest.raises(CheckFailed):
        checks.check_norms(rec, closed, "Qbar", 9, HALF, 6)
    rep = spectrum.factorization_check(5, 3)
    checks.check_factorization(rep, 5, 3)
    entry = dataclasses.replace(rep.entries[1], quotients_match=(True, True, False, True))
    with pytest.raises(CheckFailed):
        checks.check_factorization(dataclasses.replace(rep, entries=(rep.entries[0], entry)), 5, 3)


# -- oracle --------------------------------------------------------------

def test_circle_check_rejects_shifted_level():
    m, zeta = 3, 1.0
    res = oracle.lowest_eigenvalues(oracle.OracleConfig(potentials.dsg(m, zeta), n=512, count=6))
    levels = sorted(-lv[0] for lv in checks.reference_levels(m, zeta))
    checks.check_richardson(res, levels)
    for k in range(m):
        est = abs(res.eigenvalues[k] - res.richardson[k]) / 3
        for fields in (("eigenvalues",), ("eigenvalues", "richardson", "extrapolated")):
            moved = {f: tuple(v + 3 * est * (i == k) for i, v in enumerate(getattr(res, f)))
                     for f in fields}
            with pytest.raises(CheckFailed):
                checks.check_richardson(dataclasses.replace(res, **moved), levels)


def test_enlarged_line_check_rejects_unenlarged_domain():
    task = workloads._enlarged_line_task(3, 1.0, 1.0, 2000)
    res = task.run()
    task.check(res, {})
    with pytest.raises(CheckFailed):
        task.check(dataclasses.replace(res, config=dataclasses.replace(res.config, l=1.0)), {})


def test_line_and_pair_checks_reject_shifted_levels():
    res = oracle.verify_qes(2, 1.0, 1e-4)
    ref = checks.reference_levels(2, 1.0)
    checks.check_line_match(res, 2, ref, 1e-4)
    moved = dataclasses.replace(res.matches[0], analytic=res.matches[0].analytic + 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_line_match(dataclasses.replace(res, matches=(moved,) + res.matches[1:]),
                                2, ref, 1e-4)
    rep = oracle.verify_duality_pair(potentials.sextic_plus(3), potentials.sextic_minus(3))
    checks.check_pair(rep, checks.sextic_levels(3, 1.0, 1.0))
    with pytest.raises(CheckFailed):
        checks.check_pair(rep, [e + 1e-6 for e in checks.sextic_levels(3, 1.0, 1.0)])


def test_sextic_reference_matches_closed_forms():
    # a = b = 1: M = 1 holds the single level 3; M = 2 holds 3 -+ 2 sqrt(3)
    assert checks.sextic_levels(1, 1.0, 1.0) == pytest.approx([3.0])
    root = 2 * np.sqrt(3.0)
    assert checks.sextic_levels(2, 1.0, 1.0) == pytest.approx([3 - root, 3 + root])


def test_verify_all_check_rejects_a_fail_line():
    checks.check_verify_all(0, "# header\nPASS a\nPASS overall\n")
    with pytest.raises(CheckFailed):
        checks.check_verify_all(0, "PASS a\nFAIL b\nPASS overall\n")
    with pytest.raises(CheckFailed):
        checks.check_verify_all(1, "PASS a\nPASS overall\n")
