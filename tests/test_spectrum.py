import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qespoly import spectrum
from qespoly.cli import main
from qespoly.exactpoly import ParamPoly, RootCountMismatch, real_roots
from qespoly.families import (
    QUOTIENT_KINDS,
    ChainSpec,
    ChainSpecError,
    critical_index,
    gen_family,
    gen_quotient,
    member_signs,
    recursion_coeffs,
    three_term_form,
)
from qespoly.spectrum import (
    QESDomainError,
    WeightTable,
    chain_plan,
    chain_roots,
    factorization_check,
    moments,
    norm_weight_crosscheck,
    norms_closed,
    norms_from_recursion,
    qes_energies,
    weights,
)

HALF = Fraction(1, 2)
SQRT5 = math.sqrt(5.0)


class TestLevelPlan:
    """A chain's node parity is its index in the plan: even, then odd."""

    def test_m3(self):
        assert chain_plan(3) == (
            (ChainSpec("P", Fraction(3), Fraction(0)), 2),
            (ChainSpec("Q", Fraction(3), HALF), 1),
        )

    def test_m1_has_no_odd_entry(self):
        assert chain_plan(1) == ((ChainSpec("P", Fraction(1), Fraction(0)), 1),)

    def test_m4(self):
        assert chain_plan(4) == (
            (ChainSpec("Q", Fraction(4), Fraction(0)), 2),
            (ChainSpec("P", Fraction(4), HALF), 2),
        )

    def test_total_level_count(self):
        for m in range(1, 11):
            assert sum(count for _, count in chain_plan(m)) == m

    def test_rejects_nonpositive(self):
        with pytest.raises(QESDomainError):
            chain_plan(0)


class TestOneChainTable:
    """The level plan, the factorization check, the quotient chains and the
    termination index all agree with critical_index: exactly the (kind, s)
    pairs with a nonnegative integer critical index terminate."""

    @pytest.mark.parametrize("m", range(1, 41))
    def test_readers_agree_with_critical_index(self, m):
        crit = {(kind, s): Fraction(critical_index(kind, Fraction(m), s))
                for kind in ("P", "Q") for s in (Fraction(0), HALF)}
        term = {key: int(c) for key, c in crit.items() if c.denominator == 1 and c >= 0}
        # one terminating chain of each kind
        assert sorted(kind for kind, _ in term) == ["P", "Q"]

        report = factorization_check(m, 1)
        entries = report.entries
        assert report.ok()
        assert [(e.chain_kind, e.s) for e in entries] == sorted(term)
        assert all(e.critical == term[e.chain_kind, e.s] for e in entries)
        names = {("P", Fraction(0)): "Pbar", ("Q", HALF): "Qbar",
                 ("P", HALF): "Rbar", ("Q", Fraction(0)): "Sbar"}
        assert all(e.quotient_kind == names[e.chain_kind, e.s] for e in entries)

        plan = chain_plan(m)
        assert [(spec.kind, spec.m, spec.s, count) for spec, count in plan] == [
            (kind, m, s, c) for (kind, s), c in sorted(term.items(), key=lambda i: i[0][1])
            if c > 0]
        # the index of a chain in the plan is its node parity, 2s
        assert all(spec.s == Fraction(parity, 2) for parity, (spec, _) in enumerate(plan))

        def accepted(q, s):
            try:
                ChainSpec(q, m, s)
            except ChainSpecError:
                return False
            return True

        quotients = {(q, s) for q in QUOTIENT_KINDS for s in (Fraction(0), HALF)
                     if accepted(q, s)}
        assert quotients == {(e.quotient_kind, e.s) for e in entries}

        for (kind, s), c in crit.items():
            expected = int(c) + 1 if (kind, s) in term and c >= 1 else None
            assert gen_family(ChainSpec(kind, m, s), 0).termination_index == expected


class TestEnergies:
    def test_m3(self):
        report = qes_energies(3, 1.0)
        want = [8 - 2 * SQRT5, 6.0, 8 + 2 * SQRT5]
        assert report.energies() == pytest.approx(want, abs=1e-10)
        assert [lv.nodes for lv in report.levels] == [0, 1, 2]
        assert [lv.chain for lv in report.levels] == ["P", "Q", "P"]

    def test_m1(self):
        report = qes_energies(1, 1.0)
        assert report.energies() == pytest.approx([2.0], abs=1e-12)

    def test_m4(self):
        report = qes_energies(4, 1.0)
        want = [6.0, 14 - 4 * math.sqrt(3), 14.0, 14 + 4 * math.sqrt(3)]
        assert report.energies() == pytest.approx(sorted(want), abs=1e-10)

    def test_m4_closed_forms_other_zeta(self):
        for zeta in (0.25, 0.5, 2.0):
            report = qes_energies(4, zeta)
            rp = math.sqrt(zeta * zeta + zeta + 1)
            rm = math.sqrt(zeta * zeta - zeta + 1)
            want = sorted([
                zeta * zeta - 2 * zeta + 11 - 4 * rm,
                zeta * zeta + 2 * zeta + 11 - 4 * rp,
                zeta * zeta - 2 * zeta + 11 + 4 * rm,
                zeta * zeta + 2 * zeta + 11 + 4 * rp,
            ])
            assert report.energies() == pytest.approx(want, abs=1e-10)

    def test_shift_consistency(self):
        for m in (1, 3, 4, 7):
            for zeta in (0.5, 1.0, 2.0):
                report = qes_energies(m, zeta)
                for lv in report.levels:
                    assert lv.energy - lv.script_energy == pytest.approx(
                        (m + zeta) ** 2, rel=1e-15)

    def test_interlacing_all_small_m(self):
        for m in range(1, 11):
            for zeta in (0.25, 0.5, 1.0, 2.0, 5.0):
                report = qes_energies(m, zeta)
                assert [lv.nodes for lv in report.levels] == list(range(m))

    def test_non_integer_m_rejected(self):
        with pytest.raises(QESDomainError, match="positive integer M"):
            qes_energies(Fraction(7, 2), 1.0)

    def test_m16_sorts_at_zeta_one(self):
        # its lowest doublet is about 4e-14 wide, some 11 float spacings
        report = qes_energies(16, 1.0)
        energies = report.energies()
        assert all(x < y for x, y in zip(energies, energies[1:]))
        assert [lv.nodes for lv in report.levels] == list(range(16))

    def test_json_schema(self, capsys):
        assert main(["spectrum", "--m", "3", "--zeta", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"manifest", "m", "zeta", "levels"}
        assert set(doc["levels"][0]) == {"E", "script_E", "nodes", "chain"}


def _bisected_roots(spec, n, zeta, roots) -> list:
    """The roots of gen_family(spec, n)[n] specialized at zeta, one between
    each pair of neighbouring midpoints of `roots`, by exact Fraction
    bisection to 1e-20 relative."""
    coeffs = gen_family(spec, n)[n].specialize(Fraction(zeta))

    def sign(x):
        value = 0
        for c in reversed(coeffs):
            value = value * x + c
        return (value > 0) - (value < 0)

    bound = 2 * max(abs(Fraction(r)) for r in roots) + 1
    mids = [(Fraction(x) + Fraction(y)) / 2 for x, y in zip(roots, roots[1:])]
    edges = [-bound, *mids, bound]
    out = []
    for lo, hi in zip(edges, edges[1:]):
        low_sign = sign(lo)
        assert low_sign * sign(hi) < 0
        while hi - lo > max(abs(lo), abs(hi)) * Fraction(1, 10**20):
            mid = (lo + hi) / 2
            if sign(mid) == low_sign:
                lo = mid
            else:
                hi = mid
        out.append((lo + hi) / 2)
    return out


def _relative_errors(got, want) -> list:
    return [float(abs(Fraction(x) - y) / abs(y)) for x, y in zip(got, want)]


class TestChainRoots:
    """Jacobi seeds, Newton on the float recursion, exact sign changes."""

    # the P chain at (M, zeta) = (5, 1): p_3 = (E + 18)(E^2 + 32E + 124)
    SPEC = ChainSpec("P", Fraction(5), Fraction(0))
    ROOTS = [-16 - 2 * math.sqrt(33), -18.0, -16 + 2 * math.sqrt(33)]

    def _seeded(self, monkeypatch, seeds):
        """chain_roots on the M = 5 chain with these seeds, left unpolished."""
        monkeypatch.setattr(spectrum.np.linalg, "eigvals", lambda a: np.array(seeds))
        monkeypatch.setattr(spectrum, "newton", lambda value_slope, x: x)
        return chain_roots(self.SPEC, 3, 1.0)

    def test_well_separated_roots(self):
        assert chain_roots(self.SPEC, 3, 1.0) == pytest.approx(self.ROOTS, abs=1e-13)
        # M = 3: -8 -+ 2 sqrt 5
        got = chain_roots(ChainSpec("P", Fraction(3), Fraction(0)), 2, 1.0)
        assert got == pytest.approx([-8 - 2 * SQRT5, -8 + 2 * SQRT5], abs=1e-14)

    @pytest.mark.parametrize("seeds", [
        [-27.5, -4.0, -3.0],      # the midpoint -3.5 lies past the root near -4.51
        [-30.0, -28.0, -18.0],    # the midpoint -29 lies below the root near -27.49
    ])
    def test_seed_on_the_wrong_side_raises(self, monkeypatch, seeds):
        with pytest.raises(RootCountMismatch, match="isolated 1 of 3 roots"):
            self._seeded(monkeypatch, seeds)

    def test_missing_seed_raises(self, monkeypatch):
        # one seed twice and the root -18 missed
        with pytest.raises(RootCountMismatch, match="isolated 1 of 3 roots"):
            self._seeded(monkeypatch, [-27.5, -27.5, -4.5])

    def test_complex_pair_of_seeds_raises(self, monkeypatch):
        # a conjugate pair gives one real seed twice
        with pytest.raises(RootCountMismatch, match="isolated 1 of 3 roots"):
            self._seeded(monkeypatch, [-5.0 + 1.0j, -5.0 - 1.0j, -27.5 + 0.0j])

    def test_certified_seed_still_meets_the_residual_bound(self, monkeypatch):
        # -27.5 shares its interval (-inf, -22.75) with the root near -27.49 alone
        with pytest.raises(RootCountMismatch, match="residual"):
            self._seeded(monkeypatch, [-27.5, -18.0, -4.5])

    def test_roots_agree_with_exact_bisection(self):
        for m, zeta, kind in ((9, 2.0, "P"), (17, 2.0, "P"), (18, 2.0, "Q")):
            spec, n = next((spec, n) for spec, n in chain_plan(m) if spec.kind == kind)
            got = chain_roots(spec, n, zeta)
            assert max(_relative_errors(got, _bisected_roots(spec, n, zeta, got))) <= 1e-13

    @pytest.mark.parametrize("m", [9, 10, 17, 18])
    @pytest.mark.parametrize("zeta", [0.5, 0.7, 1.0, 1.3])
    def test_critical_and_general_roots_against_exact_bisection(self, m, zeta):
        # the general finder runs Newton on the expanded member's float
        # coefficients, which is accurate to about 1e-12 here
        for spec, n in chain_plan(m):
            got = chain_roots(spec, n, zeta)
            want = _bisected_roots(spec, n, zeta, got)
            general = [r for r, _ in real_roots(gen_family(spec, n)[n], zeta)]
            assert max(_relative_errors(got, want)) <= 1e-13
            assert max(_relative_errors(general, want)) <= 1e-11

    def test_newton_polishes_the_seeds_at_m65(self):
        # the Jacobi eigenvalues alone are off by up to 1e-10 of the largest
        # root here; exact signs bracket each polished root far closer
        spec = ChainSpec("P", Fraction(65), Fraction(0))
        roots = chain_roots(spec, 33, 1.0)
        width = 1e-11 * max(map(abs, roots))
        signs = member_signs(spec, 33, 1.0, [x for r in roots for x in (r - width, r + width)])
        assert all(lo * hi < 0 for lo, hi in zip(signs[::2], signs[1::2]))

    def test_residual_bound_past_the_float_range(self):
        # at M = 150 the bound 1e-10 * (1 + max|root|**75) is about 1e317
        spec = ChainSpec("P", Fraction(150), Fraction(0))
        roots = chain_roots(spec, 75, 1.0)
        assert len(roots) == 75 and roots == sorted(roots)
        with pytest.raises(OverflowError):
            max(map(abs, roots)) ** 75

    def test_overflowing_recursion_is_named(self):
        # from M = 151 p_n overflows the float recursion at the outer seeds
        with pytest.raises(RootCountMismatch, match="non-finite root"):
            chain_roots(ChainSpec("P", Fraction(151), Fraction(0)), 76, 1.0)

    @pytest.mark.parametrize("m", ["150", "151"])
    def test_large_m_spectrum_names_its_failing_check(self, capsys, m):
        code = main(["spectrum", "--m", m, "--zeta", "1"])
        err = capsys.readouterr().err
        assert code == 0 or (code == 1 and re.search(
            "node interlacing violated|non-finite root", err)), err

    @pytest.mark.parametrize("zeta", [0.5, 0.7, 1.0, 2.0, 0.3])
    def test_every_chain_certifies_up_to_m65(self, zeta):
        for m in range(1, 66):
            for spec, n in chain_plan(m):
                roots = chain_roots(spec, n, zeta)
                assert len(roots) == n


class TestFactorization:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_exact(self, m):
        assert factorization_check(m, 6).ok()

    def test_report_structure(self):
        rep = factorization_check(3, 2)
        kinds = {e.quotient_kind for e in rep.entries}
        assert kinds == {"Pbar", "Qbar"}
        for e in rep.entries:
            assert all(e.remainders_zero) and all(e.quotients_match)


class TestNorms:
    def test_gamma1_p_m3(self):
        assert norms_closed("P", 3, 0, 1) == ParamPoly((0, -16))

    def test_gamma0(self):
        for chain, m, s in [("P", 3, 0), ("Q", 4, 0), ("Pbar", 3, 0),
                            ("Rbar", 4, HALF)]:
            assert norms_closed(chain, m, s, 0) == ParamPoly.const(1)

    def test_gamma2_p_m3_vanishes(self):
        assert norms_closed("P", 3, 0, 2).is_zero()

    def test_vanishing_indices(self):
        # P: 2n >= M-2s+1; Q: 2n >= M-2s
        for m in (3, 4, 5, 6):
            for kind, s in ((("P", Fraction(0)), ("Q", HALF)) if m % 2
                            else (("P", HALF), ("Q", Fraction(0)))):
                bound = m - 2 * s + 1 if kind == "P" else m - 2 * s
                for n in range(0, 8):
                    gamma = norms_closed(kind, m, s, n)
                    assert gamma.is_zero() == (2 * n >= bound)

    def test_pbar_gamma1(self):
        assert norms_closed("Pbar", 3, 0, 1) == ParamPoly((0, 240))

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_recursion_equals_closed_form(self, m):
        combos = ((("P", Fraction(0)), ("Q", HALF)) if m % 2
                  else (("P", HALF), ("Q", Fraction(0))))
        for kind, s in combos:
            fam = gen_family(ChainSpec(kind, Fraction(m), s), 11)
            seq = norms_from_recursion(three_term_form(fam))
            for n in range(11):
                assert seq.values[n] == norms_closed(kind, m, s, n)

    @pytest.mark.parametrize("kind,m,s", [
        ("Pbar", 3, Fraction(0)), ("Qbar", 5, HALF),
        ("Rbar", 4, HALF), ("Sbar", 6, Fraction(0)),
    ])
    def test_quotient_norms(self, kind, m, s):
        quot = gen_quotient(ChainSpec(kind, Fraction(m), s), 11)
        seq = norms_from_recursion(three_term_form(quot))
        for n in range(11):
            closed = norms_closed(kind, m, s, n)
            assert seq.values[n] == closed
            if n:
                # positive for zeta > 0: single monomial with positive coefficient
                assert closed.coeffs[-1] > 0

    def test_sign_alternation(self):
        for m in (3, 5, 7):
            for n in range(1, (m + 1) // 2):
                gamma = norms_closed("P", m, 0, n)
                assert (gamma.coeffs[-1] > 0) == (n % 2 == 0)


class TestWeights:
    def test_m3_p_closed_form(self):
        for zeta in (0.25, 0.5, 1.0, 2.0):
            table = weights(3, zeta, "P")
            root = math.sqrt(1 + 4 * zeta * zeta)
            w0 = 0.5 - (2 * zeta + 1) / (2 * root)
            w2 = 0.5 + (2 * zeta + 1) / (2 * root)
            assert table.weights() == pytest.approx([w0, w2], abs=1e-12)
            assert sum(table.weights()) == pytest.approx(1.0, abs=1e-12)
            assert table.weights()[0] < 0

    def test_exact_is_a_read_only_constant(self, capsys):
        # the JSON key stays; no caller can set it, and no table is exact
        table = weights(3, 1.0, "P")
        assert main(["weights", "--m", "3", "--zeta", "1", "--format", "json"]) == 0
        assert table.exact is False and json.loads(capsys.readouterr().out)["exact"] is False
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.exact = True
        with pytest.raises(TypeError):
            WeightTable("P", table.support, table.condition, table.residual, True)

    def test_m3_q_is_unity(self):
        table = weights(3, 1.0, "Q")
        assert table.weights() == pytest.approx([1.0], abs=1e-12)

    def test_m4_closed_forms(self):
        for zeta in (0.25, 0.5, 1.0, 2.0):
            rq = math.sqrt(zeta * zeta - zeta + 1)
            rp = math.sqrt(zeta * zeta + zeta + 1)
            tq = weights(4, zeta, "Q")
            assert tq.weights() == pytest.approx(
                [0.5 - (zeta + 1) / (2 * rq), 0.5 + (zeta + 1) / (2 * rq)],
                abs=1e-12)
            tp = weights(4, zeta, "P")
            assert tp.weights() == pytest.approx(
                [0.5 - (zeta + 1) / (2 * rp), 0.5 + (zeta + 1) / (2 * rp)],
                abs=1e-12)

    def test_m4_q_at_unit_zeta(self):
        assert weights(4, 1.0, "Q").weights() == pytest.approx([-0.5, 1.5], abs=1e-12)

    def test_float_solve_at_rational_point(self):
        # 1 + 4 zeta^2 = (5/4)^2 at zeta = 3/8: all roots rational
        table = weights(3, 0.375, "P")
        assert table.weights() == pytest.approx([-0.2, 1.2], abs=1e-15)

    def test_support_is_spectrum(self):
        report = qes_energies(3, 1.0)
        table = weights(3, 1.0, "P")
        p_levels = [lv.energy for lv in report.levels if lv.chain == "P"]
        assert [e for e, _ in table.support] == pytest.approx(p_levels, abs=1e-12)

    def test_chain_without_levels(self):
        with pytest.raises(QESDomainError):
            weights(1, 1.0, "Q")


class TestCrosscheck:
    def test_spot_value_m3(self):
        rep = norm_weight_crosscheck(3, 1.0, "P")
        assert rep.ok
        # gamma_1 = -16 zeta at zeta=1
        table = weights(3, 1.0, "P")
        script = [e - 16.0 for e, _ in table.support]
        total = sum(w * (r + 2.0) ** 2 for (_, w), r in zip(table.support, script))
        assert total == pytest.approx(-16.0, abs=1e-9)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_all_chains(self, m, zeta):
        for spec, count in chain_plan(m):
            if count < 1:
                continue
            rep = norm_weight_crosscheck(m, zeta, spec.kind)
            assert rep.ok, rep


class TestCrosscheckScale:
    """The orthogonality sums are held to the rounding scale of their terms."""

    def test_large_terms_pass(self):
        # terms of order 1e11 cancel to rounding; an absolute bound rejects this
        rep = norm_weight_crosscheck(8, 1.0, "Q")
        assert rep.ok, rep
        assert rep.orthogonality_max > 1e-9

    def test_one_perturbed_weight_fails(self, monkeypatch):
        true_table = spectrum._weight_table

        def perturbed(*args):
            table = true_table(*args)
            (e0, w0), *rest = table.support
            return WeightTable(table.chain, ((e0, w0 * (1 + 1e-6)), *rest),
                               table.condition, table.residual)

        monkeypatch.setattr(spectrum, "_weight_table", perturbed)
        assert not norm_weight_crosscheck(8, 1.0, "Q").ok


def _counting(monkeypatch, module, name) -> list:
    """Wrap module.name so that each call appends its arguments to a list."""
    calls = []
    true = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return true(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestOneChainSolve:
    """The weights and the crosscheck sums come from one solve of the chain."""

    def test_crosscheck_solves_its_chain_once(self, monkeypatch):
        roots = _counting(monkeypatch, spectrum, "chain_roots")
        values = _counting(monkeypatch, spectrum, "family_values")
        weight_calls = _counting(monkeypatch, spectrum, "weights")
        assert norm_weight_crosscheck(8, 1.0, "Q").ok
        assert (len(roots), len(values), len(weight_calls)) == (1, 1, 0)

    def test_moments_read_the_roots_and_steps_alone(self, monkeypatch):
        roots = _counting(monkeypatch, spectrum, "chain_roots")
        table_reads = [_counting(monkeypatch, spectrum, name)
                       for name in ("weights", "_weight_table", "family_values")]
        moments(8, 1.0, "Q", 12)
        assert len(roots) == 1
        assert table_reads == [[], [], []]

    def test_levels_evaluate_no_member(self, monkeypatch):
        values = _counting(monkeypatch, spectrum, "family_values")
        assert len(qes_energies(9, 1.0).levels) == 9
        assert values == []

    @pytest.mark.parametrize("m", [3, 9])
    def test_verify_all_solves_each_chain_once(self, monkeypatch, capsys, m):
        roots = _counting(monkeypatch, spectrum, "chain_roots")
        main(["verify-all", "--m", str(m), "--zeta", "1"])
        capsys.readouterr()
        assert sorted(args[0].kind for args in roots) == sorted(
            spec.kind for spec, _ in chain_plan(m))
        assert len(roots) == 2

    def test_sorted_spectrum_still_fails_below_one_ulp(self):
        # at (21, 1) the lowest doublet is split by 1.2e-21, far below the
        # float spacing, so the float-sorted node order breaks; states and
        # even-M duality read their chains and do not depend on this order
        with pytest.raises(QESDomainError, match="node interlacing violated"):
            qes_energies(21, 1.0)

    def test_interlacing_error_names_the_pair(self):
        with pytest.raises(QESDomainError) as info:
            qes_energies(21, 1.0)
        found = re.fullmatch(r"node interlacing violated: node (\d+) at E = (\S+)"
                             r" sorts below node (\d+) at E = (\S+)", str(info.value))
        above, low, below, high = found.groups()
        assert int(above) == int(below) + 1 and float(low) <= float(high)

    def test_levels_rounding_together_are_named(self):
        # every level rounds to the shift 1e240, so no order can be read
        with pytest.raises(QESDomainError) as info:
            qes_energies(3, 1e120)
        assert str(info.value) == ("levels not distinct in floats:"
                                   " nodes 1 and 2 both round to E = 1e+240")


class TestMoments:
    def test_m3_p_first_moments(self):
        seq = moments(3, 1.0, "P", 4)
        assert seq.values[0] == 1.0
        assert seq.values[1] == pytest.approx(14.0, abs=1e-10)
        assert seq.values[2] == pytest.approx(180.0, abs=1e-10)

    def test_moment1_closed_form(self):
        for zeta in (0.25, 0.5, 2.0):
            seq = moments(3, zeta, "P", 2)
            want = (3 + zeta) ** 2 - 2 * zeta
            assert seq.values[1] == pytest.approx(want, rel=1e-12)
            want2 = -16 * zeta + want ** 2
            assert seq.values[2] == pytest.approx(want2, rel=1e-12)

    def test_q_chain_moments(self):
        seq = moments(3, 1.0, "Q", 2)
        want = (3 + 1) ** 2 - 6 - 4
        assert seq.values[1] == pytest.approx(want, rel=1e-14)
        assert seq.values[2] == pytest.approx(want ** 2, rel=1e-14)

    def test_growth_approaches_max_energy(self):
        for chain in ("P", "Q"):
            seq = moments(3, 1.0, chain, 40)
            assert seq.growth[-1] == pytest.approx(seq.max_abs_energy, rel=0.01)

    def test_comparator_reported(self):
        seq = moments(3, 1.0, "P", 2)
        assert seq.leading_order_comparator == pytest.approx(16.0)

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_moments_are_the_weight_sums(self, m, zeta):
        # where the weight solve succeeds, mu_n = sum_k w_k E_k**n to its rounding
        for spec, _ in chain_plan(m):
            table = weights(m, zeta, spec.kind)
            seq = moments(m, zeta, spec.kind, 12)
            for n, mu in enumerate(seq.values):
                terms = [w * e**n for e, w in table.support]
                assert abs(mu - math.fsum(terms)) <= 1e-12 * math.fsum(map(abs, terms))
            assert seq.max_abs_energy == max(abs(e) for e, _ in table.support)

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_every_chain_has_moments_up_to_m65(self, zeta):
        # the weight solve's residual fails at most of these points
        for m in range(1, 66):
            for spec, _ in chain_plan(m):
                assert len(moments(m, zeta, spec.kind, 12).values) == 13

    @pytest.mark.parametrize("m", [11, 21, 33, 65])
    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_moments_agree_with_the_exact_recursion(self, m, zeta):
        # the coordinates of E**n mod p_N, run in Fractions at Fraction(zeta)
        z = Fraction(zeta)
        for spec, count in chain_plan(m):
            steps = [[sum(c * z**k for k, c in enumerate(p.coeffs))
                      for p in recursion_coeffs(spec, n)] for n in range(1, count + 1)]
            shift = (m + z) ** 2
            a, want = [Fraction(1)] + [Fraction(0)] * (count - 1), [Fraction(1)]
            for _ in range(40):
                a = [(a[j - 1] if j else 0) + (shift - steps[j][0]) * a[j]
                     - (steps[j + 1][1] * a[j + 1] if j + 1 < count else 0)
                     for j in range(count)]
                want.append(a[0])
            got = moments(m, zeta, spec.kind, 40).values
            assert max(_relative_errors(got, want)) <= 1e-14

    @pytest.mark.parametrize("m, zeta, n_max, first", [(3, 1e20, 12, 8), (9, 2.0, 400, 151)])
    def test_overflowing_moment_is_named(self, m, zeta, n_max, first):
        # RuntimeWarnings are errors under pytest, so this also checks for none
        with pytest.raises(QESDomainError, match=f"moment mu_{first} overflows"):
            moments(m, zeta, "P", n_max)
        assert math.isfinite(moments(m, zeta, "P", first - 1).values[-1])


class TestZetaDomain:
    @pytest.mark.parametrize("zeta", [-1.0, 0.0, -0.5, float("nan")])
    @pytest.mark.parametrize("call", [
        lambda zeta: qes_energies(3, zeta),
        lambda zeta: weights(3, zeta, "P"),
        lambda zeta: moments(3, zeta, "P", 4),
        lambda zeta: norm_weight_crosscheck(3, zeta, "P"),
    ], ids=["qes_energies", "weights", "moments", "norm_weight_crosscheck"])
    def test_nonpositive_zeta_rejected(self, call, zeta):
        with pytest.raises(QESDomainError, match="zeta must be positive"):
            call(zeta)


class TestChainMemo:
    """The memoized solve is read-only, equal to a fresh solve, and keeps no
    failure."""

    SPEC = ChainSpec("Q", Fraction(8), Fraction(0))

    def test_solution_is_read_only(self):
        solution = spectrum.solve_chain(self.SPEC, 4, 1.0)
        assert isinstance(solution.roots, tuple)
        for member in solution.values:
            with pytest.raises(ValueError):
                member[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            solution.roots = ()

    def test_memo_hit_equals_a_fresh_solve(self):
        spectrum.solve_chain(self.SPEC, 4, 1.0)
        hit = spectrum.solve_chain(self.SPEC, 4, 1.0)
        assert spectrum.solve_chain.cache_info().hits == 1
        fresh = spectrum.solve_chain.__wrapped__(self.SPEC, 4, 1.0)
        assert fresh is not hit
        assert fresh.roots == hit.roots
        assert len(fresh.values) == len(hit.values) == 7
        for a, b in zip(fresh.values, hit.values):
            assert a.tobytes() == b.tobytes()

    def test_failing_solve_raises_on_every_call(self, monkeypatch):
        roots = _counting(monkeypatch, spectrum, "chain_roots")
        spec = ChainSpec("P", 151, 0)
        for _ in range(2):
            with pytest.raises(RootCountMismatch, match="non-finite root"):
                spectrum.solve_chain(spec, 76, 1.0)
        assert len(roots) == 2
        assert spectrum.solve_chain.cache_info().currsize == 0
