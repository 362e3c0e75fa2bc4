import json
import math
from fractions import Fraction

import pytest

from qespoly import spectrum
from qespoly.exactpoly import ParamPoly, RootCountMismatch, real_roots
from qespoly.families import (
    QUOTIENT_KINDS,
    ChainSpec,
    ChainSpecError,
    critical_index,
    gen_family,
    gen_quotient,
    scaled_members,
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


class TestChainPlan:
    def test_m3(self):
        plan = chain_plan(3)
        assert [(e.node_parity, e.chain_kind, e.s, e.critical_index)
                for e in plan.entries] == [
            ("even", "P", Fraction(0), 2),
            ("odd", "Q", HALF, 1),
        ]

    def test_m1_has_no_odd_entry(self):
        plan = chain_plan(1)
        assert len(plan.entries) == 1
        assert plan.entries[0].node_parity == "even"
        assert plan.entries[0].chain_kind == "P"

    def test_m4(self):
        plan = chain_plan(4)
        assert [(e.node_parity, e.chain_kind, e.s, e.critical_index)
                for e in plan.entries] == [
            ("even", "Q", Fraction(0), 2),
            ("odd", "P", HALF, 2),
        ]

    def test_total_level_count(self):
        for m in range(1, 11):
            assert sum(e.critical_index for e in chain_plan(m).entries) == m

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

        plan = chain_plan(m).entries
        assert [(e.chain_kind, e.s, e.critical_index) for e in plan] == [
            (kind, s, c) for (kind, s), c in sorted(term.items(), key=lambda i: i[0][1])
            if c > 0]
        assert all(e.node_parity == ("even" if e.s == 0 else "odd") for e in plan)

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

    def test_json_schema(self):
        doc = qes_energies(3, 1.0).to_json_dict()
        assert set(doc) == {"m", "zeta", "levels"}
        assert set(doc["levels"][0]) == {"E", "script_E", "nodes", "chain"}
        json.dumps(doc)


class TestChainRoots:
    """The sign-change certificate on exact integer coefficients."""

    # (E+1)(E-1)(E-2) = E^3 - 2E^2 - E + 2
    THREE_ROOTS = [2, -1, -2, 1]

    def test_well_separated_roots(self):
        roots = chain_roots((self.THREE_ROOTS, 1))
        assert roots == pytest.approx([-1.0, 1.0, 2.0], abs=1e-14)
        # the scale divides the coefficients, so q and 8q are one polynomial
        assert chain_roots(([8 * c for c in self.THREE_ROOTS], 8)) == roots

    @pytest.mark.parametrize("q", [
        [2, -3, 0, 1],      # (E-1)^2 (E+2): an exact double root
        [-3, 1, -3, 1],     # (E^2+1)(E-3): a complex pair
    ])
    def test_non_simple_or_complex_roots_raise(self, q):
        with pytest.raises(RootCountMismatch, match="isolated 1 of 3 roots"):
            chain_roots((q, 1))

    @pytest.mark.parametrize("seeds", [
        [-1.0, 2.5, 3.0],   # the midpoint 2.75 lies past the root at 2
        [1.0, 1.0, 2.0],    # exact roots, one twice and -1 missed
    ])
    def test_seeds_on_the_wrong_side_raise(self, monkeypatch, seeds):
        monkeypatch.setattr(spectrum, "polished_real_roots", lambda coeffs: seeds)
        with pytest.raises(RootCountMismatch, match="isolated 1 of 3 roots"):
            chain_roots((self.THREE_ROOTS, 1))

    def test_certified_seed_still_meets_the_residual_bound(self, monkeypatch):
        # 1.5 shares its interval (0.25, 1.75) with the root 1 alone
        monkeypatch.setattr(spectrum, "polished_real_roots",
                            lambda coeffs: [-1.0, 1.5, 2.0])
        with pytest.raises(RootCountMismatch, match="residual"):
            chain_roots((self.THREE_ROOTS, 1))

    @pytest.mark.parametrize("m", [9, 10, 17, 18])
    @pytest.mark.parametrize("zeta", [0.5, 0.7, 1.0, 1.3])
    def test_critical_roots_equal_general_root_finder(self, m, zeta):
        for entry in chain_plan(m).entries:
            spec = ChainSpec(entry.chain_kind, Fraction(m), entry.s)
            n = entry.critical_index
            got = chain_roots(scaled_members(spec, n, zeta)[-1])
            expected = real_roots(gen_family(spec, n)[n], zeta)
            assert got == [r for r, _ in expected]


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
        for entry in chain_plan(m).entries:
            if entry.critical_index < 1:
                continue
            rep = norm_weight_crosscheck(m, zeta, entry.chain_kind)
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

    def test_sorted_spectrum_still_fails_below_one_ulp(self):
        # at (16, 1) the lowest doublet is split by less than the float
        # spacing, so the float-sorted node order breaks; states and even-M
        # duality read their chains and do not depend on this order
        with pytest.raises(QESDomainError, match="node interlacing violated"):
            qes_energies(16, 1.0)


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
