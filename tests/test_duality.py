import ast
import inspect
import math

import numpy as np
import pytest

from qespoly.duality import (
    ANTIPERIODIC,
    MIXED,
    PERIODIC,
    DsgRejection,
    dsg_spectrum,
    dsg_weights_moments,
    dual_energies,
    new_potential_states,
    periodicity_character,
)
from qespoly.potentials import (
    dsg,
    dshg,
    phi6_kink,
    phi6_kink_dual,
    potential_eval,
    sextic_minus,
    sextic_plus,
    sextic_qes_levels,
)
from qespoly.spectrum import QESDomainError, moments, qes_energies, weights
from qespoly.wavefunctions import build_qes_state


class TestPotentials:
    def test_dshg_at_origin(self):
        assert potential_eval(dshg(3, 1.0), 0.0) == pytest.approx(4.0)

    def test_dsg_at_half_pi(self):
        assert potential_eval(dsg(3, 1.0), math.pi / 2) == pytest.approx(-16.0)

    def test_kink_dual_flat_point(self):
        # at eps^2 = 1/2 the constant term of the numerator vanishes
        assert potential_eval(phi6_kink_dual(0.5, 1.0), 0.0) == pytest.approx(0.0)

    def test_sextic_zero_at_origin(self):
        assert potential_eval(sextic_plus(1), 0.0) == pytest.approx(0.0)

    def test_dual_image_matches_negated_line_value(self):
        # cosh 2x = cos 2theta = 1 at x = theta = 0
        for m, zeta in ((3, 1.0), (5, 0.5)):
            assert potential_eval(dsg(m, zeta), 0.0) == pytest.approx(
                -potential_eval(dshg(m, zeta), 0.0))
        # and on a grid of theta, against the line formula at complex x = i*theta
        theta = np.linspace(-3.0, 3.0, 61)
        for m, zeta in ((3, 1.0), (5, 0.5), (2, 2.3)):
            v_line_at_imag = ((zeta * np.cosh(2j * theta) - m) ** 2).real
            assert potential_eval(dsg(m, zeta), theta) == pytest.approx(
                list(-v_line_at_imag), rel=1e-12, abs=1e-12)

    def test_kink_dual_is_analytic_continuation(self):
        # evaluate the line formula at complex x = i*theta and compare
        theta = np.linspace(0.1, 2.9, 23)
        mu, eps2 = 1.0, 0.37
        inv2 = 1.0 / eps2
        s2 = np.sinh(0.5j * mu * theta) ** 2
        num = 8 * s2**2 - 4 * (5 * inv2 - 1) * s2 + 2 * (inv2**2 - inv2 - 2)
        den = 1 + inv2 + s2
        v_line_at_imag = (mu * mu * num / (8 * den * den)).real
        v_dual = potential_eval(phi6_kink_dual(eps2, mu), theta)
        assert v_dual == pytest.approx(list(-v_line_at_imag), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_kink_line_far_out_tends_to_mu_squared(self):
        x = np.array([-1e6, -1e3, -400.0, -360.0, 360.0, 400.0, 1e3, 1e6])
        assert potential_eval(phi6_kink(0.5, 1.0), x) == pytest.approx([1.0] * 8, abs=1e-15)
        assert potential_eval(phi6_kink(0.3, 2.0), x) == pytest.approx([4.0] * 8, abs=1e-15)

    def test_kink_line_agrees_with_sinh_formula(self):
        x = np.linspace(-30.0, 30.0, 6001)
        for eps2, mu in ((0.5, 1.0), (0.37, 1.7), (2.0, 0.4)):
            inv2 = 1.0 / eps2
            s2 = np.sinh(0.5 * mu * x) ** 2
            num = 8 * s2**2 - 4 * (5 * inv2 - 1) * s2 + 2 * (inv2**2 - inv2 - 2)
            den = 1 + inv2 + s2
            want = mu * mu * num / (8 * den * den)
            assert np.max(np.abs(potential_eval(phi6_kink(eps2, mu), x) - want)) <= 1e-14

    @pytest.mark.parametrize("family", [phi6_kink, phi6_kink_dual, new_potential_states])
    @pytest.mark.parametrize("epsilon_sq, mu", [
        (math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan), (0.5, math.inf),
    ])
    def test_kink_wells_reject_non_finite_parameters(self, family, epsilon_sq, mu):
        with pytest.raises(ValueError, match="must be positive and finite"):
            family(epsilon_sq, mu)

    @pytest.mark.parametrize("family", [sextic_plus, sextic_minus])
    @pytest.mark.parametrize("m", [3.7, -1, math.inf])
    def test_sextic_wells_reject_m_outside_nonnegative_integers(self, family, m):
        with pytest.raises(ValueError, match="M must be a nonnegative integer"):
            family(m)


class TestDualEnergies:
    def test_negate_and_reverse(self):
        got = dual_energies([3.5279, 6.0, 12.4721])
        assert got == [-12.4721, -6.0, -3.5279]

    def test_empty(self):
        assert dual_energies([]) == []

    def test_involution(self):
        levels = [1.3, 2.0, 7.5]
        assert dual_energies(dual_energies(levels)) == levels

    def test_single_level(self):
        zeta = 0.7
        assert dual_energies([1 + zeta * zeta]) == [-(1 + zeta * zeta)]


class TestDsgSpectrum:
    def test_m3(self):
        report = dsg_spectrum(3, 1.0)
        root = math.sqrt(5.0)
        want = [-8 - 2 * root, -6.0, -8 + 2 * root]
        assert report.energies() == pytest.approx(want, abs=1e-10)

    def test_m1(self):
        report = dsg_spectrum(1, 1.0)
        assert report.energies() == pytest.approx([-2.0], abs=1e-12)

    def test_even_m_rejected_with_evidence(self):
        outcome = dsg_spectrum(2, 1.0)
        assert isinstance(outcome, DsgRejection)
        assert outcome.characters == (ANTIPERIODIC, ANTIPERIODIC)
        assert "half turn" in outcome.reason

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_matches_negated_reversed_spectrum(self, m):
        zeta = 1.0
        got = dsg_spectrum(m, zeta).energies()
        want = dual_energies(qes_energies(m, zeta).energies())
        assert got == pytest.approx(want, abs=1e-12)


class TestPeriodicityCharacter:
    def setup_method(self):
        self.theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)

    def test_periodic_state(self):
        psi = np.sin(2 * self.theta) * np.exp(-0.5 * np.cos(2 * self.theta))
        assert periodicity_character(psi) == PERIODIC

    def test_antiperiodic_state(self):
        psi = np.sin(self.theta) * np.exp(-0.5 * np.cos(2 * self.theta))
        assert periodicity_character(psi) == ANTIPERIODIC

    def test_constant(self):
        assert periodicity_character(np.ones(64)) == PERIODIC

    def test_mixed(self):
        psi = 1.0 + np.sin(self.theta)
        assert periodicity_character(psi) == MIXED

    def test_odd_sample_count_rejected(self):
        with pytest.raises(ValueError):
            periodicity_character(np.ones(63))


class TestEvenMSolvesOnce:
    def test_dsg_spectrum_solves_no_chain(self, monkeypatch):
        import qespoly.duality as duality
        import qespoly.spectrum as spectrum
        import qespoly.wavefunctions as wavefunctions

        def forbidden(*args):
            raise AssertionError("even-M dsg_spectrum solved a chain")

        monkeypatch.setattr(duality, "qes_energies", forbidden)
        for module, name in ((spectrum, "chain_roots"), (spectrum, "solve_chain"),
                             (wavefunctions, "solve_chain"),
                             (wavefunctions, "build_qes_state")):
            monkeypatch.setattr(module, name, forbidden)
        outcome = dsg_spectrum(6, 1.0)
        assert isinstance(outcome, DsgRejection)
        assert outcome.characters == (ANTIPERIODIC,) * 6

    def test_duality_builds_no_state(self):
        import qespoly.duality as duality
        import qespoly.wavefunctions as wavefunctions

        imported = {node.module for node in ast.walk(ast.parse(inspect.getsource(duality)))
                    if isinstance(node, ast.ImportFrom)}
        assert "wavefunctions" not in imported
        assert not hasattr(wavefunctions, "chain_states")

    def test_rejection_past_the_float_order(self):
        # the characters come from the chain plan, with no float sort of
        # the levels
        outcome = dsg_spectrum(16, 1.0)
        assert isinstance(outcome, DsgRejection)
        assert outcome.characters == (ANTIPERIODIC,) * 16


class TestHalfTurnRule:
    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_rule_agrees_with_the_sampled_states(self, zeta):
        # the sampled character is an independent witness where it is well
        # conditioned: +1 for every state at odd M, the rejection's at even M
        theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        for m in range(1, 21):
            outcome = dsg_spectrum(m, zeta)
            rule = outcome.characters if m % 2 == 0 else (PERIODIC,) * m
            sampled = tuple(periodicity_character(build_qes_state(m, zeta, k).eval_dual(theta))
                            for k in range(m))
            assert sampled == rule, (m, zeta)

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_every_even_m_is_antiperiodic(self, zeta):
        # the rule needs no state: a sampled character is ill conditioned
        # from M ~ 24, and the float chain solve stops at M = 151
        for m in range(22, 151, 2):
            outcome = dsg_spectrum(m, zeta)
            assert outcome.characters == (ANTIPERIODIC,) * m, (m, zeta)

    @pytest.mark.parametrize("m, zeta", [(4, 1e120), (152, 1.0)])
    def test_past_the_float_chain_solve(self, m, zeta):
        assert dsg_spectrum(m, zeta).characters == (ANTIPERIODIC,) * m


class TestDsgWeightsMoments:
    @pytest.mark.parametrize("m,zeta", [(3, 1.0), (5, 0.7), (9, 2.0), (7, 1.3)])
    def test_negate_and_reverse_of_sinh_gordon(self, m, zeta):
        for chain in ("P", "Q"):
            table, seq = dsg_weights_moments(m, zeta, chain)
            src = weights(m, zeta, chain)
            assert table.support == tuple((-e, w) for e, w in reversed(src.support))
            src_mom = moments(m, zeta, chain, 12)
            assert seq.values == tuple((-1) ** n * mu for n, mu in enumerate(src_mom.values))
            assert (seq.growth, seq.max_abs_energy) == (src_mom.growth, src_mom.max_abs_energy)


    def test_interchange_m3(self):
        for zeta in (0.5, 1.0, 2.0):
            table, _ = dsg_weights_moments(3, zeta, "P")
            root = math.sqrt(1 + 4 * zeta * zeta)
            w0 = 0.5 + (2 * zeta + 1) / (2 * root)
            w2 = 0.5 - (2 * zeta + 1) / (2 * root)
            assert table.weights() == pytest.approx([w0, w2], abs=1e-12)
            src = weights(3, zeta, "P").weights()
            assert table.weights() == pytest.approx(src[::-1], abs=1e-12)

    def test_q_chain_unity(self):
        table, _ = dsg_weights_moments(3, 1.0, "Q")
        assert table.weights() == pytest.approx([1.0], abs=1e-12)

    def test_moment_sign_relation(self):
        for chain in ("P", "Q"):
            _, dual_mom = dsg_weights_moments(3, 1.0, chain)
            src_mom = moments(3, 1.0, chain, 12)
            for n in range(13):
                assert dual_mom.values[n] == (-1) ** n * src_mom.values[n]

    def test_weights_and_moments_share_one_solve(self, monkeypatch):
        import qespoly.spectrum as spectrum

        calls = []
        true_roots = spectrum.chain_roots

        def counting(*args):
            calls.append(args)
            return true_roots(*args)

        monkeypatch.setattr(spectrum, "chain_roots", counting)
        dsg_weights_moments(9, 1.0)
        assert len(calls) == 1

    def test_overflowing_moment_is_named(self):
        with pytest.raises(QESDomainError, match="moment mu_8 overflows"):
            dsg_weights_moments(3, 1e20)

    def test_even_m_rejected(self):
        with pytest.raises(Exception):
            dsg_weights_moments(2, 1.0)

    @pytest.mark.parametrize("zeta", [-1.0, 0.0])
    def test_nonpositive_zeta_rejected(self, zeta):
        for call in (dsg_weights_moments, dsg_spectrum):
            with pytest.raises(QESDomainError, match="zeta must be positive"):
                call(3, zeta)

    def test_fractional_m_rejected(self):
        for call in (dsg_weights_moments, dsg_spectrum):
            with pytest.raises(QESDomainError, match="positive integer M"):
                call(2.5, 1.0)


class TestNewPotentialStates:
    def test_special_coupling_has_two_states(self):
        states = new_potential_states(0.5, 1.0)
        energies = [e for e, _ in states]
        assert energies == pytest.approx([-0.75, 0.0], abs=1e-15)

    def test_generic_coupling_single_state(self):
        states = new_potential_states(0.3, 1.0)
        assert len(states) == 1
        assert states[0][0] == 0.0

    def test_mu_scaling(self):
        states = new_potential_states(0.5, 2.0)
        assert states[0][0] == pytest.approx(-3.0)

    def test_ground_state_is_periodic_excited_antiperiodic(self):
        # sample two potential periods so the half-shift is one period
        states = new_potential_states(0.5, 1.0)
        theta = np.linspace(0.0, 4 * np.pi, 1024, endpoint=False)
        assert periodicity_character(states[0][1](theta)) == PERIODIC
        assert periodicity_character(states[1][1](theta)) == ANTIPERIODIC

    def test_normalization_unit_sup(self):
        for eps2 in (0.3, 0.5):
            for _, psi in new_potential_states(eps2, 1.0):
                theta = np.linspace(0.0, 4 * np.pi, 4096, endpoint=False)
                assert float(np.max(np.abs(psi(theta)))) == pytest.approx(1.0, rel=1e-6)

    def test_full_period_invariance_on_own_period(self):
        # both states are single valued on the doubled circle: sample two
        # doubled periods so the half-shift equals one doubled period
        states = new_potential_states(0.5, 1.0)
        theta = np.linspace(0.0, 8 * np.pi, 2048, endpoint=False)
        for _, psi in states:
            assert periodicity_character(psi(theta)) == PERIODIC


class TestSexticLevels:
    def test_m1_single_odd_level(self):
        assert sextic_qes_levels(1) == pytest.approx([3.0])

    def test_m1_b_negated(self):
        assert sextic_qes_levels(1, 1.0, -1.0) == pytest.approx([-3.0])

    def test_m2_pair(self):
        want = sorted([3 - 2 * math.sqrt(3), 3 + 2 * math.sqrt(3)])
        assert sextic_qes_levels(2) == pytest.approx(want, rel=1e-12)

    def test_duality_pairing_is_negate_reverse(self):
        for m in (1, 2, 3, 4, 159, 160, 200, 1000):
            plus = sextic_qes_levels(m)
            minus = sextic_qes_levels(m, 1.0, -1.0)
            assert minus == pytest.approx(dual_energies(plus), rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("m", [160, 200, 1000])
    def test_large_m_levels_are_real_and_ascending(self, m):
        # from M = 160 a nonsymmetric eigensolver returns complex pairs here
        levels = sextic_qes_levels(m)
        assert len(levels) == m // 2 + 1
        assert all(type(e) is float and math.isfinite(e) for e in levels)
        assert levels == sorted(levels)

    @pytest.mark.parametrize("a", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_or_nonfinite_a_rejected(self, a):
        with pytest.raises(ValueError, match="a must be positive and finite"):
            sextic_qes_levels(3, a)
