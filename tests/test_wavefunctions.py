import json
import math

import numpy as np
import pytest

from qespoly.cli import main
from qespoly.potentials import dshg, phi6_kink_dual
from qespoly.spectrum import QESDomainError
from qespoly.wavefunctions import (
    build_qes_state,
    node_count,
    residual,
    schrodinger_residual,
)


def normalized(values):
    v = np.asarray(values, dtype=float)
    v = v / np.max(np.abs(v))
    peak = np.argmax(np.abs(v))
    return v * np.sign(v[peak])


class TestConstruction:
    def test_m1_is_bare_exponential(self):
        state = build_qes_state(1, 1.0, 0)
        assert state.coeffs[0] == pytest.approx(1.0)
        assert all(c == 0.0 for c in state.coeffs[1:])
        x = np.linspace(-3, 3, 101)
        want = np.exp(-0.5 * np.cosh(2 * x))
        assert normalized(state.eval(x)) == pytest.approx(list(normalized(want)), abs=1e-12)

    def test_m3_level1_is_sinh2x(self):
        state = build_qes_state(3, 1.0, 1)
        assert state.chain == "Q"
        x = np.linspace(-3, 3, 101)
        want = np.sinh(2 * x) * np.exp(-0.5 * np.cosh(2 * x))
        assert normalized(state.eval(x)) == pytest.approx(list(normalized(want)), abs=1e-10)

    def test_coefficients_terminate(self):
        for level in (0, 2):
            state = build_qes_state(3, 1.0, level)
            assert all(c == 0.0 for c in state.coeffs[state.critical_index:])

    def test_overflowing_tail_fails_the_certificate(self):
        # at zeta = 1e120 members N+1 and N+2 are inf at the root, and so is
        # the bound 1e-9 * max|c|; the overflow itself warns nothing
        with pytest.raises(QESDomainError, match="series does not terminate"):
            build_qes_state(3, 1e120, 0)

    def test_level_out_of_range(self):
        with pytest.raises(QESDomainError):
            build_qes_state(3, 1.0, 3)

    def test_json_fields(self, capsys):
        argv = ["wavefunction", "--m", "4", "--zeta", "1", "--level", "2", "--format", "json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"manifest", "m", "zeta", "level", "chain", "s", "coeffs", "E",
                            "nodes"}


class TestParity:
    @pytest.mark.parametrize("m,level", [(3, 0), (3, 2), (4, 0), (4, 2)])
    def test_even_states(self, m, level):
        state = build_qes_state(m, 1.0, level)
        x = np.linspace(0.1, 4.0, 50)
        assert state.eval(x) == pytest.approx(list(state.eval(-x)), rel=1e-12)

    @pytest.mark.parametrize("m,level", [(3, 1), (4, 1), (4, 3)])
    def test_odd_states(self, m, level):
        state = build_qes_state(m, 1.0, level)
        x = np.linspace(0.1, 4.0, 50)
        assert state.eval(x) == pytest.approx(list(-state.eval(-x)), rel=1e-12)
        assert state.eval(0.0) == 0.0


class TestNodes:
    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_node_count_equals_level(self, m, zeta):
        grid = np.linspace(-5.0, 5.0, 4001)
        for level in range(m):
            state = build_qes_state(m, zeta, level)
            assert node_count(state, grid) == level, (m, zeta, level)

    def test_sanity_inputs(self):
        grid = np.linspace(-1, 1, 201)
        assert node_count(np.ones(201), grid) == 0
        assert node_count(grid, grid) == 1


class TestStatesFromTheirChain:
    """State k is root k // 2 of the chain of parity k: no float sort."""

    @pytest.mark.parametrize("m,zeta", [(14, 0.5), (16, 1.0), (20, 1.0), (20, 2.0)])
    def test_node_count_past_the_float_order(self, m, zeta):
        grid = np.linspace(-4.0, 4.0, 40001)
        for level in range(m):
            state = build_qes_state(m, zeta, level)
            assert state.level == level
            assert node_count(state, grid) == level, (m, zeta, level)

    def test_one_chain_solve(self, monkeypatch):
        import qespoly.spectrum as spectrum

        calls = []
        true_roots = spectrum.chain_roots

        def counting(*args):
            calls.append(args)
            return true_roots(*args)

        monkeypatch.setattr(spectrum, "chain_roots", counting)
        state = build_qes_state(9, 1.0, 4)
        assert len(calls) == 1
        assert (state.chain, state.level) == ("P", 4)
        # all M states read the memoized solves of the plan's two chains
        states = [build_qes_state(17, 1.0, level) for level in range(17)]
        assert [state.level for state in states] == list(range(17))
        assert len(calls) == 3


class TestResidual:
    def test_free_particle_constant(self):
        grid = np.linspace(-1, 1, 201)
        assert schrodinger_residual(np.ones(201), 0.0, None, grid) == 0.0

    def test_potential_is_a_spec_or_none(self):
        grid = np.linspace(-1, 1, 201)
        with pytest.raises(TypeError, match="PotentialSpec or None"):
            schrodinger_residual(np.ones(201), 0.0, lambda x: x * x, grid)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_m3_levels(self, level):
        state = build_qes_state(3, 1.0, level)
        grid = np.linspace(-5.0, 5.0, 8001)
        assert residual(state, dshg(3, 1.0), grid) < 1e-6

    @pytest.mark.parametrize("m,zeta", [(1, 1.0), (4, 0.5), (5, 2.0)])
    def test_other_wells(self, m, zeta):
        grid = np.linspace(-5.0, 5.0, 8001)
        for level in range(m):
            state = build_qes_state(m, zeta, level)
            assert residual(state, dshg(m, zeta), grid) < 1e-6

    def test_kink_dual_excited_state(self):
        from qespoly.duality import new_potential_states

        states = new_potential_states(0.5, 1.0)
        spec = phi6_kink_dual(0.5, 1.0)
        # ground state on one potential period
        theta1 = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        assert schrodinger_residual(states[0][1], states[0][0], spec, theta1) < 1e-6
        # E = 0 state on its own (doubled) period
        theta2 = np.linspace(0.0, 4 * np.pi, 8192, endpoint=False)
        assert schrodinger_residual(states[1][1], states[1][0], spec, theta2) < 1e-6


class TestDualityOfStates:
    def closed_dsg_m3(self, zeta):
        root = math.sqrt(1 + 4 * zeta * zeta)

        def psi0(t):
            return (2 * zeta - (root - 1) * np.cos(2 * t)) * np.exp(-0.5 * zeta * np.cos(2 * t))

        def psi1(t):
            return np.sin(2 * t) * np.exp(-0.5 * zeta * np.cos(2 * t))

        def psi2(t):
            return (2 * zeta + (root + 1) * np.cos(2 * t)) * np.exp(-0.5 * zeta * np.cos(2 * t))

        return [psi0, psi1, psi2]

    def test_m3_closed_forms(self):
        zeta = 1.0
        theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        closed = self.closed_dsg_m3(zeta)
        for k in range(3):
            source = build_qes_state(3, zeta, 2 - k)
            got = normalized(source.eval_dual(theta))
            want = normalized(closed[k](theta))
            assert np.max(np.abs(got - want)) < 1e-9

    def test_m1_closed_form(self):
        zeta = 1.0
        theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        source = build_qes_state(1, zeta, 0)
        want = normalized(np.exp(-0.5 * zeta * np.cos(2 * theta)))
        assert np.max(np.abs(normalized(source.eval_dual(theta)) - want)) < 1e-12

    def test_m2_candidates_are_half_turn_odd(self):
        zeta = 1.0
        theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        # the would-be dual states of the even-M well are sin/cos theta types
        want0 = normalized(np.sin(theta) * np.exp(-0.5 * zeta * np.cos(2 * theta)))
        want2 = normalized(np.cos(theta) * np.exp(-0.5 * zeta * np.cos(2 * theta)))
        got0 = normalized(build_qes_state(2, zeta, 1).eval_dual(theta))
        got2 = normalized(build_qes_state(2, zeta, 0).eval_dual(theta))
        assert np.max(np.abs(got0 - want0)) < 1e-9
        assert np.max(np.abs(got2 - want2)) < 1e-9
