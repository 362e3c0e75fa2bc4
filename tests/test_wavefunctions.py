import json
import math
from functools import cached_property

import numpy as np
import pytest

from qespoly import spectrum
from qespoly.cli import main
from qespoly.potentials import dsg, dshg, phi6_kink_dual, potential_eval
from qespoly.families import series_index, terminating_chains
from qespoly.spectrum import QESDomainError, solve_chain
from qespoly.wavefunctions import (
    build_qes_state,
    node_count,
    residual,
    schrodinger_residual,
)


def normalized(values):
    v = np.asarray(values, dtype=float)
    return v / np.max(np.abs(v))


def aligned(got, want):
    """got and want, each scaled to max |v| = 1, got with the sign that makes
    their inner product positive.  A state's global sign is arbitrary, and a
    sign read off the largest sample ties where equal peaks alternate in sign
    (four of them for M = 2, level 0, on the circle)."""
    got, want = normalized(got), normalized(want)
    return got * np.sign(got @ want), want


class TestConstruction:
    def test_m1_is_bare_exponential(self):
        state = build_qes_state(1, 1.0, 0)
        assert state.coeffs[0] == pytest.approx(1.0)
        assert all(c == 0.0 for c in state.coeffs[1:])
        x = np.linspace(-3, 3, 101)
        got, want = aligned(state.eval(x), np.exp(-0.5 * np.cosh(2 * x)))
        assert got == pytest.approx(list(want), abs=1e-12)

    def test_m3_level1_is_sinh2x(self):
        state = build_qes_state(3, 1.0, 1)
        assert state.chain == "Q"
        x = np.linspace(-3, 3, 101)
        got, want = aligned(state.eval(x), np.sinh(2 * x) * np.exp(-0.5 * np.cosh(2 * x)))
        assert got == pytest.approx(list(want), abs=1e-10)

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


class TestFarField:
    """Where exp(-(zeta/2) cosh 2x) underflows the state is 0: cosh 2x
    overflows from |x| ~ 355 and cosh x, sinh x from ~710, and neither may
    warn (an error in this suite) or leave 0 * inf = NaN."""

    @pytest.mark.parametrize("x", [400.0, 720.0, 1e300])
    @pytest.mark.parametrize("level", [0, 1])     # even (P) and odd (Q) at M = 3
    def test_state_is_zero_far_out(self, level, x):
        state = build_qes_state(3, 1.0, level)
        assert state.eval(np.array([-x, x])).tolist() == [0.0, 0.0]
        assert [state.eval(-x), state.eval(x)] == [0.0, 0.0]

    @pytest.mark.parametrize("x", [200.0, 400.0, 1e300])
    def test_potential_rounds_to_inf_far_out(self, x):
        # (zeta cosh 2x - M)**2 overflows from |x| ~ 178 and cosh 2x from ~355
        assert potential_eval(dshg(3, 1.0), np.array([-x, x])).tolist() == [math.inf] * 2
        assert potential_eval(dshg(3, 1.0), x) == math.inf

    @pytest.mark.parametrize("x", [0.0, 1.0, 400.0, 1e300])
    def test_constant_well_is_m_squared_far_out(self, x):
        # at zeta = 0 the well is the constant M**2, also where cosh 2x
        # overflows and 0 * cosh 2x would be NaN; its circle image is -M**2
        assert potential_eval(dshg(3, 0.0), np.array([-x, x])).tolist() == [9.0, 9.0]
        assert potential_eval(dshg(3, 0.0), x) == 9.0
        assert potential_eval(dsg(3, 0.0), x) == -9.0

    def test_constant_well_has_no_bound_state(self, capsys):
        argv = ["oracle", "--family", "dshg", "--m", "3", "--zeta", "0",
                "--domain-l", "400", "--count", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "domain too small" in err

    @pytest.mark.parametrize("level", [0, 1])
    def test_residual_past_the_overflow_of_the_potential(self, level):
        # V = inf where the state is exactly 0 adds nothing: the residual is
        # that of the grid's part on [-20, 20]
        state, spec = build_qes_state(3, 1.0, level), dshg(3, 1.0)
        grid = np.linspace(-200.0, 200.0, 2001)
        assert residual(state, spec, grid) == pytest.approx(
            residual(state, spec, grid[900:1101]), rel=1e-9)

    def test_csv_has_no_nan(self, capsys):
        argv = ["wavefunction", "--m", "3", "--zeta", "1", "--level", "1",
                "--domain-l", "720", "--format", "csv"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert "nan" not in out.lower() and err == ""


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


def per_level_coeffs(m, zeta, level):
    """The reference for one state's series coefficients, computed for that
    state alone: the whole (N+3) x N table and its termination certificate,
    keeping column level // 2."""
    solution = solve_chain(m, zeta, terminating_chains(m)[level % 2][0])
    spec, crit = solution.spec, len(solution.roots)
    factorials = [float(math.factorial(series_index(spec.kind, j))) for j in range(crit + 3)]
    coeffs = solution.values / np.array(factorials)[:, None]
    tail = np.abs(coeffs[crit:])
    scale = np.max(np.abs(coeffs), axis=0)
    assert np.all(tail <= 1e-9 * scale) and np.all(np.isfinite(scale))
    coeffs[crit:] = 0.0
    return tuple(coeffs[:, level // 2].tolist())


@pytest.fixture
def certified(monkeypatch):
    """The chain kind of every run of ChainSolution.series_coeffs's body."""
    runs = []
    body = spectrum.ChainSolution.series_coeffs.func

    def counting(self):
        runs.append(self.spec.kind)
        return body(self)

    prop = cached_property(counting)
    prop.__set_name__(spectrum.ChainSolution, "series_coeffs")
    monkeypatch.setattr(spectrum.ChainSolution, "series_coeffs", prop)
    return runs


class TestSeriesTable:
    """Each chain solve keeps one certified coefficient table; every state
    of the chain reads its column."""

    def test_one_certificate_per_chain(self, certified):
        first = [build_qes_state(9, 1.0, level) for level in range(9)]
        assert sorted(certified) == ["P", "Q"]
        second = [build_qes_state(9, 1.0, level) for level in range(9)]
        assert len(certified) == 2 and second == first

    def test_a_failed_certificate_is_raised_on_every_call(self, certified):
        errors = []
        for _ in range(2):
            with pytest.raises(QESDomainError, match="series does not terminate") as exc:
                build_qes_state(3, 1e120, 0)
            errors.append(str(exc.value))
        assert errors[0] == errors[1] and certified == ["P", "P"]
        assert "series_coeffs" not in vars(solve_chain(3, 1e120, "P"))

    @pytest.mark.parametrize("zeta", [0.3, 0.5, 1.0, 2.0])
    def test_coeffs_match_the_per_level_computation(self, zeta):
        for m in range(1, 26):
            for level in range(m):
                state = build_qes_state(m, zeta, level)
                assert state.coeffs == per_level_coeffs(m, zeta, level), (m, zeta, level)


def power_sum(state, x, even, odd):
    """The reference for Horner's rule: (exponential, state, scale) with the
    series summed term by term with float powers u**e_j, and the scale
    sum_j |c_j u**e_j| * |prefactor|."""
    x = np.asarray(x, dtype=float)
    u = even(x)
    series, scale = np.zeros_like(u), np.zeros_like(u)
    for j, c in enumerate(state.coeffs):
        if c:
            series = series + c * u ** series_index(state.chain, j)
            scale = scale + abs(c * u ** series_index(state.chain, j))
    damp = np.exp(-0.5 * state.zeta * even(2.0 * x))
    pref = damp * np.sqrt(2.0) * odd(x) if state.s else damp
    return damp, pref * series, np.abs(pref) * scale


def assert_horner_parity(state, new, x, even, odd, far_field_rule):
    with np.errstate(over="ignore", invalid="ignore"):
        damp, old, scale = power_sum(state, x, even, odd)
    if far_field_rule:
        old = np.where((damp == 0.0) & np.isnan(old), 0.0, old)
    new, old = np.asarray(new), np.asarray(old)
    assert np.array_equal(new == 0.0, old == 0.0), state
    assert np.array_equal(np.isfinite(new), np.isfinite(old)), state
    check = np.isfinite(old) & (old != 0.0)
    # where the prefactor is subnormal, the last product on each side rounds
    # by up to half the smallest subnormal, whatever the scale
    k, tiny = sum(1 for c in state.coeffs if c), np.finfo(float).smallest_subnormal
    bound = 2 * (k + 1) * np.finfo(float).eps * scale + tiny
    assert np.all(np.abs(new - old)[check] <= bound[check]), state


class TestHorner:
    """Horner in w = cosh(x)**2 against the float power sum it replaced, within
    the summation bound 2(K+1) eps sum_j |c_j u**e_j| |prefactor|, K nonzero
    coefficients (Higham, Accuracy and Stability of Numerical Algorithms,
    section 5.1), with the same zeros and non-finite values."""

    @pytest.mark.parametrize("zeta", [0.3, 0.5, 1.0, 2.0])
    def test_matches_the_power_sum(self, zeta):
        line = np.linspace(-5.0, 5.0, 2001)
        far = np.array([-1e300, -720.0, -400.0, 400.0, 720.0, 1e300])
        circle = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        for m in range(1, 26):
            for level in range(m):
                state = build_qes_state(m, zeta, level)
                for x in (line, far):
                    assert_horner_parity(state, state.eval(x), x, np.cosh, np.sinh, True)
                for x in far:
                    value = state.eval(x)
                    assert isinstance(value, float)
                    assert_horner_parity(state, value, x, np.cosh, np.sinh, True)
                assert_horner_parity(state, state.eval_dual(circle), circle, np.cos, np.sin,
                                     False)


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
            got, want = aligned(source.eval_dual(theta), closed[k](theta))
            assert np.max(np.abs(got - want)) < 1e-9

    def test_m1_closed_form(self):
        zeta = 1.0
        theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        source = build_qes_state(1, zeta, 0)
        got, want = aligned(source.eval_dual(theta), np.exp(-0.5 * zeta * np.cos(2 * theta)))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_m2_candidates_are_half_turn_odd(self):
        zeta = 1.0
        theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        # the would-be dual states of the even-M well are sin/cos theta types
        got0, want0 = aligned(build_qes_state(2, zeta, 1).eval_dual(theta),
                              np.sin(theta) * np.exp(-0.5 * zeta * np.cos(2 * theta)))
        got2, want2 = aligned(build_qes_state(2, zeta, 0).eval_dual(theta),
                              np.cos(theta) * np.exp(-0.5 * zeta * np.cos(2 * theta)))
        assert np.max(np.abs(got0 - want0)) < 1e-9
        assert np.max(np.abs(got2 - want2)) < 1e-9
