import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from qespoly import oracle
from qespoly.cli import main
from qespoly.oracle import (
    Discretization,
    OracleConfig,
    OracleError,
    analytic_qes_levels,
    circle_eigenvalues,
    discretize,
    lowest_eigenvalues,
    match_levels,
    verify_duality_pair,
    verify_qes,
)
from qespoly.potentials import (
    dsg,
    dshg,
    harmonic,
    phi6_kink,
    phi6_kink_dual,
    sextic_minus,
    sextic_plus,
)
from qespoly.spectrum import QESDomainError, qes_energies


class TestDiscretize:
    def test_free_laplacian_stencil(self):
        # 3 interior points, h = 1 (l = 2); the bare stencil is the diagonal
        # with V = x**2 taken off
        disc = discretize(OracleConfig(harmonic(), l=2.0, n=3))
        assert disc.h == pytest.approx(1.0)
        assert disc.diag - disc.grid**2 == pytest.approx(np.full(3, 2.0 / disc.h**2))
        assert disc.offdiag == pytest.approx([-1.0, -1.0])
        assert disc.corner is None

    def test_potential_enters_diagonal(self):
        disc = discretize(OracleConfig(harmonic(), l=2.0, n=3))
        assert disc.diag == pytest.approx(2.0 + disc.grid**2)

    def test_dshg_diagonal_at_origin(self):
        cfg = OracleConfig(dshg(3, 1.0), l=5.0, n=7999)
        disc = discretize(cfg)
        mid = 3999
        assert disc.grid[mid] == pytest.approx(0.0, abs=1e-12)
        assert disc.diag[mid] == pytest.approx(2.0 / disc.h**2 + 4.0)

    def test_circle_has_corner(self):
        disc = discretize(OracleConfig(dsg(3, 1.0), n=256))
        assert disc.corner == pytest.approx(-1.0 / disc.h**2)
        assert disc.h == pytest.approx(math.pi / 256)

    @pytest.mark.parametrize("l", [math.nan, math.inf, 0.0, -1.0, None])
    def test_line_half_width_must_be_positive_and_finite(self, l):
        with pytest.raises(ValueError, match="positive finite half-width"):
            OracleConfig(dshg(3, 1.0), l=l, n=256)

    def test_hint_leaves_domain_check_to_the_solve(self):
        # the domain rule belongs to lowest_eigenvalues, which can enlarge
        cfg = OracleConfig(harmonic(), l=1.0, n=128, e_max_hint=100.0)
        assert len(discretize(cfg).diag) == 128


class TestHarmonicSanity:
    def test_spectrum_and_richardson(self):
        res = lowest_eigenvalues(OracleConfig(harmonic(), l=10.0, n=4000, count=3))
        exact = [1.0, 3.0, 5.0]
        for k in range(3):
            assert res.eigenvalues[k] == pytest.approx(exact[k], abs=1e-4)
            ratio = (res.richardson[k] - exact[k]) / (res.eigenvalues[k] - exact[k])
            assert 3.6 <= ratio <= 4.4

    def test_extrapolation_improves(self):
        res = lowest_eigenvalues(OracleConfig(harmonic(), l=10.0, n=2000, count=1))
        assert abs(res.extrapolated[0] - 1.0) < abs(res.eigenvalues[0] - 1.0)

    def test_line_spectrum_simple_and_increasing(self):
        res = lowest_eigenvalues(OracleConfig(harmonic(), l=10.0, n=2000, count=6))
        diffs = np.diff(res.eigenvalues)
        assert np.all(diffs > 1e-6)


class TestVerifyQes:
    @pytest.mark.parametrize("m", [1, 3, 4])
    def test_line_match(self, m):
        res = verify_qes(m, 1.0, 1e-4)
        assert len(res.matches) == m
        assert max(mt.deviation for mt in res.matches) < 1e-4

    def test_config_is_the_default_dshg_config(self):
        res = verify_qes(3, 1.0)
        assert res.config == oracle._default_config(dshg(3, 1.0), 6)

    def test_matched_levels_are_prefix_of_spectrum(self):
        # the M algebraic levels are the lowest M levels of the well
        res = verify_qes(3, 1.0, 1e-4)
        assert sorted(mt.oracle_index for mt in res.matches) == [0, 1, 2]

    def test_doublet_is_matched_by_node_rank(self):
        # M = 9 at zeta 1 holds near-degenerate tunnelling doublets, which
        # nearest-neighbour matching rejected as ambiguous
        res = verify_qes(9, 1.0, 1e-3)
        report = qes_energies(9, 1.0)
        assert [mt.oracle_index for mt in res.matches] == [lv.nodes for lv in report.levels]
        assert [mt.oracle for mt in res.matches] == list(res.eigenvalues[:9])
        with pytest.raises(OracleError, match="QES level deviates"):
            verify_qes(9, 1.0, 1e-4)

    def test_match_injectivity_guard(self):
        with pytest.raises(OracleError, match="ambiguous"):
            match_levels([1.0, 1.001], [1.0005, 25.0])


class TestCircleOracle:
    def test_dsg_m3_contains_dual_levels(self):
        res = lowest_eigenvalues(OracleConfig(dsg(3, 1.0), n=1024, count=6))
        root = math.sqrt(5.0)
        for want in (-8 - 2 * root, -6.0, -8 + 2 * root):
            assert min(abs(e - want) for e in res.eigenvalues) < 1e-4

    def test_dsg_m2_rejection(self):
        # no pi-periodic eigenvalue near the negated line levels
        res = lowest_eigenvalues(OracleConfig(dsg(2, 1.0), n=1024, count=8))
        for e_line in qes_energies(2, 1.0).energies():
            assert min(abs(e + e_line) for e in res.eigenvalues) > 1e-3

    def test_dsg_m2_doubled_circle_recovers_candidates(self):
        # the rejected candidates are antiperiodic: they live on the 2 pi cover
        res = lowest_eigenvalues(
            OracleConfig(dsg(2, 1.0), n=2048, count=10, period_multiplier=2))
        for e_line in qes_energies(2, 1.0).energies():
            assert min(abs(e + e_line) for e in res.eigenvalues) < 1e-4

    def test_lower_bound(self):
        m, zeta = 3, 1.0
        res = lowest_eigenvalues(OracleConfig(dsg(m, zeta), n=512, count=10))
        assert all(e >= -((m + zeta) ** 2) - 1e-6 for e in res.eigenvalues)


def _dense_periodic_levels(disc, k):
    """The k lowest eigenvalues of the full n x n periodic matrix."""
    n = len(disc.diag)
    mat = np.diag(disc.diag)
    idx = np.arange(n - 1)
    mat[idx, idx + 1] = disc.offdiag
    mat[idx + 1, idx] = disc.offdiag
    mat[0, -1] += disc.corner
    mat[-1, 0] += disc.corner
    return scipy.linalg.eigh(mat, eigvals_only=True, subset_by_index=[0, k - 1])


class TestReflectionSplit:
    @pytest.mark.parametrize("n", [64, 65, 1000, 1001])
    @pytest.mark.parametrize("spec, mult", [
        (dsg(3, 1.0), 1),
        (dsg(2, 1.0), 2),
        (phi6_kink_dual(0.5, 1.0), 1),
        (phi6_kink_dual(0.5, 1.0), 2),
    ])
    def test_matches_dense_periodic_solve(self, spec, mult, n):
        cfg = OracleConfig(spec, n=n, count=10, period_multiplier=mult)
        disc = discretize(cfg)
        split = circle_eigenvalues(disc, 10)
        dense = _dense_periodic_levels(disc, 10)
        assert len(split) == 10
        assert np.max(np.abs(split - dense)) <= 1e-13 * 4.0 / disc.h**2

    def test_odd_grid_through_lowest_eigenvalues(self):
        # n = 2002 puts the half-resolution grid at the odd size 1001
        res = lowest_eigenvalues(OracleConfig(dsg(3, 1.0), n=2002, count=6))
        coarse = discretize(OracleConfig(dsg(3, 1.0), n=1001, count=6))
        assert res.richardson == pytest.approx(
            _dense_periodic_levels(coarse, 6), abs=1e-13 * 4.0 / coarse.h**2)

    def test_uneven_potential_is_rejected(self):
        n = 64
        h = 2.0 * math.pi / n
        grid = h * np.arange(n)
        diag = 2.0 / h**2 + np.sin(grid)   # odd in theta
        disc = Discretization(diag, np.full(n - 1, -1.0 / h**2), -1.0 / h**2, grid, h)
        with pytest.raises(OracleError, match="not even in theta"):
            circle_eigenvalues(disc, 4)


def _unsplit_line_levels(disc, k):
    """The k lowest eigenvalues of the full line matrix, and the bisection
    accuracy eps * ||T||_1 that both solves are held to."""
    levels = scipy.linalg.eigvalsh_tridiagonal(
        disc.diag, disc.offdiag, select="i", select_range=(0, k - 1))
    off = np.abs(disc.offdiag)
    norm1 = np.max(np.abs(disc.diag) + np.append(off, 0.0) + np.append(0.0, off))
    return levels, np.finfo(float).eps * norm1


# (spec, half-width, e_max_hint); the kink well is bounded by mu^2 = 1, so its
# upper levels are box states and its domain rule needs the hint
LINE_SPECS = [
    pytest.param(dshg(3, 1.0), 5.0, None, id="dshg-m3"),
    pytest.param(dshg(9, 1.0), 5.0, None, id="dshg-m9"),
    pytest.param(sextic_plus(2), 8.0, None, id="sextic_plus-m2"),
    pytest.param(sextic_minus(3), 8.0, None, id="sextic_minus-m3"),
    pytest.param(phi6_kink(0.5, 1.0), 12.0, 0.75, id="phi6_kink"),
    pytest.param(harmonic(), 10.0, None, id="harmonic"),
]


class TestLineReflectionSplit:
    @pytest.mark.parametrize("n", [64, 65, 1000, 1001])
    @pytest.mark.parametrize("count", [9, 10])
    @pytest.mark.parametrize("spec, l, hint", LINE_SPECS)
    def test_matches_unsplit_solve(self, spec, l, hint, n, count):
        # split and unsplit bisection each land within eps * ||T||_1 of the
        # true eigenvalue, so they agree to a few times that
        res = lowest_eigenvalues(
            OracleConfig(spec, l=l, n=n, count=count, e_max_hint=hint))
        for size, got in ((n, res.eigenvalues), (n // 2, res.richardson)):
            disc = discretize(replace(res.config, n=size))
            want, accuracy = _unsplit_line_levels(disc, count)
            assert len(got) == count
            assert np.max(np.abs(np.array(got) - want)) <= 4.0 * accuracy

    @pytest.mark.parametrize("n", [64, 65, 1000, 1001])
    @pytest.mark.parametrize("l", [0.7, 5.0, 8.0, 12.0])
    def test_grid_is_exactly_antisymmetric(self, n, l):
        grid = discretize(OracleConfig(harmonic(), l=l, n=n)).grid
        assert np.array_equal(grid, -grid[::-1])
        assert grid[-1] - grid[0] == pytest.approx(2.0 * l * (n - 1) / (n + 1), rel=1e-14)

    def test_uneven_potential_is_rejected(self, monkeypatch):
        monkeypatch.setattr(oracle, "potential_eval", lambda spec, x: x * x + 0.1 * x)
        with pytest.raises(OracleError, match="not even in x"):
            lowest_eigenvalues(OracleConfig(harmonic(), l=10.0, n=200, count=3))

    def test_odd_grid_n_through_the_cli(self, capsys):
        code = main(["oracle", "--family", "dshg", "--m", "3", "--zeta", "1",
                     "--grid-n", "2001", "--count", "5", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        for size, key in ((2001, "eigenvalues"), (1000, "richardson")):
            disc = discretize(OracleConfig(dshg(3, 1.0), l=5.0, n=size))
            want, accuracy = _unsplit_line_levels(disc, 5)
            assert np.max(np.abs(np.array(doc[key]) - want)) <= 4.0 * accuracy


class TestKinkWells:
    def test_line_levels(self):
        spec = phi6_kink(0.5, 1.0)
        res = lowest_eigenvalues(OracleConfig(spec, l=12.0, n=6000, count=4))
        assert min(abs(e - 0.0) for e in res.eigenvalues) < 1e-4
        assert min(abs(e - 0.75) for e in res.eigenvalues) < 1e-4

    def test_dual_single_period_has_only_ground(self):
        spec = phi6_kink_dual(0.5, 1.0)
        res = lowest_eigenvalues(OracleConfig(spec, n=1024, count=6))
        assert min(abs(e + 0.75) for e in res.eigenvalues) < 1e-4
        assert min(abs(e) for e in res.eigenvalues) > 1e-3

    def test_dual_double_cover_has_both(self):
        spec = phi6_kink_dual(0.5, 1.0)
        res = lowest_eigenvalues(
            OracleConfig(spec, n=2048, count=6, period_multiplier=2))
        assert min(abs(e + 0.75) for e in res.eigenvalues) < 1e-4
        assert min(abs(e) for e in res.eigenvalues) < 1e-4

    def test_zero_mode_survives_generic_coupling(self):
        spec = phi6_kink_dual(0.3, 1.0)
        res = lowest_eigenvalues(
            OracleConfig(spec, n=2048, count=6, period_multiplier=2))
        assert min(abs(e) for e in res.eigenvalues) < 1e-4

    def test_bounded_well_domain_rule(self):
        # the 10x dominance rule can never hold for sup V = mu^2; the tail
        # criterion accepts a wide enough box instead
        spec = phi6_kink(0.5, 1.0)
        res = lowest_eigenvalues(OracleConfig(spec, l=12.0, n=4000, count=3))
        assert len(res.eigenvalues) == 3

    def test_hinted_domain_is_enlarged(self):
        cfg = OracleConfig(phi6_kink(0.5, 0.5), l=12.0, n=6000, count=2, e_max_hint=0.1875)
        assert lowest_eigenvalues(cfg).config.l > 12.0


class TestDualityPairs:
    def test_dshg_dsg_m3(self):
        rep = verify_duality_pair(dshg(3, 1.0), dsg(3, 1.0), 1e-4)
        assert not rep.rejected
        assert rep.pairs == ((0, 2), (1, 1), (2, 0))

    @pytest.mark.parametrize("zeta", [1.0, 2.0])
    def test_dshg_dsg_m7_default_grids(self, zeta):
        # on a 1024-point circle the discretization error alone exceeds 1e-3
        rep = verify_duality_pair(dshg(7, zeta), dsg(7, zeta))
        assert not rep.rejected, rep.reason

    def test_sextic_m1(self):
        rep = verify_duality_pair(sextic_plus(1), sextic_minus(1), 1e-3)
        assert not rep.rejected
        assert rep.source == pytest.approx([3.0])
        assert rep.dual == pytest.approx([-3.0])

    def test_sextic_m2_reversal(self):
        rep = verify_duality_pair(sextic_plus(2), sextic_minus(2), 1e-3)
        assert not rep.rejected
        root = 2 * math.sqrt(3.0)
        assert rep.source == pytest.approx([3 - root, 3 + root], rel=1e-9)
        assert rep.dual == pytest.approx([-3 - root, -3 + root], rel=1e-9)

    def test_kink_pair(self):
        rep = verify_duality_pair(phi6_kink(0.5, 1.0), phi6_kink_dual(0.5, 1.0), 1e-3)
        assert not rep.rejected
        assert rep.source == pytest.approx([0.0, 0.75])
        assert rep.dual == pytest.approx([-0.75, 0.0])


class TestAnalyticLevels:
    def test_dispatch(self):
        assert analytic_qes_levels(dshg(3, 1.0)) == pytest.approx(
            qes_energies(3, 1.0).energies())
        assert analytic_qes_levels(sextic_minus(1)) == pytest.approx([-3.0])
        assert analytic_qes_levels(phi6_kink(0.3, 1.0)) == pytest.approx([0.0])
        assert analytic_qes_levels(phi6_kink(0.5, 2.0)) == pytest.approx([0.0, 3.0])
        # circle families: the dual energies of the line preimage's levels
        assert analytic_qes_levels(dsg(3, 1.0)) == pytest.approx(
            [-e for e in reversed(qes_energies(3, 1.0).energies())])
        assert analytic_qes_levels(phi6_kink_dual(0.5, 1.0)) == pytest.approx([-0.75, 0.0])
        assert analytic_qes_levels(phi6_kink_dual(0.5, 2.0)) == pytest.approx([-3.0, 0.0])
        assert analytic_qes_levels(phi6_kink_dual(0.3, 1.0)) == pytest.approx([0.0])

    def test_non_integer_m_is_a_domain_error(self):
        # not truncated to the M = 2 levels
        with pytest.raises(QESDomainError, match="positive integer M"):
            analytic_qes_levels(dshg(2.5, 1.0))
        with pytest.raises(QESDomainError, match="positive integer M"):
            verify_duality_pair(dshg(2.5, 1.0), dsg(2.5, 1.0))
