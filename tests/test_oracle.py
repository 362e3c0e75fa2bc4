import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from qespoly import oracle
from qespoly.cli import main
from qespoly.duality import dsg_spectrum
from qespoly.oracle import (
    Discretization,
    OracleConfig,
    OracleError,
    analytic_qes_levels,
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
    potential_eval,
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

    @pytest.mark.parametrize("spec, l", [(harmonic(), 10.0), (dsg(3, 1.0), None)])
    def test_count_is_bounded_by_the_half_resolution_grid(self, spec, l):
        # the zero hint keeps the harmonic line at l = 10 (no enlargement)
        res = lowest_eigenvalues(OracleConfig(spec, l=l, n=64, count=31, e_max_hint=0.0))
        assert len(res.eigenvalues) == len(res.richardson) == len(res.extrapolated) == 31
        with pytest.raises(ValueError, match=r"count must be at most n // 2 - 1 = 31, .* 32"):
            lowest_eigenvalues(OracleConfig(spec, l=l, n=64, count=32))

    def test_line_spectrum_simple_and_increasing(self):
        res = lowest_eigenvalues(OracleConfig(harmonic(), l=10.0, n=2000, count=6))
        diffs = np.diff(res.eigenvalues)
        assert np.all(diffs > 1e-6)


class TestVerifyQes:
    @pytest.mark.parametrize("m", [1, 3, 4])
    def test_line_match(self, m):
        # the oracle solves the M levels it matches and no more
        res = verify_qes(m, 1.0, 1e-4)
        assert res.config.count == m
        assert len(res.eigenvalues) == len(res.richardson) == len(res.matches) == m
        assert max(mt.deviation for mt in res.matches) < 1e-4

    def test_config_is_the_default_dshg_config(self):
        res = verify_qes(3, 1.0)
        assert res.config == oracle._default_config(dshg(3, 1.0), 3)

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
        spec = dsg(2, 1.0)
        res = lowest_eigenvalues(
            OracleConfig(replace(spec, period=2 * spec.period), n=2048, count=10))
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
        # mult potential periods: the circle's length is the spec's period
        cfg = OracleConfig(replace(spec, period=mult * spec.period), n=n, count=10)
        disc = discretize(cfg)
        split = np.sort(np.concatenate(oracle._solve(cfg, (10, 10))[0]))[:10]
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
            oracle._circle_blocks(disc)


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


def _tight_block_levels(config, counts):
    """The lowest counts[b] levels of each whole reflection block b of a line
    or circle grid, bisected to an absolute 1e-14 instead of ulp * ||T||_1."""
    disc = discretize(config)
    blocks = (oracle._circle_blocks(disc) if disc.corner is not None
              else oracle._reflection_blocks(disc.diag, disc.offdiag, "x"))
    return [scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i",
                                              select_range=(0, count - 1), tol=1e-14)
            if count else np.empty(0) for (diag, off), count in zip(blocks, counts)]


def _tight_line_levels(config, k):
    """The k lowest levels of a line grid, from _tight_block_levels."""
    return np.sort(np.concatenate(_tight_block_levels(config, ((k + 1) // 2, k // 2))))


def _sextic_config(family, m):
    levels = analytic_qes_levels(family(m))
    return oracle._default_config(family(m), len(levels) + 4, max(levels))


# line configurations of lowest_eigenvalues: the dshg grids at M + 3 levels and
# the sextic grids at their algebraic levels plus 4 (an `oracle` command can
# ask for them), the kink well, and a domain that must be enlarged;
# verify_qes's own configs, at M levels, are VERIFY_QES_CONFIGS, and the
# duality pairs' block solves are PAIRS
REACHED_CONFIGS = (
    [pytest.param(oracle._default_config(dshg(m, zeta), m + 3), id=f"dshg-m{m}-z{zeta}")
     for m in range(1, 11) for zeta in (0.5, 1.0, 2.0)]
    + [pytest.param(_sextic_config(family, m), id=f"{family.__name__}-m{m}")
       for family in (sextic_plus, sextic_minus) for m in range(8)]
    + [pytest.param(oracle._default_config(phi6_kink(0.5, 1.0), 6, 0.75), id="phi6_kink"),
       pytest.param(OracleConfig(dshg(3, 1.0), l=1.0, n=4000, count=6), id="enlarged")]
)
# the configs verify_qes solves: the default dshg grids at the M levels it matches
VERIFY_QES_CONFIGS = [
    pytest.param(oracle._default_config(dshg(m, zeta), m), id=f"dshg-m{m}-z{zeta}-count{m}")
    for m in range(1, 11) for zeta in (0.5, 1.0, 2.0)]


# the duality pairs whose block solves are checked, with the (even, odd)
# block counts their labels ask of each side
PAIRS = (
    [pytest.param(dshg(m, 1.0), dsg(m, 1.0), counts, id=f"dshg-dsg-m{m}")
     for m, counts in ((1, (1, 0)), (7, (4, 3)), (19, (10, 9)))]
    + [pytest.param(sextic_plus(8), sextic_minus(8), (5, 0), id="sextic-m8"),
       pytest.param(phi6_kink(0.5, 1.0), phi6_kink_dual(0.5, 1.0), (2, 0), id="phi6_kink")]
)


@pytest.fixture
def block_solves(monkeypatch):
    """(config, counts, result) of every oracle._solve call."""
    solves = []
    solve = oracle._solve

    def recording(config, counts, reach=None):
        result = solve(config, counts, reach)
        solves.append((config, counts, result))
        return result

    monkeypatch.setattr(oracle, "_solve", recording)
    return solves


@pytest.fixture
def solved_blocks(monkeypatch):
    """The (rows, count) of every tridiagonal block the oracle solves."""
    sizes = []
    solve = oracle._lowest_tridiagonal

    def recording(diag, offdiag, k):
        sizes.append((len(diag), k))
        return solve(diag, offdiag, k)

    monkeypatch.setattr(oracle, "_lowest_tridiagonal", recording)
    return sizes


class TestReachedRows:
    @pytest.mark.parametrize("config", REACHED_CONFIGS)
    def test_levels_match_a_tight_whole_block_solve(self, config):
        # the whole blocks at their default tolerance are up to 1.2e-9 off
        res = lowest_eigenvalues(config)
        for size, got in ((res.config.n, res.eigenvalues),
                          (res.config.n // 2, res.richardson)):
            want = _tight_line_levels(replace(res.config, n=size), len(got))
            assert np.max(np.abs(np.array(got) - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("config", VERIFY_QES_CONFIGS)
    def test_matched_levels_are_within_the_kept_blocks_tolerance(self, config):
        # bisection stops at ulp * ||T||_1 of the kept rows, at most
        # 4/h^2 + V at the outermost kept row: about 6e-10 on the fine grids,
        # above 1e-10 of the top level where that level is near 2 (M = 1)
        res = lowest_eigenvalues(config)
        assert res.config == config    # no enlargement: the solves below are its own
        counts = ((config.count + 1) // 2, config.count // 2)
        fine = oracle._solve(config, counts)
        coarse = oracle._solve(replace(config, n=config.n // 2), counts, fine[2])
        fine, coarse = ((np.sort(np.concatenate(blocks)), h, reach)
                        for blocks, h, reach in (fine, coarse))
        assert (res.eigenvalues, res.richardson) == (tuple(fine[0]), tuple(coarse[0]))
        for size, (got, h, reach) in ((config.n, fine), (config.n // 2, coarse)):
            assert len(got) == config.count
            norm = 4.0 / h**2 + float(potential_eval(config.spec, reach))
            want = _tight_line_levels(replace(config, n=size), config.count)
            assert np.max(np.abs(got - want)) <= np.finfo(float).eps * norm

    @pytest.mark.parametrize("spec_a, spec_b, counts", PAIRS)
    def test_labelled_levels_are_within_the_kept_blocks_tolerance(
            self, block_solves, spec_a, spec_b, counts):
        # each side's blocks are solved up to its top label, at the default
        # grid and its half; bisection stops at ulp * ||T||_1 of the kept
        # rows, at most 4/h^2 + V at the highest kept row (every row on a circle)
        assert not verify_duality_pair(spec_a, spec_b).rejected
        # two sides, each at two resolutions, none enlarged
        assert [asked for _, asked, _ in block_solves] == [counts] * 4
        for config, _, (levels, h, reach) in block_solves:
            kept = discretize(config).grid if reach is None else reach
            v = float(np.max(potential_eval(config.spec, kept)))
            want = _tight_block_levels(config, counts)
            for got, tight in zip(levels, want):
                assert len(got) == len(tight)
                assert np.max(np.abs(got - tight), initial=0.0) <= np.finfo(float).eps * (4.0 / h**2 + v)

    def test_rows_past_the_reach_are_dropped(self, solved_blocks):
        # dshg(7, 2) at x = 5 is 4.8e8, against levels up to about 130: the
        # first block's window covers its reach, the second keeps only that
        config = oracle._default_config(dshg(7, 2.0), 10)
        _, h, reach = oracle._solve(config, (5, 5))
        assert -0.5 * config.l < reach < 0.0
        assert solved_blocks[0] == (config.n // 2 * 5 // 8, 5)
        assert solved_blocks[1] == (round(-reach / h + 0.5), 5)

    def test_a_short_window_is_grown_once(self, solved_blocks):
        disc = discretize(oracle._default_config(dshg(3, 1.0), 6))
        even, _ = oracle._reflection_blocks(disc.diag, disc.offdiag, "x")
        rows = len(even[0])
        levels, cut = oracle._reached_lowest(even, 3, disc.h, rows - 10)
        assert solved_blocks == [(10, 3), (rows - cut, 3)]
        assert 0 < cut < rows - 10
        want = scipy.linalg.eigvalsh_tridiagonal(
            *even, select="i", select_range=(0, 2), tol=1e-14)
        assert np.max(np.abs(levels - want)) <= 1e-10 * np.max(np.abs(want))
        # the grown window covers the rows its own top level reaches
        assert oracle._first_reached_row(even[0], disc.h, levels[-1]) >= cut

    def test_the_first_window_grows_on_a_slowly_rising_well(self, solved_blocks):
        # x^2 rises too slowly for the rows its levels reach to fit the
        # window that a level at V = 0 sets
        res = lowest_eigenvalues(OracleConfig(harmonic(), l=10.0, n=2000, count=4))
        first, grown = solved_blocks[:2]
        assert first[0] < grown[0] < 1000
        want = _tight_line_levels(res.config, 4)
        assert np.max(np.abs(np.array(res.eigenvalues) - want)) <= 1e-10 * np.max(want)

    def test_a_bounded_well_keeps_every_row(self, solved_blocks):
        # the kink well is bounded by mu^2 = 1: even a level at its minimum
        # decays by less than REACH_DECAY out to the line's end
        config = oracle._default_config(phi6_kink(0.5, 1.0), 6, 0.75)
        res = lowest_eigenvalues(config)
        assert solved_blocks == [(3000, 3), (3000, 3), (1500, 3), (1500, 3)]
        disc = discretize(res.config)
        even, odd = oracle._reflection_blocks(disc.diag, disc.offdiag, "x")
        merged = np.sort(np.concatenate([oracle._lowest_tridiagonal(*even, 3),
                                         oracle._lowest_tridiagonal(*odd, 3)]))
        assert np.array_equal(res.eigenvalues, merged)
        assert oracle._solve(res.config, (3, 3))[2] == disc.grid[0]

    def test_enlargement_is_logged(self, caplog, capsys):
        with caplog.at_level(logging.INFO, logger="qespoly.oracle"):
            res = lowest_eigenvalues(OracleConfig(dshg(3, 1.0), l=1.0, n=4000, count=6))
        steps = [(rec.args[1], rec.args[2]) for rec in caplog.records
                 if rec.name == "qespoly.oracle"]
        assert steps == [(1.0, 1.5), (1.5, 2.25)] and res.config.l == 2.25
        assert all(rec.levelno == logging.INFO for rec in caplog.records)
        # and the console stays quiet by default
        assert main(["oracle", "--family", "dshg", "--m", "3", "--zeta", "1",
                     "--domain-l", "1", "--format", "json"]) == 0
        assert capsys.readouterr().err == ""


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
            OracleConfig(replace(spec, period=2 * spec.period), n=2048, count=6))
        assert min(abs(e + 0.75) for e in res.eigenvalues) < 1e-4
        assert min(abs(e) for e in res.eigenvalues) < 1e-4

    def test_zero_mode_survives_generic_coupling(self):
        spec = phi6_kink_dual(0.3, 1.0)
        res = lowest_eigenvalues(
            OracleConfig(replace(spec, period=2 * spec.period), n=2048, count=6))
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

    # matched by label, no doublet is ambiguous and no sextic level is left
    # uncomputed; by nearest neighbour, dshg/dsg (7, 0.5), (9, 0.5) and (9, 1)
    # raised "ambiguous", sextic M = 8..10 were rejected and M >= 11 raised
    @pytest.mark.parametrize("m", range(1, 20, 2))
    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_dshg_dsg_gate(self, m, zeta):
        rep = verify_duality_pair(dshg(m, zeta), dsg(m, zeta))
        assert not rep.rejected, rep.reason

    @pytest.mark.parametrize("m", range(31))
    def test_sextic_gate(self, m):
        rep = verify_duality_pair(sextic_plus(m), sextic_minus(m))
        assert not rep.rejected, rep.reason

    @pytest.mark.parametrize("spec_a, spec_b", [
        (dshg(9, 1.0), dsg(9, 1.0)), (sextic_plus(8), sextic_minus(8))])
    @pytest.mark.parametrize("index", [0, -1])
    def test_a_shifted_level_is_rejected(self, monkeypatch, spec_a, spec_b, index):
        levels = analytic_qes_levels(spec_a)
        levels[index] += 2e-3
        monkeypatch.setattr(oracle, "analytic_qes_levels", lambda spec: list(levels))
        rep = verify_duality_pair(spec_a, spec_b)
        assert rep.rejected
        assert float(rep.reason.split()[2]) == pytest.approx(2e-3, abs=1e-5)

    @pytest.mark.parametrize("spec_a, spec_b, i, j", [
        (dshg(9, 1.0), dsg(9, 1.0), 0, 2),     # even block ranks 0 and 1
        (dshg(9, 1.0), dsg(9, 1.0), 7, 5),     # odd block ranks 3 and 2
        (sextic_plus(8), sextic_minus(8), 0, 1),
        (phi6_kink(0.5, 1.0), phi6_kink_dual(0.5, 1.0), 0, 1),
    ])
    def test_a_swapped_rank_label_is_rejected(self, monkeypatch, spec_a, spec_b, i, j):
        labels = oracle._block_labels

        def swapped(spec, count):
            out = labels(spec, count)
            assert out[i][0] == out[j][0]
            out[i], out[j] = out[j], out[i]
            return out

        monkeypatch.setattr(oracle, "_block_labels", swapped)
        assert verify_duality_pair(spec_a, spec_b).rejected

    @pytest.mark.parametrize("epsilon_sq", [0.3, 0.5, 0.8])
    def test_the_kink_duals_zero_level_is_even_rank_one(self, epsilon_sq):
        # the circle's nodeless ground state lies below E = 0 at every
        # coupling; it is algebraic only at epsilon^2 = 1/2
        rep = verify_duality_pair(phi6_kink(epsilon_sq, 1.0), phi6_kink_dual(epsilon_sq, 1.0))
        assert not rep.rejected, rep.reason


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

    @pytest.mark.parametrize("m", [2, 4, 24])
    def test_no_dsg_levels_at_even_m(self, m):
        # the candidate states change sign under a half turn (duality.dsg_spectrum)
        with pytest.raises(OracleError, match=f"no dsg levels at M = {m}: candidate states"
                                              " change sign under a half turn"):
            analytic_qes_levels(dsg(m, 1.0))

    @pytest.mark.parametrize("m", [1, 3, 9])
    def test_dsg_levels_at_odd_m_are_the_dsg_spectrum(self, m):
        assert analytic_qes_levels(dsg(m, 1.0)) == dsg_spectrum(m, 1.0).energies()

    def test_non_integer_m_is_a_domain_error(self):
        # not truncated to the M = 2 levels
        with pytest.raises(QESDomainError, match="positive integer M"):
            analytic_qes_levels(dshg(2.5, 1.0))
        with pytest.raises(QESDomainError, match="positive integer M"):
            verify_duality_pair(dshg(2.5, 1.0), dsg(2.5, 1.0))
