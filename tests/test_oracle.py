import json
import logging
import math
import re
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
        # the top of the 31 harmonic levels on this coarse grid decays by
        # DOMAIN_DECAY before x = 10, so the line stays at l = 10
        res = lowest_eigenvalues(OracleConfig(spec, l=l, n=64, count=31))
        assert len(res.eigenvalues) == len(res.richardson) == len(res.extrapolated) == 31
        with pytest.raises(ValueError, match=r"count must be at most n // 2 - 1 = 31, .* 32"):
            lowest_eigenvalues(OracleConfig(spec, l=l, n=64, count=32))

    def test_line_spectrum_simple_and_increasing(self):
        res = lowest_eigenvalues(OracleConfig(harmonic(), l=10.0, n=2000, count=6))
        diffs = np.diff(res.eigenvalues)
        assert np.all(diffs > 1e-6)


class TestVerifyQes:
    # at zeta = 1e-3 the top level turns near x = 5, so the default l = 5
    # ends its decay almost at once, and the line is enlarged
    @pytest.mark.parametrize("m, zeta", [
        pytest.param(1, 1.0, id="1"), pytest.param(3, 1.0, id="3"), pytest.param(4, 1.0, id="4"),
        pytest.param(2, 1e-3, id="2-z0.001"), pytest.param(3, 1e-3, id="3-z0.001"),
        pytest.param(5, 1e-3, id="5-z0.001")])
    def test_line_match(self, m, zeta):
        # the oracle solves the M levels it matches and no more
        res = verify_qes(m, zeta, 1e-4)
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


class TestLineDomain:
    """A line domain is accepted once the top solved level decays by
    DOMAIN_DECAY e-folds from its outer turning point to the line's end."""

    def test_small_zeta_doublets_by_label(self):
        levels = qes_energies(9, 2e-3).energies()
        assert oracle._labelled_deviation(dshg(9, 2e-3), levels) <= 1e-4

    def test_kink_levels_on_the_default_domain(self):
        assert oracle._labelled_deviation(phi6_kink(0.5, 1.0), [0.0, 0.75]) <= 1e-6

    def test_oracle_command_at_small_zeta(self, capsys):
        args = ["--m", "5", "--zeta", "0.001", "--format", "json"]
        assert main(["oracle", "--family", "dshg", "--count", "5", *args]) == 0
        extrapolated = json.loads(capsys.readouterr().out)["extrapolated"]
        assert main(["spectrum", *args]) == 0
        levels = [lv["E"] for lv in json.loads(capsys.readouterr().out)["levels"]]
        assert len(extrapolated) == len(levels) == 5
        assert max(abs(a - b) for a, b in zip(extrapolated, levels)) <= 1e-4

    def test_the_json_names_the_solved_half_width(self, capsys):
        # the levels at (5, 1e-3) come from one enlargement on, at l = 7.5
        args = ["--family", "dshg", "--m", "5", "--zeta", "0.001", "--format", "json"]
        assert main(["oracle", *args]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["manifest"]["params"]["domain_l"], doc["l"]) == (5.0, 7.5)
        # a circle has no half-width
        assert main(["oracle", "--family", "dsg", "--m", "3", "--zeta", "1", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["l"] is None

    def test_the_decay_is_walked_from_the_turning_point(self):
        # at (5, 1e-3) the top level turns at x = 4.95, and l = 5 ends its
        # decay there, though sqrt(V(5) - E) * 5 = 16.6 counted from x = 0
        config = oracle._default_config(dshg(5, 1e-3), 5)
        disc = discretize(config)
        even, _ = oracle._reflection_blocks(disc.diag, disc.offdiag, "x")
        e_top = qes_energies(5, 1e-3).energies()[-1]
        _, decay = oracle._first_reached_row(even[0], disc.h, e_top)
        assert 0.0 < decay < oracle.DOMAIN_DECAY
        # a level above the potential at the line's end does not decay
        e_box = float(potential_eval(config.spec, config.l)) + 1.0
        assert oracle._first_reached_row(even[0], disc.h, e_box)[1] == 0.0

    def test_box_states_end_in_a_named_error(self, capsys):
        # the kink well's levels from the fifth up lie at or above sup V = 1,
        # and the error names the four below it
        assert main(["oracle", "--family", "phi6_kink"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.fullmatch(r"error: domain too small: the top level 1\.00\d* decays by 0 of "
                            r"5\.5 e-folds to the line's end at l = 85\.4297; only 4 of the 6 "
                            r"levels asked lie below V = 1 there\n", err)

    @pytest.mark.parametrize("spec, count, bound", [
        pytest.param(phi6_kink(0.3, 2.0), 5, 4, id="kink-0.3-2"),
        pytest.param(dshg(3, 0.0), 2, 0, id="constant-well"),
    ])
    def test_a_domain_error_counts_the_levels_below_the_ends_potential(self, spec, count, bound):
        config = OracleConfig(spec, l=400.0 if spec.family == "dshg" else 18.0, n=2048, count=count)
        with pytest.raises(OracleError, match=f"; only {bound} of the {count} levels asked"):
            lowest_eigenvalues(config)


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
        split = np.sort(np.concatenate(oracle._solve(disc, (10, 10))[0]))[:10]
        dense = _dense_periodic_levels(disc, 10)
        assert len(split) == 10
        assert np.max(np.abs(split - dense)) <= 1e-13 * 4.0 / disc.h**2

    def test_odd_grid_through_lowest_eigenvalues(self):
        # n = 2002 puts the half-resolution grid at the odd size 1001
        res = lowest_eigenvalues(OracleConfig(dsg(3, 1.0), n=2002, count=6))
        coarse = discretize(OracleConfig(dsg(3, 1.0), n=1001, count=6))
        assert res.richardson == pytest.approx(
            _dense_periodic_levels(coarse, 6), abs=1e-13 * 4.0 / coarse.h**2)

    def test_a_coarse_even_grid_is_accepted(self, capsys):
        # dsg (7, 1) at n = 256: its 16-point base grid's diagonal 2/h^2 + V
        # is 15 where |V| reaches 64, and V's rounding is eps * |V|
        code = main(["oracle", "--family", "dsg", "--m", "7", "--zeta", "1",
                     "--grid-n", "256", "--count", "4"])
        assert (code, capsys.readouterr().err) == (0, "")

    def test_uneven_potential_is_rejected(self):
        n = 64
        h = 2.0 * math.pi / n
        grid = h * np.arange(n)
        diag = 2.0 / h**2 + np.sin(grid)   # odd in theta
        disc = Discretization(diag, np.full(n - 1, -1.0 / h**2), -1.0 / h**2, grid, h)
        with pytest.raises(OracleError, match="not even in theta"):
            oracle._blocks(disc)


def _unsplit_line_levels(disc, k):
    """The k lowest eigenvalues of the full line matrix, and the bisection
    accuracy eps * ||T||_1 that both solves are held to."""
    levels = scipy.linalg.eigvalsh_tridiagonal(
        disc.diag, disc.offdiag, select="i", select_range=(0, k - 1))
    off = np.abs(disc.offdiag)
    norm1 = np.max(np.abs(disc.diag) + np.append(off, 0.0) + np.append(0.0, off))
    return levels, np.finfo(float).eps * norm1


# (spec, half-width, counts); the kink well is bounded by mu^2 = 1, so its
# levels from the fifth up are box states, which never decay and which no
# line domain holds; l = 18 holds its lowest three bound states
LINE_SPECS = [
    pytest.param(spec, l, count, id=f"{name}-{count}")
    for spec, l, counts, name in [
        (dshg(3, 1.0), 5.0, (9, 10), "dshg-m3"),
        (dshg(9, 1.0), 5.0, (9, 10), "dshg-m9"),
        (sextic_plus(2), 8.0, (9, 10), "sextic_plus-m2"),
        (sextic_minus(3), 8.0, (9, 10), "sextic_minus-m3"),
        (phi6_kink(0.5, 1.0), 18.0, (2, 3), "phi6_kink"),
        (harmonic(), 10.0, (9, 10), "harmonic"),
    ]
    for count in counts
]


class TestLineReflectionSplit:
    @pytest.mark.parametrize("n", [64, 65, 1000, 1001])
    @pytest.mark.parametrize("spec, l, count", LINE_SPECS)
    def test_matches_unsplit_solve(self, spec, l, count, n):
        # split and unsplit bisection each land within eps * ||T||_1 of the
        # true eigenvalue, so they agree to a few times that
        res = lowest_eigenvalues(OracleConfig(spec, l=l, n=n, count=count))
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


def _tight_block_levels(disc, counts):
    """The lowest counts[b] levels of each whole reflection block b of a line
    or circle grid, bisected to an absolute 1e-14 instead of ulp * ||T||_1."""
    return [scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i",
                                              select_range=(0, count - 1), tol=1e-14)
            if count else np.empty(0) for (diag, off), count in zip(oracle._blocks(disc), counts)]


def _tight_line_levels(config, k):
    """The k lowest levels of a line grid, from _tight_block_levels."""
    return np.sort(np.concatenate(_tight_block_levels(discretize(config), ((k + 1) // 2, k // 2))))


def _sextic_config(family, m):
    levels = analytic_qes_levels(family(m))
    return oracle._default_config(family(m), len(levels) + 4)


# line configurations of lowest_eigenvalues: the dshg grids at M + 3 levels and
# the sextic grids at their algebraic levels plus 4 (an `oracle` command can
# ask for them), the kink well at its lowest three bound states, a domain
# that must be enlarged, and a lone level near 2, whose 1e-10 is the tightest;
# verify_qes's own configs, at M levels, are VERIFY_QES_CONFIGS, and the
# duality pairs' block solves are PAIRS
REACHED_CONFIGS = (
    [pytest.param(oracle._default_config(dshg(m, zeta), m + 3), id=f"dshg-m{m}-z{zeta}")
     for m in range(1, 11) for zeta in (0.5, 1.0, 2.0)]
    + [pytest.param(_sextic_config(family, m), id=f"{family.__name__}-m{m}")
       for family in (sextic_plus, sextic_minus) for m in range(8)]
    + [pytest.param(oracle._default_config(phi6_kink(0.5, 1.0), 3), id="phi6_kink"),
       pytest.param(OracleConfig(dshg(3, 1.0), l=1.0, n=4000, count=6), id="enlarged"),
       pytest.param(oracle._default_config(dshg(1, 1.0), 1), id="dshg-m1-z1.0-count1")]
)
# the configs verify_qes solves: the default dshg grids at the M levels it
# matches; at small zeta the wells sit near the line's ends, and the levels
# are accepted one enlargement on, at l = 7.5
VERIFY_QES_CONFIGS = [
    pytest.param(oracle._default_config(dshg(m, zeta), m), id=f"dshg-m{m}-z{zeta}-count{m}")
    for m in range(1, 11) for zeta in (0.5, 1.0, 2.0)] + [
    pytest.param(replace(oracle._default_config(dshg(m, zeta), m), l=7.5),
                 id=f"dshg-m{m}-z{zeta}-count{m}-l7.5")
    for m, zeta in ((2, 1e-3), (3, 1e-3), (5, 1e-3), (9, 2e-3))]

# the dshg grids of the golden `oracle --count 4` records (tests/golden):
# the command's default domain and grid, l = 5 and n = 2048, at M = 1..5
CLI_CONFIGS = [
    pytest.param(OracleConfig(dshg(m, zeta), l=5.0, n=2048, count=4), id=f"dshg-m{m}-z{zeta}")
    for m in range(1, 6) for zeta in (0.5, 1.0, 2.0)]


# the duality pairs whose block solves are checked, with the (even, odd)
# block counts their labels ask of each side and whether both sides' base
# grids resolve those levels (_base_levels)
PAIRS = (
    [pytest.param(dshg(m, 1.0), dsg(m, 1.0), counts, based, id=f"dshg-dsg-m{m}")
     for m, counts, based in ((1, (1, 0), True), (7, (4, 3), True), (19, (10, 9), False))]
    + [pytest.param(sextic_plus(8), sextic_minus(8), (5, 0), False, id="sextic-m8"),
       pytest.param(phi6_kink(0.5, 1.0), phi6_kink_dual(0.5, 1.0), (2, 0), True, id="phi6_kink")]
)


def _replay(config, counts, merged=None):
    """The (discretization, solve) of lowest_eigenvalues on config's domain,
    fine grid and half grid, and the block counts those two rungs solved.

    The coarsest rung solved is the base grid where it resolves the levels,
    else the half grid, bisected.  With `merged`, a circle's k, each block's
    count is its share of that rung's k lowest levels plus one, at most k.
    The base grid's levels seed the half grid's; the fine grid is seeded
    with the h^2 prediction from the base and half levels, or with the half
    levels where there is no base."""
    base = oracle._base_levels(config, counts)
    half, fine = discretize(replace(config, n=config.n // 2)), discretize(config)
    coarse = None if base else oracle._solve(half, counts)
    coarsest = base[0] if base else coarse[0]
    if merged:
        blocks = np.repeat([0, 1], [len(coarsest[0]), len(coarsest[1])])
        lowest = blocks[np.argsort(np.concatenate(coarsest), kind="stable")[:merged]]
        counts = tuple(min(int(np.count_nonzero(lowest == b)) + 1, merged) for b in (0, 1))
    seeds = [levels[:k] for levels, k in zip(coarsest, counts)]
    if base:
        coarse = oracle._solve(half, counts, tuple(seeds))
        h_base = discretize(replace(config, n=config.n // oracle.BASE_DIVISION)).h
        seeds = [c + (c - b) * (fine.h**2 - half.h**2) / (half.h**2 - h_base**2)
                 for b, c in zip(seeds, coarse[0])]
    return (fine, oracle._solve(fine, counts, tuple(seeds))), (half, coarse), counts


@pytest.fixture
def block_solves(monkeypatch):
    """(discretization, counts, result) of every oracle._solve call."""
    solves, solve = [], oracle._solve

    def recording(disc, counts, seeds=None, blocks=None):
        result = solve(disc, counts, seeds, blocks)
        solves.append((disc, counts, result))
        return result

    monkeypatch.setattr(oracle, "_solve", recording)
    return solves


@pytest.fixture
def solved_blocks(monkeypatch):
    """The (rows, count) of every tridiagonal block the oracle bisects or
    refines, in the order it solves them."""
    sizes = []
    bisect, refine = oracle._lowest_tridiagonal, oracle._refined_lowest

    def bisecting(diag, offdiag, k):
        sizes.append((len(diag), k))
        return bisect(diag, offdiag, k)

    def refining(diag, offdiag, k, seeds):
        if seeds is not None:    # a block without seeds is recorded as bisected
            sizes.append((len(diag), k))
        return refine(diag, offdiag, k, seeds)

    monkeypatch.setattr(oracle, "_lowest_tridiagonal", bisecting)
    monkeypatch.setattr(oracle, "_refined_lowest", refining)
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
        fine, coarse = ((np.sort(np.concatenate(blocks)), disc.h, reach)
                        for disc, (blocks, reach, _) in _replay(config, counts)[:2])
        assert (res.eigenvalues, res.richardson) == (tuple(fine[0]), tuple(coarse[0]))
        for size, (got, h, reach) in ((config.n, fine), (config.n // 2, coarse)):
            assert len(got) == config.count
            norm = 4.0 / h**2 + float(potential_eval(config.spec, reach))
            want = _tight_line_levels(replace(config, n=size), config.count)
            assert np.max(np.abs(got - want)) <= np.finfo(float).eps * norm

    @pytest.mark.parametrize("config", CLI_CONFIGS)
    def test_half_grid_levels_are_within_the_bisected_windows_tolerance(
            self, solved_blocks, config):
        # the half grid is bisected on the rows E* reaches, so its rounding is
        # that of those rows: ulp * ||T||_1 of the rows bisected, at most
        # 4/h^2 + V at the outermost of them, the x the solve returns
        assert lowest_eigenvalues(config).config == config
        half = replace(config, n=config.n // 2)
        counts = ((config.count + 1) // 2, config.count // 2)
        del solved_blocks[:]
        disc = discretize(half)
        levels, reach, _ = oracle._solve(disc, counts)
        outermost = disc.grid[half.n // 2 - max(rows for rows, _ in solved_blocks)]
        assert outermost == reach
        norm = 4.0 / disc.h**2 + float(potential_eval(config.spec, outermost))
        for got, tight in zip(levels, _tight_block_levels(disc, counts)):
            assert len(got) == len(tight)
            assert np.max(np.abs(got - tight)) <= np.finfo(float).eps * norm

    @pytest.mark.parametrize("spec_a, spec_b, counts, based", PAIRS)
    def test_labelled_levels_are_within_the_kept_blocks_tolerance(
            self, block_solves, spec_a, spec_b, counts, based):
        # each side's blocks are solved up to its top label, at the default
        # grid, its half and, where it resolves them, its base grid;
        # bisection stops at ulp * ||T||_1 of the kept rows, at most
        # 4/h^2 + V at the outermost row solved on, the x each solve
        # returns (every row on a circle)
        assert not verify_duality_pair(spec_a, spec_b).rejected
        # two sides, each at two or three resolutions, none enlarged
        sizes = []
        for spec in (spec_a, spec_b):
            n = oracle._default_config(spec, 1).n
            sizes += [(spec, n // oracle.BASE_DIVISION)] * based + [(spec, n // 2), (spec, n)]
        assert [(len(disc.grid), asked) for disc, asked, _ in block_solves] == [
            (n, counts) for _, n in sizes]
        for (disc, _, (levels, reach, _)), (spec, _) in zip(block_solves, sizes):
            grid, h = disc.grid, disc.h
            kept = grid if reach is None else reach
            v = float(np.max(potential_eval(spec, kept)))
            want = _tight_block_levels(disc, counts)
            for got, tight in zip(levels, want):
                assert len(got) == len(tight)
                assert np.max(np.abs(got - tight), initial=0.0) <= np.finfo(float).eps * (4.0 / h**2 + v)

    @pytest.mark.parametrize("m", range(10, 21))
    def test_a_line_solve_bisects_each_block_once(self, monkeypatch, m):
        # the gate accepts the base rung at M = 10..14: its Sturm count at E*
        # puts each block's top level below E*.  From M = 15 it declines it,
        # and the half rung's E* lies far above the levels.  Either way the
        # rows E* reaches hold the levels' and are not regrown
        bisected, bisect = [], oracle._lowest_tridiagonal

        def counting(diag, offdiag, k):
            if k >= 1:
                bisected.append(len(diag))
            return bisect(diag, offdiag, k)

        monkeypatch.setattr(oracle, "_lowest_tridiagonal", counting)
        config = oracle._default_config(dshg(m, 0.5), m)
        lowest_eigenvalues(config)
        rung = config.n // (oracle.BASE_DIVISION if m < 15 else 2)
        assert len(bisected) == 2 and bisected[0] == bisected[1] <= rung // 2

    def test_a_bisected_rung_below_its_top_level_grows_once(self, solved_blocks):
        # 40 levels of dshg (7, 1) on 512 points: E* = 237 lies below the top
        # level, 912, whose rows reach further out than E*'s
        config = OracleConfig(dshg(7, 1.0), l=5.0, n=512, count=40)
        disc = discretize(config)
        levels, reach, _ = oracle._solve(disc, (20, 20))
        top = max(lv[-1] for lv in levels)
        assert oracle._resolved_energy(disc) < top
        first, grown = solved_blocks[0][0], solved_blocks[2][0]
        assert solved_blocks == [(first, 20)] * 2 + [(grown, 20)] * 2 and first < grown
        even_diag = oracle._blocks(disc)[0][0]
        assert reach == disc.grid[len(even_diag) - grown]
        assert oracle._first_reached_row(even_diag, disc.h, top)[0] == len(even_diag) - grown
        norm = 4.0 / disc.h**2 + float(potential_eval(config.spec, reach))
        for got, tight in zip(levels, _tight_block_levels(disc, (20, 20))):
            assert np.max(np.abs(got - tight)) <= np.finfo(float).eps * norm

    def test_a_refined_block_whose_seeds_fall_short_grows_once(self, caplog, solved_blocks):
        # the half grid's levels lie below the fine grid's, and the rows its
        # top level reaches stop one short of those the fine top reaches
        config = oracle._default_config(dshg(3, 1.0), 60)
        seeds = oracle._solve(discretize(replace(config, n=config.n // 2)), (30, 30))[0]
        del solved_blocks[:]
        disc = discretize(config)
        with caplog.at_level(logging.INFO, logger="qespoly.oracle"):
            levels, reach, _ = oracle._solve(disc, (30, 30), seeds)
        assert _fallbacks(caplog) == []
        first, grown = solved_blocks[0][0], solved_blocks[2][0]
        assert solved_blocks == [(first, 30)] * 2 + [(grown, 30)] * 2 and first < grown
        assert reach == disc.grid[config.n // 2 - grown]
        norm = 4.0 / disc.h**2 + float(potential_eval(config.spec, reach))
        for got, tight in zip(levels, _tight_block_levels(disc, (30, 30))):
            assert np.max(np.abs(got - tight)) <= np.finfo(float).eps * norm

    def test_a_bounded_well_keeps_every_row(self, solved_blocks):
        # the kink well is bounded by mu^2 = 1: even a level at its minimum
        # decays by less than REACH_DECAY out to the line's end
        config = oracle._default_config(phi6_kink(0.5, 1.0), 3)
        res = lowest_eigenvalues(config)
        # the base grid is bisected, the half grid refined from it, then the
        # fine grid from the half grid
        assert solved_blocks == [(188, 2), (187, 1), (1500, 2), (1500, 1), (3000, 2), (3000, 1)]
        (disc, _), (half_disc, coarse), _ = _replay(res.config, (2, 1))
        # the fine blocks are refined from the rungs' h^2 prediction
        base, h_base = oracle._base_levels(res.config, (2, 1))
        ratio = (disc.h**2 - half_disc.h**2) / (half_disc.h**2 - h_base**2)
        seeds = [c + (c - b) * ratio for b, c in zip(base, coarse[0])]
        even, odd = oracle._reflection_blocks(disc.diag, disc.offdiag, "x")
        merged = np.sort(np.concatenate([oracle._refined_lowest(*even, 2, seeds[0]),
                                         oracle._refined_lowest(*odd, 1, seeds[1])]))
        assert np.array_equal(res.eigenvalues, merged)
        assert coarse[1] == half_disc.grid[0]
        assert oracle._solve(disc, (2, 1))[1] == disc.grid[0]
        assert oracle._solve(disc, (2, 1), coarse[0])[1] == disc.grid[0]

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


# a clean refinement per geometry: a line, a circle and a sextic sector
REFINED_CONFIGS = [
    pytest.param(OracleConfig(dshg(7, 1.0), l=5.0, n=1024, count=8), id="dshg-m7"),
    pytest.param(OracleConfig(dsg(5, 1.0), n=1024, count=8), id="dsg-m5"),
    pytest.param(_sextic_config(sextic_plus, 6), id="sextic_plus-m6"),
]


def _fallbacks(caplog) -> list:
    return [rec for rec in caplog.records
            if rec.name == "qespoly.oracle" and rec.getMessage().startswith("bisecting")]


class TestRefinement:
    """The half grid's levels are refined from the base grid's where that
    grid resolves them, and the fine grid's from the half grid's, by
    shift-invert iteration; a block is bisected where its refinement is not
    certified."""

    @pytest.mark.parametrize("config", REFINED_CONFIGS)
    def test_a_clean_solve_logs_nothing_and_matches_a_tight_bisection(self, caplog, config):
        with caplog.at_level(logging.INFO, logger="qespoly.oracle"):
            res = lowest_eigenvalues(config)
        assert [rec for rec in caplog.records if rec.name == "qespoly.oracle"] == []
        # a circle solves each block up to its share of the merged levels
        circle = config.spec.is_circle()
        counts = (config.count,) * 2 if circle else ((config.count + 1) // 2, config.count // 2)
        (disc, (levels, reach, _)), _, counts = _replay(
            config, counts, config.count if circle else None)
        assert res.eigenvalues == tuple(np.sort(np.concatenate(levels))[:config.count])
        # the refined levels are as close to the true ones as bisection's
        # ulp * ||T||_1 of the kept rows, at most 4/h^2 + V at the cut, each
        # block at the count it solved
        kept = disc.grid if reach is None else reach
        norm = 4.0 / disc.h**2 + float(np.max(potential_eval(config.spec, kept)))
        for got, tight in zip(levels, _tight_block_levels(disc, counts)):
            assert len(got) == len(tight)
            assert np.max(np.abs(got - tight), initial=0.0) <= np.finfo(float).eps * norm

    @pytest.mark.parametrize("bad", ["one level twice", "the other block's", "one rank up"])
    def test_uncertified_seeds_are_bisected_and_logged(self, caplog, bad):
        # seeds that converge on one level give overlapping intervals; the
        # other block's give levels that are not the lowest, as do seeds one
        # rank up, which the Sturm count rejects
        config = OracleConfig(dsg(5, 1.0), n=1024, count=8)
        coarse = oracle._solve(discretize(replace(config, n=512)), (9, 9))[0]
        good = coarse[1][:8]
        seeds = {"one level twice": np.repeat(coarse[0][:4], 2),
                 "the other block's": coarse[1][:8],
                 "one rank up": coarse[0][1:9]}[bad]
        disc = discretize(config)
        even, odd = oracle._blocks(disc)
        with caplog.at_level(logging.INFO, logger="qespoly.oracle"):
            levels = oracle._solve(disc, (8, 8), (seeds, good))[0]
        assert np.array_equal(levels[0], oracle._lowest_tridiagonal(*even, 8))
        assert [rec.getMessage().split(":")[0] for rec in _fallbacks(caplog)] == [
            "bisecting a 513-row block for 8 levels"]
        # the odd block, from its own seeds, is refined and certified
        assert np.max(np.abs(levels[1] - oracle._lowest_tridiagonal(*odd, 8))) <= 1e-9

    def test_a_line_block_falls_back_on_its_kept_rows(self, caplog):
        config = oracle._default_config(dshg(3, 1.0), 6)
        coarse = oracle._solve(discretize(replace(config, n=config.n // 2)), (3, 3))[0]
        disc = discretize(config)
        with caplog.at_level(logging.INFO, logger="qespoly.oracle"):
            levels, reach, _ = oracle._solve(disc, (3, 3), (coarse[0][[0, 0, 1]], coarse[1]))
        even, _ = oracle._reflection_blocks(disc.diag, disc.offdiag, "x")
        cut = int(np.searchsorted(disc.grid, reach))
        assert np.array_equal(levels[0], oracle._lowest_tridiagonal(even[0][cut:], even[1][cut:], 3))
        assert len(_fallbacks(caplog)) == 1

    def test_a_refined_level_must_be_converged_not_only_enclosed(self, caplog):
        # from the base grid's seeds, the even block's rank 19 level at
        # n = 4000 stops 0.026 below its eigenvalue with an interval that
        # still encloses it; its Kato-Temple bound is far above rounding
        base = oracle._default_config(dshg(40, 2.0), 40)
        seeds = oracle._solve(discretize(replace(base, n=base.n // 16)), (20, 20))[0]
        config = replace(base, n=4000)
        disc = discretize(config)
        with caplog.at_level(logging.INFO, logger="qespoly.oracle"):
            levels, reach, _ = oracle._solve(disc, (20, 20), seeds)
        cut = int(np.searchsorted(disc.grid, reach))
        norm = 4.0 / disc.h**2 + float(potential_eval(config.spec, reach))
        for got, (diag, off) in zip(levels, oracle._reflection_blocks(disc.diag, disc.offdiag, "x")):
            tight = scipy.linalg.eigvalsh_tridiagonal(
                diag[cut:], off[cut:], select="i", select_range=(0, 19), tol=1e-14)
            assert np.max(np.abs(got - tight)) <= np.finfo(float).eps * norm
        # both blocks fall back to bisection
        assert len(_fallbacks(caplog)) == 2


class TestBaseGrid:
    """The half grid is refined from a base grid n // BASE_DIVISION points
    wide where one Sturm count per block finds every requested level at a
    wavenumber times base spacing of at most BASE_RESOLUTION, and is
    bisected as before where it does not."""

    def test_a_resolved_solve_bisects_only_the_base_grid(self, monkeypatch):
        bisected = []
        bisect = oracle._lowest_tridiagonal

        def counting(diag, offdiag, k):
            bisected.append(len(diag))
            return bisect(diag, offdiag, k)

        monkeypatch.setattr(oracle, "_lowest_tridiagonal", counting)
        config = oracle._default_config(dshg(9, 1.0), 9)
        lowest_eigenvalues(config)
        assert bisected and max(bisected) <= config.n // oracle.BASE_DIVISION // 2

    def test_a_base_whose_stencil_overflows_is_declined(self):
        # at l = 2e156 the base grid's h^2 overflows a float, the half
        # grid's does not, so the half grid is bisected instead
        config = OracleConfig(phi6_kink(0.5, 1.0), l=2e156, n=2048, count=2)
        with pytest.raises(OracleError, match="overflows a float"):
            discretize(replace(config, n=config.n // oracle.BASE_DIVISION))
        assert oracle._base_levels(config, (1, 1)) is None
        assert len(oracle._solve(discretize(replace(config, n=config.n // 2)), (1, 1))[0][0]) == 1

    @pytest.mark.parametrize("config, counts", [
        pytest.param(OracleConfig(dsg(5, 1.0), n=2048, count=8), (8, 8), id="dsg-m5-n2048"),
        pytest.param(oracle._default_config(dshg(40, 2.0), 40), (20, 20), id="dshg-m40-z2"),
        # a nearly flat circle: its 4-point base resolves the even block's
        # lowest level, but the odd block has a single row
        pytest.param(OracleConfig(dsg(3, 1e-9), n=64, count=1), (1, 1), id="dsg-flat-n64"),
    ])
    def test_an_unresolved_base_keeps_the_bisected_half_grid(self, config, counts):
        assert oracle._base_levels(config, counts) is None
        res = lowest_eigenvalues(config)
        coarse = oracle._solve(discretize(replace(config, n=config.n // 2)), counts)[0]
        fine = oracle._solve(discretize(config), counts, coarse)[0]
        assert (res.eigenvalues, res.richardson) == tuple(
            tuple(float(v) for v in np.sort(np.concatenate(blocks))[:config.count])
            for blocks in (fine, coarse))



LADDERS = [
    pytest.param(oracle._default_config(dshg(9, 1.0), 9), 1, id="dshg-m9-base-used"),
    pytest.param(OracleConfig(dsg(5, 1.0), n=2048, count=8), 1, id="dsg-m5-base-declined"),
    pytest.param(OracleConfig(dshg(3, 1.0), l=1.0, n=4000, count=6), 3,
                 id="dshg-m3-enlarged-twice"),
]


class TestGridLadder:
    """Each rung of the grid ladder, base, half and fine, is discretized once
    and split into its reflection blocks once per domain, whether the base
    is used or declined."""

    @pytest.mark.parametrize("config, domains", LADDERS)
    def test_one_discretization_per_rung(self, monkeypatch, config, domains):
        sizes = []
        assemble = oracle.discretize

        def counting(cfg):
            sizes.append(cfg.n)
            return assemble(cfg)

        monkeypatch.setattr(oracle, "discretize", counting)
        lowest_eigenvalues(config)
        assert sizes == [config.n // oracle.BASE_DIVISION, config.n // 2, config.n] * domains

    @pytest.mark.parametrize("config, domains", LADDERS)
    def test_one_split_per_rung(self, monkeypatch, config, domains):
        # the base rung's blocks serve both its gate and its bisection
        sizes = []
        split = oracle._blocks

        def counting(disc):
            sizes.append(len(disc.grid))
            return split(disc)

        monkeypatch.setattr(oracle, "_blocks", counting)
        lowest_eigenvalues(config)
        assert sizes == [config.n // oracle.BASE_DIVISION, config.n // 2, config.n] * domains


@pytest.fixture
def refinements(monkeypatch):
    """(rung points, seeds, LAPACK gtsv solves) of every _shift_invert call,
    the rung being the grid of the _solve call that made it."""
    import scipy.linalg.lapack as lapack
    records, rung, solves = [], [0], [0]
    solve, refine, gtsv = oracle._solve, oracle._shift_invert, lapack.dgtsv

    def solving(disc, counts, seeds=None, blocks=None):
        rung[0] = len(disc.grid)
        return solve(disc, counts, seeds, blocks)

    def refining(diag, offdiag, seeds):
        before = solves[0]
        levels = refine(diag, offdiag, seeds)
        records.append((rung[0], len(seeds), solves[0] - before))
        return levels

    def counting(*args):
        solves[0] += 1
        return gtsv(*args)

    monkeypatch.setattr(oracle, "_solve", solving)
    monkeypatch.setattr(oracle, "_shift_invert", refining)
    monkeypatch.setattr(lapack, "dgtsv", counting)
    return records


def _solves_per_level(disc, counts, seeds) -> tuple:
    """The LAPACK gtsv solves of each refined level, a list per _shift_invert
    call, in one seeded _solve, and that solve's result.  A level's first
    solve is the one whose right-hand side is the start vector."""
    import scipy.linalg.lapack as lapack
    per_level, refine, gtsv = [], oracle._shift_invert, lapack.dgtsv

    def refining(diag, offdiag, block_seeds):
        per_level.append([])
        return refine(diag, offdiag, block_seeds)

    def counting(dl, d, du, b):
        if np.array_equal(b[:, 0], oracle._start_vector(len(d))):
            per_level[-1].append(0)
        per_level[-1][-1] += 1
        return gtsv(dl, d, du, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_shift_invert", refining)
        patch.setattr(lapack, "dgtsv", counting)
        result = oracle._solve(disc, counts, tuple(seeds))
    return per_level, result


# merged circle solves across the split's boundary: dsg (5, 1) at 2048 points
# and count 6 puts the 10.85633428 doublet's members, one per block, at the
# merged ranks 5 and 6
MERGED_CONFIGS = [
    pytest.param(OracleConfig(dsg(m, 1.0), n=n, count=count), id=f"dsg-m{m}-n{n}-count{count}")
    for m in (1, 5, 9) for n in (1024, 4096) for count in range(1, 13)
] + [pytest.param(OracleConfig(dsg(5, 1.0), n=2048, count=6), id="dsg-m5-n2048-doublet")] + [
    # the 16-point base grid of dsg (7, 1) at n = 256, where 2/h^2 + V cancels
    # most of V, so its evenness is judged against ||T||_1, not the diagonal
    pytest.param(OracleConfig(dsg(7, 1.0), n=256, count=count), id=f"dsg-m7-n256-count{count}")
    for count in range(1, 9)]


class TestLadderSeeds:
    """Where the base grid resolved the levels, the fine grid is seeded with
    the rungs' h^2 prediction from the base and half levels; a merged circle
    solve refines each block only up to its share of the coarsest rung's k
    lowest levels, plus one spare."""

    def test_the_predicted_seeds_save_fine_rung_solves(self, refinements):
        # 27 gtsv solves on the fine rung when seeded with the half levels,
        # 18 when every level confirmed that its residual stopped falling
        config = oracle._default_config(dshg(9, 1.0), 9)
        lowest_eigenvalues(config)
        assert sum(solves for rung, _, solves in refinements if rung == config.n) == 12

    def test_a_moved_seed_is_not_accepted_unconverged(self, monkeypatch):
        # the predicted seed of the fine even block's rank 1 level stops at
        # its first step; moved by 1e-3 of its gap, it leaves a residual far
        # above the stop test and takes another step to the same accuracy
        config = oracle._default_config(dshg(9, 1.0), 9)
        counts, fine_seeds, solve = (5, 4), [], oracle._solve

        def recording(disc, counts, seeds=None, blocks=None):
            if len(disc.grid) == config.n:
                fine_seeds.append(seeds)
            return solve(disc, counts, seeds, blocks)

        monkeypatch.setattr(oracle, "_solve", recording)
        lowest_eigenvalues(config)
        moved = [np.array(levels) for levels in fine_seeds[0]]
        moved[0][1] += 1e-3 * (moved[0][2] - moved[0][1])
        disc = discretize(config)
        assert _solves_per_level(disc, counts, fine_seeds[0])[0][0][1] == 1
        per_level, (levels, reach, _) = _solves_per_level(disc, counts, moved)
        assert per_level[0][1] >= 2
        norm = 4.0 / disc.h**2 + float(potential_eval(config.spec, reach))
        for got, tight in zip(levels, _tight_block_levels(disc, counts)):
            assert np.max(np.abs(got - tight)) <= np.finfo(float).eps * norm

    @pytest.mark.parametrize("config, rungs", [
        pytest.param(oracle._default_config(dshg(3, 1.0), 2), (4000, 8000), id="dshg-m3-count2"),
        pytest.param(OracleConfig(dsg(3, 1.0), n=1024, count=1), (512, 1024), id="dsg-m3-count1"),
    ])
    def test_a_lone_level_stops_when_its_residual_stops_falling(self, refinements, config, rungs):
        # one seed a block: 3 solves on the half rung and 2 on the fine, as
        # before the stop test, which a lone level has no gap to apply
        lowest_eigenvalues(config)
        half, fine = rungs
        assert refinements == [(half, 1, 3)] * 2 + [(fine, 1, 2)] * 2

    def test_a_merged_circle_solve_refines_its_share_plus_a_spare(self, refinements):
        # the base's 8 lowest are 4 even and 4 odd: 5 + 5 levels a rung, not 8 + 8
        config = OracleConfig(dsg(9, 1.0), n=4096, count=8)
        lowest_eigenvalues(config)
        per_rung = {}
        for rung, seeds, _ in refinements:
            per_rung[rung] = per_rung.get(rung, 0) + seeds
        assert per_rung == {2048: 10, 4096: 10}

    @pytest.mark.parametrize("config", MERGED_CONFIGS)
    def test_merged_levels_match_a_tight_whole_block_solve(self, config):
        # no level is lost to the split: the merged k lowest of both rungs
        # lie within bisection's ulp * ||T||_1 of the whole blocks' k lowest
        res = lowest_eigenvalues(config)
        for size, got in ((config.n, res.eigenvalues), (config.n // 2, res.richardson)):
            disc = discretize(replace(config, n=size))
            counts = (config.count, config.count)
            want = np.sort(np.concatenate(_tight_block_levels(disc, counts)))[:config.count]
            norm = 4.0 / disc.h**2 + float(np.max(potential_eval(config.spec, disc.grid)))
            assert len(got) == config.count
            assert np.max(np.abs(np.array(got) - want)) <= np.finfo(float).eps * norm


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
        # the potential never exceeds mu^2, so the top level's decay past
        # its turning point, not the potential at the line's end, decides
        spec = phi6_kink(0.5, 1.0)
        res = lowest_eigenvalues(OracleConfig(spec, l=12.0, n=4000, count=3))
        assert len(res.eigenvalues) == 3

    def test_a_shallow_kink_domain_is_enlarged(self):
        # at mu = 0.5 the well is twice as wide and four times shallower:
        # its level 3/4 mu^2 = 0.1875 decays too slowly to end by x = 12
        cfg = OracleConfig(phi6_kink(0.5, 0.5), l=12.0, n=6000, count=3)
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
