"""Independent finite-difference Schroedinger eigensolver.

Second-order three-point discretization of -psi'' + V psi on either a
truncated line with Dirichlet ends or a circle with periodic wrap.  Every
potential is even (in x or theta) on a grid symmetric about 0, so the
reflection commutes with the stencil and splits the matrix exactly into
an even and an odd symmetric tridiagonal block, each solved by bisection
on its Sturm sequence (LAPACK stebz) at O(rows) memory and time per level.
On the line the discrete node theorem makes the parities alternate, even
first, so the lowest k levels are the lowest ceil(k/2) even and floor(k/2)
odd ones, and `verify_qes` matches the level with k nodes to line level k.
Every solve is repeated on the half-resolution grid so convergence can be
judged from the Richardson pair; the grid spacing of each geometry has one
formula, in discretize.  The dsg well's analytic levels are dsg_spectrum's,
none at even M (the paper's rule); the kink-dual well's are the dual
energies of its line preimage's (potentials.line_preimage).

A line block is solved only on the rows its requested levels reach.  Past
the outer turning point of a level E, the discrete decaying solution of
-psi_{i-1} + (2 + h^2 (V_i - E)) psi_i - psi_{i+1} = 0 falls by
arccosh(1 + h^2 (V_i - E) / 2) at row i; the rows beyond the one where that
sum reaches D = REACH_DECAY are dropped.  Cutting the block where a level's
eigenvector is down to e^-D puts a Dirichlet end under an amplitude of
e^-D and a coupling of 1/h^2, which moves the level by about e^(-2D)/h^2.
Bisection stops at ulp * ||T||_1 of the kept block, and ||T||_1 >= 4/h^2,
so any D above ln(1 / (4 ulp)) / 2 = 17.3 leaves that move below it; D = 40
leaves a further e^-45 for the prefactors the decay estimate ignores.  The
kept block is also solved more tightly: the whole block's norm, and with it
the bisection tolerance, is set by the potential at the line's end (4.8e8
for dshg(7, 2) at x = 5, a tolerance near 1e-7), the kept block's by 4/h^2
plus the potential at the cut (near 6e-10 on the default dshg grid).  The
levels come from a central window first: by interlacing its top requested
level E_up lies at or above the whole block's, so the rows E_up reaches
hold those of every requested level.  A window that misses some of them
is grown once to all of them, since E_up only falls as the window grows.
A block in which even the potential's minimum decays by less than D,
a bounded well or levels above the potential at the line's end, keeps
every row, as do the circle blocks.

This solver shares nothing with the polynomial route except the potential
evaluators, which is what makes the comparison a genuine cross-check.  It is
the package's only user of scipy, which it imports at its first solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .duality import DsgRejection, dsg_spectrum, dual_energies
from .potentials import (
    PotentialSpec,
    dshg,
    line_preimage,
    potential_eval,
    sextic_qes_levels,
)
from .spectrum import qes_energies


_log = logging.getLogger("qespoly.oracle")

# e-folds of decay past which a line block's rows are dropped (see above),
# and the share of a block's rows, centre side, in the first window of a
# line solve: the rows the levels of the default dshg and sextic grids
# reach fit in it, so those solves need no regrowth
REACH_DECAY = 40.0
FIRST_WINDOW = 0.625


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class OracleConfig:
    spec: PotentialSpec
    l: float | None = None        # half-width of the truncated line
    n: int = 2048                 # interior points (line) or circle points
    count: int = 4                # eigenvalues requested
    e_max_hint: float | None = None

    def __post_init__(self):
        if self.spec.is_circle():
            if self.l is not None:
                raise ValueError("circle potentials take no half-width")
        elif self.l is None or not 0 < self.l < np.inf:
            raise ValueError("line potentials need a positive finite half-width")
        if self.count < 1:
            raise ValueError("need at least one eigenvalue")


@dataclass(frozen=True)
class Discretization:
    """Symmetric matrix description: tridiagonal plus an optional corner."""

    diag: np.ndarray
    offdiag: np.ndarray
    corner: float | None
    grid: np.ndarray
    h: float


@dataclass(frozen=True)
class LevelMatch:
    analytic: float
    oracle: float
    oracle_index: int

    @property
    def deviation(self) -> float:
        return abs(self.analytic - self.oracle)


@dataclass(frozen=True)
class DualReport:
    """Outcome of pairing two spectra under negate-and-reverse."""

    source: tuple
    dual: tuple
    pairs: tuple              # ((k, count-1-k), ...)
    rejected: bool = False
    reason: str = ""


@dataclass(frozen=True)
class OracleResult:
    config: OracleConfig
    eigenvalues: tuple
    h: float
    richardson: tuple             # same levels on the half-resolution grid
    extrapolated: tuple
    matches: tuple = ()


def discretize(config: OracleConfig) -> Discretization:
    """Assemble the stencil: (-1/h^2, 2/h^2 + V(x_i), -1/h^2).

    Line grids hold the interior points of [-l, l] (Dirichlet ends are
    eliminated); circle grids hold n points over the spec's period with the
    wrap entering as a corner coupling.  OracleError if an entry or h*h
    overflows a float (1/h^2 is then 0).
    """
    spec = config.spec
    if spec.is_circle():
        h = spec.period / config.n
        grid = h * np.arange(config.n)
    else:
        h = 2.0 * config.l / (config.n + 1)
        grid = h * (np.arange(config.n) - 0.5 * (config.n - 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coupling = 1.0 / np.float64(h * h)
        diag = 2.0 * coupling + potential_eval(spec, grid)
    if not (coupling > 0.0 and np.isfinite(diag).all()):
        raise OracleError(f"the {spec.family} stencil overflows a float at h = {h!r}")
    offdiag = np.full(config.n - 1, -coupling)
    return Discretization(diag, offdiag, -coupling if spec.is_circle() else None, grid, h)


def _solve(config: OracleConfig, reach: float | None = None) -> tuple:
    """The lowest eigenvalues, the grid spacing they were computed at and,
    on the line, the x of the outermost row the solve kept.

    A line solve's first window starts at the row of `reach` (at the inner
    FIRST_WINDOW of the line when None), but never inside the rows that a
    level at the potential's minimum, the lowest a level can be, reaches.
    The block holding the top requested level goes first; the other block's
    levels lie lower, so they reach no row beyond its cut.
    """
    disc = discretize(config)
    k = config.count
    if disc.corner is not None:
        return circle_eigenvalues(disc, k), disc.h, None
    even, odd = _reflection_blocks(disc.diag, disc.offdiag, "x")
    start = (round(len(even[0]) * (1.0 - FIRST_WINDOW)) if reach is None
             else max(int(np.searchsorted(disc.grid, reach, side="right")) - 1, 0))
    floor = disc.diag.min() - 2.0 / disc.h**2
    start = min(start, _first_reached_row(even[0], disc.h, floor))
    blocks = [(even, (k + 1) // 2), (odd, k // 2)]
    if k % 2 == 0:
        blocks.reverse()
    top, cut = _reached_lowest(*blocks[0], disc.h, start)
    rest, rest_cut = _reached_lowest(*blocks[1], disc.h, cut)
    return (np.sort(np.concatenate([top, rest])), disc.h,
            float(disc.grid[min(cut, rest_cut)]))


def _reached_lowest(block, k: int, h: float, start: int) -> tuple:
    """The k lowest eigenvalues of a line block, solved on the rows its
    levels reach, and the first of those rows.

    The rows from `start` to the centre are solved first; by interlacing the
    window's top level bounds the block's from above, so the rows it reaches
    hold every requested level's.  If the window misses some of them it is
    grown once to all of them: the bound only falls as the window grows.
    """
    diag, off = block
    if k < 1:
        return np.empty(0), start
    start = max(min(start, len(diag) - k), 0)
    levels = _lowest_tridiagonal(diag[start:], off[start:], k)
    cut = _first_reached_row(diag, h, levels[-1])
    if cut < start:
        levels = _lowest_tridiagonal(diag[cut:], off[cut:], k)
    return levels, cut


def _first_reached_row(diag, h: float, e_up: float) -> int:
    """The outermost row of a line block (outer edge first, centre last)
    that a level at or below e_up reaches.

    Walking outward from the outer turning point of e_up, the discrete
    decaying solution falls by arccosh(1 + h^2 (V_i - e_up) / 2) at row i;
    the rows beyond the one where the sum reaches REACH_DECAY are dropped.
    The last row carries the centre coupling and never takes part.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        excess = h * h * diag[:-1] - 2.0 - h * h * e_up    # h^2 (V_i - e_up)
    if not np.all(np.isfinite(excess)):    # h^2 V overflows: keep every row
        return 0
    allowed = np.flatnonzero(excess <= 0.0)
    turn = int(allowed[0]) if allowed.size else len(excess)
    decay = np.cumsum(np.arccosh(1.0 + 0.5 * excess[:turn][::-1]))
    walked = int(np.searchsorted(decay, REACH_DECAY))
    return turn - 1 - walked if walked < turn else 0


def _lowest_tridiagonal(diag, offdiag, k: int) -> np.ndarray:
    k = min(k, len(diag))
    if k < 1:
        return np.empty(0)
    from scipy.linalg import eigvalsh_tridiagonal    # here: only the oracle needs scipy
    return eigvalsh_tridiagonal(
        diag, offdiag, select="i", select_range=(0, k - 1))


def _merged_lowest(even, odd, k_even: int, k_odd: int) -> np.ndarray:
    return np.sort(np.concatenate([_lowest_tridiagonal(*even, k_even),
                                   _lowest_tridiagonal(*odd, k_odd)]))


def _reflection_blocks(diag, offdiag, variable: str):
    """Even and odd tridiagonal blocks of a chain symmetric under i -> n-1-i.

    For even n both blocks hold the first n/2 points, and the coupling of
    the middle pair adds to the even block's last diagonal entry and
    subtracts from the odd one's.  For odd n the even block ends at the
    centre with that coupling scaled by sqrt(2); the odd block stops before.
    """
    n, half = len(diag), (len(diag) + 1) // 2
    if np.abs(diag - diag[::-1]).max() > 4.0 * np.finfo(float).eps * np.abs(diag).max():
        raise OracleError(f"potential is not even in {variable}")
    even_diag, even_off = diag[:half].copy(), offdiag[:half - 1].copy()
    odd_diag, odd_off = diag[:n // 2].copy(), offdiag[:n // 2 - 1]
    if n % 2:
        even_off[-1] *= np.sqrt(2.0)
    else:
        even_diag[-1] += offdiag[half - 1]
        odd_diag[-1] -= offdiag[half - 1]
    return (even_diag, even_off), (odd_diag, odd_off)


def circle_eigenvalues(disc: Discretization, k: int) -> np.ndarray:
    """The k lowest eigenvalues of a periodic stencil with an even potential.

    The reflection i -> n - i fixes the point 0 and splits the chain of
    points 1..n-1; the even block adds the point 0, coupled with a factor
    sqrt(2).  Either parity may come first, so each block gives k levels.
    """
    (even_diag, even_off), odd = _reflection_blocks(
        disc.diag[1:], disc.offdiag[1:], "theta")
    even = (np.concatenate([disc.diag[:1], even_diag]),
            np.concatenate([[disc.offdiag[0] * np.sqrt(2.0)], even_off]))
    return _merged_lowest(even, odd, k, k)[:k]


def _line_domain_ok(spec: PotentialSpec, l: float, e_max: float) -> bool:
    edge = float(potential_eval(spec, l))
    if edge >= 10.0 * (e_max + 1.0):
        return True
    # bounded wells never satisfy the dominance rule; accept once the
    # evanescent tail exp(-2*kappa*l) is negligible at the cut
    if edge > e_max:
        kappa = np.sqrt(edge - e_max)
        return kappa * l >= 5.5
    return False


def lowest_eigenvalues(config: OracleConfig) -> OracleResult:
    """The requested lowest eigenvalues plus their half-resolution pair.

    Line domains are auto-enlarged until the edge value of the potential
    dominates the computed spectrum (or, for bounded wells, until the decay
    tail at the cut is negligible).  The bounds on n and count are checked
    here, not in OracleConfig, because the half-resolution solve runs on a
    config with n // 2.
    """
    if config.n < 64:
        raise ValueError("need at least 64 grid points")
    if config.count > config.n // 2 - 1:
        raise ValueError(f"count must be at most n // 2 - 1 = {config.n // 2 - 1}, the levels "
                         f"the half-resolution grid can pair, got {config.count}")
    cfg, reach = config, None
    for _ in range(8):
        fine, h, reach = _solve(cfg, reach)
        e_top = cfg.e_max_hint if cfg.e_max_hint is not None else float(fine[-1])
        if cfg.spec.is_circle() or _line_domain_ok(cfg.spec, cfg.l, e_top):
            break
        _log.info("enlarging the line domain of %s from l = %r to l = %r",
                  cfg.spec.family, cfg.l, 1.5 * cfg.l)
        cfg = replace(cfg, l=1.5 * cfg.l)
    else:
        raise OracleError("domain too small")
    coarse, _, _ = _solve(replace(cfg, n=cfg.n // 2), reach)
    extrapolated = tuple(float(4.0 * f - c) / 3.0 for f, c in zip(fine, coarse))
    return OracleResult(
        cfg, tuple(float(v) for v in fine), h, tuple(float(v) for v in coarse),
        extrapolated,
    )


def match_levels(analytic, eigenvalues) -> tuple:
    """Nearest-neighbor matching with injectivity enforced, for level sets
    that are not a contiguous lowest set (the duality pairs)."""
    eigenvalues = list(eigenvalues)
    used = {}
    matches = []
    for a in analytic:
        idx = int(np.argmin([abs(a - e) for e in eigenvalues]))
        if idx in used:
            raise OracleError(
                f"ambiguous eigenvalue matching: levels {used[idx]} and {a} "
                f"both nearest oracle level {eigenvalues[idx]}"
            )
        used[idx] = a
        matches.append(LevelMatch(a, float(eigenvalues[idx]), idx))
    return tuple(matches)


def verify_qes(m: int, zeta: float, tolerance: float = 1e-4) -> OracleResult:
    """Match the algebraic sinh-Gordon level with k nodes to line level k.

    The line oracle solves the M levels it matches, k = 0..M-1, and no more."""
    report = qes_energies(m, zeta)
    result = lowest_eigenvalues(_default_config(dshg(m, zeta), m))
    matches = tuple(LevelMatch(lv.energy, result.eigenvalues[lv.nodes], lv.nodes)
                    for lv in report.levels)
    worst = max(mt.deviation for mt in matches)
    if worst > tolerance:
        raise OracleError(f"QES level deviates by {worst} > {tolerance}")
    return replace(result, matches=matches)


def analytic_qes_levels(spec: PotentialSpec) -> list:
    """The algebraic levels a potential family is known to hold; the dsg
    well has none at even M, an OracleError with duality.dsg_spectrum's reason."""
    p = spec.params
    if spec.family == "dsg":
        outcome = dsg_spectrum(p["m"], p["zeta"])
        if isinstance(outcome, DsgRejection):
            raise OracleError(f"no dsg levels at M = {outcome.m}: {outcome.reason}")
        return outcome.energies()
    if spec.is_circle():
        return dual_energies(analytic_qes_levels(line_preimage(spec)))
    if spec.family == "dshg":
        return qes_energies(p["m"], p["zeta"]).energies()
    if spec.family == "sextic_plus":
        return sextic_qes_levels(p["m"], p["a"], p["b"])
    if spec.family == "sextic_minus":
        return sextic_qes_levels(p["m"], p["a"], -p["b"])
    if spec.family == "phi6_kink":
        mu2 = p["mu"] ** 2
        levels = [0.0]
        if abs(p["epsilon_sq"] - 0.5) <= 1e-12:
            levels.append(0.75 * mu2)
        return levels
    raise OracleError(f"no algebraic levels known for family {spec.family!r}")


_DEFAULT_LINE = {"dshg": (5.0, 8000), "sextic_plus": (8.0, 6000),
                 "sextic_minus": (8.0, 6000), "phi6_kink": (12.0, 6000)}


def _default_config(spec: PotentialSpec, count: int,
                    e_max_hint: float | None = None) -> OracleConfig:
    if spec.is_circle():
        # the E = 0 state of the kink-dual well is antiperiodic over one
        # potential period, so it only shows up on the doubled cover
        if spec.family == "phi6_kink_dual":
            return OracleConfig(replace(spec, period=2 * spec.period), n=4096, count=count)
        return OracleConfig(spec, n=2048, count=count)
    l, n = _DEFAULT_LINE.get(spec.family, (8.0, 6000))
    return OracleConfig(spec, l=l, n=n, count=count, e_max_hint=e_max_hint)


def verify_duality_pair(spec_a: PotentialSpec, spec_b: PotentialSpec,
                        tolerance: float = 1e-3) -> DualReport:
    """Check the negate-and-reverse pairing of two dual potentials.

    The algebraic levels of spec_a are mapped to spec_b's expected levels;
    both oracle spectra must contain their side within tolerance.
    """
    levels_a = analytic_qes_levels(spec_a)
    levels_b = dual_energies(levels_a)
    count = len(levels_a)
    res_a = lowest_eigenvalues(_default_config(spec_a, count + 4, max(levels_a)))
    res_b = lowest_eigenvalues(_default_config(spec_b, count + 4, max(levels_b)))
    matches_a = match_levels(levels_a, res_a.eigenvalues)
    matches_b = match_levels(levels_b, res_b.eigenvalues)
    worst = max(
        [mt.deviation for mt in matches_a] + [mt.deviation for mt in matches_b]
    )
    ok = worst <= tolerance
    return DualReport(
        source=tuple(levels_a),
        dual=tuple(levels_b),
        pairs=tuple((k, count - 1 - k) for k in range(count)),
        rejected=not ok,
        reason="" if ok else f"pairing deviation {worst} above {tolerance}",
    )
