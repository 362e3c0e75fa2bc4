"""Independent finite-difference Schroedinger eigensolver.

Second-order three-point discretization of -psi'' + V psi on either a
truncated line with Dirichlet ends or a circle with periodic wrap.  Every
potential is even (in x or theta) on a grid symmetric about 0, so the
reflection commutes with the stencil and splits the matrix exactly into
an even and an odd symmetric tridiagonal block, at O(rows) memory.  On the
line the discrete node theorem makes the parities alternate, even first,
so the lowest k levels are the lowest ceil(k/2) even and floor(k/2) odd
ones, and `verify_qes` matches the level with k nodes to line level k.
Every solve climbs a ladder of grids, its rungs: the base grid of
n // BASE_DIVISION points, the half grid of n // 2 and the fine grid of n,
which is paired with the half grid so convergence can be judged from the
Richardson pair.  Each rung is discretized once (discretize, which holds
the grid spacing's one formula per geometry), split into its reflection
blocks by _blocks and solved by _solve.  Only the coarsest rung solved is
bisected, each block on its Sturm sequence (LAPACK stebz): the base grid
where it resolves the requested levels, else the half grid.  The base
resolves them when one Sturm count per block at
E* = V_min + (BASE_RESOLUTION / h_base)^2, the energy whose local
wavenumber sqrt(E - V_min) times the base spacing is BASE_RESOLUTION, finds
at least that block's levels; a base that does not leaves the half grid
bisected, as if there were none.  The base levels seed the half rung's.
Where the base was solved, each fine-rung level is seeded with the rungs'
h^2 prediction (Richardson's deferred approach to the limit),
E_half + (E_half - E_base) (h_fine^2 - h_half^2) / (h_half^2 - h_base^2),
per block and rank, each h its rung's Discretization's; else the half
levels are its seeds.  A merged circle solve, the k lowest levels of both
blocks, solves each block on the half and fine rungs only up to its share
of the coarsest rung's k lowest plus one spare, at most k: about k + 2
levels, not 2k.  Each seeded level is refined by one inverse-iteration step
at its seed and Rayleigh-quotient steps (LAPACK gtsv solves) until its
Kato-Temple bound ||T x - rho x||^2 / m, m the nearer half gap to its
neighbouring seeds, is within bisection's tolerance eps * ||T||_1, often
at its first step; a block's lone level, which has no neighbour, until its
residual stops falling or reaches rounding.  A level then holds an
eigenvalue within that residual plus a rounding allowance, and the block
is accepted when those intervals are disjoint, one Sturm count puts
exactly as many eigenvalues at or below the top interval as there are
levels, one in each, and each level's Kato-Temple bound, its squared
residual over the gap to its neighbours' intervals, is within the rounding
allowance: a level is accepted converged, not only enclosed.  Otherwise
the block is bisected, and an INFO line on the qespoly.oracle logger names
the fallback.  The dsg well's analytic levels are dsg_spectrum's, none at
even M (the paper's rule); the kink-dual well's are the dual energies of
its line preimage's (potentials.line_preimage).

The duality pairs match by label, not by nearest neighbour, which a
tunnelling doublet closer than the grid error would make ambiguous.  Each
algebraic level is labelled with its reflection block and its rank there
(_block_labels): on the line by its node count, on the dsg circle by the
chain it comes from (P even, Q odd), in the sextic wells by the sector's
parity M mod 2, and in the kink wells as the even block's ranks 0 and 1.
Each block is solved only up to the top rank its labels name, and each
level's extrapolated value (4 fine - coarse) / 3 is compared with it.

A line block is solved only on the rows its requested levels reach.  Past
the outer turning point of a level E, the discrete decaying solution of
-psi_{i-1} + (2 + h^2 (V_i - E)) psi_i - psi_{i+1} = 0 falls by
arccosh(1 + h^2 (V_i - E) / 2) at row i; the rows beyond the one where that
sum reaches D = REACH_DECAY are dropped.  Cutting the block where a level's
eigenvector is down to e^-D puts a Dirichlet end under an amplitude of
e^-D and a coupling of 1/h^2, which moves the level by about e^(-2D)/h^2.
Both solves stop at the rounding of the rows they solve on, ulp * ||T||_1:
bisection by its tolerance, a refined level by its residual, which cannot
fall below the rounding of T x.  ||T||_1 >= 4/h^2, so any D above
ln(1 / (4 ulp)) / 2 = 17.3 leaves that move below it; D = 40 leaves a
further e^-45 for the prefactors the decay estimate ignores.  The kept
block is also solved more tightly: the whole block's norm, and with it the
rounding, is set by the potential at the line's end (4.8e8 for dshg(7, 2)
at x = 5, a bisection tolerance near 1e-7), the kept block's by 4/h^2 plus
the potential at the cut (near 6e-10 on the default dshg grid).  Both
blocks of a line rung are solved on the rows a first estimate of their top
level reaches, the seeds' top or on a bisected rung E*, and once more, from
the same seeds, on the rows the solved top level reaches where those lie
further out: by interlacing that level lies at or above the whole block's,
so its rows hold every requested level's.  A gated base rung needs no
regrowth, as its Sturm count puts each block's top level below E*.  A block
in which even the potential's minimum decays by less than D, a bounded well
or levels above the potential at the line's end, keeps every row, as do the
circle blocks.

The same walk is the one test of a line's width: it accepts the domain once
the fine grid's top level decays by DOMAIN_DECAY e-folds from its outer
turning point (not from x = 0, which passes a wall just past that point, as
in the dshg wells at small zeta) to the line's end.  A level at or above the
potential there, such as a bounded well's box state, never decays; a circle
has no end, so its decay is infinite and its one domain is accepted.  Each
enlargement of the line by 1.5 climbs the whole ladder again.

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

# e-folds of decay past which a line block's rows are dropped and that
# accept a line's width (see above)
REACH_DECAY = 40.0
DOMAIN_DECAY = 5.5
# the cap on a refined level's shift-invert steps, which stop earlier at the
# first one whose Kato-Temple bound is within eps * ||T||_1, and the multiple
# of eps * ||T||_1 its radius adds to its residual for rounding (_shift_invert)
REFINE_STEPS = 8
ROUNDING = 16.0
# the base grid has n // BASE_DIVISION points, and its bisected levels seed
# the half grid's where sqrt(E - V_min) * h_base <= BASE_RESOLUTION
# (_base_levels).  Bisection costs about 3 times a refinement per row and
# level, so bisecting an 8th of the half grid's rows and refining the half
# grid costs under half of bisecting it; at n // 32 the gate declined 22 of
# the oracle benchmark's solves a pass, against 2 at n // 16.  At 0.3 the
# base's levels lie within 0.3^2 / 12, under 1 %, of their kinetic energy;
# without the gate the dshg wells from M = 40 and the dense dsg circles
# failed the certificate and ran up to 1.6 times slower than the bisected
# half grid
BASE_DIVISION = 16
BASE_RESOLUTION = 0.3


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class OracleConfig:
    spec: PotentialSpec
    l: float | None = None        # half-width of the truncated line
    n: int = 2048                 # interior points (line) or circle points
    count: int = 4                # eigenvalues requested

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


def _solve(disc: Discretization, counts: tuple, seeds: tuple | None = None,
           blocks: tuple | None = None) -> tuple:
    """The lowest counts[b] eigenvalues of reflection block b (0 even, 1 odd)
    on one rung of the grid ladder (see the module docstring), the x of the
    outermost row solved on (None on a circle) and the top level's decay to
    the line's end (infinite on a circle, which has no end).

    With seeds, each block's levels on coarser rungs or their h^2
    prediction, every block is refined from them (_refined_lowest); without,
    every block is bisected, a circle block whole, and a line block first on
    the rows _resolved_energy reaches.  A line block keeps at least as many
    rows as the most levels a block is asked for.  `blocks` are disc's
    _blocks where the caller has split it already.
    """
    blocks = _blocks(disc) if blocks is None else blocks
    seeds = (None, None) if seeds is None else seeds
    if disc.corner is not None:
        return tuple(_refined_lowest(*block, k, s)
                     for block, k, s in zip(blocks, counts, seeds)), None, np.inf

    def solved(cut):
        return tuple(_refined_lowest(diag[cut:], off[cut:], k, s)
                     for (diag, off), k, s in zip(blocks, counts, seeds))

    def reached(levels):
        return _first_reached_row(blocks[0][0], disc.h, max(float(lv[-1]) for lv in levels if len(lv)))

    estimate = [[_resolved_energy(disc)]] if seeds[0] is None else seeds
    cut = max(min(reached(estimate)[0], min(len(diag) for diag, _ in blocks) - max(counts)), 0)
    levels = solved(cut)
    grown, decay = reached(levels)
    if grown < cut:
        cut, levels = grown, solved(grown)
        decay = reached(levels)[1]
    return levels, float(disc.grid[cut]), decay


def _resolved_energy(disc: Discretization) -> float:
    """E* = V_min + (BASE_RESOLUTION / h)^2, the energy whose largest local
    wavenumber sqrt(E* - V_min) times disc's spacing is BASE_RESOLUTION."""
    return disc.diag.min() - 2.0 / disc.h**2 + (BASE_RESOLUTION / disc.h) ** 2


def _first_reached_row(diag, h: float, e_up: float) -> tuple:
    """The outermost row of a line block (outer edge first, centre last)
    that a level at or below e_up reaches, and e_up's decay out to the
    line's end.

    Walking outward from the outer turning point of e_up, the discrete
    decaying solution falls by arccosh(1 + h^2 (V_i - e_up) / 2) at row i;
    the rows beyond the one where the sum reaches REACH_DECAY are dropped.
    The last row carries the centre coupling and never takes part.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        excess = h * h * diag[:-1] - 2.0 - h * h * e_up    # h^2 (V_i - e_up)
    if not np.all(np.isfinite(excess)):    # h^2 V overflows: keep every row
        return 0, np.inf
    allowed = np.flatnonzero(excess <= 0.0)
    turn = int(allowed[0]) if allowed.size else len(excess)
    decay = np.cumsum(np.arccosh(1.0 + 0.5 * excess[:turn][::-1]))
    walked = int(np.searchsorted(decay, REACH_DECAY))
    return (turn - 1 - walked if walked < turn else 0), float(decay[-1]) if turn else 0.0


def _lowest_tridiagonal(diag, offdiag, k: int) -> np.ndarray:
    """The k lowest eigenvalues of a symmetric tridiagonal block, bisected on
    its Sturm sequence (LAPACK stebz) to ulp * ||T||_1."""
    k = min(k, len(diag))
    if k < 1:
        return np.empty(0)
    from scipy.linalg.lapack import dstebz    # here: only the oracle needs scipy
    found, levels, _, _, info = dstebz(diag, offdiag, 2, 0.0, 0.0, 1, k, 0.0, "E")
    if info:
        raise OracleError(f"bisection of a {len(diag)}-row block failed (stebz info {info})")
    return levels[:found]


def _refined_lowest(diag, offdiag, k: int, seeds) -> np.ndarray:
    """The k lowest eigenvalues of a symmetric tridiagonal block, refined from
    seeds, the same block's levels from coarser grids (_shift_invert), and
    bisected where the refinement is not certified, a fallback that is
    logged; a block without seeds (None) is bisected, and nothing logged."""
    if k < 1 or seeds is None:
        return _lowest_tridiagonal(diag, offdiag, k)
    levels = _shift_invert(diag, offdiag, seeds) if len(seeds) == k else None
    if levels is None:
        _log.info("bisecting a %d-row block for %d levels: %d seeds from %.6g to %.6g "
                  "gave no certified refinement", len(diag), k, len(seeds), seeds[0], seeds[-1])
        return _lowest_tridiagonal(diag, offdiag, k)
    return levels


def _shift_invert(diag, offdiag, seeds):
    """The eigenvalues of a symmetric tridiagonal block T nearest seeds,
    certified as its len(seeds) lowest, or None.

    Each level starts from a fixed unit vector x at its seed s: y = (T - s)^-1 x,
    the Rayleigh quotient s + (x . y) / (y . y) and x = y / ||y||.  The shift
    stays at the seed until that quotient lies nearer the seed than half the
    gap to a neighbouring seed, so that a start vector poor in the wanted
    level cannot lead to another one; from then on the quotient is the shift
    (Rayleigh-quotient iteration).  Once captured, a level stops at the
    first step, often its first, whose residual r = T x - rho x has
    ||r||^2 / m within eps * ||T||_1, bisection's tolerance, m the nearer
    half gap to a neighbouring seed; also once 1 / ||y||, y's residual at
    the shift, stops falling or reaches eps * ||T||_1 (a lone seed's only
    test), or after REFINE_STEPS.  A level rho with unit vector x has an
    eigenvalue within ||r|| of it; that residual plus ROUNDING * eps *
    ||T||_1, for the rounding of the residual and of the count, is its
    radius.  The levels are certified when their intervals are disjoint,
    one Sturm count finds exactly len(seeds) eigenvalues at or below a point
    t above the top one's upper end, one in each interval and none below,
    and each level is converged: its Kato-Temple bound ||r||^2 / gap, the
    gap running from it to the nearer of its neighbours' intervals (to t
    above the top level), is at most ROUNDING * eps * ||T||_1.  t lies
    ||r||^2 / (ROUNDING * eps * ||T||_1) above the top interval, so the top
    level's gap above meets the bound by construction and one count serves
    both tests.  T is first scaled by the power of 2 that brings ||T||_1
    into [1/2, 1), which rounds nothing.
    """
    from scipy.linalg.lapack import dgtsv
    eps = np.finfo(float).eps
    norm = _norm1(diag, offdiag)
    scale = np.ldexp(1.0, -np.frexp(norm)[1])
    diag, offdiag, seeds, norm = diag * scale, offdiag * scale, np.asarray(seeds) * scale, norm * scale
    half_gap = np.diff(seeds) / 2.0
    margin = (np.concatenate([half_gap[:1], half_gap, half_gap[-1:]]) if half_gap.size
              else np.full(2, np.inf))
    lower, upper = seeds - margin[:-1], seeds + margin[1:]
    # a lone level, whose margins are infinite, never meets the stop test
    accepted = eps * norm * np.minimum(margin[:-1], margin[1:]) if half_gap.size else [-1.0]
    start = _start_vector(len(diag))

    def shifted_solve(shift, x):
        y, info = dgtsv(offdiag, diag - shift, offdiag, x[:, None])[3:]
        if info:    # the shift is a level to working precision: step off it
            y, info = dgtsv(offdiag, diag - (shift + eps * norm), offdiag, x[:, None])[3:]
        return y[:, 0], info

    levels, residuals = [], []
    with np.errstate(all="ignore"):
        for seed, low, high, accept in zip(seeds, lower, upper, accepted):
            shift, x, residual, captured = seed, start, np.inf, False
            for _ in range(REFINE_STEPS):
                y, info = shifted_solve(shift, x)
                if info:
                    return None
                yy = (y * y).sum()
                size = np.sqrt(yy)
                if captured and 1.0 / size >= residual:
                    break
                level, x, residual = shift + (x * y).sum() / yy, y / size, 1.0 / size
                r = diag * x - level * x
                r[:-1] += offdiag * x[1:]
                r[1:] += offdiag * x[:-1]
                squared = (r * r).sum()
                if residual <= eps * norm:
                    break
                captured = captured or low < level < high
                if captured:
                    if squared <= accept:
                        break
                    shift = level
            levels.append(level)
            residuals.append(np.sqrt(squared))
    levels, residuals = np.array(levels), np.array(residuals)
    rounding = ROUNDING * eps * norm
    radii = residuals + rounding
    top = levels[-1] + radii[-1] + residuals[-1] ** 2 / rounding
    if not np.all(np.isfinite(levels + radii)) or np.any(
            levels[1:] - radii[1:] <= levels[:-1] + radii[:-1]):
        return None
    below = levels - np.append(-np.inf, levels[:-1] + radii[:-1])
    above = np.append(levels[1:] - radii[1:], top) - levels
    if np.any(residuals ** 2 > rounding * np.minimum(below, above)):
        return None
    return levels / scale if _sturm_count(diag, offdiag, top) == len(levels) else None


def _sturm_count(diag, offdiag, e: float) -> int:
    """How many eigenvalues of a symmetric tridiagonal block lie at or below e."""
    from scipy.linalg.lapack import dstebz
    return dstebz(diag, offdiag, 1, -np.inf, e, 0, 0, np.inf, "E")[0]


def _norm1(diag, offdiag) -> float:
    """||T||_1 of a symmetric tridiagonal T, its largest absolute row sum."""
    sums = np.abs(diag)
    off = np.abs(offdiag)
    sums[:-1] += off
    sums[1:] += off
    return float(sums.max())


# the quadratic residues mod a prime, of which each start vector is a prefix
_residues = np.empty(0)


def _start_vector(rows: int) -> np.ndarray:
    """The unit start vector of _shift_invert on a block of `rows` rows:
    quadratic residues mod a prime spread over every mode, where a constant
    or a ramp start is orthogonal to a circle block's higher cosines."""
    global _residues
    if len(_residues) < rows:
        i = np.arange(rows)
        _residues = (i * i % 65521) / 65521 - 0.5
    start = _residues[:rows]
    return start / np.sqrt((start * start).sum())


def _reflection_blocks(diag, offdiag, variable: str):
    """Even and odd tridiagonal blocks of a chain symmetric under i -> n-1-i.

    For even n both blocks hold the first n/2 points, and the coupling of
    the middle pair adds to the even block's last diagonal entry and
    subtracts from the odd one's.  For odd n the even block ends at the
    centre with that coupling scaled by sqrt(2); the odd block stops before.
    """
    n, half = len(diag), (len(diag) + 1) // 2
    if np.abs(diag - diag[::-1]).max() > 4.0 * np.finfo(float).eps * _norm1(diag, offdiag):
        raise OracleError(f"potential is not even in {variable}")
    even_diag, even_off = diag[:half].copy(), offdiag[:half - 1].copy()
    odd_diag, odd_off = diag[:n // 2].copy(), offdiag[:n // 2 - 1]
    if n % 2:
        even_off[-1] *= np.sqrt(2.0)
    else:
        even_diag[-1] += offdiag[half - 1]
        odd_diag[-1] -= offdiag[half - 1]
    return (even_diag, even_off), (odd_diag, odd_off)


def _blocks(disc: Discretization) -> tuple:
    """The even and odd blocks of a stencil with an even potential.

    A line's are _reflection_blocks'.  On a circle the reflection i -> n - i
    fixes the point 0 and splits the chain of points 1..n-1; the even block
    adds the point 0, coupled with a factor sqrt(2).  Either parity may come
    first, so a merged solve of k levels splits k between the blocks by the
    coarsest rung's levels (_solve_on_domain).
    """
    if disc.corner is None:
        return _reflection_blocks(disc.diag, disc.offdiag, "x")
    (even_diag, even_off), odd = _reflection_blocks(
        disc.diag[1:], disc.offdiag[1:], "theta")
    even = (np.concatenate([disc.diag[:1], even_diag]),
            np.concatenate([[disc.offdiag[0] * np.sqrt(2.0)], even_off]))
    return even, odd


def _base_levels(config: OracleConfig, counts: tuple):
    """The block levels on the base grid of config.n // BASE_DIVISION points,
    bisected, and that grid's spacing, or None if it does not resolve them.

    A level is resolved at or below the base grid's E* (_resolved_energy):
    one Sturm count per block at E* must find at least the levels asked of
    it, before any of them is bisected.  A block with no more rows than
    levels resolves none of them.
    """
    base = replace(config, n=config.n // BASE_DIVISION)
    try:
        disc = discretize(base)
    except OracleError:    # h_base^2 can overflow where the finer grids' does not
        return None
    blocks = _blocks(disc)
    for (diag, offdiag), k in zip(blocks, counts):
        if k > 0 and (k >= len(diag) or _sturm_count(diag, offdiag, _resolved_energy(disc)) < k):
            return None
    return _solve(disc, counts, blocks=blocks)[0], disc.h


def _solve_on_domain(config: OracleConfig, counts: tuple, merged: int | None = None) -> tuple:
    """The config the levels were solved on, the fine grid's spacing, and
    the block levels on the fine and half rungs of its grid ladder, which
    the line's domain enlargements climb again (see the module docstring).
    With `merged`, a circle's k, the half and fine rungs solve each block up
    to its share of the coarsest rung's k lowest levels, plus one spare.
    """
    cfg = config
    for _ in range(8):
        base = _base_levels(cfg, counts)
        half = discretize(replace(cfg, n=cfg.n // 2))
        coarsest = base[0] if base else _solve(half, counts)[0]
        rungs = counts
        if merged:
            kth = np.sort(np.concatenate(coarsest))[merged - 1]
            rungs = tuple(min(int(np.sum(levels <= kth)) + 1, merged) for levels in coarsest)
        seeds = tuple(levels[:k] for levels, k in zip(coarsest, rungs))
        coarse = _solve(half, rungs, seeds)[0] if base else coarsest
        disc = discretize(cfg)
        if base:
            ratio = (disc.h**2 - half.h**2) / (half.h**2 - base[1] ** 2)
            seeds = tuple(c + (c - b) * ratio for b, c in zip(seeds, coarse))
        fine, _, decay = _solve(disc, rungs, seeds)
        if decay >= DOMAIN_DECAY:
            return cfg, disc.h, fine, coarse
        last, cfg = cfg.l, replace(cfg, l=1.5 * cfg.l)
        _log.info("enlarging the line domain of %s from l = %r to l = %r",
                  cfg.spec.family, last, cfg.l)
    top = max(float(levels[-1]) for levels in fine if len(levels))
    edge = disc.diag[0] - 2.0 / disc.h**2    # the potential at the outermost point
    bound = _sturm_count(disc.diag, disc.offdiag, edge)
    short = f"; only {bound} of the {sum(counts)} levels asked lie below V = {edge:.6g} there"
    raise OracleError(f"domain too small: the top level {top:.6g} decays by {decay:.3g} of "
                      f"{DOMAIN_DECAY} e-folds to the line's end at l = {last:.6g}"
                      + (short if bound < sum(counts) else ""))


def lowest_eigenvalues(config: OracleConfig) -> OracleResult:
    """The requested lowest eigenvalues plus their half-resolution pair:
    ceil(k/2) even and floor(k/2) odd levels on the line, on a circle the k
    lowest of both blocks merged, each block solved up to its share of them
    plus one (_solve_on_domain), from the fine and half rungs of the grid
    ladder (see the module docstring).
    The bounds on n and count are checked here, not in OracleConfig,
    because the half-resolution solve runs on a config with n // 2.
    """
    if config.n < 64:
        raise ValueError("need at least 64 grid points")
    k = config.count
    if k > config.n // 2 - 1:
        raise ValueError(f"count must be at most n // 2 - 1 = {config.n // 2 - 1}, the levels "
                         f"the half-resolution grid can pair, got {k}")
    circle = config.spec.is_circle()
    counts = (k, k) if circle else ((k + 1) // 2, k // 2)
    cfg, h, fine, coarse = _solve_on_domain(config, counts, k if circle else None)
    fine, coarse = (tuple(float(v) for v in np.sort(np.concatenate(blocks))[:k])
                    for blocks in (fine, coarse))
    extrapolated = tuple((4.0 * f - c) / 3.0 for f, c in zip(fine, coarse))
    return OracleResult(cfg, fine, h, coarse, extrapolated)


def match_levels(analytic, eigenvalues) -> tuple:
    """Nearest-neighbor matching with injectivity enforced.

    No check calls it: the duality pairs match by label.  It is kept only
    because the benchmark's tracer wraps it by name."""
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
                 "sextic_minus": (8.0, 6000), "phi6_kink": (18.0, 6000)}


def _default_config(spec: PotentialSpec, count: int) -> OracleConfig:
    if spec.is_circle():
        # the E = 0 state of the kink-dual well is antiperiodic over one
        # potential period, so it only shows up on the doubled cover
        if spec.family == "phi6_kink_dual":
            return OracleConfig(replace(spec, period=2 * spec.period), n=4096, count=count)
        return OracleConfig(spec, n=2048, count=count)
    l, n = _DEFAULT_LINE.get(spec.family, (8.0, 6000))
    return OracleConfig(spec, l=l, n=n, count=count)


def _block_labels(spec: PotentialSpec, count: int) -> list:
    """The (reflection block, rank) of each of a family's `count` algebraic
    levels in ascending order; block 0 is even, block 1 odd.

    dshg: the level with k nodes, level k, is block k % 2, rank k // 2.
    dsg (odd M): the duals of the P chain (s = 0) are the lowest levels of
    the even block and those of Q (s = 1/2) the lowest of the odd block, so
    level j is block j % 2, rank j // 2.  sextic wells: the sector's level k
    is rank k of the block of its parity M mod 2.  phi6 kink: the zero mode
    (no nodes) and the 3/4 mu^2 state (2 nodes) are the even block's ranks 0
    and 1; their duals on the doubled circle, -3/4 mu^2 and 0, are ranks 0
    and 1 of its even block too, so a lone E = 0 level is rank 1.
    """
    family = spec.family
    if family in ("dshg", "dsg"):
        return [(j % 2, j // 2) for j in range(count)]
    if family in ("sextic_plus", "sextic_minus"):
        return [(spec.params["m"] % 2, j) for j in range(count)]
    if family == "phi6_kink":
        return [(0, j) for j in range(count)]
    if family == "phi6_kink_dual":
        return [(0, j) for j in range(2 - count, 2)]
    raise OracleError(f"no level labels known for family {spec.family!r}")


def _labelled_deviation(spec: PotentialSpec, levels: list) -> float:
    """The largest gap between an algebraic level and the extrapolated
    oracle level at its label, each block solved up to its top label."""
    labels = _block_labels(spec, len(levels))
    counts = tuple(max((rank + 1 for b, rank in labels if b == block), default=0)
                   for block in (0, 1))
    _, _, fine, coarse = _solve_on_domain(_default_config(spec, len(levels)), counts)
    return max(abs((4.0 * fine[b][rank] - coarse[b][rank]) / 3.0 - e)
               for e, (b, rank) in zip(levels, labels))


def verify_duality_pair(spec_a: PotentialSpec, spec_b: PotentialSpec,
                        tolerance: float = 1e-3) -> DualReport:
    """Check the negate-and-reverse pairing of two dual potentials.

    The algebraic levels of spec_a are mapped to spec_b's expected levels.
    Each level carries a (reflection block, rank) label (_block_labels);
    each side's blocks are solved only up to the ranks their labels name,
    at the default grid and its half, and every level's extrapolated value
    (4 fine - coarse) / 3 must lie within tolerance of its analytic level.
    """
    levels_a = analytic_qes_levels(spec_a)
    levels_b = dual_energies(levels_a)
    count = len(levels_a)
    worst = max(_labelled_deviation(spec_a, levels_a), _labelled_deviation(spec_b, levels_b))
    ok = worst <= tolerance
    return DualReport(
        source=tuple(levels_a),
        dual=tuple(levels_b),
        pairs=tuple((k, count - 1 - k) for k in range(count)),
        rejected=not ok,
        reason="" if ok else f"pairing deviation {worst} above {tolerance}",
    )
