"""Terminating eigenfunctions of the double sinh-Gordon well.

Each algebraic level has a closed-form state assembled from the chain
polynomials evaluated at that level's shifted energy:

    psi(x) = exp(-(zeta/2) cosh 2x) * z**s * sum_j c_j * cosh(x)**e_j

with z = cosh 2x - 1, series exponents e_j = 2j for a P-chain level and
2j + 1 for a Q-chain level, and c_j = (chain polynomial at the level) / e_j!.
At an algebraic level the critical polynomial vanishes, the factorization
kills every later member, and the series is a finite sum.  The branch of
z**(1/2) is taken odd, sgn(x) * sqrt(cosh 2x - 1) = sqrt(2) sinh x, so s = 0
states are even in x and s = 1/2 states are odd.

Each chain carries one parity of levels, so the state with k nodes is root
k // 2 of the chain at index k % 2 of the level plan (spectrum.chain_plan);
no float sort is involved.  One solve per (spec, n, zeta) is shared through
a two-entry memo (spectrum.solve_chain); chain_roots is the uncached certifier.

The same coefficients evaluated with cosh -> cos give the state's circle
image on the double sine-Gordon side, whose half-turn character the chain
alone fixes (duality.dsg_spectrum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .families import series_index
from .potentials import PotentialSpec, potential_eval
from .spectrum import QESDomainError, chain_plan, require_qes_domain, solve_chain


@dataclass(frozen=True)
class QESState:
    """One algebraic bound state of the double sinh-Gordon well."""

    m: int
    zeta: float
    level: int
    chain: str
    s: Fraction
    coeffs: tuple          # c_0 .. c_K, floats; zero past the critical index
    energy: float
    script_energy: float
    critical_index: int

    def series_exponent(self, j: int) -> int:
        return series_index(self.chain, j)

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        """State value on the line; accepts scalars or arrays."""
        return self._series(x, np.cosh, np.sinh)

    def eval_dual(self, theta):
        """Circle image of the state under x -> i*theta (cosh -> cos).

        The odd branch carries a constant phase i that is dropped here;
        comparisons against closed circle states are made after projecting
        out scale and global sign anyway.
        """
        return self._series(theta, np.cos, np.sin)

    def _series(self, x, even, odd):
        """Prefactor times series with u = even(x); odd(x) is the odd branch."""
        x = np.asarray(x, dtype=float)
        u = even(x)
        series = np.zeros_like(u)
        for j, c in enumerate(self.coeffs):
            if c:
                series = series + c * u ** self.series_exponent(j)
        pref = np.exp(-0.5 * self.zeta * even(2.0 * x))
        if self.s:
            pref = pref * np.sqrt(2.0) * odd(x)
        v = pref * series
        return v if v.shape else float(v)


def build_qes_state(m: int, zeta: float, level: int) -> QESState:
    """Assemble the series state for one algebraic level: root level // 2 of
    the chain of node parity level % 2.  Two members past the critical index
    are certified finite and vanishing (relative 1e-9) at every root of that
    chain, so the truncation is exact rather than approximate."""
    m, shift = require_qes_domain(m, zeta)
    if not 0 <= level < m:
        raise QESDomainError(f"level must be in 0..{m - 1}")
    spec, crit = chain_plan(m)[level % 2]
    solution = solve_chain(spec, crit, zeta)
    factorials = [float(math.factorial(series_index(spec.kind, j))) for j in range(crit + 3)]
    coeffs = np.array(solution.values) / np.array(factorials)[:, None]
    tail = np.abs(coeffs[crit:])
    scale = np.max(np.abs(coeffs), axis=0)
    # a NaN tail fails "<=", and an inf scale, which any tail is within, fails
    bad = np.argwhere(~(tail <= 1e-9 * scale) | ~np.isfinite(scale))
    if bad.size:
        j, k = bad[0]
        raise QESDomainError(f"series does not terminate: |c_{crit + j}| = {tail[j, k]}"
                             f" against max |c| = {scale[k]}")
    coeffs[crit:] = 0.0
    root = solution.roots[level // 2]
    return QESState(m=m, zeta=zeta, level=level, chain=spec.kind, s=spec.s,
                    coeffs=tuple(coeffs[:, level // 2].tolist()), energy=root + shift,
                    script_energy=root, critical_index=crit)


def node_count(state, grid) -> int:
    """Strict sign changes of the state over the grid interior.

    Grid points where the value is negligible against the sup norm are
    skipped so that exact zeros (an odd state at x = 0) and underflowed
    tails do not miscount.
    """
    values = np.asarray(state(grid) if callable(state) else state, dtype=float)
    scale = np.max(np.abs(values))
    if scale == 0.0:
        return 0
    signs = np.sign(values[np.abs(values) > 1e-12 * scale])
    return int(np.sum(signs[1:] != signs[:-1]))


def schrodinger_residual(psi, energy: float, potential, grid) -> float:
    """sup |(-psi'' + V psi - E psi)| / sup |psi| with a 4th-order stencil.

    psi may be a callable or an array of samples on the uniform grid;
    potential is a PotentialSpec, or None for V = 0 on the line.  For a
    circle potential the grid covers whole periods and the samples are
    padded by two wrapped points on each side; on the line the outer two
    points are skipped.
    """
    grid = np.asarray(grid, dtype=float)
    h = grid[1] - grid[0]
    values = np.asarray(psi(grid) if callable(psi) else psi, dtype=float)
    if potential is not None and not isinstance(potential, PotentialSpec):
        raise TypeError("potential must be a PotentialSpec or None")
    v = np.zeros_like(grid) if potential is None else potential_eval(potential, grid)

    if potential is not None and potential.is_circle():
        padded = np.concatenate([values[-2:], values, values[:2]])
    else:
        padded, v = values, v[2:-2]
    second = (
        -padded[:-4] + 16 * padded[1:-3] - 30 * padded[2:-2]
        + 16 * padded[3:-1] - padded[4:]
    ) / (12 * h * h)
    res = -second + (v - energy) * padded[2:-2]
    scale = np.max(np.abs(values))
    if scale == 0.0:
        raise ValueError("state vanishes identically on the grid")
    return float(np.max(np.abs(res)) / scale)


def residual(state: QESState, spec: PotentialSpec, grid) -> float:
    """Schroedinger residual of a constructed state against its potential."""
    return schrodinger_residual(state, state.energy, spec, grid)
