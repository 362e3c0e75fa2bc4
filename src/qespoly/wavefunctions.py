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

The same coefficients evaluated with cosh -> cos give the circle image of
the state used on the double sine-Gordon side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .families import ChainSpec, family_values, series_index
from .potentials import PotentialSpec, potential_eval
from .spectrum import QESDomainError, SpectrumReport, chain_plan, qes_energies


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

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "zeta": self.zeta,
            "level": self.level,
            "chain": self.chain,
            "s": float(self.s),
            "coeffs": list(self.coeffs),
            "E": self.energy,
        }


def build_qes_state(m: int, zeta: float, level: int) -> QESState:
    """Assemble the series state for one algebraic level.

    Two chain members beyond the critical index are evaluated and certified
    to vanish (relative 1e-9), making the truncation exact rather than
    approximate.
    """
    return _state_from_report(qes_energies(m, zeta), level)


def _state_from_report(report: SpectrumReport, level: int) -> QESState:
    """build_qes_state on a spectrum that is already solved."""
    if not 0 <= level < report.m:
        raise QESDomainError(f"level must be in 0..{report.m - 1}")
    lv = report.levels[level]
    entry = chain_plan(report.m).entry(lv.chain)
    spec = ChainSpec(lv.chain, Fraction(report.m), entry.s)
    values = family_values(spec, entry.critical_index + 2, report.zeta, lv.script_energy)
    coeffs = [value / math.factorial(series_index(lv.chain, j))
              for j, value in enumerate(values)]
    scale = max(abs(c) for c in coeffs)
    for j in range(entry.critical_index, entry.critical_index + 3):
        if abs(coeffs[j]) > 1e-9 * scale:
            raise QESDomainError(
                f"series does not terminate: |c_{j}| = {abs(coeffs[j])}"
            )
        coeffs[j] = 0.0
    return QESState(
        m=report.m,
        zeta=report.zeta,
        level=level,
        chain=lv.chain,
        s=entry.s,
        coeffs=tuple(coeffs),
        energy=lv.energy,
        script_energy=lv.script_energy,
        critical_index=entry.critical_index,
    )


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


def schrodinger_residual(psi, energy: float, potential, grid, periodic: bool = False) -> float:
    """sup |(-psi'' + V psi - E psi)| / sup |psi| with a 4th-order stencil.

    psi may be a callable or an array of samples on the uniform grid;
    potential is a PotentialSpec, or None for V = 0.  On periodic grids the
    stencil wraps; on the line the outer two points are skipped.
    """
    grid = np.asarray(grid, dtype=float)
    h = grid[1] - grid[0]
    values = np.asarray(psi(grid) if callable(psi) else psi, dtype=float)
    if potential is not None and not isinstance(potential, PotentialSpec):
        raise TypeError("potential must be a PotentialSpec or None")
    v = np.zeros_like(grid) if potential is None else potential_eval(potential, grid)

    if periodic:
        m2, m1 = np.roll(values, 2), np.roll(values, 1)
        p1, p2 = np.roll(values, -1), np.roll(values, -2)
        second = (-m2 + 16 * m1 - 30 * values + 16 * p1 - p2) / (12 * h * h)
        res = -second + (v - energy) * values
    else:
        second = (
            -values[:-4] + 16 * values[1:-3] - 30 * values[2:-2]
            + 16 * values[3:-1] - values[4:]
        ) / (12 * h * h)
        res = -second + (v[2:-2] - energy) * values[2:-2]
    scale = np.max(np.abs(values))
    if scale == 0.0:
        raise ValueError("state vanishes identically on the grid")
    return float(np.max(np.abs(res)) / scale)


def residual(state: QESState, spec: PotentialSpec, grid) -> float:
    """Schroedinger residual of a constructed state against its potential."""
    return schrodinger_residual(state, state.energy, spec, grid, periodic=spec.is_circle())
