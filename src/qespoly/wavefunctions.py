"""Terminating eigenfunctions of the double sinh-Gordon well.

Each algebraic level has a closed-form state assembled from the chain
polynomials evaluated at that level's shifted energy:

    psi(x) = exp(-(zeta/2) cosh 2x) * z**s * sum_j c_j * cosh(x)**e_j

with z = cosh 2x - 1, series exponents e_j = 2j for a P-chain level and
2j + 1 for a Q-chain level, and c_j = (chain polynomial at the level) / e_j!.
At an algebraic level the critical polynomial vanishes, the factorization
kills every later member, and the series is a finite sum, evaluated by
Horner's rule in cosh(x)**2 from its top nonzero term.  The branch of
z**(1/2) is taken odd, sgn(x) * sqrt(cosh 2x - 1) = sqrt(2) sinh x, so s = 0
states are even in x and s = 1/2 states are odd.

Each chain carries one parity of levels, so the state with k nodes is root
k // 2 of the chain at index k % 2 of the level plan (spectrum.chain_plan,
which lists families.terminating_chains); no float sort is involved.  One
solve per (M, zeta, kind) is shared through a two-entry memo
(spectrum.solve_chain), whose one coefficient table the states read by column.

The same coefficients evaluated with cosh -> cos give the state's circle
image on the double sine-Gordon side, whose half-turn character the chain
alone fixes (duality.dsg_spectrum).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .families import terminating_chains
from .potentials import PotentialSpec, potential_eval
from .spectrum import QESDomainError, require_qes_domain, solve_chain


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

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        """State value on the line; accepts scalars or arrays.  It is 0 where
        the prefactor exp(-(zeta/2) cosh 2x) underflows, also where cosh 2x
        (from |x| ~ 355), cosh x, sinh x or the series overflow and 0 * inf
        is NaN.  Overflow raises no warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            damp, v = self._series(x, np.cosh, np.sinh)
        v = np.where((damp == 0.0) & np.isnan(v), 0.0, v)
        return v if v.shape else float(v)

    def eval_dual(self, theta):
        """Circle image of the state under x -> i*theta (cosh -> cos).

        The odd branch carries a constant phase i that is dropped here;
        comparisons against closed circle states are made after projecting
        out scale and global sign anyway.
        """
        v = self._series(theta, np.cos, np.sin)[1]
        return v if v.shape else float(v)

    def _series(self, x, even, odd):
        """exp(-(zeta/2) even(2x)) and the state, that exponential times the
        series in u = even(x); odd(x) is the odd branch."""
        x = np.asarray(x, dtype=float)
        u = even(x)
        w, top = u * u, max(j for j, c in enumerate(self.coeffs) if c)
        # Horner in w = u**2 from the top nonzero c_j; e_j = 2j (P) or 2j + 1 (Q)
        series = np.full_like(w, self.coeffs[top])
        for c in reversed(self.coeffs[:top]):
            series *= w
            series += c
        if self.chain == "Q":
            series *= u
        damp = np.exp(-0.5 * self.zeta * even(2.0 * x))
        pref = damp * np.sqrt(2.0) * odd(x) if self.s else damp
        return damp, pref * series


def build_qes_state(m: int, zeta: float, level: int) -> QESState:
    """Assemble the series state for one algebraic level: root level // 2 of
    the chain of node parity level % 2, and that root's column of the chain's
    certified series coefficients (spectrum.ChainSolution.series_coeffs)."""
    m, _ = require_qes_domain(m, zeta)
    if not 0 <= level < m:
        raise QESDomainError(f"level must be in 0..{m - 1}")
    # the chain of node parity level % 2 (the s = 0 chain carries even nodes)
    solution = solve_chain(m, zeta, terminating_chains(m)[level % 2][0])
    spec, root = solution.spec, solution.roots[level // 2]
    return QESState(m=m, zeta=zeta, level=level, chain=spec.kind, s=spec.s,
                    coeffs=solution.series_coeffs[level // 2], energy=root + solution.shift,
                    script_energy=root, critical_index=len(solution.roots))


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
    inner = padded[2:-2]
    with np.errstate(invalid="ignore"):     # V = inf where psi = 0: the term is 0
        res = -second + np.where(inner == 0.0, 0.0, (v - energy) * inner)
    scale = np.max(np.abs(values))
    if scale == 0.0:
        raise ValueError("state vanishes identically on the grid")
    return float(np.max(np.abs(res)) / scale)


def residual(state: QESState, spec: PotentialSpec, grid) -> float:
    """Schroedinger residual of a constructed state against its potential."""
    return schrodinger_residual(state, state.energy, spec, grid)
