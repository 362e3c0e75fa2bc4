"""The anti-isospectral map x -> i*theta and its consequences.

A symmetric line potential V(x) maps to Vbar(theta) = -V(i theta) on a
circle, and the algebraic levels map by negate-and-reverse:

    Ebar_k = -E_{count-1-k},   psibar_k(theta) = psi_{count-1-k}(i theta).

Applied to the double sinh-Gordon well this produces the double sine-Gordon
potential -(zeta cos 2theta - M)**2.  Because the circle problem demands
psi(theta + pi) = psi(theta) while the transformed states flip sign under a
half turn whenever M is even, only odd M survives: the sine-Gordon side is
algebraically solvable for roughly half the parameter values of its dual.
At even M the half-turn characters are read off the states of the two
chains, one solve each, so the rejection needs no sorted spectrum.

The same map applied to the bounded kink-stability well yields a periodic
well whose ground state (at epsilon**2 = 1/2) and second excited state
(at every epsilon) are known in closed form; those states live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .potentials import phi6_kink
from .spectrum import (
    QESDomainError,
    QESLevel,
    SpectrumReport,
    _moment_sequence,
    qes_energies,
    require_qes_domain,
    weights,
)
from .wavefunctions import chain_states

__all__ = [
    "DsgRejection",
    "dual_energies",
    "dsg_spectrum",
    "periodicity_character",
    "dsg_weights_moments",
    "new_potential_states",
]

PERIODIC = 1
ANTIPERIODIC = -1
MIXED = 0


@dataclass(frozen=True)
class DsgRejection:
    """Typed rejection of the sine-Gordon levels at even M, with the
    half-turn characters of the candidate states as evidence."""

    m: int
    zeta: float
    characters: tuple
    reason: str


def dual_energies(levels) -> list:
    """Negate and reverse; an involution on sorted level lists."""
    return [-e for e in reversed(list(levels))]


def periodicity_character(values) -> int:
    """Half-turn character of a state sampled over one full period.

    values must have even length on a uniform grid covering the full
    period; returns +1 (invariant), -1 (sign flip) or 0 (mixed), each
    within 1e-8 of the sup norm.
    """
    v = np.asarray(values, dtype=float)
    if v.size % 2:
        raise ValueError("need an even sample count over the full period")
    half = v.size // 2
    shifted = np.roll(v, -half)
    scale = np.max(np.abs(v))
    if scale == 0.0:
        return PERIODIC
    if np.max(np.abs(shifted - v)) <= 1e-8 * scale:
        return PERIODIC
    if np.max(np.abs(shifted + v)) <= 1e-8 * scale:
        return ANTIPERIODIC
    return MIXED


def dsg_spectrum(m: int, zeta: float):
    """Sine-Gordon levels for odd M; a typed rejection for even M.

    Odd M: the image of the sinh-Gordon spectrum under negate-and-reverse,
    with node labels by energy rank and the chain inherited from the source
    level.  Even M: every candidate state is odd under a half turn, so no
    pi-periodic eigenstate exists at the mapped energies.  The candidate
    states come from one solve of each chain, with no level sort.
    """
    m, shift = require_qes_domain(m, zeta)
    if m % 2 == 0:
        # characters on the 2*pi circle, by node count
        theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        states = sorted(chain_states(m, zeta, 0) + chain_states(m, zeta, 1),
                        key=lambda state: state.level)
        return DsgRejection(m, zeta, tuple(periodicity_character(state.eval_dual(theta))
                                           for state in states),
                            "candidate states change sign under a half turn (even M)")
    source = qes_energies(m, zeta)
    pairs = enumerate(zip(dual_energies(source.energies()), reversed(source.levels)))
    levels = tuple(QESLevel(e, e - shift, k, src.chain) for k, (e, src) in pairs)
    return SpectrumReport(m, zeta, levels)


def dsg_weights_moments(m: int, zeta: float, chain: str = "P"):
    """Weights and moments on the sine-Gordon side, for odd M.

    The chain recursions keep their form with the energy negated, so the
    circle table is the sinh-Gordon table on the negated support with the
    entries interchanged end to end, and the moments pick up a factor
    (-1)**n.
    """
    m, shift = require_qes_domain(m, zeta)
    if m % 2 == 0:
        raise QESDomainError("sine-Gordon weights exist only for odd positive M")
    source = weights(m, zeta, chain)
    table = replace(source, support=tuple((-e, w) for e, w in reversed(source.support)))
    return table, _moment_sequence(table, zeta, shift, 12)


# ----------------------------------------------------------------------
# The periodic well discovered through the map
# ----------------------------------------------------------------------

def new_potential_states(epsilon_sq: float, mu: float) -> list:
    """Closed-form states of the periodic kink-dual well.

    Always returns the E = 0 state (valid at every epsilon); at
    epsilon**2 = 1/2 the ground state E = -(3/4) mu**2 is also known.
    States are normalized to unit sup norm on a uniform 2048-point grid over
    their own period and returned as (energy, callable) pairs sorted by energy.

    These are the analytic continuations of the line states, which fixes
    the surviving exponents: the ground state is (1 + sin**2)-type and
    invariant under a shift by one potential period 2 pi / mu, while the
    E = 0 state (the image of the kink translation mode) carries a
    cos(mu*theta/2) factor, so it changes sign under that shift and is
    genuinely periodic only on the doubled circle 4 pi / mu.
    """
    phi6_kink(epsilon_sq, mu)  # the parameter check of the line well
    period = 2.0 * np.pi / mu

    def psi2_raw(theta):
        theta = np.asarray(theta, dtype=float)
        s2 = np.sin(0.5 * mu * theta) ** 2
        den = epsilon_sq + 1.0 - epsilon_sq * s2
        return np.cos(0.5 * mu * theta) / den**1.5

    states = []
    if abs(epsilon_sq - 0.5) <= 1e-12:

        def psi0_raw(theta):
            theta = np.asarray(theta, dtype=float)
            s2 = np.sin(0.5 * mu * theta) ** 2
            return (1.0 + s2) / (3.0 - s2) ** 1.5

        grid0 = np.linspace(0.0, period, 2048, endpoint=False)
        n0 = float(np.max(np.abs(psi0_raw(grid0))))
        states.append((-0.75 * mu * mu, lambda th, _n=n0: psi0_raw(th) / _n))

    grid2 = np.linspace(0.0, 2.0 * period, 2048, endpoint=False)
    n2 = float(np.max(np.abs(psi2_raw(grid2))))
    states.append((0.0, lambda th, _n=n2: psi2_raw(th) / _n))
    states.sort(key=lambda pair: pair[0])
    return states
