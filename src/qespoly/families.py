"""Generators for the energy-polynomial chains of the double sinh-Gordon well.

The Schroedinger series solution produces one combined chain R with seeds
R0 = R1 = 1 that splits into two decoupled monic three-term chains: P
(even series order, P_n = R_{2n}) and Q (odd series order, Q_n = R_{2n+1}).
Both are polynomials in the shifted energy variable

    script_E = E - (M + zeta)**2

with exact rational coefficients in zeta.  For positive integer M of the
right parity the lag coefficient C_n vanishes at a finite index, the chain
terminates, and every later member factors through the critical member; the
four quotient chains (Pbar, Qbar for odd M; Rbar, Sbar for even M) are the
cofactors of that factorization and are generated here by the same
recursion with the index shifted past the critical member.  Every chain
takes its steps from the one series step of R (_r_step), P and Q at the
series index of their member (series_index), and R itself is the P and Q
members of that one loop interleaved.  Which chains
terminate, with which quotient chain, is one table (TERMINATING, read
through terminating_chains), and the critical index one formula
(critical_index); the level plan, the factorization check, the quotient
chains' validation and index offset, and the termination index read them.

Every chain is generated on exactpoly coefficient rows, one step_rows call
per member (integers throughout for integer M), and those rows are what each
member stores: from_rows wraps them as an EnergyPoly without converting an
entry.  The numeric work at one zeta reads each step once, into one
ChainSteps value (chain_steps), and expands no member: family_values and
finkel_form read its float steps, and member_signs the exact sign of its
last member at float points from its integer steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactpoly import (
    EnergyPoly,
    ParamPoly,
    as_rational,
    from_rows,
    plain,
    step_rows,
)

MAIN_KINDS = ("P", "Q")
QUOTIENT_KINDS = ("Pbar", "Qbar", "Rbar", "Sbar")
CHAIN_KINDS = MAIN_KINDS + ("R",) + QUOTIENT_KINDS

# M mod 2 -> the chains that terminate at integer M, as (kind, s, quotient
# kind); the first, with s = 0, carries the even-node levels
TERMINATING = {
    1: (("P", Fraction(0), "Pbar"), ("Q", Fraction(1, 2), "Qbar")),
    0: (("Q", Fraction(0), "Sbar"), ("P", Fraction(1, 2), "Rbar")),
}
# quotient kind -> parent kind, read off TERMINATING
_PARENT = {q: kind for row in TERMINATING.values() for kind, _, q in row}


class ChainSpecError(ValueError):
    pass


@dataclass(frozen=True)
class ChainSpec:
    """Which chain to generate: kind, coupling parameter M, indicial root s."""

    kind: str
    m: Fraction
    s: Fraction

    def __post_init__(self):
        if self.kind not in CHAIN_KINDS:
            raise ChainSpecError(f"unknown chain kind {self.kind!r}")
        object.__setattr__(self, "m", as_rational(self.m))
        object.__setattr__(self, "s", as_rational(self.s))
        if (self.s.numerator, self.s.denominator) not in ((0, 1), (1, 2)):
            raise ChainSpecError("s must be 0 or 1/2")
        if self.kind in QUOTIENT_KINDS:
            m = self.m
            if m.denominator != 1 or m <= 0 or (self.s, self.kind) not in (
                    (s, q) for _, s, q in TERMINATING[m.numerator % 2]):
                raise ChainSpecError("invalid quotient chain")


@dataclass(frozen=True)
class PolyFamily:
    """A generated chain: members[n] is the n-th polynomial, monic of degree n
    for the P/Q/quotient chains (the combined R chain has degree floor(n/2))."""

    spec: ChainSpec
    members: tuple
    termination_index: int | None = None

    def __len__(self):
        return len(self.members)

    def __getitem__(self, n: int) -> EnergyPoly:
        return self.members[n]


@dataclass(frozen=True)
class ThreeTermForm:
    """Monic three-term data: member_n = (E + B_n) member_{n-1} + C_n member_{n-2}.

    A_n is identically 1; index 1 carries C_1 = 0.  first_zero_C is the
    least n >= 2 with C_n identically zero in zeta (termination), if any.
    The chain is an orthogonal-polynomial system in the sense of the
    three-term criterion exactly up to that index.
    """

    spec: ChainSpec
    b: tuple
    c: tuple
    first_zero_C: int | None


@dataclass(frozen=True)
class FinkelForm:
    """Numeric recursion data in the positivity-criterion normalization
    Phat_{k+1} = (E - b_k) Phat_k - a_k Phat_{k-1}, so a_k = -C_{k+1}(zeta)
    and b_k = -B_{k+1}(zeta).  All a_k > 0 would force positive weights."""

    zeta: float
    b: tuple
    a: tuple
    a_signs_before_termination: tuple


@dataclass(frozen=True)
class ChainSteps:
    """Steps 1..n of a monic recursion p_k = (E + B_k) p_{k-1} + C_k p_{k-2} at
    one zeta = a/d: the float (B_k, C_k), and the exact (d*B_k, d**2*C_k) over
    den = d, ints (Fractions only through a rational M)."""

    den: int
    floats: tuple
    exact: tuple

    def head(self, n: int) -> ChainSteps:
        """Steps 1..n."""
        return ChainSteps(self.den, self.floats[:n], self.exact[:n])


def critical_index(kind: str, m, s: Fraction):
    """Index of the critical (terminating) member, P: (M+1-2s)/2, Q: (M-2s)/2.

    An int where it is integral (integer M, for the chains of TERMINATING),
    a Fraction otherwise; integer arithmetic throughout for an int M.
    """
    if kind not in MAIN_KINDS:
        raise ChainSpecError(f"no critical index for chain {kind!r}")
    t = s.numerator  # 2s, for s = 0 or 1/2
    if (t, s.denominator) not in ((0, 1), (1, 2)):
        raise ChainSpecError("s must be 0 or 1/2")
    twice = m + (kind == "P") - t
    return twice // 2 if twice % 2 == 0 else Fraction(twice, 2)


def terminating_chains(m: int) -> list:
    """(kind, s, quotient kind, critical index) of each chain that
    terminates at integer M, s = 0 first, with int critical indices."""
    return [(kind, s, q, critical_index(kind, m, s)) for kind, s, q in TERMINATING[m % 2]]


def series_index(kind: str, n: int) -> int:
    """Index in the combined series chain R of member n of P or Q:
    P_n = R_2n, Q_n = R_2n+1."""
    return 2 * n + (kind == "Q")


def _r_step(m, t: int, j: int) -> tuple:
    """(b0, b1, c1) of the series step at t = 2s, in the shifted energy E:

        R_{j+2} = (E + b0 + b1*zeta) R_j + c1*zeta R_{j-2},
        b0 = (j+t)**2,  b1 = 4j + 2,  c1 = 4(M+1-t-j) j (j-1).

    Plain numbers: ints throughout for integer M, a Fraction c1 for rational M.
    """
    return (j + t) ** 2, 4 * j + 2, 4 * (m + 1 - t - j) * j * (j - 1)


def _step(spec: ChainSpec, n: int) -> tuple:
    """(b0, b1, c1) with B_n = b0 + b1*zeta and C_n = c1*zeta: the series
    step that ends at member n, R_{series_index(kind, n)}."""
    if n < 1:
        raise ValueError("recursion index starts at 1")
    # s is 0 or 1/2, so t = 2s is its numerator
    kind, m, t = spec.kind, plain(spec.m), spec.s.numerator
    if kind in QUOTIENT_KINDS:
        # ChainSpec admits only the quotients of TERMINATING, whose parents
        # have an integer critical index
        kind = _PARENT[kind]
        n += critical_index(kind, m, spec.s)
    if kind not in MAIN_KINDS:
        raise ChainSpecError(f"chain {spec.kind!r} has no adjacent three-term step")
    return _r_step(m, t, series_index(kind, n) - 2)


def chain_steps(spec: ChainSpec, order: int, zeta) -> ChainSteps:
    """Steps 1..order of a P/Q/quotient chain at zeta, one _step each: floats
    float(b1)*zeta + float(b0) and float(c1)*zeta, exact b0*d + b1*a and c1*a*d."""
    a, d = as_rational(zeta).as_integer_ratio()
    rows = [_step(spec, n) for n in range(1, order + 1)]
    return ChainSteps(d, tuple((float(b1) * zeta + float(b0), float(c1) * zeta) for b0, b1, c1 in rows),
                      tuple((b0 * d + b1 * a, c1 * a * d) for b0, b1, c1 in rows))


def member_signs(steps: ChainSteps, points) -> list:
    """Exact signs of the steps' last member p_n at float points, +-inf included:
    at zeta = a/d and t = u/v, q_n = (d*v)**n p_n(t) by the recursion
    q_k = (d*u + (d*B_k)*v) q_{k-1} + (d**2*C_k)*v**2 q_{k-2} on the exact steps."""
    d, n = steps.den, len(steps.exact)
    signs = []
    for t in points:
        if math.isinf(t):  # a monic member of degree n
            signs.append(-1 if t < 0 and n % 2 else 1)
            continue
        u, v = t.as_integer_ratio()
        prev, cur = 0, 1
        for shift, lag in steps.exact:
            prev, cur = cur, (d * u + shift * v) * cur + lag * v * v * prev
        signs.append((cur > 0) - (cur < 0))
    return signs


def family_values(steps: ChainSteps, eps) -> list:
    """p_0..p_n of the steps at the shifted energy eps, a float or a numpy array
    whose shape the values take, by forward recursion on the float steps.  An
    overflow gives inf or nan without a warning."""
    values = [eps * 0.0, eps * 0.0 + 1.0]  # p_{-1} = 0 meets C_1 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for b, c in steps.floats:
            values.append((eps + b) * values[-1] + c * values[-2])
    return values[1:]


def _termination(spec: ChainSpec) -> int | None:
    """Index of the first member whose lag term vanishes identically, for a
    P/Q chain or the combined R chain: one past a positive critical index of
    a terminating chain; else None."""
    if spec.kind in QUOTIENT_KINDS or spec.m.denominator != 1:
        return None
    for kind, s, _, crit in terminating_chains(spec.m.numerator):
        if s == spec.s and crit >= 1 and spec.kind in (kind, "R"):
            return crit + 1 if spec.kind == kind else series_index(kind, crit + 1)
    return None


def _generate(spec: ChainSpec, order: int) -> tuple:
    if order < 0:
        raise ValueError("order must be nonnegative")
    rows = [[[1]]]
    for n in range(1, order + 1):
        rows.append(step_rows(rows[n - 1], rows[n - 2] if n >= 2 else [], *_step(spec, n)))
    return tuple(from_rows(r) for r in rows)


def gen_family(spec: ChainSpec, order: int) -> PolyFamily:
    """Generate members 0..order of a main chain (P or Q) exactly."""
    if spec.kind not in MAIN_KINDS:
        raise ChainSpecError("gen_family handles the P and Q chains")
    return PolyFamily(spec, _generate(spec, order), _termination(spec))


def gen_quotient(spec: ChainSpec, order: int) -> PolyFamily:
    """Generate members 0..order of a quotient chain (Pbar/Qbar/Rbar/Sbar)."""
    if spec.kind not in QUOTIENT_KINDS:
        raise ChainSpecError("gen_quotient handles the quotient chains")
    return PolyFamily(spec, _generate(spec, order), None)


def gen_R(spec: ChainSpec, order: int) -> PolyFamily:
    """Generate the combined chain R_0..R_order with seeds R0 = R1 = 1.

    The series step (_r_step) couples indices four apart in steps of two,
    so the even members are the P chain and the odd members the Q chain at
    the same (M, s): R_2n = P_n and R_2n+1 = Q_n, interleaved here.
    """
    if spec.kind != "R":
        raise ChainSpecError("gen_R handles the combined chain")
    p = _generate(ChainSpec("P", spec.m, spec.s), order // 2)
    q = _generate(ChainSpec("Q", spec.m, spec.s), max(order - 1, 0) // 2)
    members = tuple((q if j % 2 else p)[j // 2] for j in range(order + 1))
    return PolyFamily(spec, members, _termination(spec))


def recursion_form(spec: ChainSpec, order: int) -> ThreeTermForm:
    """The (A_n = 1, B_n, C_n) data of steps 1..order of a P/Q/quotient chain,
    read off _step and the termination index: no member is generated."""
    if spec.kind == "R":
        raise ChainSpecError("the combined chain is not an adjacent three-term system")
    if order < 0:
        raise ValueError("order must be nonnegative")
    rows = [_step(spec, n) for n in range(1, order + 1)]
    bs = tuple(ParamPoly((b0, b1)) for b0, b1, _ in rows)
    cs = tuple(ParamPoly.monomial(c1, 1) for _, _, c1 in rows)
    end = _termination(spec)
    first_zero = end if end is not None and end <= order else None
    return ThreeTermForm(spec, bs, cs, first_zero)


def three_term_form(family: PolyFamily) -> ThreeTermForm:
    """The (A_n = 1, B_n, C_n) data of a generated P/Q/quotient chain's steps."""
    return recursion_form(family.spec, len(family.members) - 1)


def finkel_form(form: ThreeTermForm, zeta: float) -> FinkelForm:
    """Specialize a three-term form at a finite zeta > 0 to the
    (E - b_k, -a_k) normalization and report the sign pattern of a_k."""
    if not 0 < zeta < math.inf:
        raise ValueError("zeta must be positive and finite")
    steps = chain_steps(form.spec, len(form.b), zeta).floats
    b = tuple(-bn for bn, _ in steps)
    a = tuple(-cn for _, cn in steps)
    stop = form.first_zero_C - 1 if form.first_zero_C is not None else len(a)
    signs = tuple((x > 0) - (x < 0) for x in a[1:stop])
    return FinkelForm(zeta, b, a, signs)
