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
recursion with the index shifted past the critical member.

Every chain is generated on exactpoly coefficient rows, one step_rows call
per member (integers throughout for integer M), and those rows are what each
member stores: from_rows wraps them as an EnergyPoly without converting an
entry.  The numeric recursions at one zeta read the same step coefficients:
scaled_members runs it on integers, with zeta's denominator cleared, and
family_values in floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

# quotient kind -> (base chain, required s, M parity ("odd"/"even"))
_QUOTIENT_TABLE = {
    "Pbar": ("P", Fraction(0), "odd"),
    "Qbar": ("Q", Fraction(1, 2), "odd"),
    "Rbar": ("P", Fraction(1, 2), "even"),
    "Sbar": ("Q", Fraction(0), "even"),
}


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
        if self.s not in (Fraction(0), Fraction(1, 2)):
            raise ChainSpecError("s must be 0 or 1/2")
        if self.kind in QUOTIENT_KINDS:
            base, s_req, parity = _QUOTIENT_TABLE[self.kind]
            m = self.m
            if m.denominator != 1 or m <= 0:
                raise ChainSpecError("invalid quotient chain")
            odd = int(m) % 2 == 1
            if (parity == "odd") != odd or self.s != s_req:
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

    def order(self) -> int:
        return len(self.b)


@dataclass(frozen=True)
class FinkelForm:
    """Numeric recursion data in the positivity-criterion normalization
    Phat_{k+1} = (E - b_k) Phat_k - a_k Phat_{k-1}, so a_k = -C_{k+1}(zeta)
    and b_k = -B_{k+1}(zeta).  All a_k > 0 would force positive weights."""

    zeta: float
    b: tuple
    a: tuple
    a_signs_before_termination: tuple


def critical_index(kind: str, m: Fraction, s: Fraction) -> Fraction:
    """Index of the critical (terminating) member: P: (M+1-2s)/2, Q: (M-2s)/2."""
    if kind == "P":
        return (m + 1 - 2 * s) / 2
    if kind == "Q":
        return (m - 2 * s) / 2
    raise ChainSpecError(f"no critical index for chain {kind!r}")


def _step(spec: ChainSpec, n: int) -> tuple:
    """(b0, b1, c1) with B_n = b0 + b1*zeta and C_n = c1*zeta, as plain
    numbers: ints throughout for integer M, a Fraction c1 for rational M.

    With t = 2s, b0 = (2n+t-2)**2 for P and (2n+t-1)**2 for Q.
    """
    if n < 1:
        raise ValueError("recursion index starts at 1")
    # s is 0 or 1/2, so t = 2s is its numerator
    kind, m, t = spec.kind, plain(spec.m), spec.s.numerator
    if kind in QUOTIENT_KINDS:
        # the quotient table admits only integer M of the parity that makes
        # the critical index an integer
        kind = _QUOTIENT_TABLE[kind][0]
        n += (m + 1 - t) // 2 if kind == "P" else (m - t) // 2
    if kind == "P":
        c1 = 8 * (n - 1) * (2 * n - 3) * (m + 3 - t - 2 * n)
        return (2 * n + t - 2) ** 2, 8 * n - 6, plain(c1)
    if kind == "Q":
        c1 = 8 * (n - 1) * (2 * n - 1) * (m + 2 - t - 2 * n)
        return (2 * n + t - 1) ** 2, 8 * n - 2, plain(c1)
    raise ChainSpecError(f"chain {spec.kind!r} has no adjacent three-term step")


def recursion_coeffs(spec: ChainSpec, n: int):
    """(B_n, C_n) of the monic step at index n >= 1; C_1 is identically zero.

    Quotient chains reuse the parent recursion with the index offset past
    the critical member, which is exactly what long division of the parent
    chain produces (the offset lands index 1 on the vanished lag term).
    """
    b0, b1, c1 = _step(spec, n)
    return ParamPoly((b0, b1)), ParamPoly.monomial(c1, 1)


def scaled_members(spec: ChainSpec, order: int, zeta) -> list:
    """Members 0..order at one exact rational zeta = a/d, denominators cleared.

    Entry n is (q, d**n), q the coefficient list in E (index k multiplies
    E**k) of q_n = d**n p_n, so q[k] / d**n is the coefficient of p_n.  The
    recursion q_n = (d*E + b0*d + b1*a) q_{n-1} + c1*a*d q_{n-2} runs on ints
    for integer M (Fractions only through a rational M's c1) and normalises
    no Fraction.
    """
    z = as_rational(zeta)
    a, d = z.numerator, z.denominator
    prev, cur = [], [1]
    members = [(cur, 1)]
    for n in range(1, order + 1):
        b0, b1, c1 = _step(spec, n)
        shift, lag = b0 * d + b1 * a, c1 * a * d
        new = [0] + [d * x for x in cur]
        for k, x in enumerate(cur):
            new[k] += shift * x
        if lag:
            for k, x in enumerate(prev):
                new[k] += lag * x
        prev, cur = cur, new
        members.append((cur, d**n))
    return members


def family_values(spec: ChainSpec, order: int, zeta: float, eps) -> list:
    """p_0..p_order at float (zeta, shifted energy eps) by forward recursion.

    eps may be a float or a numpy array of shifted energies; the values
    then have its shape.
    """
    values = [eps * 0.0 + 1.0]
    for n in range(1, order + 1):
        b0, b1, c1 = _step(spec, n)
        new = (eps + (float(b1) * zeta + float(b0))) * values[-1]
        if n >= 2:
            new = new + float(c1) * zeta * values[-2]
        values.append(new)
    return values


def _termination(spec: ChainSpec) -> int | None:
    """Smallest n >= 2 with C_n identically zero, for integer M; else None."""
    kind, m, s = spec.kind, spec.m, spec.s
    if kind not in MAIN_KINDS:
        return None
    t = (m + 3 - 2 * s) / 2 if kind == "P" else (m + 2 - 2 * s) / 2
    if t.denominator == 1 and t >= 2:
        return int(t)
    return None


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be nonnegative")


def _generate(spec: ChainSpec, order: int) -> tuple:
    _check_order(order)
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

    The recursion couples indices four apart in steps of two,
        R_{n+2} = (E + n^2 + 4(s+zeta)n + 4s^2 + 2zeta) R_n
                  + 4 zeta (M+1-2s-n) n (n-1) R_{n-2},
    written in the shifted energy via E - M^2 - zeta^2 - 2(M-1)zeta = E' + 2zeta.
    Even members reproduce P, odd members reproduce Q at the same (M, s).
    """
    if spec.kind != "R":
        raise ChainSpecError("gen_R handles the combined chain")
    _check_order(order)
    m, s = spec.m, spec.s
    rows = [[[1]], [[1]]]
    for n in range(0, order - 1):
        b0 = plain((n + 2 * s) ** 2)
        c1 = plain(4 * (m + 1 - 2 * s - n) * n * (n - 1))
        rows.append(step_rows(rows[n], rows[n - 2] if n >= 2 else [], b0, 4 * n + 2, c1))
    members = tuple(from_rows(r) for r in rows[: order + 1])
    term = m + 3 - 2 * s
    termination = int(term) if term.denominator == 1 and term >= 4 else None
    return PolyFamily(spec, members, termination)


def three_term_form(family: PolyFamily) -> ThreeTermForm:
    """Read the (A_n = 1, B_n, C_n) data off a generated P/Q/quotient chain."""
    spec = family.spec
    if spec.kind == "R":
        raise ChainSpecError("the combined chain is not an adjacent three-term system")
    order = len(family.members) - 1
    bs, cs = [], []
    first_zero = None
    for n in range(1, order + 1):
        b, c = recursion_coeffs(spec, n)
        bs.append(b)
        cs.append(c)
        if n >= 2 and c.is_zero() and first_zero is None:
            first_zero = n
    return ThreeTermForm(spec, tuple(bs), tuple(cs), first_zero)


def finkel_form(form: ThreeTermForm, zeta: float) -> FinkelForm:
    """Specialize a three-term form at numeric zeta > 0 to the
    (E - b_k, -a_k) normalization and report the sign pattern of a_k."""
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    b = tuple(-bn.eval_float(zeta) for bn in form.b)
    a = tuple(-cn.eval_float(zeta) for cn in form.c)
    stop = form.first_zero_C - 1 if form.first_zero_C is not None else len(a)
    signs = tuple(
        1 if a[k] > 0 else (-1 if a[k] < 0 else 0) for k in range(1, stop)
    )
    return FinkelForm(zeta, b, a, signs)
