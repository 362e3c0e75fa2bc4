"""Exact arithmetic layer: rational polynomials in the coupling and energy.

Everything symbolic in this package lives in Q[zeta][E], and an exact
polynomial has one stored form: an EnergyPoly holds coefficient rows,
rows[k][j] multiplying E**k zeta**j, whose entries are plain ints when
integral (every entry of a chain at integer M) and Fractions otherwise.
A ParamPoly is a polynomial in zeta with Fraction coefficients; an
EnergyPoly hands out its rows as ParamPoly views (coeffs, coeff) only when
a caller reads them.  Both are immutable and canonical (trailing zeros
stripped; the zero polynomial is empty), so generated families compare
coefficient for coefficient.

One set of row helpers (_add, _mul, _horner) does the arithmetic of both
classes, the one exact long division (poly_divide_exact, which also builds
Sturm chains), exact specialization and numeric evaluation.  Chains are
built by step_rows, one recursion step (E + b0 + b1*zeta)*p + c1*zeta*q as
a shift, scalings and additions, and from_rows wraps the result without
touching its entries.

Binary floats enter in two places: numeric evaluation (eval_float;
eval_numeric is Horner in E after Horner in zeta) and root finding, where
the one Newton loop (newton) polishes seeds.  The general finder real_roots
seeds it with companion-matrix eigenvalues, clusters the results into
multiplicities, checks the count of distinct real roots against an exact
Sturm chain and bounds each simple root's residual.  The numeric pipelines
(levels, weights, states, duality) never expand a bivariate chain or use
this finder: they run the three-term recursion at the given zeta
(families.float_steps, families.member_signs), and spectrum.chain_roots
seeds the same Newton loop with Jacobi-matrix eigenvalues and certifies the
roots by exact signs, with no Sturm chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

import numpy as np

ZETA_SYMBOL = "ζ"


class ExactDivisionError(ValueError):
    """Raised when exact polynomial division is not possible."""


class RootCountMismatch(RuntimeError):
    """Numeric real roots fail their exact certificate (a Sturm count or
    sign changes) or their residual bound."""


def as_rational(x) -> Fraction:
    """Coerce ints, Fractions and binary floats to an exact Fraction."""
    # int first: an isinstance test against Fraction, an ABC, is slow for ints
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot represent {type(x).__name__} exactly")


def plain(x):
    """x as an int when it is integral, otherwise unchanged."""
    return x.numerator if x.denominator == 1 else x


# ----------------------------------------------------------------------
# Row helpers
# ----------------------------------------------------------------------
#
# A row is a tuple of coefficients, index j multiplying zeta**j (or, in
# Horner evaluation, any variable's j-th power).  The helpers take ints,
# Fractions or a mix and return canonical rows: no trailing zero, and the
# zero polynomial is ().

def _trim(xs: list) -> list:
    """Drop trailing zeros (0, a zero polynomial, () in a list of rows) in
    place and return xs; pass a copy where the caller's list must stay."""
    while xs and not xs[-1]:
        xs.pop()
    return xs


def _add(a, b) -> tuple:
    return tuple(_trim([x + y for x, y in zip_longest(a, b, fillvalue=0)]))


def _mul(a, b) -> tuple:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(_trim(out))


def _horner(coeffs, x):
    """sum_k coeffs[k] * x**k: exact at a rational x, a float at a float x."""
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class ParamPoly:
    """Polynomial in the coupling zeta with Fraction coefficients.

    coeffs[k] multiplies zeta**k.  The zero polynomial is ParamPoly(()).
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(_trim([as_rational(c) for c in self.coeffs]))
        )

    @staticmethod
    def const(value) -> "ParamPoly":
        return ParamPoly((as_rational(value),))

    @staticmethod
    def zero() -> "ParamPoly":
        return ParamPoly(())

    @staticmethod
    def monomial(value, power: int) -> "ParamPoly":
        return ParamPoly((0,) * power + (as_rational(value),))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree in zeta; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        return ParamPoly(_add(self.coeffs, _coerce_param(other).coeffs))

    def __sub__(self, other):
        return self + (-_coerce_param(other))

    def __neg__(self):
        return ParamPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        return ParamPoly(_mul(self.coeffs, _coerce_param(other).coeffs))

    __radd__ = __add__
    __rmul__ = __mul__

    def scale(self, factor) -> "ParamPoly":
        return self * factor

    def eval_float(self, zeta: float) -> float:
        return _horner(self.coeffs, float(zeta))

    def render(self) -> str:
        """Canonical text form, descending zeta powers, e.g. '20ζ^2+24ζ'."""
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                var = ZETA_SYMBOL if k == 1 else f"{ZETA_SYMBOL}^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += sign + body
        return text


def _coerce_param(x) -> ParamPoly:
    if isinstance(x, ParamPoly):
        return x
    return ParamPoly.const(x)


def _row(c) -> tuple:
    """c as a row: a tuple is taken as one; a ParamPoly or a number is
    converted, with its integral coefficients as ints."""
    if isinstance(c, tuple):
        return c
    return tuple(map(plain, _coerce_param(c).coeffs))


@dataclass(frozen=True)
class EnergyPoly:
    """Polynomial in the shifted energy variable E, stored as coefficient rows.

    rows[k][j] multiplies E**k zeta**j.  The constructor takes one entry per
    power of E: a ParamPoly, a number, or a canonical row tuple, which it
    keeps as it is.  coeffs[k] hands out row k as a ParamPoly.  Families
    generated elsewhere are monic in E.
    """

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(_trim([_row(c) for c in self.rows])))

    @staticmethod
    def const(value) -> "EnergyPoly":
        return EnergyPoly((value,))

    @staticmethod
    def zero() -> "EnergyPoly":
        return EnergyPoly(())

    @property
    def coeffs(self) -> tuple:
        return tuple(ParamPoly(row) for row in self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def degree(self) -> int:
        return len(self.rows) - 1

    def is_monic(self) -> bool:
        return self.rows[-1:] == ((1,),)

    def coeff(self, k: int) -> ParamPoly:
        return ParamPoly(self.rows[k] if 0 <= k < len(self.rows) else ())

    def __add__(self, other):
        pairs = zip_longest(self.rows, _coerce_energy(other).rows, fillvalue=())
        return EnergyPoly(tuple(_add(a, b) for a, b in pairs))

    def __sub__(self, other):
        return self + (-_coerce_energy(other))

    def __neg__(self):
        return EnergyPoly(tuple(tuple(-x for x in row) for row in self.rows))

    def __mul__(self, other):
        other = _coerce_energy(other)
        out = [()] * max(len(self.rows) + len(other.rows) - 1, 0)
        for i, a in enumerate(self.rows):
            for j, b in enumerate(other.rows):
                out[i + j] = _add(out[i + j], _mul(a, b))
        return EnergyPoly(tuple(out))

    __radd__ = __add__
    __rmul__ = __mul__

    def scale(self, factor) -> "EnergyPoly":
        f = _row(factor)
        return EnergyPoly(tuple(_mul(row, f) for row in self.rows))

    def specialize(self, zeta) -> list:
        """Exact univariate coefficients in E at a rational zeta value."""
        z = as_rational(zeta)
        return _trim([_horner(row, z) for row in self.rows])

    def eval_numeric(self, zeta: float, eps: float) -> float:
        """Float value at (zeta, shifted energy eps) by nested Horner."""
        return _horner([_horner(row, float(zeta)) for row in self.rows], eps)

    def render(self) -> str:
        """Canonical text, descending E powers: 'E^2 + (12ζ+4)E + (20ζ^2+24ζ)'."""
        if self.is_zero():
            return "0"
        deg = self.degree()
        if deg == 0:
            return self.coeff(0).render()
        parts = []
        for k in range(deg, -1, -1):
            c = self.coeff(k)
            if c.is_zero():
                continue
            head = "" if k == deg and self.is_monic() else f"({c.render()})"
            if k == 0:
                term = head if head else "(1)"
            elif k == 1:
                term = f"{head}E"
            else:
                term = f"{head}E^{k}"
            parts.append(term)
        return " + ".join(parts)


def _coerce_energy(x) -> EnergyPoly:
    return x if isinstance(x, EnergyPoly) else EnergyPoly((x,))


ENERGY_ONE = EnergyPoly.const(1)


def from_rows(rows) -> EnergyPoly:
    """Wrap canonical rows, as lists or tuples, without converting entries."""
    return EnergyPoly(tuple(map(tuple, rows)))


def step_rows(p, q, b0, b1, c1) -> tuple:
    """Rows of (E + b0 + b1*zeta)*p + c1*zeta*q.

    One shift in E, one shift in zeta, three scalings and the sums: no
    general product and no normalisation for integer entries.
    """
    out = []
    below = ()
    for k in range(max(len(p) + 1, len(q))):
        cur = p[k] if k < len(p) else ()
        lag = q[k] if c1 and k < len(q) else ()
        shifted = [0] + [b1 * x + c1 * y for x, y in zip_longest(cur, lag, fillvalue=0)]
        out.append(tuple(_trim([x + b0 * y + z for x, y, z
                                in zip_longest(below, cur, shifted, fillvalue=0)])))
        below = cur
    return tuple(_trim(out))


def poly_arith(a: EnergyPoly, b: EnergyPoly, op: str) -> EnergyPoly:
    """Exact add/sub/mul on energy polynomials."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def poly_divide_exact(a: EnergyPoly, b: EnergyPoly):
    """Exact long division a = q*b + r with deg r < deg b.

    The divisor's leading coefficient must be a nonzero rational constant
    (in practice every divisor here is monic); a zeta-dependent leading
    coefficient is not invertible in Q[zeta] and is rejected.  The division
    runs on the rows of a and b.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if len(b.rows[-1]) > 1:
        raise ExactDivisionError("non-divisible leading coefficient")
    inv = plain(Fraction(1, b.rows[-1][0]))
    minus_divisor = [tuple(-x for x in row) for row in b.rows]
    rem = list(a.rows)
    db = len(b.rows) - 1
    quo = [()] * max(len(rem) - db, 0)
    for shift in range(len(rem) - 1 - db, -1, -1):
        top = rem[shift + db]
        if not top:
            continue
        quo[shift] = factor = tuple(c * inv for c in top)
        for i in range(db):
            rem[shift + i] = _add(rem[shift + i], _mul(factor, minus_divisor[i]))
        rem[shift + db] = ()
    return from_rows(quo), from_rows(rem)


def eval_numeric(p: EnergyPoly, zeta: float, eps: float) -> float:
    return p.eval_numeric(zeta, eps)


# ----------------------------------------------------------------------
# Sturm chains and real roots
# ----------------------------------------------------------------------

def sturm_real_root_count(coeffs) -> int:
    """Distinct real roots of an exact univariate polynomial over (-inf, inf).

    coeffs[k] is the Fraction coefficient of x**k; the chain is built as
    EnergyPolys constant in zeta by poly_divide_exact, and its signs are
    taken at both infinities from leading terms.
    """
    c = _trim([as_rational(x) for x in coeffs])
    if len(c) <= 1:
        return 0
    deriv = [k * c[k] for k in range(1, len(c))]
    chain = [EnergyPoly(tuple(c)), EnergyPoly(tuple(deriv))]
    while True:
        _, r = poly_divide_exact(chain[-2], chain[-1])
        if r.is_zero():
            break
        chain.append(-r)

    def sign_changes(at_plus_inf: bool) -> int:
        signs = []
        for p in chain:
            s = 1 if p.rows[-1][0] > 0 else -1
            if not at_plus_inf and p.degree() % 2 == 1:
                s = -s
            signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return sign_changes(False) - sign_changes(True)


def _val_dval(coeffs, x: float):
    """Float value and derivative of sum_k coeffs[k] * x**k by Horner."""
    v = 0.0
    d = 0.0
    for c in reversed(coeffs):
        d = d * x + v
        v = v * x + c
    return v, d


def newton(value_slope, x: float, mult: int = 1, steps: int = 60) -> float:
    """Newton steps x -= mult * v / d, (v, d) = value_slope(x), for a root of
    multiplicity mult, until a step is below 1e-15 relative or the
    derivative vanishes."""
    for _ in range(steps):
        v, d = value_slope(x)
        if d == 0.0:
            break
        step = mult * v / d
        x -= step
        if abs(step) <= 1e-15 * (1.0 + abs(x)):
            break
    return x


def real_roots(p: EnergyPoly, zeta) -> list:
    """All real roots of p at fixed zeta, ascending, as (root, multiplicity).

    Companion-matrix eigenvalues of p specialized at zeta are polished by
    Newton iteration, clustered into multiplicities, and the number of
    distinct real roots is certified against a Sturm count of the exact
    specialized polynomial.
    """
    exact = p.specialize(as_rational(zeta))
    if not exact:
        raise ValueError("polynomial vanishes identically at this zeta")
    deg = len(exact) - 1
    if deg == 0:
        raise ValueError("no roots")

    coeffs = [float(c) for c in exact]
    n_exact = sturm_real_root_count(exact)
    # multiple roots scatter the companion eigenvalues by ~eps**(1/m), so
    # admit candidates generously and let the certificates below decide
    polished = sorted(newton(lambda x: _val_dval(coeffs, x), float(z.real))
                      for z in np.roots(coeffs[::-1]) if abs(z.imag) <= 1e-5 * (1.0 + abs(z)))

    def cluster(radius: float):
        groups = []
        for x in polished:
            if groups and abs(x - groups[-1][-1]) <= radius * (1.0 + abs(x)):
                groups[-1].append(x)
            else:
                groups.append([x])
        return groups

    groups = []
    radius = 1e-8
    while radius <= 1e-3:
        groups = cluster(radius)
        if len(groups) <= n_exact:
            break
        radius *= 10.0
    if len(groups) != n_exact:
        raise RootCountMismatch(
            f"numeric distinct real roots {len(groups)} != Sturm count {n_exact}"
        )
    if not groups:
        return []

    roots = []
    for g in groups:
        mult = len(g)
        x = sum(g) / mult
        if mult > 1:
            # multiplicity-aware Newton to sharpen the cluster center
            x = newton(lambda y: _val_dval(coeffs, y), x, mult, 30)
        roots.append((x, mult))

    scale = 1e-10 * (1.0 + max(abs(r) for r, _ in roots) ** deg)
    for r, mult in roots:
        v, _ = _val_dval(coeffs, r)
        if mult == 1 and abs(v) > scale:
            raise RootCountMismatch(f"root {r} residual {v} above tolerance")
    return roots
