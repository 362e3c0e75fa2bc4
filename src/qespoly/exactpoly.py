"""Exact arithmetic layer: rational polynomials in the coupling and energy.

Everything symbolic in this package lives in Q[zeta][E], and an exact
polynomial has one stored form, a canonical row: plain ints where an entry
is integral (every entry of a chain at integer M) and Fractions only where
a rational M or a float input makes one.  A ParamPoly, a polynomial in
zeta, holds one row, coeffs[j] multiplying zeta**j; an EnergyPoly holds
rows, rows[k][j] multiplying E**k zeta**j, and hands a row out as a
ParamPoly (coeffs, coeff) by wrapping it, with no conversion.  Both are
immutable and canonical (trailing zeros stripped; the zero polynomial is
empty), so generated families compare coefficient for coefficient.  Their
ring plumbing (_Poly) is written once, and one joiner (render_in_e) writes
every polynomial in E.

One set of row helpers (_add, _product, _horner) does the arithmetic of
both classes, the one exact long division (poly_divide_exact, which also
builds Sturm chains), exact specialization and numeric evaluation.  A
product clears each operand's denominators once, convolves integer rows
and divides each entry once.  Chains are built by step_rows, one recursion
step (E + b0 + b1*zeta)*p + c1*zeta*q as a shift, scalings and additions,
and from_rows wraps the result without touching its entries.

Binary floats enter in two places: numeric evaluation (eval_float;
eval_numeric is Horner in E after Horner in zeta) and root finding, where
the one Newton loop (newton) polishes seeds.  The general finder real_roots
seeds it with companion-matrix eigenvalues, clusters the results into
multiplicities, checks the count of distinct real roots against an exact
Sturm chain and bounds each simple root's residual.  The numeric pipelines
(levels, weights, states, duality) never expand a bivariate chain or use
this finder: they run the three-term recursion on a chain's steps at the
given zeta (families.chain_steps), and spectrum.chain_roots seeds the same
Newton loop with Jacobi-matrix eigenvalues and certifies the roots by exact
signs (families.member_signs), with no Sturm chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from operator import add, attrgetter

import numpy as np

ZETA_SYMBOL = "ζ"


class ExactDivisionError(ValueError):
    """Raised when exact polynomial division is not possible."""


class RootCountMismatch(RuntimeError):
    """Numeric real roots fail their exact certificate (a Sturm count or
    sign changes) or their residual bound."""


def as_rational(x) -> Fraction:
    """Coerce ints, Fractions and binary floats to an exact Fraction."""
    # exact types first: an isinstance test against Fraction, an ABC, is slow
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, float, Fraction)):
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


def _integral(rows) -> tuple:
    """(d, rows * d) for d the lcm of the denominators; (1, rows) if all ints."""
    dens = {x.denominator for row in rows for x in row if type(x) is not int}
    d = lcm(*dens)
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows] if dens else rows


def _add(a, b) -> tuple:
    """a + b on rows; the entries past the shorter row are reused."""
    if len(a) < len(b):
        a, b = b, a
    head = [s if type(s) is int else plain(s) for s in map(add, a, b)]
    return tuple(_trim(head)) if len(a) == len(b) else (*head, *a[len(b):])


def _product(a, b) -> list:
    """a * b on lists of rows: the integer rows over each operand's
    denominator are convolved (_convolve), and each entry divided once."""
    return _convolve(*_integral(a), *_integral(b))


def _convolve(da, a, db, b) -> list:
    """(a / da) * (b / db) for integer rows a and b, as canonical rows."""
    d = da * db
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, ra in enumerate(a):
        for k, rb in enumerate(b):
            acc = out[i + k]
            acc += [0] * (len(ra) + len(rb) - 1 - len(acc))
            for j, x in enumerate(ra):
                if x:
                    for l, y in enumerate(rb, j):
                        acc[l] += x * y
    return _trim([tuple(_trim(row if d == 1 else
                              [v // d if not v % d else Fraction(v, d) for v in row]))
                  for row in out])


def _horner(coeffs, x):
    """sum_k coeffs[k] * x**k: exact at a rational x, a float at a float x."""
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class _Poly:
    """Ring plumbing of ParamPoly and EnergyPoly over their canonical terms
    (_terms: coeffs or rows).  A subclass defines __add__, __neg__ and
    __mul__; _coerce makes any other operand a constant of the class."""

    @classmethod
    def const(cls, value):
        return cls((value,))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def _coerce(cls, x):
        """x itself if it is of the class, otherwise the constant x."""
        return x if isinstance(x, cls) else cls.const(x)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Degree in the class's variable; the zero polynomial has degree -1."""
        return len(self._terms) - 1

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __radd__(self, other):
        return self + other

    def __rmul__(self, other):
        return self * other

    def scale(self, factor):
        return self * factor


def render_in_e(terms) -> str:
    """Join (k, coefficient text) pairs, descending k, as a polynomial in E:
    'text', 'textE' or 'textE^k' separated by ' + ', and '0' for no terms."""
    parts = [text if k == 0 else f"{text}E" if k == 1 else f"{text}E^{k}" for k, text in terms]
    return " + ".join(parts) or "0"


@dataclass(frozen=True)
class ParamPoly(_Poly):
    """Polynomial in the coupling zeta, stored as one canonical row.

    coeffs[k] multiplies zeta**k: an int where integral, a Fraction
    otherwise.  The constructor takes ints, Fractions and binary floats;
    the zero polynomial is ParamPoly(()).
    """

    coeffs: tuple

    def __post_init__(self):
        # the stored form: ints as they are, every other integral entry made one
        object.__setattr__(self, "coeffs", tuple(_trim(
            [c if type(c) is int else plain(as_rational(c)) for c in self.coeffs])))

    _terms = property(attrgetter("coeffs"))

    @staticmethod
    def monomial(value, power: int) -> "ParamPoly":
        return ParamPoly((0,) * power + (value,))

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        return _wrap(_add(self.coeffs, self._coerce(other).coeffs))

    def __neg__(self):
        return _wrap(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        rows = _product((self.coeffs,), (self._coerce(other).coeffs,))
        return _wrap(rows[0] if rows else ())

    def specialize(self, zeta):
        """Exact value at a rational zeta."""
        return _horner(self.coeffs, as_rational(zeta))

    def eval_float(self, zeta: float) -> float:
        return _horner(self.coeffs, float(zeta))

    def render(self) -> str:
        """Canonical text form, descending zeta powers, e.g. '20ζ^2+24ζ'."""
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            if c := self.coeffs[k]:
                mag, var = abs(c), "" if k == 0 else ZETA_SYMBOL if k == 1 else f"{ZETA_SYMBOL}^{k}"
                # a bare 8/3ζ would read as 8/(3ζ)
                num = "" if var and mag == 1 else mag if not var or mag.denominator == 1 else f"({mag})"
                parts.append(f"{'-' if c < 0 else '+'}{num}{var}")
        return "".join(parts).removeprefix("+") or "0"


def _wrap(row: tuple) -> ParamPoly:
    """A canonical row as a ParamPoly, without converting an entry."""
    p = object.__new__(ParamPoly)
    object.__setattr__(p, "coeffs", row)
    return p


def _row(c) -> tuple:
    """c as a row: a tuple is taken as one, a ParamPoly gives its own, and a
    number is made canonical."""
    return c if isinstance(c, tuple) else ParamPoly._coerce(c).coeffs


@dataclass(frozen=True)
class EnergyPoly(_Poly):
    """Polynomial in the shifted energy variable E, stored as coefficient rows.

    rows[k][j] multiplies E**k zeta**j.  The constructor takes one entry per
    power of E: a ParamPoly, a number, or a canonical row tuple, which it
    keeps as it is.  coeffs[k] wraps row k as a ParamPoly, converting no
    entry.  Families generated elsewhere are monic in E.
    """

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(_trim([_row(c) for c in self.rows])))

    _terms = property(attrgetter("rows"))

    @property
    def coeffs(self) -> tuple:
        return tuple(map(_wrap, self.rows))

    def is_monic(self) -> bool:
        return self.rows[-1:] == ((1,),)

    def coeff(self, k: int) -> ParamPoly:
        return _wrap(self.rows[k] if 0 <= k < len(self.rows) else ())

    def __add__(self, other):
        pairs = zip_longest(self.rows, self._coerce(other).rows, fillvalue=())
        return EnergyPoly(tuple(_add(a, b) for a, b in pairs))

    def __neg__(self):
        return EnergyPoly(tuple(tuple(-x for x in row) for row in self.rows))

    def __mul__(self, other):
        return EnergyPoly(tuple(_product(self.rows, self._coerce(other).rows)))

    def specialize(self, zeta) -> list:
        """Exact univariate coefficients in E at a rational zeta value."""
        z = as_rational(zeta)
        return _trim([_horner(row, z) for row in self.rows])

    def eval_numeric(self, zeta: float, eps: float) -> float:
        """Float value at (zeta, shifted energy eps) by nested Horner."""
        return _horner([_horner(row, float(zeta)) for row in self.rows], eps)

    def render(self) -> str:
        """Canonical text, descending E powers: 'E^2 + (12ζ+4)E + (20ζ^2+24ζ)'."""
        lead = self.degree()
        if lead < 1:
            return self.coeff(0).render()
        bare = self.is_monic()
        return render_in_e((k, "" if bare and k == lead else f"({c.render()})")
                           for k in range(lead, -1, -1) if (c := self.coeff(k)))


ENERGY_ONE = EnergyPoly.const(1)


def from_rows(rows) -> EnergyPoly:
    """Wrap canonical rows, as lists or tuples, without converting entries."""
    return EnergyPoly(tuple(map(tuple, rows)))


def step_rows(p, q, b0, b1, c1) -> tuple:
    """Rows of (E + b0 + b1*zeta)*p + c1*zeta*q.

    One shift in E, one shift in zeta, three scalings and the sums; only a
    step with a Fraction normalises, turning integral entries into ints.
    """
    frac = not type(b0) is type(b1) is type(c1) is int
    out = []
    below = ()
    for k in range(max(len(p) + 1, len(q))):
        cur = p[k] if k < len(p) else ()
        lag = q[k] if c1 and k < len(q) else ()
        shifted = [0] + [b1 * x + c1 * y for x, y in zip_longest(cur, lag, fillvalue=0)]
        row = _trim([x + b0 * y + z for x, y, z in zip_longest(below, cur, shifted, fillvalue=0)])
        out.append(tuple(map(plain, row) if frac else row))
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
    db = len(b.rows) - 1
    # the integral form of -(b / lead) below its top row, held across steps
    minus_lower = _integral([tuple(-x * inv for x in row) for row in b.rows[:db]])
    rem = list(a.rows)
    quo = [()] * max(len(rem) - db, 0)
    while len(rem) > db:  # divide by b / lead, whose top row cancels rem's
        shift = len(rem) - 1 - db
        quo[shift] = top = rem.pop()
        sub = zip_longest(rem[shift:], _convolve(*_integral((top,)), *minus_lower), fillvalue=())
        rem[shift:] = [_add(x, y) for x, y in sub]
        _trim(rem)
    if inv != 1:
        quo = _product(quo, ((inv,),))
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
        # the sign of each member's leading term, flipped at -inf for an odd degree
        signs = [(p.rows[-1][0] > 0) != (not at_plus_inf and p.degree() % 2 == 1) for p in chain]
        return sum(a != b for a, b in zip(signs, signs[1:]))

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
