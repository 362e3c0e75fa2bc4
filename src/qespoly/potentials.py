"""The five potential families handled by the toolkit.

Line potentials (hbar = 2m = 1 throughout):

    dshg         (zeta*cosh(2x) - M)**2, the double sinh-Gordon double well
    phi6_kink    the bounded well from phi^6 kink stability analysis,
                 parameters epsilon**2 and mu
    sextic_plus  x**2 (a x**2 + b)**2 - a (2M+3) x**2
    sextic_minus x**2 (a x**2 - b)**2 - a (2M+3) x**2

Circle potentials, the images of a line potential under x -> i*theta
(which flips the sign of the potential and of the spectrum):

    dsg             image of dshg, -(zeta*cos(2 theta) - M)**2 on the
                    circle of period pi
    phi6_kink_dual  image of phi6_kink on the circle of period 2 pi / mu

A circle family has no formula of its own: potential_eval evaluates its
line preimage's formula under cosh 2x -> cos 2theta, sinh**2 -> -sin**2 and
negates the value, and line_preimage hands the preimage to whoever needs
its levels.  Evaluators accept scalars or numpy arrays and are the single
callable contract the finite-difference oracle consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# circle family -> the line family it is the image of under x -> i*theta
_PREIMAGE = {"dsg": "dshg", "phi6_kink_dual": "phi6_kink"}


@dataclass(frozen=True)
class PotentialSpec:
    family: str
    params: dict = field(default_factory=dict)
    period: float | None = None   # None means the real line

    def is_circle(self) -> bool:
        return self.period is not None


def dshg(m: float, zeta: float) -> PotentialSpec:
    return PotentialSpec("dshg", {"m": float(m), "zeta": float(zeta)})


def dsg(m: float, zeta: float) -> PotentialSpec:
    return PotentialSpec("dsg", dshg(m, zeta).params, period=np.pi)


def phi6_kink(epsilon_sq: float, mu: float) -> PotentialSpec:
    if not (0 < epsilon_sq < np.inf and 0 < mu < np.inf):
        raise ValueError("epsilon_sq and mu must be positive and finite")
    return PotentialSpec("phi6_kink", {"epsilon_sq": float(epsilon_sq), "mu": float(mu)})


def phi6_kink_dual(epsilon_sq: float, mu: float) -> PotentialSpec:
    line = phi6_kink(epsilon_sq, mu)
    return PotentialSpec("phi6_kink_dual", line.params, period=2.0 * np.pi / mu)


def _sextic_m(m) -> int:
    """A sextic well's M: a nonnegative integer, rejected rather than truncated."""
    if not (0 <= m < np.inf and m % 1 == 0):
        raise ValueError("M must be a nonnegative integer")
    return int(m)


def sextic_plus(m: int, a: float = 1.0, b: float = 1.0) -> PotentialSpec:
    return PotentialSpec("sextic_plus", {"m": _sextic_m(m), "a": float(a), "b": float(b)})


def sextic_minus(m: int, a: float = 1.0, b: float = 1.0) -> PotentialSpec:
    return PotentialSpec("sextic_minus", sextic_plus(m, a, b).params)


def harmonic() -> PotentialSpec:
    """V = x**2, the sanity case with spectrum 2n + 1."""
    return PotentialSpec("harmonic", {})


def line_preimage(spec: PotentialSpec) -> PotentialSpec:
    """The line potential a circle potential is the image of."""
    return PotentialSpec(_PREIMAGE[spec.family], dict(spec.params))


def potential_eval(spec: PotentialSpec, x):
    """Potential value at x (or array of x); x is the angle for circles."""
    x = np.asarray(x, dtype=float)
    p = spec.params
    # a circle family is its line preimage's formula at x = i*theta, negated
    family = _PREIMAGE.get(spec.family, spec.family)
    circle = family != spec.family
    if family == "dshg":
        with np.errstate(over="ignore"):    # past |x| ~ 178 on the line V rounds to inf
            c2 = np.cos(2.0 * x) if circle else np.cosh(2.0 * x)
            # zeta = 0 is the constant well M**2, also where 0 * cosh 2x is NaN
            v = (p["zeta"] * c2 - p["m"]) ** 2 if p["zeta"] else np.full(x.shape, p["m"] ** 2)
    elif family == "phi6_kink":
        mu = p["mu"]
        inv2 = 1.0 / p["epsilon_sq"]
        # sinh**2 (-sin**2 on the circle) as a / b; on the line a = (1 - t)**2
        # and b = 4t with t = exp(-mu|x|), finite where sinh**2 overflows
        a, b = ((-np.sin(0.5 * mu * x) ** 2, 1.0) if circle else
                (np.expm1(-mu * np.abs(x)) ** 2, 4.0 * np.exp(-mu * np.abs(x))))
        num = (8.0 * a * a - 4.0 * (5.0 * inv2 - 1.0) * a * b
               + 2.0 * (inv2 * inv2 - inv2 - 2.0) * b * b)
        den = (1.0 + inv2) * b + a
        v = mu * mu * num / (8.0 * den * den)
    elif family in ("sextic_plus", "sextic_minus"):
        sgn = 1.0 if family == "sextic_plus" else -1.0
        a, b, m = p["a"], p["b"], p["m"]
        v = x * x * (a * x * x + sgn * b) ** 2 - a * (2 * m + 3) * x * x
    elif family == "harmonic":
        v = x * x
    else:
        raise ValueError(f"unknown potential family {spec.family!r}")
    if circle:
        v = -v
    return v if v.shape else float(v)


def sextic_qes_levels(m: int, a: float = 1.0, b: float = 1.0) -> list:
    """Algebraic levels of the sextic well x**2 (a x**2 + b)**2 - a(2M+3) x**2.

    The polynomial sector has parity p = M mod 2 and dimension floor(M/2) + 1;
    its energies are the eigenvalues of the tridiagonal sector matrix.  For
    a > 0 its off-diagonal products 2a(M - p - 2j + 2)(2j + p)(2j - 1 + p) are
    positive, so it is similar to the symmetric matrix with their square
    roots off the diagonal, whose eigenvalues are real.  The minus well is
    the same formula with b negated.
    """
    m = _sextic_m(m)
    if not 0 < a < np.inf:
        raise ValueError("a must be positive and finite")
    p = m % 2
    j = np.arange((m - p) // 2 + 1)
    k = j[1:]
    off = np.sqrt(2.0 * a * (m - p - 2 * k + 2) * (2 * k + p) * (2 * k - 1 + p))
    t = np.diag(b * (4.0 * j + 2 * p + 1)) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(t).tolist()
