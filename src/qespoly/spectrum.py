"""QES level extraction, factorization checks, norms, weights and moments
for the double sinh-Gordon well.

For positive integer M the first M levels are algebraic: they are the roots
of the critical members of the two chains, shifted back from the recursion
variable by (M + zeta)**2.  The chains are the two that terminate at M
(families.terminating_chains): the s = 0 chain carries the even-node levels
and the s = 1/2 chain the odd ones, each as many as its critical index.

    M odd  = 2k+1:  even nodes from P(s=0), critical index k+1 (k+1 levels)
                    odd  nodes from Q(s=1/2), critical index k (k levels)
    M even = 2k+2:  even nodes from Q(s=0), critical index k+1 (k+1 levels)
                    odd  nodes from P(s=1/2), critical index k+1 (k+1 levels)

The discrete weight function supported on a chain's own levels makes that
chain an orthogonal set; weights are generically indefinite here, which the
sign pattern of the recursion (all a_k < 0 before termination) predicts.
They have one solve path: the float linear system sum_k p_n(E_k) w_k =
delta_n0 at the isolated roots, with its residual bounded and its condition
number reported.  Moments, the norm crosscheck and the sine-Gordon weights
all take their tables from it.

solve_chain is the one solve of a chain at one zeta, and levels, weights,
moments, the crosscheck and the states (wavefunctions) all read it, each
chain once per call.  It runs the three-term recursion on integers
(families.scaled_members) for the critical member, whose roots chain_roots
certifies by exact sign changes between neighbouring roots, and in floats
(families.family_values) for members 0..N+2 at those roots.  The crosscheck
evaluates its sums at the certified roots too.  Only the factorization check
builds bivariate chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactpoly import (
    ParamPoly,
    RootCountMismatch,
    as_rational,
    check_root_residuals,
    exact_sign,
    poly_divide_exact,
    polished_real_roots,
)
from .families import (
    ChainSpec,
    ThreeTermForm,
    family_values,
    gen_family,
    gen_quotient,
    scaled_members,
    terminating_chains,
)


class QESDomainError(ValueError):
    """Raised when QES extraction is requested outside its domain."""


@dataclass(frozen=True)
class ChainPlanEntry:
    node_parity: str          # "even" | "odd"
    chain_kind: str           # "P" | "Q"
    s: Fraction
    critical_index: int       # also the number of levels the chain carries


@dataclass(frozen=True)
class ChainPlan:
    m: int
    entries: tuple

    def entry(self, chain_kind: str) -> ChainPlanEntry:
        for e in self.entries:
            if e.chain_kind == chain_kind:
                return e
        raise QESDomainError(f"chain {chain_kind} carries no QES levels at M={self.m}")


@dataclass(frozen=True)
class QESLevel:
    energy: float
    script_energy: float
    nodes: int
    chain: str


@dataclass(frozen=True)
class SpectrumReport:
    m: int
    zeta: float
    levels: tuple

    def energies(self) -> list:
        return [lv.energy for lv in self.levels]

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "zeta": self.zeta,
            "levels": [
                {
                    "E": lv.energy,
                    "script_E": lv.script_energy,
                    "nodes": lv.nodes,
                    "chain": lv.chain,
                }
                for lv in self.levels
            ],
        }

    def to_csv_rows(self) -> list:
        rows = [["E", "script_E", "nodes", "chain"]]
        for lv in self.levels:
            rows.append([repr(lv.energy), repr(lv.script_energy), str(lv.nodes), lv.chain])
        return rows


@dataclass(frozen=True)
class WeightTable:
    chain: str
    support: tuple            # ((E_k, w_k), ...) ascending in E
    condition: float
    residual: float
    exact: bool = False       # kept for the JSON schema; the solve is float

    def weights(self) -> list:
        return [w for _, w in self.support]

    def to_json_dict(self) -> dict:
        return {
            "chain": self.chain,
            "weights": [{"E": e, "w": w} for e, w in self.support],
            "condition": self.condition,
            "residual": self.residual,
            "exact": self.exact,
        }


@dataclass(frozen=True)
class NormSequence:
    chain: str
    values: tuple             # ParamPoly, exact closed forms gamma_0..gamma_n


@dataclass(frozen=True)
class MomentSequence:
    chain: str
    zeta: float
    values: tuple
    growth: tuple             # |mu_n|**(1/n) for n >= 1
    max_abs_energy: float
    leading_order_comparator: float   # (M + zeta)**2

    def to_json_dict(self) -> dict:
        return {
            "chain": self.chain,
            "zeta": self.zeta,
            "moments": list(self.values),
            "growth": list(self.growth),
            "max_abs_energy": self.max_abs_energy,
            "leading_order_comparator": self.leading_order_comparator,
        }


def _require_positive_int(m) -> int:
    mr = as_rational(m)
    if mr.denominator != 1 or mr < 1:
        raise QESDomainError("QES requires positive integer M")
    return int(mr)


def require_qes_domain(m, zeta: float) -> int:
    """M as an int, after checking the QES domain: integer M >= 1, zeta > 0."""
    m = _require_positive_int(m)
    if not zeta > 0:
        raise QESDomainError("zeta must be positive")
    return m


def chain_plan(m) -> ChainPlan:
    """Which chains carry the M algebraic levels, and where they terminate."""
    m = _require_positive_int(m)
    return ChainPlan(m, tuple([ChainPlanEntry("odd" if s else "even", kind, s, crit)
                               for kind, s, _, crit in terminating_chains(m) if crit]))


def chain_roots(critical: tuple) -> list:
    """Simple real roots, ascending, of a critical member given at one zeta
    as (q, scale): integer coefficients q (q[k] multiplies E**k) and the
    positive scale that divides them (families.scaled_members).

    The float coefficients q[k] / scale are correctly rounded.  Their
    companion roots, polished by Newton, are certified exactly: the signs of
    the polynomial at -inf, at the float midpoints between neighbouring
    roots and at +inf alternate N times for degree N, so each reported root
    shares its interval between midpoints with exactly one true root, and
    that root is simple.  Raises RootCountMismatch("isolated k of N roots")
    otherwise, or if a root's residual is above tolerance.
    """
    q, scale = critical
    degree = len(q) - 1
    coeffs = [c / scale for c in q]
    roots = polished_real_roots(coeffs)
    points = [-math.inf] + [(x + y) / 2 for x, y in zip(roots, roots[1:])] + [math.inf]
    signs = [exact_sign(q, t) for t in points]
    isolated = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)
    if isolated != degree:
        raise RootCountMismatch(f"isolated {isolated} of {degree} roots")
    check_root_residuals(coeffs, [(r, 1) for r in roots])
    return roots


def solve_chain(m: int, zeta: float, entry: ChainPlanEntry) -> tuple:
    """The one solve of a plan entry's chain at zeta: the certified roots
    (shifted energy, ascending) of its critical member N, and the values of
    members 0..N+2 at those roots, one array per member."""
    spec = ChainSpec(entry.chain_kind, Fraction(m), entry.s)
    n = entry.critical_index
    roots = chain_roots(scaled_members(spec, n, zeta)[-1])
    return roots, family_values(spec, n + 2, zeta, np.array(roots))


def qes_energies(m, zeta: float) -> SpectrumReport:
    """The M algebraic levels, sorted, with node counts and chain labels."""
    m = require_qes_domain(m, zeta)
    shift = (m + zeta) ** 2
    levels = []
    for entry in chain_plan(m).entries:
        base = 0 if entry.node_parity == "even" else 1
        roots, _ = solve_chain(m, zeta, entry)
        for rank, root in enumerate(roots):
            levels.append(
                QESLevel(root + shift, root, base + 2 * rank, entry.chain_kind)
            )
    levels.sort(key=lambda lv: lv.energy)
    if [lv.nodes for lv in levels] != list(range(m)):
        raise QESDomainError("node interlacing violated")
    return SpectrumReport(m, zeta, tuple(levels))


# ----------------------------------------------------------------------
# Factorization through the critical member
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FactorizationEntry:
    chain_kind: str
    s: Fraction
    quotient_kind: str
    critical: int
    remainders_zero: tuple
    quotients_match: tuple

    def ok(self) -> bool:
        return all(self.remainders_zero) and all(self.quotients_match)


@dataclass(frozen=True)
class FactorizationReport:
    m: int
    depth: int
    entries: tuple

    def ok(self) -> bool:
        return all(e.ok() for e in self.entries)


def factorization_check(m, depth: int) -> FactorizationReport:
    """Divide post-critical members by the critical member, exactly.

    For every n <= depth the remainder must vanish identically and the
    quotient must equal the corresponding quotient-chain member.
    """
    m = _require_positive_int(m)
    entries = []
    for kind, s, qkind, crit in sorted(terminating_chains(m)):
        spec = ChainSpec(kind, Fraction(m), s)
        fam = gen_family(spec, crit + depth)
        quot = gen_quotient(ChainSpec(qkind, Fraction(m), s), depth)
        critical = fam[crit]
        rems, matches = [], []
        for n in range(depth + 1):
            q, r = poly_divide_exact(fam[crit + n], critical)
            rems.append(r.is_zero())
            matches.append(q == quot[n])
        entries.append(
            FactorizationEntry(kind, s, qkind, crit, tuple(rems), tuple(matches))
        )
    return FactorizationReport(m, depth, tuple(entries))


# ----------------------------------------------------------------------
# Norms
# ----------------------------------------------------------------------

def norms_closed(chain: str, m, s, n: int) -> ParamPoly:
    """Closed-form squared norm gamma_n as an exact monomial in zeta.

    Main chains alternate in sign and vanish at the termination index;
    quotient-chain norms are positive for zeta > 0.
    """
    m = as_rational(m)
    s = as_rational(s)
    if n < 0:
        raise ValueError("n must be nonnegative")
    spec = ChainSpec(chain, m, s)  # validates the chain/parity combination
    coef = Fraction(1)
    if chain == "P":
        for k in range(1, n + 1):
            coef *= Fraction(-8) * k * (2 * k - 1) * (m - 2 * s - 2 * k + 1)
    elif chain == "Q":
        for k in range(1, n + 1):
            coef *= Fraction(-8) * k * (2 * k + 1) * (m - 2 * s - 2 * k)
    elif chain in ("Pbar", "Sbar"):
        for k in range(1, n + 1):
            coef *= Fraction(4) * (m + 2 * k + 1) * (m + 2 * k) * (2 * k + 2 * s)
    elif chain in ("Qbar", "Rbar"):
        for k in range(1, n + 1):
            coef *= Fraction(4) * (m + 2 * k) * (m + 2 * k - 1) * (2 * k + 2 * s - 1)
    else:
        raise QESDomainError(f"no norm formula for chain {chain!r}")
    if coef == 0:
        return ParamPoly.zero()
    return ParamPoly.monomial(coef, n)


def norms_from_recursion(form: ThreeTermForm) -> NormSequence:
    """Norms by the monic identity gamma_n = -C_{n+1} gamma_{n-1}, exactly."""
    gammas = [ParamPoly.const(1)]
    # form.c[k] is C_{k+1}; gamma_n needs C_2..C_{n+1}
    for k in range(1, len(form.c)):
        gammas.append(gammas[-1] * (-form.c[k]))
    return NormSequence(form.spec.kind, tuple(gammas))


# ----------------------------------------------------------------------
# Weights
# ----------------------------------------------------------------------

def weights(m, zeta: float, chain: str) -> WeightTable:
    """Discrete weights on a chain's own levels from sum_k p_n(E_k) w_k = delta_n0.

    The square system runs over n = 0 .. (level count - 1) at the chain's
    certified roots (solve_chain) and is solved by partial pivoting.  The
    residual must stay within 1e-10 and the condition number is recorded.
    Every table comes from this float solve, so its `exact` flag is False.
    """
    m = require_qes_domain(m, zeta)
    entry = chain_plan(m).entry(chain)
    return _weight_table(chain, *solve_chain(m, zeta, entry), (m + zeta) ** 2)


def _weight_table(chain: str, roots: list, values: list, shift: float) -> WeightTable:
    """The weight solve on one chain's certified roots and member values."""
    count = len(roots)
    a = np.array(values[:count])
    rhs = np.zeros(count)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise QESDomainError("degenerate support") from exc
    residual = float(np.max(np.abs(a @ sol - rhs)))
    if residual > 1e-10:
        raise QESDomainError(f"weight system residual {residual} above tolerance")
    cond = float(np.linalg.cond(a))
    support = tuple((r + shift, float(w)) for r, w in zip(roots, sol))
    return WeightTable(chain, support, condition=cond, residual=residual)


@dataclass(frozen=True)
class CrosscheckReport:
    chain: str
    zeta: float
    norm_deviations: tuple
    orthogonality_max: float
    ok: bool


def norm_weight_crosscheck(m, zeta: float, chain: str) -> CrosscheckReport:
    """Verify sum_k w_k p_n(E_k)^2 = gamma_n and the off-diagonal vanishing.

    The weights and the sums use one chain solve: members 0..N at the
    certified roots.  An orthogonality sum passes within 1e-9 of the sum of
    its terms' magnitudes (its rounding scale); orthogonality_max is the
    largest sum.
    """
    m = require_qes_domain(m, zeta)
    entry = chain_plan(m).entry(chain)
    roots, values = solve_chain(m, zeta, entry)
    w = np.array(_weight_table(chain, roots, values, (m + zeta) ** 2).weights())
    count = entry.critical_index
    devs = []
    ok = True
    for n in range(count + 1):
        gamma = norms_closed(entry.chain_kind, m, entry.s, n).eval_float(zeta)
        total = float(np.dot(w, values[n] ** 2))
        dev = abs(total - gamma)
        devs.append(dev)
        if dev > 1e-9 * (1.0 + abs(gamma)):
            ok = False
    ortho = 0.0
    for i in range(count):
        for j in range(i + 1, count):
            terms = w * values[i] * values[j]
            total = abs(float(np.sum(terms)))
            ortho = max(ortho, total)
            if total > 1e-9 * float(np.sum(np.abs(terms))):
                ok = False
    return CrosscheckReport(chain, zeta, tuple(devs), ortho, ok)


def moments(m, zeta: float, chain: str, n_max: int) -> MomentSequence:
    """Power moments of the discrete weight, mu_n = sum_k w_k E_k**n.

    The growth sequence |mu_n|**(1/n) tends to max_k |E_k| for a finite
    atomic measure; the coarser comparator (M + zeta)**2 is reported
    alongside, not asserted.
    """
    m = require_qes_domain(m, zeta)
    if n_max < 0:
        raise ValueError("order must be nonnegative")
    return _moment_sequence(weights(m, zeta, chain), m, zeta, n_max)


def _moment_sequence(table: WeightTable, m: int, zeta: float, n_max: int) -> MomentSequence:
    """mu_0..mu_n_max of a weight table, with growth and comparators."""
    energies = np.array([e for e, _ in table.support])
    w = np.array(table.weights())
    values = [1.0]
    for n in range(1, n_max + 1):
        values.append(float(np.dot(w, energies**n)))
    growth = tuple(
        abs(values[n]) ** (1.0 / n) if values[n] != 0 else 0.0
        for n in range(1, n_max + 1)
    )
    return MomentSequence(
        table.chain,
        zeta,
        tuple(values),
        growth,
        float(np.max(np.abs(energies))),
        (m + zeta) ** 2,
    )
