"""QES level extraction, factorization checks, norms, weights and moments
for the double sinh-Gordon well.

For positive integer M the first M levels are algebraic: they are the roots
of the critical members of the two chains, shifted back from the recursion
variable by (M + zeta)**2.  The chains are the two that terminate at M
(families.terminating_chains); chain_plan lists them as (ChainSpec, level
count) pairs, the s = 0 chain first, so a chain's index there is the node
parity of its levels, and it carries as many as its critical index.

    M odd  = 2k+1:  even nodes from P(s=0), critical index k+1 (k+1 levels)
                    odd  nodes from Q(s=1/2), critical index k (k levels)
    M even = 2k+2:  even nodes from Q(s=0), critical index k+1 (k+1 levels)
                    odd  nodes from P(s=1/2), critical index k+1 (k+1 levels)

The discrete weight function supported on a chain's own levels makes that
chain an orthogonal set; weights are generically indefinite here, which the
sign pattern of the recursion (all a_k < 0 before termination) predicts.
They have one solve path: the float linear system sum_k p_n(E_k) w_k =
delta_n0 at the isolated roots, with its residual bounded and its condition
number reported.  The norm crosscheck and the sine-Gordon weights take
their tables from it.  The moments need none: the weights send p_0 to 1,
p_1..p_{N-1} and every multiple of p_N to 0, so mu_n is the p_0
coordinate of E**n mod p_N, which the three-term recursion gives.

solve_chain(spec, n, zeta) is the one solve of a chain at one zeta, shared
through a two-entry memo by levels, weights, moments, the crosscheck and the
states (wavefunctions).  A miss runs chain_roots, the uncached certifier, on
the chain's steps alone: it takes the roots of the critical member N from
the eigenvalues of the chain's Jacobi matrix, polishes them by Newton on the
float recursion and certifies them by exact sign changes between
neighbouring roots, on the integer recursion (families.member_signs).  The
read-only ChainSolution adds, on first read, members 0..N+2 at those roots
in floats (families.family_values), for the weights, the crosscheck sums
and the states.  Only the factorization check builds bivariate chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction

import numpy as np

from .exactpoly import (
    ParamPoly,
    RootCountMismatch,
    as_rational,
    newton,
    poly_divide_exact,
)
from .families import (
    ChainSpec,
    ThreeTermForm,
    family_values,
    float_steps,
    gen_family,
    gen_quotient,
    member_signs,
    terminating_chains,
)


class QESDomainError(ValueError):
    """Raised when QES extraction is requested outside its domain."""


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


@dataclass(frozen=True)
class WeightTable:
    chain: str
    support: tuple            # ((E_k, w_k), ...) ascending in E
    condition: float
    residual: float
    exact = False             # read-only class constant: the solve is float, never exact

    def weights(self) -> list:
        return [w for _, w in self.support]


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


def _require_positive_int(m) -> int:
    mr = as_rational(m)
    if mr.denominator != 1 or mr < 1:
        raise QESDomainError("QES requires positive integer M")
    return int(mr)


def require_qes_domain(m, zeta: float) -> tuple:
    """M as an int and the shift (M + zeta)**2 from the recursion variable,
    after checking the QES domain: integer M >= 1, zeta > 0, a finite shift."""
    m = _require_positive_int(m)
    if not zeta > 0:
        raise QESDomainError("zeta must be positive")
    try:
        shift = (m + zeta) ** 2
    except OverflowError:
        shift = math.inf
    if not math.isfinite(shift):
        raise QESDomainError(f"the shift (M + zeta)**2 overflows a float at M={m}, zeta={zeta}")
    return m, shift


def chain_plan(m) -> tuple:
    """((ChainSpec, level count), ...) of the chains that carry the M
    algebraic levels, the s = 0 chain (even node counts) first: a chain's
    node parity is its index here, and it terminates at member `level count`."""
    m = _require_positive_int(m)
    return tuple((ChainSpec(kind, m, s), crit)
                 for kind, s, _, crit in terminating_chains(m) if crit)


def _plan_entry(m, zeta: float, kind: str) -> tuple:
    """(shift, ChainSpec, level count) of chain `kind` of the plan, domain checked."""
    m, shift = require_qes_domain(m, zeta)
    for spec, count in chain_plan(m):
        if spec.kind == kind:
            return shift, spec, count
    raise QESDomainError(f"chain {kind} carries no QES levels at M={m}")


def chain_roots(spec: ChainSpec, n: int, zeta: float) -> list:
    """The n simple real roots, ascending, of member n of a chain at zeta,
    from the chain's steps (B_k, C_k) alone.

    Seeds are the eigenvalues of the Jacobi matrix with diagonal -B_k and
    off-diagonals sqrt|C_{k+1}| above, -sign(C_{k+1}) sqrt|C_{k+1}| below (each
    product keeps the sign of -C_{k+1}), polished by Newton on p_n and p_n' of
    the float recursion.  They are certified when the exact signs of p_n
    (families.member_signs) at -inf, at the midpoints between neighbouring
    roots and at +inf alternate n times: each root then shares its interval
    with exactly one true root, which is simple.  RootCountMismatch otherwise
    ("isolated k of n roots"), for a residual above 1e-10*(1+max|root|**n),
    or for a root that Newton left non-finite (p_n overflows from M ~ 151).
    """
    steps = float_steps(spec, n, zeta)

    def value_slope(x):
        p, q, dp, dq = 1.0, 0.0, 0.0, 0.0  # p_n, p_{n-1} and their slopes
        for b, c in steps:
            p, q, dp, dq = (x + b) * p + c * q, p, p + (x + b) * dp + c * dq, dp
        return p, dp

    bs, cs = np.array(steps).T
    root_c = np.sqrt(np.abs(cs[1:]))
    jacobi = np.diag(-bs) + np.diag(root_c, 1) - np.diag(np.sign(cs[1:]) * root_c, -1)
    roots = sorted(newton(value_slope, float(x.real)) for x in np.linalg.eigvals(jacobi))
    if not all(map(math.isfinite, roots)):
        raise RootCountMismatch(f"Newton polish left a non-finite root: p_{n} overflows floats")
    mids = [(x + y) / 2 for x, y in zip(roots, roots[1:])]
    signs = member_signs(spec, n, zeta, [-math.inf, *mids, math.inf])
    isolated = sum(1 for u, v in zip(signs, signs[1:]) if u * v < 0)
    if isolated != n:
        raise RootCountMismatch(f"isolated {isolated} of {n} roots")
    # the bound in logarithms: max|root|**n overflows a float from M ~ 150
    big = max(map(abs, roots))
    log_scale = math.log(1e-10) + (n * math.log(big) + math.log1p(big ** -n) if big > 1.0
                                   else math.log1p(big ** n))
    for r, (v, _) in zip(roots, map(value_slope, roots)):
        if v != 0.0 and not math.log(abs(v)) <= log_scale:
            raise RootCountMismatch(f"root {r} residual {v} above tolerance")
    return roots


@dataclass(frozen=True)
class ChainSolution:
    """The certified roots (shifted energy, ascending) of member n of a chain
    at zeta; values: members 0..n+2 at them, read-only, on first read."""
    spec: ChainSpec
    zeta: float
    roots: tuple

    @cached_property
    def values(self) -> tuple:
        values = family_values(self.spec, len(self.roots) + 2, self.zeta, np.array(self.roots))
        for v in values:
            v.flags.writeable = False
        return tuple(values)


# two entries: every (M, zeta) has at most two chains in its plan (chain_plan)
@lru_cache(maxsize=2)
def solve_chain(spec: ChainSpec, n: int, zeta: float) -> ChainSolution:
    """The one solve of a chain at zeta, shared by every consumer; a miss
    certifies it by chain_roots, and a solve that raises is not kept."""
    return ChainSolution(spec, zeta, tuple(chain_roots(spec, n, zeta)))


def qes_energies(m, zeta: float) -> SpectrumReport:
    """The M algebraic levels, sorted, with node counts and chain labels."""
    m, shift = require_qes_domain(m, zeta)
    levels = []
    for parity, (spec, count) in enumerate(chain_plan(m)):
        levels += [QESLevel(root + shift, root, parity + 2 * rank, spec.kind)
                   for rank, root in enumerate(solve_chain(spec, count, zeta).roots)]
    levels.sort(key=lambda lv: lv.energy)
    for lo, hi in zip(levels, levels[1:]):
        if lo.nodes > hi.nodes:
            if lo.energy == hi.energy:
                raise QESDomainError(f"levels not distinct in floats: nodes {hi.nodes} and"
                                     f" {lo.nodes} both round to E = {lo.energy!r}")
            raise QESDomainError(f"node interlacing violated: node {lo.nodes} at E = {lo.energy!r}"
                                 f" sorts below node {hi.nodes} at E = {hi.energy!r}")
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
    shift, spec, count = _plan_entry(m, zeta, chain)
    return _weight_table(chain, solve_chain(spec, count, zeta), shift)


def _weight_table(chain: str, solution: ChainSolution, shift: float) -> WeightTable:
    """The weight solve on one chain's certified roots and member values."""
    count = len(solution.roots)
    a = np.array(solution.values[:count])
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
    support = tuple((r + shift, float(w)) for r, w in zip(solution.roots, sol))
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
    shift, spec, count = _plan_entry(m, zeta, chain)
    solution = solve_chain(spec, count, zeta)
    values = solution.values
    w = np.array(_weight_table(chain, solution, shift).weights())
    devs = []
    ok = True
    for n in range(count + 1):
        gamma = norms_closed(chain, spec.m, spec.s, n).eval_float(zeta)
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
    """Power moments of the discrete weight, mu_n = sum_k w_k E_k**n, from
    the chain's steps alone: the p_0 coordinates of E**n mod p_N (module
    docstring).  E maps the coordinates a of E**n in p_0..p_{N-1} to those
    of E**(n+1) by (E a)_j = a_{j-1} + (shift - B_{j+1}) a_j - C_{j+2} a_{j+1}.

    The growth sequence |mu_n|**(1/n) tends to max_k |E_k| for a finite
    atomic measure; the coarser comparator (M + zeta)**2 is reported
    alongside, not asserted.
    """
    shift, spec, count = _plan_entry(m, zeta, chain)
    if n_max < 0:
        raise ValueError("order must be nonnegative")
    max_abs_energy = max(abs(root + shift) for root in solve_chain(spec, count, zeta).roots)
    bs, cs = np.array(float_steps(spec, count, zeta)).T
    a, values = np.eye(1, count)[0], [1.0]    # E**0 = p_0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max + 1):
            a, prev = (shift - bs) * a, a
            a[1:] += prev[:-1]
            a[:-1] -= cs[1:] * prev[1:]
            values.append(float(a[0]))
            if not math.isfinite(values[n]):
                raise QESDomainError(f"moment mu_{n} overflows a float")
    growth = tuple(abs(mu) ** (1.0 / n) if mu != 0 else 0.0 for n, mu in enumerate(values[1:], 1))
    return MomentSequence(chain, zeta, tuple(values), growth, max_abs_energy, shift)
