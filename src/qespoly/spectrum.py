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
They have one solve per chain: the float linear system sum_k p_n(E_k) w_k
= delta_n0 at the isolated roots, residual bounded, kept on its
ChainSolution with its condition number; the crosscheck and the
sine-Gordon weights read it too.  The moments need none: the weights send
p_0 to 1, p_1..p_{N-1} and every multiple of p_N to 0, so mu_n is the p_0
coordinate of E**n mod p_N, which the three-term recursion gives.

solve_chain(m, zeta, kind) is the one entry to a solved chain, shared
through a two-entry memo by levels, weights, moments, the crosscheck and the
states (wavefunctions).  The memo keys on values: equal (M, zeta, kind), as
M = 3 and 3.0, share one entry, whose shift is a float.  A miss checks the
domain, finds chain `kind` in the plan, keeps the shift (M + zeta)**2 and
the chain's steps 1..N+2 at zeta, read once (families.chain_steps), and
certifies the roots of the critical member N by chain_roots, the uncached
certifier, on the first N steps.  The moments read the kept steps, and the
weights, the crosscheck's Gram matrix and the states' table of c_n =
p_n / e_n! read the value matrix the read-only ChainSolution adds on first
read: rows p_0..p_{N+2}, a column per root (families.family_values).  Only
the factorization check builds bivariate chains.
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
    ChainSteps,
    ThreeTermForm,
    chain_steps,
    family_values,
    gen_family,
    gen_quotient,
    member_signs,
    series_index,
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
        shift = (m + float(zeta)) ** 2
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


def chain_roots(steps: ChainSteps) -> list:
    """The n simple real roots, ascending, of the last member p_n of the steps
    (B_k, C_k), k = 1..n, from the steps alone.

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
    n = len(steps.floats)

    def value_slope(x):
        p, q, dp, dq = 1.0, 0.0, 0.0, 0.0  # p_n, p_{n-1} and their slopes
        for b, c in steps.floats:
            p, q, dp, dq = (x + b) * p + c * q, p, p + (x + b) * dp + c * dq, dp
        return p, dp

    bs, cs = np.array(steps.floats).T
    root_c = np.sqrt(np.abs(cs[1:]))
    jacobi = np.diag(-bs) + np.diag(root_c, 1) - np.diag(np.sign(cs[1:]) * root_c, -1)
    roots = sorted(newton(value_slope, float(x.real)) for x in np.linalg.eigvals(jacobi))
    if not all(map(math.isfinite, roots)):
        raise RootCountMismatch(f"Newton polish left a non-finite root: p_{n} overflows floats")
    mids = [(x + y) / 2 for x, y in zip(roots, roots[1:])]
    signs = member_signs(steps, [-math.inf, *mids, math.inf])
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
    """Certified roots (shifted, ascending) of a chain's critical member N, the shift
    (M + zeta)**2 back to E, the steps 1..N+2 at zeta and, on first read, the value
    matrix (read-only, (N+3, N), p_n at the roots), weight solve, condition, series table."""
    spec: ChainSpec
    shift: float
    steps: ChainSteps
    roots: tuple

    @cached_property
    def values(self) -> np.ndarray:
        values = np.array(family_values(self.steps, np.array(self.roots)))
        values.flags.writeable = False
        return values

    @cached_property
    def weight_solve(self) -> tuple:
        """(read-only weights, residual) of sum_k p_n(E_k) w_k = delta_n0, n < N,
        by partial pivoting; QESDomainError, not kept, for a residual > 1e-10."""
        a = self.values[:len(self.roots)]
        rhs = np.eye(1, len(self.roots))[0]
        try:
            w = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise QESDomainError("degenerate support") from exc
        residual = float(np.max(np.abs(a @ w - rhs)))
        if residual > 1e-10:
            raise QESDomainError(f"weight system residual {residual} above tolerance")
        w.flags.writeable = False
        return w, residual

    @cached_property
    def condition(self) -> float:
        return float(np.linalg.cond(self.values[:len(self.roots)]))

    @cached_property
    def series_coeffs(self) -> tuple:
        """c_j = p_j / e_j!, e_j = series_index(kind, j), j <= N+2, one tuple per
        root; members N..N+2, certified finite and within 1e-9 of max |c| at
        every root (QESDomainError, not kept, otherwise), are zeroed."""
        crit = len(self.roots)
        factorials = [float(math.factorial(series_index(self.spec.kind, j))) for j in range(crit + 3)]
        coeffs = self.values / np.array(factorials)[:, None]
        tail, scale = np.abs(coeffs[crit:]), np.max(np.abs(coeffs), axis=0)
        # a NaN tail fails "<=", and an inf scale, which any tail is within, fails
        bad = np.argwhere(~(tail <= 1e-9 * scale) | ~np.isfinite(scale))
        if bad.size:
            j, k = bad[0]
            raise QESDomainError(f"series does not terminate: |c_{crit + j}| = {tail[j, k]}"
                                 f" against max |c| = {scale[k]}")
        coeffs[crit:] = 0.0
        return tuple(map(tuple, coeffs.T.tolist()))


def _planned_chain(m, zeta: float, kind: str) -> tuple:
    """(ChainSpec, level count, shift) of chain `kind` of the plan at (M, zeta),
    after the domain check: the errors of a chain solve that come before its
    roots are certified, in the order M, zeta, shift, chain."""
    m, shift = require_qes_domain(m, zeta)
    for spec, count in chain_plan(m):
        if spec.kind == kind:
            return spec, count, shift
    raise QESDomainError(f"chain {kind} carries no QES levels at M={m}")


# two entries: every (M, zeta) has at most two chains in its plan (chain_plan)
@lru_cache(maxsize=2)
def solve_chain(m, zeta: float, kind: str) -> ChainSolution:
    """The one solve of chain `kind` of the plan at (M, zeta), shared by every
    consumer: a miss checks the domain, finds the chain (_planned_chain), reads
    its steps 1..N+2 and certifies its roots by chain_roots on the first N,
    and a solve that raises is not kept."""
    spec, count, shift = _planned_chain(m, zeta, kind)
    steps = chain_steps(spec, count + 2, zeta)
    return ChainSolution(spec, shift, steps, tuple(chain_roots(steps.head(count))))


def qes_energies(m, zeta: float) -> SpectrumReport:
    """The M algebraic levels, sorted, with node counts and chain labels."""
    levels = []
    for parity, (spec, _) in enumerate(chain_plan(m)):
        solution = solve_chain(m, zeta, spec.kind)
        levels += [QESLevel(root + solution.shift, root, parity + 2 * rank, spec.kind)
                   for rank, root in enumerate(solution.roots)]
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
    quotient-chain norms are positive for zeta > 0.  With M = a/b and
    t = 2s each factor is an integer over b (P, Q) or b**2 (the quotient
    chains), so gamma_n is one product of ints over b**n or b**(2n).
    """
    m = as_rational(m)
    s = as_rational(s)
    if n < 0:
        raise ValueError("n must be nonnegative")
    ChainSpec(chain, m, s)  # validates the chain/parity combination
    a, b, t, ks = m.numerator, m.denominator, s.numerator, range(1, n + 1)
    if chain == "P":
        factors, den = (-8 * k * (2 * k - 1) * (a - b * (t + 2 * k - 1)) for k in ks), b ** n
    elif chain == "Q":
        factors, den = (-8 * k * (2 * k + 1) * (a - b * (t + 2 * k)) for k in ks), b ** n
    elif chain in ("Pbar", "Sbar"):
        factors = (4 * (a + b * (2 * k + 1)) * (a + 2 * k * b) * (2 * k + t) for k in ks)
        den = b ** (2 * n)
    elif chain in ("Qbar", "Rbar"):
        factors = (4 * (a + 2 * k * b) * (a + b * (2 * k - 1)) * (2 * k + t - 1) for k in ks)
        den = b ** (2 * n)
    else:
        raise QESDomainError(f"no norm formula for chain {chain!r}")
    coef = math.prod(factors)
    return ParamPoly.monomial(coef // den if coef % den == 0 else Fraction(coef, den), n)


def norms_from_recursion(form: ThreeTermForm) -> NormSequence:
    """Norms by the monic identity gamma_n = -C_{n+1} gamma_{n-1}, exactly.

    Every C_k of the form is c1_k*zeta, so gamma_n = (prod_{k=2}^{n+1} -c1_k)
    * zeta**n: one running product of ints (Fractions for a rational M)."""
    gammas, coef = [ParamPoly.const(1)], 1
    # form.c[k] is C_{k+1}; gamma_n needs C_2..C_{n+1}
    for n, c in enumerate(form.c[1:], 1):
        if c.coeffs[:1] not in ((), (0,)) or c.degree() > 1:
            raise ValueError(f"C_{n + 1} = {c.render()} is not c1*zeta")
        coef *= -c.coeffs[1] if c else 0
        gammas.append(ParamPoly.monomial(coef, n))
    return NormSequence(form.spec.kind, tuple(gammas))


# ----------------------------------------------------------------------
# Weights
# ----------------------------------------------------------------------

def weights(m, zeta: float, chain: str) -> WeightTable:
    """Discrete weights on a chain's own levels: the chain's one float solve of
    sum_k p_n(E_k) w_k = delta_n0, n < level count, at its certified roots
    (ChainSolution.weight_solve), with the system's condition number."""
    solution = solve_chain(m, zeta, chain)
    w, residual = solution.weight_solve
    support = tuple((r + solution.shift, float(x)) for r, x in zip(solution.roots, w))
    return WeightTable(chain, support, condition=solution.condition, residual=residual)


@dataclass(frozen=True)
class CrosscheckReport:
    chain: str
    zeta: float
    norm_deviations: tuple
    orthogonality_max: float
    ok: bool


def norm_weight_crosscheck(m, zeta: float, chain: str) -> CrosscheckReport:
    """Verify sum_k w_k p_m(E_k) p_n(E_k) = gamma_n delta_mn as one Gram
    matrix identity, V diag(w) V^T = diag(gamma), with V the rows p_0..p_N of
    the chain solve's values and w its weights.

    A norm passes within 1e-9 (1 + |gamma_n|).  An orthogonality sum, an
    entry of the strict upper triangle over p_0..p_{N-1}, passes within 1e-9
    of the matching entry of |V| diag(|w|) |V|^T, the sum of its terms'
    magnitudes (its rounding scale); orthogonality_max is the largest sum.
    """
    solution = solve_chain(m, zeta, chain)
    spec, count = solution.spec, len(solution.roots)
    v, w = solution.values[:count + 1], solution.weight_solve[0]
    gammas = np.array([norms_closed(chain, spec.m, spec.s, n).eval_float(zeta)
                       for n in range(count + 1)])
    gram, scale = (v * w) @ v.T, (np.abs(v) * np.abs(w)) @ np.abs(v).T
    upper = np.triu_indices(count, 1)    # pairs among p_0..p_{N-1}
    devs, sums = np.abs(np.diag(gram) - gammas), np.abs(gram[upper])
    ok = not (np.any(devs > 1e-9 * (1.0 + np.abs(gammas))) or np.any(sums > 1e-9 * scale[upper]))
    return CrosscheckReport(chain, zeta, tuple(devs.tolist()), float(sums.max(initial=0.0)), ok)


def moments(m, zeta: float, chain: str, n_max: int) -> MomentSequence:
    """Power moments of the discrete weight, mu_n = sum_k w_k E_k**n, from
    the chain solve's steps alone: the p_0 coordinates of E**n mod p_N (module
    docstring).  E maps the coordinates a of E**n in p_0..p_{N-1} to those
    of E**(n+1) by (E a)_j = a_{j-1} + (shift - B_{j+1}) a_j - C_{j+2} a_{j+1}.

    The growth sequence |mu_n|**(1/n) tends to max_k |E_k| for a finite
    atomic measure; the coarser comparator (M + zeta)**2 is reported
    alongside, not asserted.
    """
    if n_max < 0:    # after the domain and chain errors, before any root is certified
        _planned_chain(m, zeta, chain)
        raise ValueError("order must be nonnegative")
    solution = solve_chain(m, zeta, chain)
    shift, count = solution.shift, len(solution.roots)
    max_abs_energy = max(abs(root + shift) for root in solution.roots)
    bs, cs = np.array(solution.steps.floats[:count]).T
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
