"""Output checks for the benchmark, computed apart from qespoly.

Nothing here calls into qespoly.  The reference quantities come from the
combined series recurrence of the double sinh-Gordon well, written out
again from the paper,

    R_0 = R_1 = 1,
    R_{n+2} = (E + b_n) R_n + c_n R_{n-2},
    b_n = n^2 + 4 s n + 4 s^2 + (4 n + 2) zeta,
    c_n = 4 zeta (M + 1 - 2 s - n) n (n - 1),

in the shifted energy E = energy - (M + zeta)^2, with P_n = R_{2n} and
Q_n = R_{2n+1}.  The monic steps of P and Q, their termination, the QES
levels (eigenvalues of the tridiagonal Jacobi matrix of the terminating
chain), the weights' moment identities, a sixth-order Schroedinger stencil
and the sextic sector matrix are all derived from that here.

Every check raises CheckFailed with a message when an output is wrong.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

HALF = Fraction(1, 2)
QUOTIENT_BASE = {  # quotient kind -> (base chain, s, M parity)
    "Pbar": ("P", Fraction(0), 1),
    "Qbar": ("Q", HALF, 1),
    "Rbar": ("P", HALF, 0),
    "Sbar": ("Q", Fraction(0), 0),
}
ENERGY_TOL = 1e-9       # relative, on levels
IDENTITY_TOL = 1e-9     # relative to the sum of magnitudes, on weight identities
RESIDUAL_BOUND = 1e-6   # sup |-psi'' + (V - E) psi| / sup |psi|, sixth-order stencil


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# The recurrence and the chains derived from it
# ----------------------------------------------------------------------

def r_step(m, s, n, zeta):
    """(b_n, c_n) of the combined recurrence; exact for Fraction inputs."""
    b = n * n + 4 * s * n + 4 * s * s + (4 * n + 2) * zeta
    c = 4 * zeta * (m + 1 - 2 * s - n) * n * (n - 1)
    return b, c


def chain_step(kind, m, s, n, zeta):
    """(B_n, C_n) of the monic step p_n = (E + B_n) p_{n-1} + C_n p_{n-2}.

    P_n = R_{2n} and Q_n = R_{2n+1}, so a P step is the R step at 2n - 2 and
    a Q step the R step at 2n - 1.
    """
    return r_step(m, s, 2 * n - 2 if kind == "P" else 2 * n - 1, zeta)


def critical_index(kind, m, s):
    """The N with C_{N+1} = 0 (so p_N terminates the chain), or None."""
    n = (m + 1 - 2 * s) / 2 if kind == "P" else (m - 2 * s) / 2
    n = Fraction(n)
    return int(n) if n.denominator == 1 and n >= 1 else None


def level_plan(m: int):
    """(kind, s, N, first node) of each chain that carries QES levels."""
    plan = []
    for kind in ("P", "Q"):
        for s in (Fraction(0), HALF):
            n = critical_index(kind, m, s)
            if n is not None:
                plan.append((kind, s, n, 0 if s == 0 else 1))
    return plan


def r_values(m, s, zeta, e, order: int) -> list:
    """R_0 .. R_order at one point."""
    vals = [1, 1]
    for n in range(order - 1):
        b, c = r_step(m, s, n, zeta)
        vals.append((e + b) * vals[n] + (c * vals[n - 2] if n >= 2 else 0))
    return vals[: order + 1]


def chain_values(kind, m, s, zeta, e, order: int) -> list:
    """p_0 .. p_order of a main chain (P or Q) at one point, via R."""
    r = r_values(m, s, zeta, e, 2 * order + 1)
    return r[0::2] if kind == "P" else r[1::2]


def chain_values_derivs(kind, m, s, zeta, x, order: int):
    """Float p_0..p_order and their E-derivatives by the monic steps."""
    p, dp = [1.0], [0.0]
    for n in range(1, order + 1):
        b, c = chain_step(kind, m, s, n, zeta)
        prev2 = p[n - 2] if n >= 2 else 0.0
        dprev2 = dp[n - 2] if n >= 2 else 0.0
        p.append((x + b) * p[n - 1] + c * prev2)
        dp.append(p[n - 1] + (x + b) * dp[n - 1] + c * dprev2)
    return p, dp


def chain_magnitudes(kind, m, s, zeta, x, order: int) -> list:
    """The recurrence run on absolute values: a bound on rounding scale."""
    p = [1.0]
    for n in range(1, order + 1):
        b, c = chain_step(kind, m, s, n, zeta)
        p.append((abs(x) + abs(b)) * p[n - 1] + (abs(c) * p[n - 2] if n >= 2 else 0.0))
    return p


def gamma(kind, m, s, zeta, n: int, offset: int = 0):
    """Squared norm gamma_n = prod_{k=2}^{n+1} (-C_{k+offset}) of a main chain
    (offset 0) or of its quotient chain (offset = the critical index: the
    quotient's steps are the base chain's steps past that index)."""
    g = 1
    for k in range(2, n + 2):
        g *= -chain_step(kind, m, s, k + offset, zeta)[1]
    return g


def eval_energy_poly(poly, zeta: Fraction, e: Fraction) -> Fraction:
    """Exact value of a Q[zeta][E] polynomial, read from its coefficient tuples."""
    acc = Fraction(0)
    for param in reversed(poly.coeffs):
        z = Fraction(0)
        for c in reversed(param.coeffs):
            z = z * zeta + c
        acc = acc * e + z
    return acc


# ----------------------------------------------------------------------
# chains workload
# ----------------------------------------------------------------------

def _check_monic(members, kind: str) -> None:
    for n, p in enumerate(members):
        deg = n // 2 if kind == "R" else n
        require(len(p.coeffs) == deg + 1, f"{kind}_{n} has degree {len(p.coeffs) - 1}, want {deg}")
        require(tuple(p.coeffs[-1].coeffs) == (1,), f"{kind}_{n} is not monic")


def check_main_chain(family, kind, m, s, order, point) -> None:
    """P or Q chain: monic of degree n, equal to the recurrence at a point."""
    require(len(family.members) == order + 1, f"{kind} chain has {len(family.members)} members")
    _check_monic(family.members, kind)
    zeta, e = point
    ref = chain_values(kind, m, s, zeta, e, order)
    for n, p in enumerate(family.members):
        got = eval_energy_poly(p, zeta, e)
        require(got == ref[n], f"{kind}_{n}(M={m}, s={s}) at {point}: {got} != {ref[n]}")


def check_r_chain(family, m, s, order, point, siblings) -> None:
    """R chain: recurrence values at a point, and R_2n = P_n, R_2n+1 = Q_n."""
    require(len(family.members) == order + 1, f"R chain has {len(family.members)} members")
    _check_monic(family.members, "R")
    zeta, e = point
    ref = r_values(m, s, zeta, e, order)
    for n, p in enumerate(family.members):
        got = eval_energy_poly(p, zeta, e)
        require(got == ref[n], f"R_{n}(M={m}, s={s}) at {point}: {got} != {ref[n]}")
    for kind, parity in (("P", 0), ("Q", 1)):
        sib = siblings.get((kind, m, s))
        if sib is None:
            continue
        for k, member in enumerate(sib.members):
            n = 2 * k + parity
            if n < len(family.members):
                require(family.members[n] == member, f"R_{n} != {kind}_{k} at M={m}, s={s}")


def check_quotient_chain(family, qkind, m, order, point) -> None:
    """Quotient chain: base_{N+n} = base_N * quotient_n at a point."""
    base, s, _ = QUOTIENT_BASE[qkind]
    require(len(family.members) == order + 1, f"{qkind} chain has {len(family.members)} members")
    _check_monic(family.members, qkind)
    zeta, e = point
    crit = critical_index(base, m, s)
    ref = chain_values(base, m, s, zeta, e, crit + order)
    for n, p in enumerate(family.members):
        got = eval_energy_poly(p, zeta, e)
        require(ref[crit + n] == ref[crit] * got,
                f"{base}_{crit + n} != {base}_{crit} * {qkind}_{n} at M={m}, {point}")


def check_factorization(report, m, depth) -> None:
    want = ([("P", Fraction(0), "Pbar"), ("Q", HALF, "Qbar")] if m % 2
            else [("P", HALF, "Rbar"), ("Q", Fraction(0), "Sbar")])
    require(report.m == m and report.depth == depth, "factorization report mislabelled")
    require(len(report.entries) == 2, "factorization needs two chains")
    for entry, (kind, s, qkind) in zip(report.entries, want):
        require((entry.chain_kind, entry.s, entry.quotient_kind) == (kind, s, qkind),
                f"factorization entry {entry.chain_kind}/{entry.quotient_kind} unexpected")
        require(entry.critical == critical_index(kind, m, s), f"critical index {entry.critical}")
        require(len(entry.remainders_zero) == depth + 1 and all(entry.remainders_zero),
                f"nonzero remainder in {kind} at M={m}")
        require(len(entry.quotients_match) == depth + 1 and all(entry.quotients_match),
                f"quotient != {qkind} chain at M={m}")


def norm_coefficients(kind, m, s, order) -> list:
    """gamma_0..gamma_order as the coefficient of zeta^n (each is a monomial)."""
    offset = 0
    if kind in QUOTIENT_BASE:
        kind = QUOTIENT_BASE[kind][0]
        offset = critical_index(kind, m, s)
    return [Fraction(gamma(kind, m, s, Fraction(1), n, offset)) for n in range(order + 1)]


def check_norms(recursion, closed, kind, m, s, order) -> None:
    """Closed forms equal the recursion products and the reference monomials."""
    want = norm_coefficients(kind, m, s, order)
    require(len(closed) == order + 1 and len(recursion.values) >= order + 1,
            f"norm sequence too short for {kind}")
    for n in range(order + 1):
        mono = () if want[n] == 0 else (0,) * n + (want[n],)
        require(tuple(closed[n].coeffs) == mono, f"closed gamma_{n} of {kind}(M={m}) wrong")
        require(tuple(recursion.values[n].coeffs) == mono,
                f"recursion gamma_{n} of {kind}(M={m}) wrong")


# ----------------------------------------------------------------------
# levels workload
# ----------------------------------------------------------------------

def jacobi_roots(kind, m, s, n, zeta: float) -> list:
    """Roots of p_N (shifted energy) as eigenvalues of its Jacobi matrix.

    J[k,k] = -B_{k+1}, J[k,k+1] = 1, J[k+1,k] = -C_{k+2}; the roots are then
    polished by Newton steps on the float recurrence.
    """
    j = np.zeros((n, n))
    for k in range(n):
        b, _ = chain_step(kind, m, s, k + 1, zeta)
        j[k, k] = -b
        if k + 1 < n:
            j[k, k + 1] = 1.0
            j[k + 1, k] = -chain_step(kind, m, s, k + 2, zeta)[1]
    eig = np.linalg.eigvals(j)
    require(np.all(np.abs(eig.imag) <= 1e-8 * (1 + np.abs(eig.real))),
            "reference Jacobi matrix has complex eigenvalues")
    roots = []
    for x in sorted(float(v) for v in eig.real):
        for _ in range(4):
            p, dp = chain_values_derivs(kind, m, s, zeta, x, n)
            if dp[n] == 0.0:
                break
            x -= p[n] / dp[n]
        roots.append(x)
    return sorted(roots)


def reference_levels(m: int, zeta: float) -> list:
    """(energy, nodes, kind, s) of the M algebraic levels, ordered by nodes."""
    shift = (m + zeta) ** 2
    out = []
    for kind, s, n, first in level_plan(m):
        for rank, x in enumerate(jacobi_roots(kind, m, s, n, zeta)):
            out.append((x + shift, first + 2 * rank, kind, s))
    out.sort(key=lambda lv: lv[1])
    return out


def close(a: float, b: float, tol: float = ENERGY_TOL) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def check_spectrum(report, m, zeta, ref) -> None:
    levels = report.levels
    require(report.m == m and len(levels) == m, f"spectrum holds {len(levels)} levels, want {m}")
    energies = [lv.energy for lv in levels]
    require(all(a < b for a, b in zip(energies, energies[1:])), "levels not ascending")
    require([lv.nodes for lv in levels] == list(range(m)), "node labels not 0..M-1")
    require(all(a[0] < b[0] for a, b in zip(ref, ref[1:])), "reference levels out of node order")
    shift = (m + zeta) ** 2
    for lv, (e, nodes, kind, _) in zip(levels, ref):
        require(lv.chain == kind, f"level {nodes} on chain {lv.chain}, want {kind}")
        require(close(lv.energy, e), f"level {nodes}: E = {lv.energy!r}, Jacobi gives {e!r}")
        require(close(lv.script_energy, e - shift), f"level {nodes}: script_E inconsistent")


def check_weight_system(xs, w, kind, m, s, n, zeta) -> None:
    """Weights at the shifted energies xs (the roots of p_N): sum to 1,
    orthogonalise p_0..p_{N-1} and give sum w p_n^2 = gamma_n."""
    w = np.asarray(w, dtype=float)
    require(len(w) == n == len(xs), f"{kind} weight table has {len(w)} entries, want {n}")
    vals = np.array([chain_values_derivs(kind, m, s, zeta, x, n)[0] for x in xs]).T
    for a in range(n):
        for b in range(a, n):
            terms = w * vals[a] * vals[b]
            want = gamma(kind, m, s, zeta, a) if a == b else 0.0
            scale = float(np.sum(np.abs(terms)))
            require(abs(float(np.sum(terms)) - want) <= IDENTITY_TOL * scale,
                    f"{kind} weights: sum w p_{a} p_{b} = {np.sum(terms)!r}, want {want!r}")


def check_weights(table, kind, m, s, n, zeta, ref) -> None:
    require(table.chain == kind, f"weight table for {table.chain}, want {kind}")
    energies = [e for e, _ in table.support]
    want = [e for e, _, k, _ in ref if k == kind]
    require(len(energies) == len(want) and all(close(a, b) for a, b in zip(energies, want)),
            f"{kind} weight support is not the chain's levels")
    shift = (m + zeta) ** 2
    check_weight_system([e - shift for e in energies], table.weights(), kind, m, s, n, zeta)


def check_moment_values(values, growth, energies, w, n_max) -> None:
    e = np.asarray(energies, dtype=float)
    w = np.asarray(w, dtype=float)
    require(len(values) == n_max + 1 and len(growth) == n_max, "moment sequence length")
    for k in range(n_max + 1):
        terms = w * e ** k
        scale = float(np.sum(np.abs(terms)))
        require(abs(values[k] - float(np.sum(terms))) <= IDENTITY_TOL * scale,
                f"moment mu_{k} = {values[k]!r} disagrees with its weights")
    for k in range(1, n_max + 1):
        require(close(growth[k - 1], abs(values[k]) ** (1.0 / k)), f"growth_{k} wrong")


def check_moments(seq, table, n_max) -> None:
    check_moment_values(seq.values, seq.growth, [e for e, _ in table.support],
                        table.weights(), n_max)
    require(close(seq.max_abs_energy, max(abs(e) for e, _ in table.support)), "max |E| wrong")


def check_crosscheck(report, table, kind, m, s, n, zeta) -> None:
    """The reported norm deviations and orthogonality are rounding-sized.

    The scale is the recurrence run on magnitudes, which bounds the
    rounding of every p_n(E_k); the report's own ok flag is not used here.
    """
    shift = (m + zeta) ** 2
    w = np.abs(np.asarray(table.weights(), dtype=float))
    mags = np.array([chain_magnitudes(kind, m, s, zeta, e - shift, n) for e, _ in table.support]).T
    require(len(report.norm_deviations) == n + 1, "crosscheck covers the wrong orders")
    for k, dev in enumerate(report.norm_deviations):
        scale = float(np.sum(w * mags[k] ** 2))
        require(dev <= IDENTITY_TOL * scale, f"{kind} norm deviation {dev!r} at n={k}")
    ortho_scale = max((float(np.sum(w * mags[a] * mags[b]))
                       for a in range(n) for b in range(a + 1, n)), default=0.0)
    require(report.orthogonality_max <= IDENTITY_TOL * ortho_scale + 1e-300,
            f"{kind} orthogonality defect {report.orthogonality_max!r}")


def own_residual(values, x, m, zeta, energy) -> float:
    """sup |-psi'' + (V - E) psi| / sup |psi| with a sixth-order stencil."""
    h = x[1] - x[0]
    p = values
    d2 = (2 * p[:-6] - 27 * p[1:-5] + 270 * p[2:-4] - 490 * p[3:-3]
          + 270 * p[4:-2] - 27 * p[5:-1] + 2 * p[6:]) / (180 * h * h)
    v = (zeta * np.cosh(2 * x[3:-3]) - m) ** 2
    return float(np.max(np.abs(-d2 + (v - energy) * p[3:-3])) / np.max(np.abs(p)))


def sign_changes(values) -> int:
    v = np.asarray(values, dtype=float)
    v = v[np.abs(v) > 1e-10 * np.max(np.abs(v))]
    return int(np.sum(np.sign(v[1:]) != np.sign(v[:-1])))


def check_state(state, samples, program_residual, grid, m, zeta, ref_level) -> None:
    e, nodes, kind, s = ref_level
    require(state.level == nodes and state.chain == kind and state.s == s,
            f"state {nodes} mislabelled")
    require(close(state.energy, e), f"state {nodes}: E = {state.energy!r}, Jacobi gives {e!r}")
    got = sign_changes(samples)
    require(got == nodes, f"state {nodes} has {got} sign changes")
    r = own_residual(np.asarray(samples, dtype=float), grid, m, zeta, state.energy)
    require(r <= RESIDUAL_BOUND, f"state {nodes}: residual {r:.3e} above {RESIDUAL_BOUND}")
    require(0.0 <= program_residual <= 1e3 * RESIDUAL_BOUND,
            f"state {nodes}: program residual {program_residual!r}")


def check_dsg(outcome, m, zeta, ref) -> None:
    if m % 2 == 0:
        chars = getattr(outcome, "characters", None)
        require(chars is not None and len(chars) == m and all(c == -1 for c in chars),
                f"even M={m}: rejection must carry M characters of -1, got {chars}")
        return
    want = [-lv[0] for lv in reversed(ref)]
    levels = getattr(outcome, "levels", None)
    require(levels is not None and len(levels) == m, f"odd M={m}: no sine-Gordon spectrum")
    require([lv.nodes for lv in levels] == list(range(m)), "sine-Gordon node labels")
    for lv, e in zip(levels, want):
        require(close(lv.energy, e), f"sine-Gordon level {lv.nodes}: {lv.energy!r} != {e!r}")


def check_dsg_weights(table, seq, sinh_table, sinh_moments, m, s, n, zeta) -> None:
    """Circle weights are the sinh-Gordon P weights reversed on the negated
    support, still orthogonalise P there, and the moments flip sign by (-1)^n."""
    energies = [e for e, _ in table.support]
    sinh = sinh_table.support
    require(len(energies) == len(sinh), "sine-Gordon weight table length")
    w = table.weights()
    scale = sum(abs(x) for x in w)
    for (e, wk), (es, ws) in zip(table.support, reversed(sinh)):
        require(close(e, -es), f"sine-Gordon support {e!r} != {-es!r}")
        require(abs(wk - ws) <= 1e-8 * scale, f"sine-Gordon weight {wk!r} != {ws!r}")
    shift = (m + zeta) ** 2
    check_weight_system([-e - shift for e in energies], w, "P", m, s, n, zeta)
    check_moment_values(seq.values, seq.growth, energies, w, len(seq.values) - 1)
    for k, (a, b) in enumerate(zip(seq.values, sinh_moments.values)):
        require(abs(a - (-1) ** k * b) <= 1e-8 * (abs(b) + 1.0), f"mu_{k} does not flip sign")


def check_verify_all(code: int, text: str) -> None:
    lines = text.strip().splitlines()
    require(code == 0, f"verify-all exited {code}")
    require(lines and lines[-1] == "PASS overall", "verify-all did not print PASS overall")
    require(all(line.startswith(("PASS", "#")) for line in lines), "verify-all printed a FAIL")


# ----------------------------------------------------------------------
# oracle workload
# ----------------------------------------------------------------------

def sextic_levels(m: int, a: float, b: float) -> list:
    """Algebraic levels of x^2 (a x^2 + b)^2 - a (2M+3) x^2.

    With psi = exp(-a x^4/4 - b x^2/2) g, H acts on g = x^k as
    -k(k-1) x^(k-2) + b(2k+1) x^k + 2a(k-M) x^(k+2),
    which keeps the span of x^k, k = M, M-2, ..., M mod 2.
    """
    ks = list(range(m % 2, m + 1, 2))
    h = np.zeros((len(ks), len(ks)))
    for j, k in enumerate(ks):
        h[j, j] = b * (2 * k + 1)
        if j > 0:
            h[j - 1, j] = -k * (k - 1)
        if j + 1 < len(ks):
            h[j + 1, j] = 2 * a * (k - m)
    eig = np.linalg.eigvals(h)
    require(np.all(np.abs(eig.imag) <= 1e-9 * (1 + np.abs(eig.real))), "sextic sector complex")
    return sorted(float(v) for v in eig.real)


def check_line_match(result, m, ref, tolerance) -> None:
    want = sorted(lv[0] for lv in ref)
    require(len(result.matches) == m, f"{len(result.matches)} matches, want {m}")
    for mt, e in zip(sorted(result.matches, key=lambda t: t.analytic), want):
        require(close(mt.analytic, e), f"analytic level {mt.analytic!r} != Jacobi {e!r}")
        require(abs(mt.oracle - e) <= tolerance, f"oracle level {mt.oracle!r} off {e!r}")
        require(mt.oracle in result.eigenvalues, "matched level not among the eigenvalues")


def check_pair(report, source) -> None:
    count = len(source)
    require(len(report.source) == count,
            f"pair source has {len(report.source)} levels, want {count}")
    for a, b in zip(report.source, source):
        require(close(a, b), f"pair source level {a!r} != {b!r}")
    require(list(report.dual) == [-e for e in reversed(report.source)],
            "dual is not negate-and-reverse")
    require([tuple(p) for p in report.pairs] == [(k, count - 1 - k) for k in range(count)],
            "pair indices")


def check_richardson(result, levels) -> None:
    """The lowest eigenvalues hold the analytic levels within the Richardson
    estimate |fine - coarse| / 3 of the fine-grid error."""
    fine, coarse, extra = result.eigenvalues, result.richardson, result.extrapolated
    require(all(a <= b for a, b in zip(fine, fine[1:])), "eigenvalues not ascending")
    require(len(fine) >= len(levels), "too few eigenvalues")
    for i, e in enumerate(levels):
        est = abs(fine[i] - coarse[i]) / 3.0
        require(est > 0.0, f"level {i}: no Richardson estimate")
        require(abs(fine[i] - e) <= 2.0 * est, f"level {i}: {fine[i]!r} vs {e!r} (est {est:.2e})")
        require(abs(extra[i] - e) <= est, f"level {i}: extrapolated {extra[i]!r} vs {e!r}")
        require(close(extra[i], (4.0 * fine[i] - coarse[i]) / 3.0, 1e-12),
                f"level {i}: extrapolation inconsistent with its grid pair")
