"""The three task lists: chains, levels and oracle.

Each task calls the public API of qespoly through module attributes (so a
traced run sees the wrapped functions) and returns its outputs.  Its check
reads those outputs only; the reference values come from checks.py.  The
task lists are fixed; the seed orders each list and draws the points the
checks evaluate at (exact check points for the chains, the sample grid of
each state, the seed passed to verify-all).
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable

import numpy as np

import checks
from qespoly import cli, duality, families, oracle, potentials, spectrum, wavefunctions

HALF = Fraction(1, 2)

CHAIN_MS = (3, 4, 9, 10, 17, 33, 40)
CHAIN_ORDERS = (8, 16, 24, 32, 40)
QUOTIENT_ORDERS = (8, 12, 16, 20, 24)
FACTOR_DEPTHS = (4, 5, 6, 7, 8)
NORM_ORDER = 12

LEVEL_MS = tuple(range(1, 11))
LEVEL_ZETAS = (0.5, 1.0, 2.0, 0.7, 1.3)
VERIFY_ALL = tuple(product((1, 2, 3, 4), ("0.5", "1", "2")))
MOMENT_ORDER = 12
STATE_L, STATE_POINTS = 4.0, 2001

LINE_CHECKS = tuple(product((1, 2, 3, 4, 5), (0.5, 1.0, 2.0))) + (
    (6, 1.0), (7, 1.0), (9, 1.0), (8, 0.5))
LINE_TOLERANCE = 1e-4
DSG_PAIRS = tuple(product((1, 3, 5, 7), (1.0, 2.0)))
SEXTIC_MS = tuple(range(8))
CIRCLE_M, CIRCLE_ZETA, CIRCLE_NS = 5, 1.0, (1024, 2048, 4096)
ENLARGE_M, ENLARGE_ZETA, ENLARGE_L, ENLARGE_N = 3, 1.0, 1.0, 4000


class TaskFailed(RuntimeError):
    """The program reported failure without raising (a rejected cross-check)."""


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], None] = field(repr=False)


def _point(rng: random.Random):
    """A seeded rational (zeta, E) for the exact chain checks."""
    zeta = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    e = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
    return zeta, e


# ----------------------------------------------------------------------
# chains
# ----------------------------------------------------------------------

def _main_chain_task(m, kind, s, order, point):
    spec = families.ChainSpec(kind, Fraction(m), s)
    return Task(
        f"chain {kind} M={m} s={s} order={order}",
        lambda: families.gen_family(spec, order),
        lambda fam, _: checks.check_main_chain(fam, kind, m, s, order, point),
    )


def _r_chain_task(m, s, order, point):
    spec = families.ChainSpec("R", Fraction(m), s)

    def check(fam, outputs):
        siblings = {(o.spec.kind, int(o.spec.m), o.spec.s): o for o in outputs.values()
                    if isinstance(o, families.PolyFamily) and o.spec.kind in ("P", "Q")}
        checks.check_r_chain(fam, m, s, order, point, siblings)

    return Task(f"chain R M={m} s={s} order={order}", lambda: families.gen_R(spec, order), check)


def _quotient_task(m, qkind, order, point):
    spec = families.ChainSpec(qkind, Fraction(m), checks.QUOTIENT_BASE[qkind][1])
    return Task(
        f"chain {qkind} M={m} order={order}",
        lambda: families.gen_quotient(spec, order),
        lambda fam, _: checks.check_quotient_chain(fam, qkind, m, order, point),
    )


def _factorization_task(m, depth):
    return Task(
        f"factorization M={m} depth={depth}",
        lambda: spectrum.factorization_check(m, depth),
        lambda rep, _: checks.check_factorization(rep, m, depth),
    )


def _norms_task(kind, m, s, order):
    spec = families.ChainSpec(kind, Fraction(m), s)
    gen = families.gen_quotient if kind in checks.QUOTIENT_BASE else families.gen_family

    def run():
        form = families.three_term_form(gen(spec, order + 1))
        closed = [spectrum.norms_closed(kind, m, s, n) for n in range(order + 1)]
        return spectrum.norms_from_recursion(form), closed

    return Task(
        f"norms {kind} M={m} s={s}",
        run,
        lambda out, _: checks.check_norms(out[0], out[1], kind, m, s, order),
    )


def _quotient_kinds(m):
    return [q for q, (_, _, parity) in checks.QUOTIENT_BASE.items() if m % 2 == parity]


def chains_tasks(rng: random.Random) -> list:
    tasks = []
    for i, (m, kind, s) in enumerate(product(CHAIN_MS, "PQ", (Fraction(0), HALF))):
        tasks.append(_main_chain_task(m, kind, s, CHAIN_ORDERS[i % 5], _point(rng)))
    for i, (m, s) in enumerate(product(CHAIN_MS, (Fraction(0), HALF))):
        tasks.append(_r_chain_task(m, s, CHAIN_ORDERS[i % 5], _point(rng)))
    quotients = [(m, q) for m in CHAIN_MS for q in _quotient_kinds(m)]
    for i, (m, q) in enumerate(quotients):
        tasks.append(_quotient_task(m, q, QUOTIENT_ORDERS[i % 5], _point(rng)))
    for i, m in enumerate(CHAIN_MS):
        tasks.append(_factorization_task(m, FACTOR_DEPTHS[i % 5]))
    for m in CHAIN_MS:
        for kind, s, _, _ in checks.level_plan(m):
            tasks.append(_norms_task(kind, m, s, NORM_ORDER))
        for q in _quotient_kinds(m):
            tasks.append(_norms_task(q, m, checks.QUOTIENT_BASE[q][1], NORM_ORDER))
    return tasks


def chains_warmup(rng: random.Random) -> list:
    return [
        _main_chain_task(3, "P", Fraction(0), 4, _point(rng)),
        _r_chain_task(3, Fraction(0), 4, _point(rng)),
        _quotient_task(3, "Pbar", 4, _point(rng)),
        _factorization_task(3, 2),
        _norms_task("Q", 3, HALF, 4),
    ]


# ----------------------------------------------------------------------
# levels
# ----------------------------------------------------------------------

def _grid(rng: random.Random) -> np.ndarray:
    """A uniform grid on [-L, L] at a seeded offset."""
    h = 2 * STATE_L / STATE_POINTS
    return -STATE_L + h * (np.arange(STATE_POINTS) + rng.random())


def _solve(m, zeta, grid):
    """One full numeric solve at (M, zeta), as a user of the library runs it."""
    out = {"spectrum": spectrum.qes_energies(m, zeta), "chains": {}}
    for kind, _, _, _ in checks.level_plan(m):
        out["chains"][kind] = (
            spectrum.weights(m, zeta, kind),
            spectrum.moments(m, zeta, kind, MOMENT_ORDER),
            spectrum.norm_weight_crosscheck(m, zeta, kind),
        )
    spec = potentials.dshg(m, zeta)
    states = []
    for level in range(m):
        state = wavefunctions.build_qes_state(m, zeta, level)
        states.append((state, state.eval(grid), wavefunctions.residual(state, spec, grid)))
    out["states"] = states
    out["dsg"] = duality.dsg_spectrum(m, zeta)
    out["dsg_weights"] = duality.dsg_weights_moments(m, zeta) if m % 2 else None
    return out


def _check_solve(out, m, zeta, grid):
    ref = checks.reference_levels(m, zeta)
    checks.check_spectrum(out["spectrum"], m, zeta, ref)
    plan = {kind: (s, n) for kind, s, n, _ in checks.level_plan(m)}
    checks.require(set(out["chains"]) == set(plan), f"solve covers chains {sorted(out['chains'])}")
    for kind, (table, seq, cross) in out["chains"].items():
        s, n = plan[kind]
        checks.check_weights(table, kind, m, s, n, zeta, ref)
        checks.check_moments(seq, table, MOMENT_ORDER)
        checks.check_crosscheck(cross, table, kind, m, s, n, zeta)
    checks.require(len(out["states"]) == m, "one state per level")
    for (state, samples, res), level in zip(out["states"], ref):
        checks.check_state(state, samples, res, grid, m, zeta, level)
    checks.check_dsg(out["dsg"], m, zeta, ref)
    if m % 2:
        table, seq = out["dsg_weights"]
        s, n = plan["P"]
        sinh_table, sinh_moments, _ = out["chains"]["P"]
        checks.check_dsg_weights(table, seq, sinh_table, sinh_moments, m, s, n, zeta)


def _solve_task(m, zeta, grid):
    return Task(f"solve M={m} zeta={zeta}", lambda: _solve(m, zeta, grid),
                lambda out, _: _check_solve(out, m, zeta, grid))


def _verify_all_task(m, zeta, seed):
    argv = ["verify-all", "--m", str(m), "--zeta", zeta, "--seed", str(seed)]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return Task(f"verify-all M={m} zeta={zeta}", run, lambda out, _: checks.check_verify_all(*out))


def levels_tasks(rng: random.Random) -> list:
    tasks = [_solve_task(m, z, _grid(rng)) for m, z in product(LEVEL_MS, LEVEL_ZETAS)]
    tasks += [_verify_all_task(m, z, rng.randrange(10**6)) for m, z in VERIFY_ALL]
    return tasks


def levels_warmup(rng: random.Random) -> list:
    return [_solve_task(1, 1.0, _grid(rng)), _solve_task(2, 0.7, _grid(rng)),
            _verify_all_task(1, "1", rng.randrange(10**6))]


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------

def _line_task(m, zeta):
    return Task(
        f"verify_qes M={m} zeta={zeta}",
        lambda: oracle.verify_qes(m, zeta, LINE_TOLERANCE),
        lambda res, _: checks.check_line_match(res, m, checks.reference_levels(m, zeta),
                                               LINE_TOLERANCE),
    )


def _pair_task(name, spec_a, spec_b, source):
    """verify_duality_pair at its default grids and tolerance; `source`
    gives the benchmark's own levels of spec_a at check time."""
    def run():
        report = oracle.verify_duality_pair(spec_a, spec_b)
        if report.rejected:
            raise TaskFailed(report.reason)
        return report

    return Task(name, run, lambda rep, _: checks.check_pair(rep, source()))


def _dsg_pair_task(m, zeta):
    return _pair_task(
        f"pair dshg/dsg M={m} zeta={zeta}",
        potentials.dshg(m, zeta), potentials.dsg(m, zeta),
        lambda: [lv[0] for lv in checks.reference_levels(m, zeta)])


def _sextic_pair_task(m):
    return _pair_task(
        f"pair sextic M={m}",
        potentials.sextic_plus(m), potentials.sextic_minus(m),
        lambda: checks.sextic_levels(m, 1.0, 1.0))


def _kink_pair_task():
    # the kink well holds its zero mode and, at epsilon^2 = 1/2, the level 3/4 mu^2
    return _pair_task(
        "pair phi6 kink eps2=0.5 mu=1",
        potentials.phi6_kink(0.5, 1.0), potentials.phi6_kink_dual(0.5, 1.0),
        lambda: [0.0, 0.75])


def _circle_task(m, zeta, n):
    config = oracle.OracleConfig(potentials.dsg(m, zeta), n=n, count=m + 3)

    def check(res, _):
        levels = [-lv[0] for lv in reversed(checks.reference_levels(m, zeta))]
        checks.check_richardson(res, sorted(levels))

    return Task(f"circle dsg M={m} zeta={zeta} n={n}",
                lambda: oracle.lowest_eigenvalues(config), check)


def _enlarged_line_task(m, zeta, l, n):
    """A line solve started on a domain too small for its levels, so that
    lowest_eigenvalues must enlarge it."""
    config = oracle.OracleConfig(potentials.dshg(m, zeta), l=l, n=n, count=m + 3)

    def check(res, _):
        checks.require(res.config.l > l, f"the line domain l={l} was not enlarged")
        checks.check_richardson(res, [lv[0] for lv in checks.reference_levels(m, zeta)])

    return Task(f"line dshg M={m} zeta={zeta} from l={l} n={n}",
                lambda: oracle.lowest_eigenvalues(config), check)


def oracle_tasks(rng: random.Random) -> list:
    tasks = [_line_task(m, z) for m, z in LINE_CHECKS]
    tasks += [_dsg_pair_task(m, z) for m, z in DSG_PAIRS]
    tasks += [_sextic_pair_task(m) for m in SEXTIC_MS]
    tasks.append(_kink_pair_task())
    tasks += [_circle_task(CIRCLE_M, CIRCLE_ZETA, n) for n in CIRCLE_NS]
    tasks.append(_enlarged_line_task(ENLARGE_M, ENLARGE_ZETA, ENLARGE_L, ENLARGE_N))
    return tasks


def oracle_warmup(rng: random.Random) -> list:
    return [_line_task(1, 1.0), _dsg_pair_task(1, 1.0), _sextic_pair_task(0),
            _circle_task(1, 1.0, 256)]


WORKLOADS = {
    "chains": (chains_tasks, chains_warmup),
    "levels": (levels_tasks, levels_warmup),
    "oracle": (oracle_tasks, oracle_warmup),
}


def build(workload: str, seed: int):
    """(warm-up tasks, timed tasks in this seed's fixed order)."""
    make_tasks, make_warmup = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    tasks = make_tasks(rng)
    rng.shuffle(tasks)
    return make_warmup(rng), tasks
