"""Command-line front end.

Every pipeline is exposed as one subcommand with deterministic output in
json, csv or pretty form; each emitted artifact embeds a manifest header
(command, parameters, toolkit version, format) so runs are reproducible.
The result objects of the library are plain data: the handlers here build
every payload, CSV row and pretty line from their fields, so key names,
headers and number formats live in this module alone.
Exit codes: 0 success, 1 domain error, 2 usage error (an --out path that
cannot be written included).  verify-all exits 0 only when every check
passes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .duality import DsgRejection, dsg_spectrum, dual_energies
from .exactpoly import ExactDivisionError, RootCountMismatch, render_in_e
from .families import (
    CHAIN_KINDS,
    ChainSpec,
    ChainSpecError,
    MAIN_KINDS,
    QUOTIENT_KINDS,
    gen_R,
    gen_family,
    gen_quotient,
    recursion_form,
    terminating_chains,
)
from .oracle import (
    OracleConfig,
    OracleError,
    lowest_eigenvalues,
    verify_qes,
)
from .potentials import (
    PotentialSpec,
    dsg as dsg_potential,
    dshg as dshg_potential,
    harmonic,
    phi6_kink,
    phi6_kink_dual,
    sextic_minus,
    sextic_plus,
)
from .spectrum import (
    QESDomainError,
    chain_plan,
    factorization_check,
    moments,
    norm_weight_crosscheck,
    norms_closed,
    norms_from_recursion,
    qes_energies,
    weights,
)
from .wavefunctions import build_qes_state, node_count


class UsageError(ValueError):
    pass


# frozen renderings of the M=3 / M=4 chains (per-chain indicial root), used
# by verify-all as a regression anchor on top of the structural checks
GOLDEN_RENDERED = {
    ("P", 3): [
        "1",
        "E + (2ζ)",
        "E^2 + (12ζ+4)E + (20ζ^2+24ζ)",
        "E^3 + (30ζ+20)E^2 + (236ζ^2+288ζ+64)E + (360ζ^3+752ζ^2+384ζ)",
        "E^4 + (56ζ+56)E^3 + (1016ζ^2+1648ζ+784)E^2"
        " + (6496ζ^3+13856ζ^2+11456ζ+2304)E"
        " + (9360ζ^4+27712ζ^3+31296ζ^2+13824ζ)",
    ],
    ("Q", 3): [
        "1",
        "E + (6ζ+4)",
        "E^2 + (20ζ+20)E + (84ζ^2+152ζ+64)",
        "E^3 + (42ζ+56)E^2 + (524ζ^2+1152ζ+784)E"
        " + (1848ζ^3+5408ζ^2+6240ζ+2304)",
    ],
    ("P", 4): [
        "1",
        "E + (2ζ+1)",
        "E^2 + (12ζ+10)E + (20ζ^2+44ζ+9)",
        "E^3 + (30ζ+35)E^2 + (236ζ^2+524ζ+259)E"
        " + (360ζ^3+1292ζ^2+1262ζ+225)",
        "E^4 + (56ζ+84)E^3 + (1016ζ^2+2664ζ+1974)E^2"
        " + (6496ζ^3+23600ζ^2+31272ζ+12916)E"
        " + (9360ζ^4+46432ζ^3+85560ζ^2+65528ζ+11025)",
    ],
    ("Q", 4): [
        "1",
        "E + (6ζ+1)",
        "E^2 + (20ζ+10)E + (84ζ^2+116ζ+9)",
        "E^3 + (42ζ+35)E^2 + (524ζ^2+836ζ+259)E"
        " + (1848ζ^3+4652ζ^2+3098ζ+225)",
        "E^4 + (72ζ+84)E^3 + (1784ζ^2+3608ζ+1974)E^2"
        " + (17568ζ^3+48688ζ^2+48472ζ+12916)E"
        " + (55440ζ^4+201888ζ^3+281912ζ^2+155528ζ+11025)",
    ],
}


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _parse_m(text: str, minimum: int = 1) -> int:
    """--m as an integer of at least `minimum`; anything else is a domain error."""
    m = _parse_rational(text)
    if m.denominator != 1 or m < minimum:
        raise QESDomainError(f"M must be an integer >= {minimum}, got {text!r}")
    return int(m)


def _parse_zeta(text: str | None, allow_symbolic: bool):
    if text is None or text == "symbolic":
        if allow_symbolic:
            return None
        raise UsageError("this command needs --zeta <real>")
    try:
        zeta = float(text)
    except ValueError as exc:
        raise UsageError(f"not a number: --zeta {text!r}") from exc
    if not math.isfinite(zeta):
        raise QESDomainError(f"zeta must be finite, got {text!r}")
    return zeta


def _check_domain_l(args) -> None:
    """--domain-l, a line grid's half-width l, must be positive with 2l finite."""
    if not 0 < 2 * args.domain_l < math.inf:
        raise QESDomainError(f"--domain-l must be positive and finite, and so must the "
                             f"grid width 2l, got {args.domain_l} (the line half-width)")


def _fmt(x: float) -> str:
    return f"{x:.10f}"


def _render_numeric(coeffs) -> str:
    """Descending-power text for a float univariate polynomial in E; a zero
    coefficient is left out unless it is the only one."""
    return render_in_e((k, f"({c:.12g})") for k in range(len(coeffs) - 1, -1, -1)
                       if (c := coeffs[k]) != 0 or len(coeffs) == 1)


def _level_table(report) -> tuple:
    """JSON payload and CSV rows of a level table (spectrum, odd-M duality)."""
    payload = {"m": report.m, "zeta": report.zeta,
               "levels": [{"E": lv.energy, "script_E": lv.script_energy,
                           "nodes": lv.nodes, "chain": lv.chain} for lv in report.levels]}
    rows = [["E", "script_E", "nodes", "chain"]]
    rows += [[repr(lv.energy), repr(lv.script_energy), lv.nodes, lv.chain]
             for lv in report.levels]
    return payload, rows


def _emit(args, payload: dict, rows: list, lines: list) -> None:
    """Write the payload in args.format, under the manifest of args.command."""
    fmt = args.format
    params = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "out", "format", "command") and v is not None
    }
    manifest = {
        "command": args.command,
        "params": params,
        "version": __version__,
        "format": fmt,
    }
    if fmt == "json":
        doc = {"manifest": manifest}
        doc.update(payload)
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        out = [f"# manifest: {json.dumps(manifest, sort_keys=True)}"]
        out += [",".join(str(c) for c in row) for row in rows]
        text = "\n".join(out) + "\n"
    else:
        out = [f"# qespoly {__version__} {json.dumps(manifest['params'], sort_keys=True)}"]
        out += lines
        text = "\n".join(out) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_family(args) -> int:
    zeta = _parse_zeta(args.zeta, allow_symbolic=True)
    spec = ChainSpec(args.chain, _parse_rational(args.m), _parse_rational(args.s))
    if args.chain in MAIN_KINDS:
        fam = gen_family(spec, args.order)
    elif args.chain in QUOTIENT_KINDS:
        fam = gen_quotient(spec, args.order)
    else:
        fam = gen_R(spec, args.order)
    if zeta is None:
        rendered = [p.render() for p in fam.members]
        coeff_payload = rendered
    else:
        coeff_payload = []
        for n, p in enumerate(fam.members):
            try:
                coeff_payload.append([float(c) for c in p.specialize(Fraction(zeta))])
            except OverflowError:
                raise QESDomainError(f"member {n} of chain {args.chain} overflows a float"
                                     f" at zeta={zeta}") from None
        rendered = [_render_numeric(coeffs) for coeffs in coeff_payload]
    payload = {
        "family": {
            "kind": args.chain,
            "m": str(spec.m),
            "s": str(spec.s),
            "termination_index": fam.termination_index,
            "members": coeff_payload,
        }
    }
    rows = [["n", "polynomial"]] + [[n, r] for n, r in enumerate(rendered)]
    _emit(args, payload, rows, rendered)
    return 0


def _cmd_spectrum(args) -> int:
    zeta = _parse_zeta(args.zeta, allow_symbolic=False)
    report = qes_energies(_parse_m(args.m), zeta)
    lines = [
        f"E={_fmt(lv.energy)} scriptE={_fmt(lv.script_energy)} nodes={lv.nodes} chain={lv.chain}"
        for lv in report.levels
    ]
    _emit(args, *_level_table(report), lines)
    return 0


def _cmd_weights(args) -> int:
    zeta = _parse_zeta(args.zeta, allow_symbolic=False)
    table = weights(_parse_m(args.m), zeta, args.chain)
    payload = {"chain": table.chain, "weights": [{"E": e, "w": w} for e, w in table.support],
               "condition": table.condition, "residual": table.residual, "exact": table.exact}
    rows = [["E", "w"]] + [[repr(e), repr(w)] for e, w in table.support]
    lines = [f"E={_fmt(e)} w={_fmt(w)}" for e, w in table.support]
    lines.append(f"sum={_fmt(sum(table.weights()))} condition={table.condition:.6g}")
    _emit(args, payload, rows, lines)
    return 0


def _norms_against_recursion(kind: str, m, s, order: int) -> tuple:
    """The closed gamma_0..gamma_order of a chain, and per n whether the
    recursion's gamma_n equals it exactly."""
    closed = [norms_closed(kind, m, s, n) for n in range(order + 1)]
    rec = norms_from_recursion(recursion_form(ChainSpec(kind, m, s), order + 1))
    return closed, [c == r for c, r in zip(closed, rec.values)]


def _cmd_norms(args) -> int:
    zeta = _parse_zeta(args.zeta, allow_symbolic=True)
    m = _parse_rational(args.m)
    s = _parse_rational(args.s)
    if args.order < 0:
        raise ValueError("order must be nonnegative")
    closed, agree = _norms_against_recursion(args.chain, m, s, args.order)
    rendered = [g.render() for g in closed]
    payload = {
        "chain": args.chain,
        "norms": rendered,
        "recursion_matches_closed_form": all(agree),
    }
    rows = [["n", "gamma", "matches_recursion"]]
    rows += [[n, rendered[n], agree[n]] for n in range(len(rendered))]
    lines = [f"gamma_{n} = {rendered[n]}" for n in range(len(rendered))]
    if zeta is not None:
        numeric = [g.eval_float(zeta) for g in closed]
        for n, gamma in enumerate(numeric):
            if not math.isfinite(gamma):
                raise QESDomainError(f"gamma_{n} overflows a float at zeta={zeta}")
        payload["zeta"] = zeta
        payload["norms_numeric"] = numeric
        lines += [f"gamma_{n}({zeta}) = {gamma:.12g}" for n, gamma in enumerate(numeric)]
    lines.append(f"recursion matches closed form: {all(agree)}")
    _emit(args, payload, rows, lines)
    return 0


def _cmd_moments(args) -> int:
    zeta = _parse_zeta(args.zeta, allow_symbolic=False)
    seq = moments(_parse_m(args.m), zeta, args.chain, args.order)
    payload = {"chain": seq.chain, "zeta": seq.zeta, "moments": list(seq.values),
               "growth": list(seq.growth), "max_abs_energy": seq.max_abs_energy,
               "leading_order_comparator": seq.leading_order_comparator}
    rows = [["n", "mu", "growth"]]
    rows.append([0, repr(seq.values[0]), ""])
    for n in range(1, len(seq.values)):
        rows.append([n, repr(seq.values[n]), repr(seq.growth[n - 1])])
    lines = [f"mu_{n} = {v:.12g}" for n, v in enumerate(seq.values)]
    lines.append(f"max|E| = {seq.max_abs_energy:.12g}  "
                 f"(M+zeta)^2 = {seq.leading_order_comparator:.12g}")
    _emit(args, payload, rows, lines)
    return 0


def _cmd_duality(args) -> int:
    zeta = _parse_zeta(args.zeta, allow_symbolic=False)
    outcome = dsg_spectrum(_parse_m(args.m), zeta)
    if isinstance(outcome, DsgRejection):
        payload = {"m": outcome.m, "zeta": outcome.zeta, "rejected": True,
                   "characters": list(outcome.characters), "reason": outcome.reason}
        rows = [["rejected", "reason"], ["true", outcome.reason]]
        lines = [f"rejected: {outcome.reason}",
                 f"characters: {list(outcome.characters)}"]
    else:
        payload, rows = _level_table(outcome)
        lines = [
            f"E={_fmt(lv.energy)} nodes={lv.nodes} chain={lv.chain}"
            for lv in outcome.levels
        ]
    _emit(args, payload, rows, lines)
    return 0


def _cmd_wavefunction(args) -> int:
    zeta = _parse_zeta(args.zeta, allow_symbolic=False)
    _check_domain_l(args)
    if args.grid_n < 2:
        raise QESDomainError(f"--grid-n must be at least 2, got {args.grid_n}")
    state = build_qes_state(_parse_m(args.m), zeta, args.level)
    grid = np.linspace(-args.domain_l, args.domain_l, args.grid_n)
    values = state.eval(grid)
    nodes = node_count(values, grid)
    if nodes != state.level:    # a grid too coarse for the state, or a wrong state
        raise ValueError(f"the state of level {state.level} changes sign {nodes} times on the "
                         f"grid, at grid spacing {2 * args.domain_l / (args.grid_n - 1)!r}")
    payload = {"m": state.m, "zeta": state.zeta, "level": state.level, "chain": state.chain,
               "s": float(state.s), "coeffs": list(state.coeffs), "E": state.energy,
               "nodes": nodes}
    rows = [["x", "psi"]] + [[repr(float(x)), repr(float(p))]
                             for x, p in zip(grid, values)]
    lines = [f"E = {_fmt(state.energy)}  chain={state.chain}  s={float(state.s)}",
             f"coeffs = {[f'{c:.12g}' for c in state.coeffs]}",
             f"nodes on grid = {payload['nodes']}"]
    _emit(args, payload, rows, lines)
    return 0


def _make_spec(args) -> PotentialSpec:
    fam = args.family
    if fam in ("dshg", "dsg"):
        zeta = _parse_zeta(args.zeta, allow_symbolic=False)
        make = dshg_potential if fam == "dshg" else dsg_potential
        return make(float(_parse_rational(args.m)), zeta)
    if fam == "phi6_kink":
        return phi6_kink(args.epsilon_sq, args.mu)
    if fam == "phi6_kink_dual":
        return phi6_kink_dual(args.epsilon_sq, args.mu)
    if fam == "sextic_plus":
        return sextic_plus(_parse_m(args.m, minimum=0))
    if fam == "sextic_minus":
        return sextic_minus(_parse_m(args.m, minimum=0))
    if fam == "harmonic":
        return harmonic()
    raise UsageError(f"unknown potential family {fam!r}")


def _cmd_oracle(args) -> int:
    _check_domain_l(args)
    spec = _make_spec(args)
    half_width = None if spec.is_circle() else args.domain_l
    config = OracleConfig(spec, l=half_width, n=args.grid_n, count=args.count)
    result = lowest_eigenvalues(config)
    payload = {"eigenvalues": list(result.eigenvalues), "h": result.h,
               "richardson": list(result.richardson),
               "extrapolated": list(result.extrapolated)}
    rows = [["k", "eigenvalue", "coarse", "extrapolated"]]
    rows += [[k, repr(e), repr(c), repr(x)] for k, (e, c, x) in enumerate(
        zip(result.eigenvalues, result.richardson, result.extrapolated))]
    lines = [f"E_{k} = {_fmt(e)}" for k, e in enumerate(result.eigenvalues)]
    _emit(args, payload, rows, lines)
    return 0


def _cmd_verify_all(args) -> int:
    zeta = _parse_zeta(args.zeta, allow_symbolic=False)
    m = _parse_m(args.m)
    checks = []

    def run(name, fn):
        try:
            ok = bool(fn())
            detail = ""
        except Exception as exc:  # noqa: BLE001 - aggregate and report
            ok = False
            detail = f" ({exc})"
        checks.append((name, ok, detail))

    def check_symbolic():
        ok = True
        for kind, s, _, _ in terminating_chains(m):
            fam = gen_family(ChainSpec(kind, Fraction(m), s), 6)
            for n, p in enumerate(fam.members):
                ok &= p.is_monic() and p.degree() == n
            golden = GOLDEN_RENDERED.get((kind, m))
            if golden is not None:
                ok &= [fam[n].render() for n in range(len(golden))] == golden
        return ok

    def check_norms():
        return all(all(_norms_against_recursion(chain, m, s, 8)[1])
                   for kind, s, qkind, _ in terminating_chains(m) for chain in (kind, qkind))

    def check_spectrum():
        report = qes_energies(m, zeta)
        return [lv.nodes for lv in report.levels] == list(range(m))

    def check_weights():
        ok = True
        for spec, _ in chain_plan(m):
            table = weights(m, zeta, spec.kind)
            ok &= abs(sum(table.weights()) - 1.0) <= 1e-10
        return ok

    def check_norm_crosscheck():
        ok = True
        for spec, _ in chain_plan(m):
            ok &= norm_weight_crosscheck(m, zeta, spec.kind).ok
        return ok

    def check_factorization():
        return factorization_check(m, 4).ok()

    def check_oracle():
        return len(verify_qes(m, zeta, 1e-4).matches) == m

    def check_duality():
        outcome = dsg_spectrum(m, zeta)
        if isinstance(outcome, DsgRejection):
            return all(c == -1 for c in outcome.characters)
        expected = dual_energies(qes_energies(m, zeta).energies())
        got = outcome.energies()
        return max(abs(a - b) for a, b in zip(expected, got)) <= 1e-12

    run("symbolic-monic-degree", check_symbolic)
    run("norms-closed-form", check_norms)
    run("spectrum-node-order", check_spectrum)
    run("weights-normalized", check_weights)
    run("norm-weight-crosscheck", check_norm_crosscheck)
    run("factorization-exact", check_factorization)
    run("oracle-line-match", check_oracle)
    run("duality", check_duality)

    all_ok = all(ok for _, ok, _ in checks)
    lines = [f"{'PASS' if ok else 'FAIL'} {name}{detail}"
             for name, ok, detail in checks]
    lines.append(f"{'PASS' if all_ok else 'FAIL'} overall")
    payload = {
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "ok": all_ok,
    }
    rows = [["check", "ok"]] + [[n, ok] for n, ok, _ in checks]
    _emit(args, payload, rows, lines)
    return 0 if all_ok else 1


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qespoly",
        description="Energy-polynomial toolkit for the double sinh-Gordon and "
                    "double sine-Gordon quasi-exactly solvable wells",
    )

    def add_common(p, zeta_default=None):
        p.add_argument("--zeta", default=zeta_default,
                       help="coupling value, or 'symbolic' where supported")
        p.add_argument("--format", choices=("json", "csv", "pretty"),
                       default="pretty")
        p.add_argument("--out", default=None, help="write output to a file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="generate a polynomial chain")
    p.add_argument("--chain", default="P", choices=CHAIN_KINDS)
    p.add_argument("--m", default="3")
    p.add_argument("--s", default="0")
    p.add_argument("--order", type=int, default=4)
    add_common(p, "symbolic")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("spectrum", help="algebraic levels of the sinh-Gordon well")
    p.add_argument("--m", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("weights", help="discrete weight table of one chain")
    p.add_argument("--m", required=True)
    p.add_argument("--chain", default="P", choices=MAIN_KINDS)
    add_common(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("norms", help="closed-form norms, checked against the recursion")
    p.add_argument("--chain", default="P", choices=MAIN_KINDS + QUOTIENT_KINDS)
    p.add_argument("--m", default="3")
    p.add_argument("--s", default="0")
    p.add_argument("--order", type=int, default=6)
    add_common(p, "symbolic")
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("moments", help="moments of the discrete weight")
    p.add_argument("--m", required=True)
    p.add_argument("--chain", default="P", choices=MAIN_KINDS)
    p.add_argument("--order", type=int, default=12)
    add_common(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("duality", help="sine-Gordon spectrum or rejection")
    p.add_argument("--m", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser("wavefunction", help="construct one algebraic bound state")
    p.add_argument("--m", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--grid-n", type=int, default=2001)
    p.add_argument("--domain-l", type=float, default=5.0)
    add_common(p)
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("oracle", help="finite-difference eigenvalues")
    p.add_argument("--family", default="dshg",
                   choices=("dshg", "dsg", "phi6_kink", "phi6_kink_dual",
                            "sextic_plus", "sextic_minus", "harmonic"))
    p.add_argument("--m", default="3")
    p.add_argument("--epsilon-sq", type=float, default=0.5)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--grid-n", type=int, default=2048)
    p.add_argument("--domain-l", type=float, default=5.0)
    p.add_argument("--count", type=int, default=6)
    add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify-all", help="run every cross-check and aggregate")
    p.add_argument("--m", required=True)
    p.add_argument("--seed", type=int, default=0, help="accepted; no check reads it")
    add_common(p)
    p.set_defaults(func=_cmd_verify_all)

    return parser


@functools.cache    # once per process: the parser keeps the _cmd_* handlers it was built with
def _parser_and_value_options() -> tuple:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    takes_value = {opt for command in sub.choices.values() for action in command._actions
                   if action.nargs != 0 for opt in action.option_strings}
    return parser, takes_value


def main(argv=None) -> int:
    parser, takes_value = _parser_and_value_options()
    joined = []  # "--zeta -inf" as "--zeta=-inf": argparse takes "-inf" for a flag
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in takes_value:
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    try:
        args = parser.parse_args(joined)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (QESDomainError, ChainSpecError, OracleError, ExactDivisionError,
            RootCountMismatch, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
