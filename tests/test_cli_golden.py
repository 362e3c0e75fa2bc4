"""Golden CLI outputs for M = 1..5 at zeta in {0.5, 1, 2}, and of the numeric
commands at zeta in {0.7, 1.3}.

At the dyadic zetas every float step b1*zeta + b0 of a chain is exact, so
only the second file sees how the float steps round.  Every subcommand's output in json, csv and pretty form (stdout, stderr and
exit code) is compared with the recorded file byte for byte.  The floats of
`weights`, `moments` and `wavefunction` are the one exception: they are
evaluated by float recursion, so they are compared at 1e-11 relative, and
a number printed to fewer digits may also differ by one unit of its last
printed digit.  Every json output must also parse as strict JSON, with no
NaN or Infinity token.

Regenerate the files, after a change that is meant to alter outputs, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from qespoly.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_m1_5.json"
ZETAS = ("0.5", "1", "2")
GOLDEN_ROUNDED = Path(__file__).parent / "golden" / "cli_m1_5_rounded_zeta.json"
ROUNDED_ZETAS = ("0.7", "1.3")
ROUNDED_COMMANDS = ("spectrum", "duality", "weights", "moments", "wavefunction")
FLOAT_COMMANDS = ("weights", "moments", "wavefunction")
FLOAT_REL = 1e-11
FORMATS = ("json", "csv", "pretty")
NUMBER = re.compile(r"-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")


def _cases(zetas=ZETAS, commands=None) -> list:
    """Every argv of a golden file, the json ones first: every command at
    zetas, or only those named in commands."""
    return [argv + ["--format", fmt] for fmt in FORMATS for argv in _commands(zetas)
            if commands is None or argv[0] in commands]


def _commands(zetas) -> list:
    cases = []
    for m in range(1, 6):
        quotient, qs = ("Pbar", "0") if m % 2 else ("Rbar", "1/2")
        cases.append(["family", "--chain", "P", "--m", str(m), "--order", "4"])
        for z in zetas:
            common = ["--m", str(m), "--zeta", z]
            for chain, s in (("P", "0"), ("Q", "1/2"), ("R", "0"), (quotient, qs)):
                cases.append(["family", "--chain", chain, "--s", s, "--order", "4"] + common)
                if chain != "R":
                    cases.append(["norms", "--chain", chain, "--s", s, "--order", "4"] + common)
            cases.append(["spectrum"] + common)
            for chain in ("P", "Q"):
                cases.append(["weights", "--chain", chain] + common)
                cases.append(["moments", "--chain", chain] + common)
            cases.append(["duality"] + common)
            for level in range(m):
                cases.append(["wavefunction", "--level", str(level)] + common)
            for family in ("dshg", "dsg"):
                cases.append(["oracle", "--family", family, "--count", "4"] + common)
            cases.append(["verify-all"] + common)
    return cases


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _close(got, want, path) -> None:
    """Equal structure, floats within FLOAT_REL of each other.

    A weight table's `residual` is the rounding residual of a solve whose
    right-hand side is the unit vector, so it is compared on that unit
    scale, not relative to itself.
    """
    if isinstance(want, float) and isinstance(got, float):
        scale = 1.0 if path == "$.residual" else max(abs(got), abs(want))
        assert abs(got - want) <= FLOAT_REL * scale, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            _close(a, b, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def _close_text(got: str, want: str) -> None:
    """Equal text outside the numbers; each number within FLOAT_REL of the
    recorded one, plus one unit of the recorded number's last digit."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    assert got_parts == want_parts
    for a, b in zip(NUMBER.findall(got), NUMBER.findall(want)):
        if a == b:
            continue
        mantissa, _, exponent = b.partition("e")
        last_digit = 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))
        tolerance = FLOAT_REL * max(abs(float(a)), abs(float(b))) + last_digit
        assert abs(float(a) - float(b)) <= tolerance, f"{a} != {b}"


def _strict_json(text: str):
    """json.loads that fails on NaN and Infinity, which are not JSON."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON output")
    return json.loads(text, parse_constant=reject)


def _load(path) -> dict:
    records = json.loads(path.read_text(encoding="utf-8"))
    return {tuple(rec["argv"]): rec for rec in records}


@pytest.fixture(scope="module")
def golden() -> dict:
    return _load(GOLDEN)


@pytest.fixture(scope="module")
def golden_rounded() -> dict:
    return _load(GOLDEN_ROUNDED)


def test_cases_match_recorded_file(golden):
    assert list(golden) == [tuple(argv) for argv in _cases()]


def test_rounded_zeta_cases_match_recorded_file(golden_rounded):
    assert list(golden_rounded) == [tuple(argv) for argv in _cases(ROUNDED_ZETAS, ROUNDED_COMMANDS)]


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    _check(golden[tuple(argv)], argv)


@pytest.mark.parametrize("argv", _cases(ROUNDED_ZETAS, ROUNDED_COMMANDS), ids=" ".join)
def test_cli_output_matches_golden_at_rounded_zeta(golden_rounded, argv):
    _check(golden_rounded[tuple(argv)], argv)


def _check(rec, argv) -> None:
    got = _run(argv)
    assert (got["exit"], got["stderr"]) == (rec["exit"], rec["stderr"])
    doc = _strict_json(got["stdout"]) if argv[-1] == "json" and got["stdout"] else None
    if argv[0] not in FLOAT_COMMANDS or rec["exit"] != 0:
        assert got["stdout"] == rec["stdout"]
    elif argv[-1] == "json":
        _close(doc, json.loads(rec["stdout"]), "$")
    else:
        _close_text(got["stdout"], rec["stdout"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, cases in ((GOLDEN, _cases()), (GOLDEN_ROUNDED, _cases(ROUNDED_ZETAS, ROUNDED_COMMANDS))):
        records = [_run(argv) for argv in cases]
        path.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
        print(f"wrote {len(records)} cases to {path}")
