"""Digests of large exact chains and factorizations.

The sha256 of the `family --format json` stdout is recorded for long main
chains (P and Q at M = 40, order 80), the combined chain at M = 33, one
quotient chain of each kind at order 24 and a chain at rational M = 5/2;
the sha256 of `repr(factorization_check(m, 8))` is recorded for
m in {3, 4, 17, 40}.  Any change to an exact coefficient, to the
rendering or to a factorization flag changes a digest.

Regenerate the file, after a change that is meant to alter outputs, with

    PYTHONPATH=src python tests/test_chain_digests.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qespoly.cli import main
from qespoly.spectrum import factorization_check

GOLDEN = Path(__file__).parent / "golden" / "chain_digests.json"

FAMILY_CASES = (
    ("P", "40", "0", 80),
    ("Q", "40", "0", 80),
    ("R", "33", "0", 40),
    ("Pbar", "17", "0", 24),
    ("Qbar", "17", "1/2", 24),
    ("Rbar", "40", "1/2", 24),
    ("Sbar", "40", "0", 24),
    ("P", "5/2", "0", 24),
)
FACTORIZATION_MS = (3, 4, 17, 40)
FACTORIZATION_DEPTH = 8


def _family_argv(chain, m, s, order) -> list:
    return ["family", "--chain", chain, "--m", m, "--s", s, "--order", str(order),
            "--format", "json"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _family_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return _sha256(out.getvalue())


def _factorization_digest(m) -> str:
    return _sha256(repr(factorization_check(m, FACTORIZATION_DEPTH)))


def _keys() -> dict:
    keys = {" ".join(_family_argv(*case)): ("family", case) for case in FAMILY_CASES}
    for m in FACTORIZATION_MS:
        keys[f"factorization_check({m}, {FACTORIZATION_DEPTH})"] = ("factorization", m)
    return keys


def _digest(kind, arg) -> str:
    if kind == "family":
        return _family_digest(_family_argv(*arg))
    return _factorization_digest(arg)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_cases_match_recorded_file(golden):
    assert list(golden) == list(_keys())


@pytest.mark.parametrize("key", list(_keys()))
def test_digest_unchanged(golden, key):
    assert _digest(*_keys()[key]) == golden[key]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    digests = {key: _digest(*case) for key, case in _keys().items()}
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
