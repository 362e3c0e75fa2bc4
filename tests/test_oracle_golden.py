"""Golden oracle outputs on every path of its grid ladder.

For each config the repr of the fine and half-grid levels, of their
extrapolation, of the fine grid's spacing and of the half-width the levels
were solved on (after any enlargement) is compared exactly with the recorded
one; so is the repr of `_labelled_deviation` on both sides of each duality
pair.  The configs reach every rung: a resolved base grid (the default dshg
and dsg grids), a declined one (dshg (40, 2), dsg (5, 1) at 2048 points), a
line window that grows (harmonic at l = 10), two domain enlargements
(dshg (3, 1) at l = 1), a flat circle, and a circle whose fine blocks both
fall back to bisection (dsg (3, 1) at 64 points, count 31).

Regenerate the file, after a change that is meant to alter outputs, with

    PYTHONPATH=src python tests/test_oracle_golden.py
"""

import json
from pathlib import Path

import pytest

from qespoly import oracle
from qespoly.duality import dual_energies
from qespoly.oracle import OracleConfig, analytic_qes_levels, lowest_eigenvalues
from qespoly.potentials import (
    dsg,
    dshg,
    harmonic,
    phi6_kink,
    phi6_kink_dual,
    sextic_minus,
    sextic_plus,
)

GOLDEN = Path(__file__).parent / "golden" / "oracle_levels.json"

CONFIGS = {
    "sextic_plus-m6": oracle._default_config(sextic_plus(6), 4),
    "sextic_minus-m8": oracle._default_config(sextic_minus(8), 5),
    "phi6_kink": oracle._default_config(phi6_kink(0.5, 1.0), 3),
    "phi6_kink_dual": oracle._default_config(phi6_kink_dual(0.5, 1.0), 2),
    "dshg-m40-z2-base-declined": oracle._default_config(dshg(40, 2.0), 40),
    "dshg-m10-z0.5": oracle._default_config(dshg(10, 0.5), 13),
    "harmonic-window-grows": OracleConfig(harmonic(), l=10.0, n=2000, count=4),
    "dsg-m5-n4096": OracleConfig(dsg(5, 1.0), n=4096, count=8),
    "dsg-m5-n2048-base-declined": OracleConfig(dsg(5, 1.0), n=2048, count=8),
    "dshg-m3-enlarged-twice": OracleConfig(dshg(3, 1.0), l=1.0, n=4000, count=6),
    "dsg-flat": OracleConfig(dsg(3, 1e-9), n=64, count=1),
    "dsg-m3-n64-bisected": OracleConfig(dsg(3, 1.0), n=64, count=31),
}

PAIRS = {
    **{f"dshg-dsg-m{m}": (dshg(m, 1.0), dsg(m, 1.0)) for m in (1, 3, 5, 7, 9, 19)},
    **{f"sextic-m{m}": (sextic_plus(m), sextic_minus(m)) for m in (1, 2, 8)},
    "phi6_kink": (phi6_kink(0.5, 1.0), phi6_kink_dual(0.5, 1.0)),
}


def _levels_record(config) -> dict:
    res = lowest_eigenvalues(config)
    return {"eigenvalues": repr(res.eigenvalues), "richardson": repr(res.richardson),
            "extrapolated": repr(res.extrapolated), "h": repr(res.h), "l": repr(res.config.l)}


def _pair_record(spec_a, spec_b) -> list:
    levels = analytic_qes_levels(spec_a)
    return [repr(float(oracle._labelled_deviation(spec, side)))
            for spec, side in ((spec_a, levels), (spec_b, dual_energies(levels)))]


def _record() -> dict:
    return {"levels": {name: _levels_record(config) for name, config in CONFIGS.items()},
            "pairs": {name: _pair_record(*pair) for name, pair in PAIRS.items()}}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_cases_match_recorded_file(golden):
    assert list(golden["levels"]) == list(CONFIGS)
    assert list(golden["pairs"]) == list(PAIRS)


@pytest.mark.parametrize("name", CONFIGS)
def test_levels_match_golden(golden, name):
    assert _levels_record(CONFIGS[name]) == golden["levels"][name]


@pytest.mark.parametrize("name", PAIRS)
def test_labelled_deviations_match_golden(golden, name):
    assert _pair_record(*PAIRS[name]) == golden["pairs"][name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(CONFIGS)} configs and {len(PAIRS)} pairs to {GOLDEN}")
