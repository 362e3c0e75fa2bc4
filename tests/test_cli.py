import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qespoly import cli, families
from qespoly.cli import main
from qespoly.exactpoly import ParamPoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _src_env() -> dict:
    """The environment for a fresh interpreter that imports qespoly from ./src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class TestFamilyCommand:
    def test_m3_table_pretty(self, capsys):
        code, out, _ = run(capsys, "family", "--chain", "P", "--m", "3",
                           "--s", "0", "--order", "4", "--format", "pretty")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "1"
        assert lines[2] == "E + (2ζ)"
        assert lines[3] == "E^2 + (12ζ+4)E + (20ζ^2+24ζ)"

    def test_order_zero_prints_one(self, capsys):
        code, out, _ = run(capsys, "family", "--order", "0")
        assert code == 0
        assert out.strip().splitlines()[-1] == "1"

    def test_r_order_zero_prints_r0_only(self, capsys):
        code, out, _ = run(capsys, "family", "--chain", "R", "--order", "0",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["family"]["members"] == ["1"]

    @pytest.mark.parametrize("argv", [
        ("family", "--chain", "P", "--order", "-1"),
        ("family", "--chain", "Pbar", "--m", "3", "--s", "0", "--order", "-1"),
        ("family", "--chain", "R", "--order", "-1"),
        ("family", "--chain", "R", "--order", "-3"),
        ("norms", "--order", "-1"),
        ("norms", "--chain", "Pbar", "--m", "3", "--s", "0", "--order", "-1"),
        ("moments", "--m", "3", "--zeta", "1", "--order", "-1"),
    ])
    def test_negative_order_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "order must be nonnegative" in err

    def test_numeric_zeta(self, capsys):
        code, out, _ = run(capsys, "family", "--m", "3", "--s", "0",
                           "--order", "2", "--zeta", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["family"]["members"][2] == [44.0, 16.0, 1.0]

    def test_json_has_manifest(self, capsys):
        code, out, _ = run(capsys, "family", "--order", "1", "--format", "json")
        doc = json.loads(out)
        assert doc["manifest"]["command"] == "family"
        assert doc["manifest"]["version"]


class TestSpectrumCommand:
    def test_m1_single_level(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--m", "1", "--zeta", "1",
                           "--format", "pretty")
        assert code == 0
        assert "E=2.0000000000" in out

    def test_missing_zeta_is_usage_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--m", "1")
        assert code == 2
        assert "zeta" in err

    def test_non_integer_m_is_domain_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--m", "7/2", "--zeta", "1")
        assert code == 1
        assert "integer" in err

    def test_uncertified_roots_are_one_error_line(self, capsys):
        # the M = 65 roots are certified, but their doublets are too narrow
        # for a float sort; the failed node check is reported like any other
        # domain error
        code, out, err = run(capsys, "spectrum", "--m", "65", "--zeta", "1")
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: node interlacing violated: ") and err.count("\n") == 1

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--m", "3", "--zeta", "1",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# manifest:")
        assert lines[1] == "E,script_E,nodes,chain"
        assert len(lines) == 5


class TestOtherCommands:
    def test_weights_json(self, capsys):
        code, out, _ = run(capsys, "weights", "--m", "3", "--zeta", "1",
                           "--chain", "P", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        ws = [row["w"] for row in doc["weights"]]
        assert ws[0] == pytest.approx(-0.1708203932, abs=1e-9)

    def test_norms_symbolic(self, capsys):
        code, out, _ = run(capsys, "norms", "--chain", "P", "--m", "3",
                           "--s", "0", "--order", "3", "--format", "pretty")
        assert code == 0
        assert "gamma_1 = -16ζ" in out
        assert "recursion matches closed form: True" in out

    def test_norms_past_a_float_coefficient_are_finite(self, capsys):
        # gamma_60's coefficient exceeds a float; its value at zeta = 1e-5 does not
        code, out, _ = run(capsys, "norms", "--chain", "P", "--m", "3/2", "--order", "60",
                           "--zeta", "1e-5", "--format", "json")
        assert code == 0
        numeric = json.loads(out)["norms_numeric"]
        coef = cli.norms_closed("P", Fraction(3, 2), 0, 60).coeffs[-1]
        assert abs(coef) > 1e308 and len(numeric) == 61
        assert all(map(math.isfinite, numeric))
        assert numeric[60] == float(coef * Fraction(1e-5) ** 60)

    def test_moments_pretty(self, capsys):
        code, out, _ = run(capsys, "moments", "--m", "3", "--zeta", "1",
                           "--chain", "P", "--order", "2", "--format", "pretty")
        assert code == 0
        assert "mu_1 = 14" in out and "mu_2 = 180" in out

    def test_moments_at_m65(self, capsys):
        # the weight solve's residual fails here; the moments need no weights
        code, out, err = run(capsys, "moments", "--m", "65", "--zeta", "2",
                             "--chain", "Q", "--format", "json")
        assert code == 0, err
        assert len(json.loads(out)["moments"]) == 13

    def test_duality_odd(self, capsys):
        code, out, _ = run(capsys, "duality", "--m", "3", "--zeta", "1",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["levels"][0]["E"] == pytest.approx(-12.4721359550, abs=1e-9)

    def test_duality_even_rejection(self, capsys):
        code, out, _ = run(capsys, "duality", "--m", "2", "--zeta", "1",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rejected"] is True
        assert doc["characters"] == [-1, -1]

    def test_wavefunction_json(self, capsys):
        code, out, _ = run(capsys, "wavefunction", "--m", "3", "--zeta", "1",
                           "--level", "1", "--grid-n", "801", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["chain"] == "Q" and doc["nodes"] == 1

    def test_wavefunction_past_the_float_order(self, capsys):
        # the state is root 1 of the odd-parity chain, with no float sort
        code, out, err = run(capsys, "wavefunction", "--m", "16", "--zeta", "1",
                             "--level", "3", "--format", "json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["level"] == 3 and doc["nodes"] == 3

    def test_wavefunction_at_m65(self, capsys):
        code, out, err = run(capsys, "wavefunction", "--m", "65", "--zeta", "1",
                             "--level", "0")
        assert code == 0, err

    def test_oracle_harmonic(self, capsys):
        code, out, _ = run(capsys, "oracle", "--family", "harmonic",
                           "--domain-l", "10", "--grid-n", "2000",
                           "--count", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["eigenvalues"][0] == pytest.approx(1.0, abs=1e-3)


class TestIntegerM:
    # a non-integer or too-small M is outside the domain: exit 1, never a
    # silent run at a truncated M
    @pytest.mark.parametrize("argv", [
        ("duality", "--zeta", "1"),
        ("wavefunction", "--zeta", "1", "--level", "0"),
        ("verify-all", "--zeta", "1"),
        ("oracle", "--family", "sextic_plus"),
        ("oracle", "--family", "sextic_minus"),
    ])
    def test_fractional_m_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--m", "2.5")
        assert code == 1
        assert out == ""
        assert "integer" in err

    @pytest.mark.parametrize("argv, m", [
        (("duality", "--zeta", "1"), "0"),
        (("wavefunction", "--zeta", "1", "--level", "0"), "0"),
        (("verify-all", "--zeta", "1"), "0"),
        (("oracle", "--family", "sextic_plus"), "-1"),
    ])
    def test_m_below_minimum_is_domain_error(self, capsys, argv, m):
        code, out, _ = run(capsys, *argv, "--m", m)
        assert code == 1
        assert out == ""

    def test_integer_valued_fraction_is_accepted(self, capsys):
        code, out, _ = run(capsys, "duality", "--m", "6/2", "--zeta", "1",
                           "--format", "json")
        assert code == 0
        assert len(json.loads(out)["levels"]) == 3

    def test_sextic_m0_is_in_domain(self, capsys):
        code, _, _ = run(capsys, "oracle", "--family", "sextic_plus", "--m", "0",
                         "--domain-l", "8", "--grid-n", "512", "--count", "2")
        assert code == 0


class TestZetaDomain:
    @pytest.mark.parametrize("argv", [
        ("weights", "--m", "3", "--zeta", "-1"),
        ("weights", "--m", "3", "--zeta", "0"),
        ("moments", "--m", "3", "--zeta", "-0.5"),
    ])
    def test_nonpositive_zeta_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: zeta must be positive\n"

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--m", "3"),
        ("weights", "--m", "3"),
        ("moments", "--m", "3"),
        ("duality", "--m", "3"),
        ("wavefunction", "--m", "3", "--level", "0"),
        ("family", "--m", "3"),
        ("norms", "--m", "3"),
    ])
    @pytest.mark.parametrize("zeta", ["inf", "nan"])
    def test_non_finite_zeta_is_domain_error(self, capsys, argv, zeta):
        code, out, err = run(capsys, *argv, "--zeta", zeta)
        assert code == 1
        assert out == ""
        assert err == f"error: zeta must be finite, got {zeta!r}\n"

    @pytest.mark.parametrize("argv, zeta", [
        (("--zeta=-inf",), "-inf"),
        (("--zeta", "-inf"), "-inf"),
        (("--zeta", "-1e400"), "-1e400"),
    ])
    def test_dash_led_zeta_is_a_value(self, capsys, argv, zeta):
        code, out, err = run(capsys, "spectrum", "--m", "3", *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: zeta must be finite, got {zeta!r}\n"

    def test_dash_led_m_is_a_value(self, capsys):
        code, out, err = run(capsys, "spectrum", "--m", "-1/2", "--zeta", "1")
        assert code == 1
        assert out == ""
        assert err == "error: M must be an integer >= 1, got '-1/2'\n"

    def test_missing_zeta_value_is_usage_error(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--m", "3", "--zeta")
        assert code == 2
        assert out == ""


class TestCliContract:
    def test_unknown_flag_usage_error(self, capsys):
        code, _, _ = run(capsys, "spectrum", "--m", "1", "--zeta", "1",
                         "--no-such-flag")
        assert code == 2

    def test_unknown_command_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_deterministic_output(self, capsys):
        args = ("spectrum", "--m", "4", "--zeta", "1", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "spectrum.json"
        code, out, _ = run(capsys, "spectrum", "--m", "3", "--zeta", "1",
                           "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["m"] == 3

    @pytest.mark.parametrize("name", ["", "missing/spectrum.json"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, name):
        # tmp_path / "" is the directory itself
        code, out, err = run(capsys, "spectrum", "--m", "3", "--zeta", "1",
                             "--out", str(tmp_path / name))
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: cannot write --out ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_verify_all_m3(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--m", "3", "--zeta", "1",
                           "--format", "pretty")
        assert code == 0
        body = [line for line in out.splitlines() if not line.startswith("#")]
        assert all(line.startswith("PASS") for line in body)

    def test_verify_all_even_m(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--m", "2", "--zeta", "1",
                           "--format", "pretty")
        assert code == 0

    def test_verify_all_duality_holds_past_the_sampled_characters(self, capsys):
        # a sampled half-turn character is ill conditioned at M = 24; the
        # weight and oracle checks still fail there
        code, out, _ = run(capsys, "verify-all", "--m", "24", "--zeta", "1", "--format", "json")
        doc = json.loads(out)
        assert code == 1
        assert {check["name"]: check["ok"] for check in doc["checks"]}["duality"] is True
        assert doc["ok"] is False


class TestNormsClosedForm:
    """verify-all's norms-closed-form check and `qespoly norms` run one
    comparison of the closed gamma_n with the recursion's, so a wrong closed
    norm fails both."""

    @pytest.fixture
    def wrong_gamma_3(self, monkeypatch):
        """Shift the closed gamma_3 of one chain kind by 1."""
        true = cli.norms_closed

        def patch(kind):
            def perturbed(chain, m, s, n):
                gamma = true(chain, m, s, n)
                return gamma + ParamPoly.const(1) if (chain, n) == (kind, 3) else gamma
            monkeypatch.setattr(cli, "norms_closed", perturbed)
        return patch

    # gamma_3 of P at M = 3 is 0 past termination; the quotient ones are positive
    @pytest.mark.parametrize("kind,m,s", [("P", "3", "0"), ("Q", "4", "0"), ("Pbar", "3", "0"),
                                          ("Qbar", "3", "1/2"), ("Sbar", "4", "0"),
                                          ("Rbar", "4", "1/2")])
    def test_a_wrong_norm_fails_both_commands(self, capsys, wrong_gamma_3, kind, m, s):
        wrong_gamma_3(kind)
        code, out, _ = run(capsys, "verify-all", "--m", m, "--zeta", "1")
        assert code == 1
        assert out.splitlines()[2] == "FAIL norms-closed-form"
        assert [line for line in out.splitlines()[1:] if line.startswith("FAIL")] == [
            "FAIL norms-closed-form", "FAIL overall"]
        code, out, _ = run(capsys, "norms", "--chain", kind, "--m", m, "--s", s)
        assert code == 0
        assert out.splitlines()[-1] == "recursion matches closed form: False"

    @pytest.fixture
    def generated(self, monkeypatch):
        """The chains families._generate builds, and the ones it builds inside
        the comparison _norms_against_recursion."""
        calls = {"all": [], "comparison": []}
        generate, compare = families._generate, cli._norms_against_recursion
        inside = []

        def counting_generate(spec, order):
            calls["all"].append(spec.kind)
            if inside:
                calls["comparison"].append(spec.kind)
            return generate(spec, order)

        def marked_compare(*args):
            inside.append(True)
            try:
                return compare(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(families, "_generate", counting_generate)
        monkeypatch.setattr(cli, "_norms_against_recursion", marked_compare)
        return calls

    @pytest.mark.parametrize("kind,m,s", [("P", "3", "0"), ("Q", "7/2", "1/2"),
                                          ("Qbar", "3", "1/2"), ("Sbar", "4", "0")])
    def test_norms_generates_no_chain(self, capsys, generated, kind, m, s):
        code, out, _ = run(capsys, "norms", "--chain", kind, "--m", m, "--s", s,
                           "--order", "12", "--zeta", "1")
        assert code == 0
        assert out.splitlines()[-1] == "recursion matches closed form: True"
        assert generated == {"all": [], "comparison": []}

    @pytest.mark.parametrize("m", ["3", "4"])
    def test_the_norms_check_generates_no_chain(self, capsys, generated, m):
        code, out, _ = run(capsys, "verify-all", "--m", m, "--zeta", "1")
        assert code == 0 and out.splitlines()[2] == "PASS norms-closed-form"
        # symbolic-monic-degree and factorization-exact still generate theirs
        assert generated["all"] and generated["comparison"] == []

    def test_seed_changes_only_the_manifest(self, capsys):
        outs = [run(capsys, "verify-all", "--m", "3", "--zeta", "1", "--seed", seed)[1]
                for seed in ("1", "2")]
        first, second = (out.splitlines() for out in outs)
        assert first[0] != second[0]
        assert first[1:] == second[1:]
        assert first[2] == "PASS norms-closed-form"


class TestOverflowAndGridDomain:
    @pytest.mark.parametrize("argv", [
        ("spectrum", "--m", "3"),
        ("weights", "--m", "3"),
        ("moments", "--m", "3"),
        ("duality", "--m", "3"),
        ("wavefunction", "--m", "3", "--level", "0"),
        ("family", "--chain", "P", "--m", "3", "--order", "3"),
    ])
    def test_huge_finite_zeta_is_one_error_line(self, capsys, argv):
        # each overflows the shift (M + zeta)**2 of the QES commands
        for zeta in ("1e160", "1e308"):
            code, out, err = run(capsys, *argv, "--zeta", zeta)
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err
            assert "(34," not in err   # no bare errno tuple from float **

    @pytest.mark.parametrize("argv", [
        ("moments", "--m", "3", "--zeta", "1e20", "--format", "json"),
        ("moments", "--m", "9", "--zeta", "2", "--order", "400"),
    ])
    def test_overflowing_moment_is_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: moment mu_") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (("norms", "--chain", "Pbar", "--m", "3", "--zeta", "1e200", "--order", "4",
          "--format", "json"), "gamma_2 overflows a float at zeta=1e+200"),
        (("norms", "--chain", "Qbar", "--m", "3", "--s", "1/2", "--zeta", "1e200",
          "--order", "4", "--format", "json"), "gamma_2 overflows a float at zeta=1e+200"),
        (("norms", "--chain", "P", "--m", "3/2", "--order", "200", "--zeta", "1"),
         "gamma_57 overflows a float at zeta=1.0"),
        (("family", "--chain", "P", "--m", "3", "--order", "3", "--zeta", "1e160"),
         "member 2 of chain P overflows a float at zeta=1e+160"),
        (("family", "--chain", "P", "--m", "2", "--s", "1/2", "--order", "4",
          "--zeta", "1e100"), "member 4 of chain P overflows a float at zeta=1e+100"),
        (("oracle", "--family", "dshg", "--m", "3", "--zeta", "1e200"),
         "the dshg stencil overflows a float"),
        (("oracle", "--family", "phi6_kink", "--epsilon-sq", "1e-300"),
         "the phi6_kink stencil overflows a float"),
        (("oracle", "--family", "harmonic", "--domain-l", "1e300"),
         "the harmonic stencil overflows a float"),
        (("oracle", "--family", "harmonic", "--domain-l", "1e-300"),
         "the harmonic stencil overflows a float"),
        (("wavefunction", "--m", "3", "--zeta", "1e120", "--level", "0"),
         "series does not terminate"),
        (("duality", "--m", "4", "--zeta", "1e160"), "the shift (M + zeta)**2 overflows"),
        (("spectrum", "--m", "3", "--zeta", "1e120"), ""),
        (("duality", "--m", "3", "--zeta", "1e120"), ""),
    ])
    def test_overflowing_value_is_one_named_error_line(self, capsys, argv, message):
        # warnings are errors here, so a numpy overflow warning fails the test
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: " + message) and err.count("\n") == 1
        assert "(34," not in err

    @pytest.mark.filterwarnings("error")
    def test_even_m_duality_past_the_float_series_is_rejected(self, capsys):
        # the characters need no state, so a series that no longer
        # terminates in floats does not matter
        code, out, err = run(capsys, "duality", "--m", "4", "--zeta", "1e120",
                             "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["characters"] == [-1] * 4

    @pytest.mark.filterwarnings("error")
    def test_overflowing_reach_keeps_every_row(self, capsys):
        # h^2 V overflows at the line's ends; the levels are the whole blocks'
        code, out, err = run(capsys, "oracle", "--family", "harmonic", "--domain-l", "1e150",
                             "--format", "json")
        assert (code, err) == (0, "")
        got = json.loads(out)["eigenvalues"]
        assert got == pytest.approx([2.3818591887721065e+293] * 2 + [2.143673269894896e+294] * 2
                                    + [5.954647971930266e+294] * 2, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ("oracle", "--zeta", "1", "--count", "3000", "--grid-n", "2048"),
        ("oracle", "--family", "dsg", "--m", "3", "--zeta", "1", "--count", "1025"),
    ])
    def test_oracle_count_past_the_half_grid_is_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: count must be at most n // 2 - 1 = 1023")
        assert err.count("\n") == 1

    # at 9e307 the grid width 2l overflows, and np.linspace(-l, l, n) with it
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "9e307"])
    def test_wavefunction_rejects_bad_domain_l(self, capsys, value):
        code, out, err = run(capsys, "wavefunction", "--m", "3", "--zeta", "1",
                             "--level", "1", "--domain-l", value)
        assert code == 1
        assert out == ""
        assert err.startswith("error: --domain-l must be positive and finite")
        assert err.count("\n") == 1

    # 2l = 1.78e308 passes the domain check; at that spacing, and at 100,
    # the 1-node state is 0 at x = 0 and underflows everywhere else.  At
    # (33, 1, level 30) the float root leaves the state with 14 nodes.
    @pytest.mark.parametrize("m, level, domain_l, nodes, spacing", [
        ("3", 1, "8.9e307", 0, 8.9e304),
        ("3", 1, "1e5", 0, 100.0),
        ("33", 30, "5", 14, 0.005),
    ])
    def test_a_node_count_other_than_the_level_is_one_error_line(
            self, capsys, m, level, domain_l, nodes, spacing):
        code, out, err = run(capsys, "wavefunction", "--m", m, "--zeta", "1", "--level",
                             str(level), "--domain-l", domain_l, "--format", "json")
        assert code == 1 and out == ""
        assert err == (f"error: the state of level {level} changes sign {nodes} times on "
                       f"the grid, at grid spacing {spacing!r}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "9e307"])
    def test_oracle_rejects_non_finite_domain_l(self, value):
        # run as a process, so stderr is exactly what a user sees: warnings
        # printed by the interpreter included
        proc = subprocess.run(
            [sys.executable, "-m", "qespoly.cli", "oracle", "--family", "dshg", "--m", "3",
             "--zeta", "1", "--domain-l", value],
            env=_src_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "half-width" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (("oracle", "--domain-l", "-inf"), "--domain-l must be positive and finite"),
        (("oracle", "--family", "dshg", "--m", "3", "--zeta", "1", "--domain-l", "-inf"),
         "--domain-l must be positive and finite"),
        (("oracle", "--family", "dsg", "--m", "3", "--zeta", "1", "--domain-l", "nan",
          "--format", "json"), "--domain-l must be positive and finite"),
        (("oracle", "--family", "phi6_kink", "--mu", "-inf"),
         "epsilon_sq and mu must be positive and finite"),
        (("oracle", "--family", "phi6_kink", "--epsilon-sq", "-1e400"),
         "epsilon_sq and mu must be positive and finite"),
        (("oracle", "--family", "phi6_kink", "--epsilon-sq", "nan"),
         "epsilon_sq and mu must be positive and finite"),
        (("oracle", "--family", "phi6_kink_dual", "--epsilon-sq", "inf"),
         "epsilon_sq and mu must be positive and finite"),
        (("family", "--s", "-1/2"), "s must be 0 or 1/2"),
    ])
    def test_dash_led_or_non_finite_value_is_one_error_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: " + message) and err.count("\n") == 1
        assert "Traceback" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("value", ["0", "1", "-3"])
    def test_wavefunction_rejects_grid_below_two(self, capsys, value):
        code, out, err = run(capsys, "wavefunction", "--m", "3", "--zeta", "1",
                             "--level", "1", "--grid-n", value)
        assert code == 1
        assert out == ""
        assert err == f"error: --grid-n must be at least 2, got {value}\n"

    def test_wavefunction_two_point_grid_is_accepted(self, capsys):
        code, out, _ = run(capsys, "wavefunction", "--m", "3", "--zeta", "1",
                           "--level", "0", "--grid-n", "2", "--domain-l", "1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["manifest"]["params"]["grid_n"] == 2

    def test_kink_oracle_on_a_wide_domain_is_clean(self):
        # sinh**2 overflowed past |x| ~ 355 before the line formula was
        # rewritten; run as a process, so interpreter warnings would show
        proc = subprocess.run(
            [sys.executable, "-m", "qespoly.cli", "oracle", "--family", "phi6_kink",
             "--domain-l", "400", "--count", "2"],
            env=_src_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""


_SCIPY_AFTER_MAIN = """
import contextlib, io, json, sys
{setup}
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps([code, loaded[:3]]))
"""


class TestColdStart:
    """Only the oracle loads scipy, and main builds its parser once."""

    @staticmethod
    def _fresh(setup: str) -> list:
        # a fresh interpreter: the test session itself has scipy loaded
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_AFTER_MAIN.format(setup=setup)],
            env=_src_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_import_loads_no_scipy(self):
        assert self._fresh("import qespoly\ncode = 0") == [0, []]

    @pytest.mark.parametrize("argv", [
        ["family"],
        ["norms"],
        ["spectrum", "--m", "3", "--zeta", "1"],
        ["weights", "--m", "3", "--zeta", "1"],
        ["moments", "--m", "3", "--zeta", "1"],
        ["duality", "--m", "3", "--zeta", "1"],
        ["wavefunction", "--m", "3", "--zeta", "1", "--level", "0"],
    ], ids=lambda argv: argv[0])
    def test_commands_without_the_oracle_load_no_scipy(self, argv):
        setup = ("from qespoly.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    code = main({argv!r})")
        assert self._fresh(setup) == [0, []]

    def test_oracle_loads_scipy_at_its_solve(self):
        setup = ("from qespoly.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = main(['oracle', '--family', 'dshg', '--m', '3', '--zeta', '1'])")
        code, loaded = self._fresh(setup)
        assert code == 0
        assert loaded

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        built = []
        true_build = cli.build_parser

        def counting():
            built.append(1)
            return true_build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser_and_value_options.cache_clear()
        for _ in range(3):
            assert main(["spectrum", "--m", "3", "--zeta", "1"]) == 0
        capsys.readouterr()
        assert len(built) == 1

    def test_reused_parser_answers_as_a_fresh_one(self, capsys):
        argvs = (["spectrum", "--zeta", "1"], ["spectrum", "--m", "3", "--zeta", "1"],
                 ["spectrum", "--m=-1/2"])
        separate = []
        for argv in argvs:
            cli._parser_and_value_options.cache_clear()
            separate.append(run(capsys, *argv))
        cli._parser_and_value_options.cache_clear()
        together = [run(capsys, *argv) for argv in argvs]
        assert together == separate
        assert [code for code, _, _ in together] == [2, 0, 2]
        assert "the following arguments are required: --m" in together[0][2]
        assert together[2][2] == "usage error: this command needs --zeta <real>\n"
