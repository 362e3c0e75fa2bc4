import random
from fractions import Fraction

import pytest

from qespoly import exactpoly
from qespoly.exactpoly import (
    ENERGY_ONE,
    EnergyPoly,
    ExactDivisionError,
    ParamPoly,
    from_rows,
    poly_arith,
    poly_divide_exact,
    real_roots,
    step_rows,
    sturm_real_root_count,
)
from qespoly.cli import _render_numeric
from qespoly.families import ChainSpec, gen_family


def e_poly(*coeffs):
    """EnergyPoly from (const, zeta) pairs or plain rationals per power of E."""
    converted = []
    for c in coeffs:
        if isinstance(c, tuple):
            converted.append(ParamPoly(c))
        else:
            converted.append(ParamPoly.const(c))
    return EnergyPoly(tuple(converted))


E_PLUS_2Z = e_poly((0, 2), 1)          # E + 2z
E_PLUS_18Z_16 = e_poly((16, 18), 1)    # E + 18z + 16


class TestArithmetic:
    def test_mul_identity(self):
        assert poly_arith(E_PLUS_2Z, ENERGY_ONE, "mul") == E_PLUS_2Z

    def test_sub_self_is_zero(self):
        assert poly_arith(E_PLUS_2Z, E_PLUS_2Z, "sub").is_zero()

    def test_schoolbook_product(self):
        # (E + 2z)(E + 18z + 16) = E^2 + E(20z+16) + 36z^2 + 32z
        got = poly_arith(E_PLUS_2Z, E_PLUS_18Z_16, "mul")
        want = e_poly((0, 32, 36), (16, 20), 1)
        assert got == want

    def test_degree_additivity(self):
        a = E_PLUS_2Z * E_PLUS_2Z
        b = E_PLUS_18Z_16
        assert (a * b).degree() == a.degree() + b.degree()

    def test_ring_axioms_random(self):
        rng = random.Random(20240817)

        def rand_poly():
            return EnergyPoly(tuple(
                ParamPoly(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                                for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(1, 4))
            ))

        for _ in range(60):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_canonical_stripping(self):
        assert EnergyPoly((ParamPoly.const(3), ParamPoly.zero())).degree() == 0
        assert ParamPoly((0, 0)).is_zero()
        assert ParamPoly((Fraction(2, 4),)).coeffs == (Fraction(1, 2),)


def schoolbook(a_rows, b_rows) -> dict:
    """Product of two lists of rows as {(k, j): coefficient of E**k zeta**j},
    one Fraction product and one Fraction sum per pair of entries."""
    out = {}
    for i, ra in enumerate(a_rows):
        for k, rb in enumerate(b_rows):
            for j, x in enumerate(ra):
                for l, y in enumerate(rb):
                    key = (i + k, j + l)
                    out[key] = out.get(key, Fraction(0)) + Fraction(x) * Fraction(y)
    return {key: c for key, c in out.items() if c}


def entries(rows) -> dict:
    return {(k, j): Fraction(x) for k, row in enumerate(rows) for j, x in enumerate(row) if x}


def add_entries(*terms: dict) -> dict:
    out = {}
    for term in terms:
        for key, c in term.items():
            out[key] = out.get(key, Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


def ints_where_integral(rows) -> bool:
    return all(type(x) is int if x.denominator == 1 else type(x) is Fraction
               for row in rows for x in row)


def rand_entry(rng, kind):
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return rng.randint(-7, 7)
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))


def rand_rows(rng, kind, width):
    """An EnergyPoly of up to `width` powers of E with rows up to `width` wide."""
    return EnergyPoly(tuple(
        ParamPoly(tuple(rand_entry(rng, kind) for _ in range(rng.randint(0, width))))
        for _ in range(rng.randint(0, width))
    ))


KINDS = ("int", "fraction", "mixed")


class TestIntegralProduct:
    """The one-denominator product against a schoolbook Fraction product."""

    @pytest.mark.parametrize("width", range(6))
    @pytest.mark.parametrize("kind_b", KINDS)
    @pytest.mark.parametrize("kind_a", KINDS)
    def test_energy_products_and_sums(self, kind_a, kind_b, width):
        rng = random.Random(f"{kind_a}-{kind_b}-{width}")
        for _ in range(25):
            a, b = rand_rows(rng, kind_a, width), rand_rows(rng, kind_b, width)
            for got, want in ((a * b, schoolbook(a.rows, b.rows)),
                              (a + b, add_entries(entries(a.rows), entries(b.rows)))):
                assert entries(got.rows) == want
                assert ints_where_integral(got.rows)
                assert got == EnergyPoly(tuple(ParamPoly(row) for row in got.rows))

    @pytest.mark.parametrize("width", range(6))
    @pytest.mark.parametrize("kind", KINDS)
    def test_param_products_and_scale(self, kind, width):
        rng = random.Random(f"{kind}-{width}")
        for _ in range(25):
            a = rand_rows(rng, kind, width)
            f = ParamPoly(tuple(rand_entry(rng, kind) for _ in range(rng.randint(0, width))))
            g = ParamPoly(tuple(rand_entry(rng, kind) for _ in range(rng.randint(0, width))))
            assert entries(((f * g).coeffs,)) == schoolbook((f.coeffs,), (g.coeffs,))
            assert ints_where_integral((f.coeffs, g.coeffs, (f * g).coeffs))
            scaled = a.scale(f)
            assert entries(scaled.rows) == schoolbook(a.rows, (f.coeffs,))
            assert ints_where_integral(scaled.rows)

    @pytest.mark.parametrize("kind", KINDS)
    def test_division_reconstructs_by_schoolbook(self, kind):
        rng = random.Random(kind)
        for _ in range(60):
            a = rand_rows(rng, kind, 5)
            lead = ParamPoly.const(rand_entry(rng, kind) or 1)
            b = EnergyPoly(rand_rows(rng, kind, 4).coeffs + (lead,))
            q, r = poly_divide_exact(a, b)
            assert r.degree() < b.degree()
            assert entries(a.rows) == add_entries(schoolbook(q.rows, b.rows), entries(r.rows))
            assert ints_where_integral(q.rows) and ints_where_integral(r.rows)

    def test_zero_and_cancelling_sum(self):
        a = e_poly((Fraction(1, 2), 3), (0, Fraction(-5, 6)), 1)
        assert (a * EnergyPoly.zero()).is_zero() and (EnergyPoly.zero() * a).is_zero()
        assert (a + (-a)).rows == () and (a - a).is_zero()
        assert (a.scale(0)).is_zero() and (ParamPoly.zero() * ParamPoly((1, 2))).is_zero()
        b = -(a * E_PLUS_2Z)
        assert (a * E_PLUS_2Z + b).rows == ()

    def test_integral_results_are_ints(self):
        half = EnergyPoly((Fraction(1, 2),))
        assert (half * EnergyPoly((2,))).rows == ((1,),)
        assert (half + half).rows == ((1,),)
        assert half.scale(2).rows == ((1,),)
        q, r = poly_divide_exact(EnergyPoly((2, 2)), EnergyPoly((0, 2)))
        assert q.rows == ((1,),) and r.rows == ((2,),)
        for p in (half * EnergyPoly((2,)), half + half, half.scale(2), q, r):
            assert type(p.rows[0][0]) is int

    def test_rational_m_chain_holds_ints(self):
        fam = gen_family(ChainSpec("P", Fraction(1, 3), Fraction(0)), 6)
        assert all(ints_where_integral(p.rows) for p in fam.members)
        assert sum(type(x) is Fraction for p in fam.members for row in p.rows for x in row) > 0

    def test_integer_m_chain_normalises_nothing(self, monkeypatch):
        def refuse(x):
            raise AssertionError("step_rows normalised an entry at integer M")
        monkeypatch.setattr(exactpoly, "plain", refuse)
        fam = gen_family(ChainSpec("P", Fraction(9), Fraction(0)), 12)
        assert all(type(x) is int for p in fam.members for row in p.rows for x in row)


class TestDivision:
    def test_unit_divisor(self):
        q, r = poly_divide_exact(E_PLUS_18Z_16, ENERGY_ONE)
        assert q == E_PLUS_18Z_16 and r.is_zero()

    def test_exact_factor(self):
        prod = E_PLUS_2Z * E_PLUS_18Z_16
        q, r = poly_divide_exact(prod, E_PLUS_2Z)
        assert r.is_zero()
        assert q == E_PLUS_18Z_16

    def test_reconstruction_random(self):
        rng = random.Random(77)

        def rand_poly(monic):
            coeffs = [
                ParamPoly(tuple(Fraction(rng.randint(-4, 4)) for _ in range(2)))
                for _ in range(rng.randint(1, 4))
            ]
            if monic:
                coeffs.append(ParamPoly.const(1))
            return EnergyPoly(tuple(coeffs))

        for _ in range(40):
            a = rand_poly(monic=False)
            b = rand_poly(monic=True)
            q, r = poly_divide_exact(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree() < b.degree()

    def test_nonconstant_lead_rejected(self):
        bad = EnergyPoly((ParamPoly.const(1), ParamPoly((0, 1))))  # zE + 1
        with pytest.raises(ExactDivisionError, match="non-divisible leading coefficient"):
            poly_divide_exact(E_PLUS_2Z * E_PLUS_2Z, bad)

    def test_zeta_constant_divisor_rejected(self):
        with pytest.raises(ExactDivisionError, match="non-divisible leading coefficient"):
            poly_divide_exact(E_PLUS_2Z, EnergyPoly((ParamPoly((0, 1)),)))  # z

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            poly_divide_exact(E_PLUS_2Z, EnergyPoly.zero())

    def test_monic_divisor_with_remainder(self):
        # E^2 + 3 = (E - 2z)(E + 2z) + 4z^2 + 3
        q, r = poly_divide_exact(e_poly(3, 0, 1), E_PLUS_2Z)
        assert q == e_poly((0, -2), 1)
        assert r == e_poly((3, 0, 4))

    def test_non_monic_constant_lead_is_inverted_exactly(self):
        # E^2 + z = (E/3 - z/9)(3E + z) + z^2/9 + z
        b = e_poly((0, 1), 3)
        q, r = poly_divide_exact(e_poly((0, 1), 0, 1), b)
        assert q == e_poly((0, Fraction(-1, 9)), Fraction(1, 3))
        assert r == e_poly((0, 1, Fraction(1, 9)))
        assert q * b + r == e_poly((0, 1), 0, 1)
        assert [list(map(type, c.coeffs)) for c in q.coeffs] == [[int, Fraction], [Fraction]]
        assert [list(map(type, c.coeffs)) for c in r.coeffs] == [[int, int, Fraction]]

    def test_constant_divisor(self):
        q, r = poly_divide_exact(E_PLUS_18Z_16, EnergyPoly.const(2))
        assert q == e_poly((8, 9), Fraction(1, 2)) and r.is_zero()

    def test_lower_degree_dividend(self):
        q, r = poly_divide_exact(E_PLUS_2Z, E_PLUS_2Z * E_PLUS_18Z_16)
        assert q.is_zero() and r == E_PLUS_2Z


class TestRows:
    def test_step_matches_general_product(self):
        rng = random.Random(5)

        def rand_rows(deg, rational):
            rows = []
            for _ in range(deg):
                rows.append([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rational
                             else rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
            return rows + [[1]]

        for rational in (False, True):
            for _ in range(30):
                p, q = rand_rows(rng.randint(0, 4), rational), rand_rows(rng.randint(0, 3), rational)
                b0, b1 = rng.randint(-5, 5), rng.randint(-5, 5)
                c1 = Fraction(rng.randint(-5, 5), 3) if rational else rng.randint(-5, 5)
                got = from_rows(step_rows(p, q, b0, b1, c1))
                pp, qq = from_rows(p), from_rows(q)
                want = EnergyPoly((ParamPoly((b0, b1)), ParamPoly.const(1))) * pp \
                    + qq.scale(ParamPoly.monomial(c1, 1))
                assert got == want
                assert got.rows == step_rows(p, q, b0, b1, c1)

    def test_integer_rows_hold_ints(self):
        rows = (E_PLUS_2Z * E_PLUS_18Z_16).rows
        assert rows == ((0, 32, 36), (16, 20), (1,))
        assert all(type(x) is int for row in rows for x in row)

    @pytest.mark.parametrize("rows", [((0, 32, 36), (16, 20), (1,)),
                                      ((Fraction(1, 3), 0, -2), (), (Fraction(5, 2), 1))])
    def test_fraction_built_equals_row_built(self, rows):
        built = EnergyPoly(tuple(ParamPoly(tuple(Fraction(x) for x in row)) for row in rows))
        wrapped = from_rows(rows)
        assert built == wrapped and hash(built) == hash(wrapped)
        assert built.rows == rows
        assert [type(x) for row in built.rows for x in row] == \
            [type(x) for row in rows for x in row]

    def test_equal_rows_of_ints_and_fractions_are_one_value(self):
        a, b = ParamPoly((1, Fraction(2))), ParamPoly((Fraction(1), 2))
        assert a == b and hash(a) == hash(b)
        assert a.coeffs == b.coeffs == (1, 2)
        assert all(type(x) is int for x in a.coeffs + b.coeffs)
        assert ParamPoly((0.5, 2.0)).coeffs == (Fraction(1, 2), 2)
        assert ints_where_integral((ParamPoly((0.5, 2.0, Fraction(6, 3))).coeffs,))

    def test_coefficient_views_wrap_rows(self):
        p = from_rows(((0, 32, 36), (16, 20), (1,)))
        assert p.coeffs == (ParamPoly((0, 32, 36)), ParamPoly((16, 20)), ParamPoly.const(1))
        assert all(c.coeffs is row for c, row in zip(p.coeffs, p.rows))
        assert all(type(x) is int for c in p.coeffs for x in c.coeffs)
        half = from_rows(((Fraction(1, 2), 3),))
        assert half.coeff(0).coeffs is half.rows[0]
        assert ints_where_integral((half.coeff(0).coeffs,))
        assert p.coeff(1) == ParamPoly((16, 20)) and p.coeff(3).is_zero()
        assert repr(ENERGY_ONE) == "EnergyPoly(rows=((1,),))"


class TestEval:
    def test_linear_value(self):
        # E + 2z at z=1, E=0
        assert E_PLUS_2Z.eval_numeric(1.0, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_zero_poly(self):
        assert EnergyPoly.zero().eval_numeric(3.7, -2.1) == 0.0

    def test_value_at_root_of_factorable(self):
        # exactly factorable with rational roots: (E + 2z)(E + 18z + 16), z = 1/2
        prod = E_PLUS_2Z * E_PLUS_18Z_16
        for root in (-1.0, -25.0):
            assert abs(prod.eval_numeric(0.5, root)) <= 1e-9 * (1 + abs(root) ** 2)

    def test_near_zero_at_float_root(self):
        # the even-chain critical polynomial of the M=3 well at its lower root
        p = e_poly((0, 24, 20), (4, 12), 1)
        assert abs(p.eval_numeric(1.0, -12.4721359550)) < 1e-9


class TestRoots:
    def test_linear(self):
        roots = real_roots(E_PLUS_2Z, 1.0)
        assert roots == [(pytest.approx(-2.0, abs=1e-12), 1)]

    def test_critical_quadratic(self):
        # E^2 + (12z+4)E + 20z^2+24z at z=1: roots -8 -+ 2*sqrt(5)
        p = e_poly((0, 24, 20), (4, 12), 1)
        roots = real_roots(p, 1.0)
        assert [m for _, m in roots] == [1, 1]
        assert roots[0][0] == pytest.approx(-12.4721359550, abs=1e-9)
        assert roots[1][0] == pytest.approx(-3.5278640450, abs=1e-9)

    def test_double_root_multiplicity(self):
        p = E_PLUS_2Z * E_PLUS_2Z
        roots = real_roots(p, 1.0)
        assert len(roots) == 1
        root, mult = roots[0]
        assert mult == 2 and root == pytest.approx(-2.0, abs=1e-7)

    def test_no_real_roots(self):
        # E^2 + 1 has no real roots at any zeta
        p = e_poly(1, 0, 1)
        assert real_roots(p, 1.0) == []

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="no roots"):
            real_roots(ENERGY_ONE, 1.0)

    def test_sturm_counts(self):
        # (x-1)(x-2)(x-3) -> 3 distinct; x^2+1 -> 0; (x-1)^2 -> 1 distinct
        assert sturm_real_root_count([-6, 11, -6, 1]) == 3
        assert sturm_real_root_count([1, 0, 1]) == 0
        assert sturm_real_root_count([1, -2, 1]) == 1

    def test_m5_critical_cubic_has_three_simple_roots(self):
        from qespoly.families import ChainSpec, gen_family

        p3 = gen_family(ChainSpec("P", Fraction(5), Fraction(0)), 3)[3]
        roots = real_roots(p3, 1.0)
        assert [m for _, m in roots] == [1, 1, 1]
        assert roots == sorted(roots)

    def test_sturm_matches_root_finder(self):
        rng = random.Random(5)
        for _ in range(25):
            roots = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
            p = ENERGY_ONE
            for r in roots:
                p = p * e_poly(Fraction(-r), 1)
            found = real_roots(p, Fraction(1, 3))
            assert sum(m for _, m in found) == len(roots)
            assert len(found) == len(set(roots))


class TestRendering:
    def test_canonical_form(self):
        p = e_poly((0, 24, 20), (4, 12), 1)
        assert p.render() == "E^2 + (12ζ+4)E + (20ζ^2+24ζ)"

    def test_constant_and_zero(self):
        assert ENERGY_ONE.render() == "1"
        assert EnergyPoly.zero().render() == "0"

    def test_negative_and_fraction_coeffs(self):
        assert ParamPoly((Fraction(-16), Fraction(0), Fraction(1))).render() == "ζ^2-16"
        assert ParamPoly((Fraction(35, 2),)).render() == "35/2"
        assert ParamPoly((0, -16)).render() == "-16ζ"

    def test_fraction_on_a_zeta_power_is_bracketed(self):
        assert ParamPoly((0, Fraction(8, 3), 20)).render() == "20ζ^2+(8/3)ζ"
        assert ParamPoly((0, Fraction(16, 3))).render() == "(16/3)ζ"
        assert ParamPoly((Fraction(1, 2), Fraction(-8, 3), 0, Fraction(1, 4))).render() == \
            "(1/4)ζ^3-(8/3)ζ+1/2"
        assert ParamPoly((0, Fraction(-16, 3))).render() == "-(16/3)ζ"
        assert ParamPoly((Fraction(35, 2), Fraction(6, 3))).render() == "2ζ+35/2"

    def test_rational_m_member_renders_unambiguously(self):
        fam = gen_family(ChainSpec("P", Fraction(1, 3), Fraction(0)), 2)
        assert fam[2].render() == "E^2 + (12ζ+4)E + (20ζ^2+(8/3)ζ)"


def reference_param_render(coeffs) -> str:
    """ParamPoly.render as written when every stored entry was a Fraction."""
    c = [Fraction(x) for x in coeffs]
    while c and not c[-1]:
        c.pop()
    if not c:
        return "0"
    parts = []
    for k in range(len(c) - 1, -1, -1):
        if not c[k]:
            continue
        sign = "-" if c[k] < 0 else "+"
        mag = -c[k] if c[k] < 0 else c[k]
        if k == 0:
            body = str(mag)
        else:
            var = "ζ" if k == 1 else f"ζ^{k}"
            num = "" if mag == 1 else mag if mag.denominator == 1 else f"({mag})"
            body = f"{num}{var}"
        parts.append((sign, body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(sign + body for sign, body in parts[1:])


class TestParamRenderParity:
    """Ints where integral render as the Fractions they replaced."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_random_rows(self, kind):
        rng = random.Random(f"param-render-{kind}")
        for _ in range(300):
            coeffs = tuple(rng.choice((0, 1, -1, rand_entry(rng, kind), Fraction(rng.randint(-9, 9)),
                                       rng.randint(-10**30, 10**30)))
                           for _ in range(rng.randint(0, 6)))
            assert ParamPoly(coeffs).render() == reference_param_render(coeffs)


def reference_energy_render(p) -> str:
    """EnergyPoly.render as written before it called render_in_e."""
    if p.is_zero():
        return "0"
    deg = p.degree()
    if deg == 0:
        return p.coeff(0).render()
    parts = []
    for k in range(deg, -1, -1):
        c = p.coeff(k)
        if c.is_zero():
            continue
        head = "" if k == deg and p.is_monic() else f"({c.render()})"
        if k == 0:
            term = head if head else "(1)"
        elif k == 1:
            term = f"{head}E"
        else:
            term = f"{head}E^{k}"
        parts.append(term)
    return " + ".join(parts)


def reference_render_numeric(coeffs) -> str:
    """cli._render_numeric as written before it called render_in_e."""
    deg = len(coeffs) - 1
    if deg < 0:
        return "0"
    parts = []
    for k in range(deg, -1, -1):
        c = coeffs[k]
        if c == 0 and deg > 0:
            continue
        body = f"{c:.12g}"
        if k == 1:
            parts.append(f"({body})E")
        elif k > 1:
            parts.append(f"({body})E^{k}")
        else:
            parts.append(f"({body})")
    return " + ".join(parts) if parts else "0"


def rand_energy_poly(rng, degree: int, monic: bool) -> EnergyPoly:
    """An EnergyPoly of the given degree (-1 for zero) with int or Fraction
    rows, some inner rows zero, led by 1 when monic."""
    def row():
        return ParamPoly(tuple(rand_entry(rng, rng.choice(KINDS)) for _ in range(rng.randint(1, 3))))
    rows = [ParamPoly.zero() if rng.random() < 0.3 else row() for _ in range(max(degree, 0))]
    if degree >= 0:
        lead = ParamPoly.const(1) if monic else row()
        rows.append(lead or ParamPoly.const(rng.choice((-1, 2, Fraction(1, 3)))))
    return EnergyPoly(tuple(rows))


def rand_float(rng) -> float:
    return rng.choice((0.0, -0.0, 1.0, -1.0, rng.uniform(-1e3, 1e3),
                       rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300)))


class TestRenderInE:
    """One joiner writes both polynomials in E: parity with the two loops it replaced."""

    def test_joiner(self):
        assert exactpoly.render_in_e([]) == "0"
        assert exactpoly.render_in_e([(3, ""), (1, "(2)"), (0, "(5)")]) == "E^3 + (2)E + (5)"

    @pytest.mark.parametrize("monic", [True, False])
    @pytest.mark.parametrize("degree", range(-1, 7))
    def test_energy_render_parity(self, degree, monic):
        rng = random.Random(f"render-{degree}-{monic}")
        for _ in range(40):
            p = rand_energy_poly(rng, degree, monic)
            assert p.degree() == degree
            assert p.render() == reference_energy_render(p)

    @pytest.mark.parametrize("length", range(8))
    def test_numeric_render_parity(self, length):
        rng = random.Random(f"numeric-{length}")
        cases = [[0.0] * length, [-1.0] * length]
        cases += [[rand_float(rng) for _ in range(length)] for _ in range(60)]
        for coeffs in cases:
            assert _render_numeric(coeffs) == reference_render_numeric(coeffs)
        assert _render_numeric([]) == "0" and _render_numeric([0.0]) == "(0)"


def rand_param_poly(rng) -> ParamPoly:
    return ParamPoly(tuple(rand_entry(rng, rng.choice(KINDS)) for _ in range(rng.randint(0, 4))))


class TestRingPlumbing:
    """The shared plumbing against the operations it is built from, for both classes."""

    @pytest.mark.parametrize("cls", [ParamPoly, EnergyPoly])
    def test_constructors_return_the_subclass(self, cls):
        assert type(cls.zero()) is cls and cls.zero().is_zero()
        assert type(cls.const(3)) is cls and cls.const(3).degree() == 0

    @pytest.mark.parametrize("cls", [ParamPoly, EnergyPoly])
    def test_derived_operations(self, cls):
        make = rand_param_poly if cls is ParamPoly else lambda rng: rand_rows(rng, "mixed", 4)
        rng = random.Random(cls.__name__)
        for _ in range(60):
            p, q = make(rng), make(rng)
            f = rng.choice((0, 2, Fraction(-3, 4), rand_param_poly(rng)))
            assert p.scale(f) == p * f
            assert p - q == p + (-q)
            assert p - 1 == p + (-1)
            assert 2 * p == p * 2
            assert 1 + p == p + 1

    def test_energy_scale_rows(self):
        rng = random.Random("scale-rows")
        for _ in range(60):
            p = rand_rows(rng, "mixed", 4)
            f = rng.choice((0, 3, Fraction(5, 2), rand_param_poly(rng)))
            assert p.scale(f).rows == tuple(exactpoly._product(p.rows, (exactpoly._row(f),)))
