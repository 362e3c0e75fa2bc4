import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qespoly.exactpoly import ENERGY_ONE, EnergyPoly, ParamPoly, poly_divide_exact
from qespoly.families import (
    ChainSpec,
    ChainSpecError,
    chain_steps,
    critical_index,
    family_values,
    finkel_form,
    gen_R,
    gen_family,
    gen_quotient,
    member_signs,
    recursion_form,
    three_term_form,
)

HALF = Fraction(1, 2)


def e_poly(*coeffs):
    converted = []
    for c in coeffs:
        if isinstance(c, tuple):
            converted.append(ParamPoly(c))
        else:
            converted.append(ParamPoly.const(c))
    return EnergyPoly(tuple(converted))


# ----------------------------------------------------------------------
# golden tables, frozen from the recursions (three misprints in the source
# tables corrected against the recursions' own output; see notes)
# ----------------------------------------------------------------------

P3_TABLE = {
    0: e_poly(1),
    1: e_poly((0, 2), 1),
    2: e_poly((0, 24, 20), (4, 12), 1),
}
P3_TABLE[3] = e_poly((16, 18), 1) * P3_TABLE[2]
P3_TABLE[4] = e_poly((576, 824, 468), (52, 44), 1) * P3_TABLE[2]

Q3_TABLE = {
    0: e_poly(1),
    1: e_poly((4, 6), 1),
}
Q3_TABLE[2] = e_poly((16, 14), 1) * Q3_TABLE[1]
Q3_TABLE[3] = e_poly((576, 696, 308), (52, 36), 1) * Q3_TABLE[1]

P4_TABLE = {
    0: e_poly(1),
    1: e_poly((1, 2), 1),
    2: e_poly((9, 44, 20), (10, 12), 1),
}
P4_TABLE[3] = e_poly((25, 18), 1) * P4_TABLE[2]
P4_TABLE[4] = e_poly((1225, 1292, 468), (74, 44), 1) * P4_TABLE[2]

Q4_TABLE = {
    0: e_poly(1),
    1: e_poly((1, 6), 1),
    2: e_poly((9, 116, 84), (10, 20), 1),
}
Q4_TABLE[3] = e_poly((25, 22), 1) * Q4_TABLE[2]
Q4_TABLE[4] = e_poly((1225, 1492, 660), (74, 52), 1) * Q4_TABLE[2]

GOLDEN = [
    ("P", 3, Fraction(0), P3_TABLE),
    ("Q", 3, HALF, Q3_TABLE),
    ("P", 4, HALF, P4_TABLE),
    ("Q", 4, Fraction(0), Q4_TABLE),
]

# the members' renderings at M = 3 and 4 (per-chain indicial root), frozen
# from the recursions; Q at (3, 1/2) and (4, 0) is pinned nowhere else
RENDERED = {
    ("P", 3, Fraction(0)): [
        "1",
        "E + (2ζ)",
        "E^2 + (12ζ+4)E + (20ζ^2+24ζ)",
        "E^3 + (30ζ+20)E^2 + (236ζ^2+288ζ+64)E + (360ζ^3+752ζ^2+384ζ)",
        "E^4 + (56ζ+56)E^3 + (1016ζ^2+1648ζ+784)E^2"
        " + (6496ζ^3+13856ζ^2+11456ζ+2304)E"
        " + (9360ζ^4+27712ζ^3+31296ζ^2+13824ζ)",
    ],
    ("Q", 3, HALF): [
        "1",
        "E + (6ζ+4)",
        "E^2 + (20ζ+20)E + (84ζ^2+152ζ+64)",
        "E^3 + (42ζ+56)E^2 + (524ζ^2+1152ζ+784)E"
        " + (1848ζ^3+5408ζ^2+6240ζ+2304)",
    ],
    ("P", 4, HALF): [
        "1",
        "E + (2ζ+1)",
        "E^2 + (12ζ+10)E + (20ζ^2+44ζ+9)",
        "E^3 + (30ζ+35)E^2 + (236ζ^2+524ζ+259)E"
        " + (360ζ^3+1292ζ^2+1262ζ+225)",
        "E^4 + (56ζ+84)E^3 + (1016ζ^2+2664ζ+1974)E^2"
        " + (6496ζ^3+23600ζ^2+31272ζ+12916)E"
        " + (9360ζ^4+46432ζ^3+85560ζ^2+65528ζ+11025)",
    ],
    ("Q", 4, Fraction(0)): [
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


class TestGolden:
    @pytest.mark.parametrize("kind,m,s,table", GOLDEN)
    def test_tables(self, kind, m, s, table):
        fam = gen_family(ChainSpec(kind, Fraction(m), s), max(table))
        for n, want in table.items():
            assert fam[n] == want, f"{kind}_{n} at M={m}"

    @pytest.mark.parametrize("kind,m,s", RENDERED)
    def test_renderings(self, kind, m, s):
        want = RENDERED[kind, m, s]
        fam = gen_family(ChainSpec(kind, Fraction(m), s), 6)
        assert [fam[n].render() for n in range(len(want))] == want

    def test_generic_seeds(self):
        for s in (Fraction(0), HALF):
            for m in (Fraction(2), Fraction(7, 2)):
                fam = gen_family(ChainSpec("P", m, s), 1)
                assert fam[0] == ENERGY_ONE
                assert fam[1] == e_poly((4 * s * s, 2), 1)
                famq = gen_family(ChainSpec("Q", m, s), 1)
                assert famq[1] == e_poly((4 * s * s + 4 * s + 1, 6), 1)


class TestStructure:
    @pytest.mark.parametrize("kind", ["P", "Q"])
    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("s", [Fraction(0), HALF])
    def test_monic_degree(self, kind, m, s):
        fam = gen_family(ChainSpec(kind, Fraction(m), s), 8)
        for n, p in enumerate(fam.members):
            assert p.is_monic()
            assert p.degree() == n

    def test_not_parity_eigenfunctions(self):
        # P_2 for M=3 has a nonzero linear term
        p2 = gen_family(ChainSpec("P", Fraction(3), Fraction(0)), 2)[2]
        assert not p2.coeff(1).is_zero()

    @pytest.mark.parametrize("s", [Fraction(0), HALF])
    @pytest.mark.parametrize("m", [Fraction(3), Fraction(4), Fraction(13, 3)])
    def test_interleaving(self, s, m):
        order = 5
        r = gen_R(ChainSpec("R", m, s), 2 * order + 1)
        p = gen_family(ChainSpec("P", m, s), order)
        q = gen_family(ChainSpec("Q", m, s), order)
        for n in range(order + 1):
            assert r[2 * n] == p[n]
            assert r[2 * n + 1] == q[n]

    def test_r_seeds(self):
        r = gen_R(ChainSpec("R", Fraction(3), Fraction(0)), 3)
        assert r[0] == ENERGY_ONE and r[1] == ENERGY_ONE

    def test_r2_equals_p1(self):
        r = gen_R(ChainSpec("R", Fraction(5), Fraction(0)), 2)
        p = gen_family(ChainSpec("P", Fraction(5), Fraction(0)), 1)
        assert r[2] == p[1]

    def test_r5_equals_q2(self):
        r = gen_R(ChainSpec("R", Fraction(5), HALF), 5)
        q = gen_family(ChainSpec("Q", Fraction(5), HALF), 2)
        assert r[5] == q[2]


class TestTermination:
    def test_p_termination(self):
        fam = gen_family(ChainSpec("P", Fraction(3), Fraction(0)), 4)
        assert fam.termination_index == 3

    def test_q_termination_even_m(self):
        fam = gen_family(ChainSpec("Q", Fraction(4), Fraction(0)), 4)
        assert fam.termination_index == 3

    def test_non_integer_m_never_terminates(self):
        fam = gen_family(ChainSpec("P", Fraction(7, 2), Fraction(0)), 6)
        assert fam.termination_index is None
        form = three_term_form(fam)
        assert form.first_zero_C is None

    @pytest.mark.parametrize("kind,s,expected", [
        ("P", Fraction(0), 3),     # (M+3-2s)/2 at M=3
        ("Q", HALF, 2),            # (M+2-2s)/2 at M=3
    ])
    def test_first_zero_matches_closed_form(self, kind, s, expected):
        fam = gen_family(ChainSpec(kind, Fraction(3), s), 6)
        assert three_term_form(fam).first_zero_C == expected


class TestThreeTerm:
    def test_c2_value(self):
        fam = gen_family(ChainSpec("P", Fraction(3), Fraction(0)), 4)
        form = three_term_form(fam)
        # form.c[k] is C_{k+1}
        assert form.c[1] == ParamPoly((0, 16))
        assert form.first_zero_C == 3

    def test_monic_two_term_start(self):
        fam = gen_family(ChainSpec("Q", Fraction(4), Fraction(0)), 4)
        form = three_term_form(fam)
        assert form.c[0].is_zero()   # C_1 = 0

    @pytest.mark.parametrize("kind,m,s", [("P", 3, 0), ("Q", 3, HALF), ("P", 4, HALF),
                                          ("Q", Fraction(7, 2), 0), ("Pbar", 5, 0),
                                          ("Qbar", 3, HALF), ("Rbar", 4, HALF), ("Sbar", 4, 0)])
    def test_form_from_steps_alone(self, kind, m, s):
        # recursion_form reads no member: the same data as a generated chain's
        spec = ChainSpec(kind, Fraction(m), Fraction(s))
        gen = gen_family if kind in ("P", "Q") else gen_quotient
        for order in (0, 1, 2, 3, 9):
            assert recursion_form(spec, order) == three_term_form(gen(spec, order))

    def test_form_errors(self):
        with pytest.raises(ChainSpecError, match="not an adjacent three-term system"):
            recursion_form(ChainSpec("R", Fraction(3), Fraction(0)), 4)
        with pytest.raises(ValueError, match="order must be nonnegative"):
            recursion_form(ChainSpec("P", Fraction(3), Fraction(0)), -1)

    def test_reconstruction(self):
        spec = ChainSpec("Q", Fraction(5), HALF)
        fam = gen_family(spec, 6)
        form = three_term_form(fam)
        for n in range(2, 7):
            want = _linear(form.b[n - 1]) * fam[n - 1] \
                + fam[n - 2].scale(form.c[n - 1])
            assert fam[n] == want


def _linear(b: ParamPoly) -> EnergyPoly:
    """E + b, as a general EnergyPoly."""
    return EnergyPoly((b, ParamPoly.const(1)))


def _reference_chain(spec: ChainSpec, order: int) -> list:
    """Members 0..order by general bivariate products, independent of the
    coefficient rows: (E + B_n) * member_{n-1} + C_n * member_{n-2}, and
    for R the combined recursion written out from its docstring."""
    if spec.kind != "R":
        members = [ENERGY_ONE]
        form = recursion_form(spec, order)
        for n in range(1, order + 1):
            b, c = form.b[n - 1], form.c[n - 1]
            new = _linear(b) * members[n - 1]
            if n >= 2:
                new = new + members[n - 2].scale(c)
            members.append(new)
        return members
    m, s = spec.m, spec.s
    members = [ENERGY_ONE, ENERGY_ONE]
    for n in range(order - 1):
        b = ParamPoly((n * n + 4 * s * n + 4 * s * s, 4 * n + 2))
        c = ParamPoly.monomial(4 * (m + 1 - 2 * s - n) * n * (n - 1), 1)
        new = _linear(b) * members[n]
        if n >= 2:
            new = new + members[n - 2].scale(c)
        members.append(new)
    return members[: order + 1]


_GENERATORS = {"P": gen_family, "Q": gen_family, "R": gen_R, "Pbar": gen_quotient,
               "Qbar": gen_quotient, "Rbar": gen_quotient, "Sbar": gen_quotient}

_ROW_KERNEL_CASES = [
    (kind, m, s)
    for kind in ("P", "Q", "R")
    for m in (Fraction(3), Fraction(4), Fraction(5, 2), Fraction(7, 3))
    for s in (Fraction(0), HALF)
] + [
    ("Pbar", Fraction(3), Fraction(0)), ("Pbar", Fraction(5), Fraction(0)),
    ("Qbar", Fraction(3), HALF), ("Qbar", Fraction(5), HALF),
    ("Rbar", Fraction(4), HALF), ("Rbar", Fraction(6), HALF),
    ("Sbar", Fraction(4), Fraction(0)), ("Sbar", Fraction(6), Fraction(0)),
]


class TestRowKernel:
    """Chains built on coefficient rows equal the general-product recursion."""

    @pytest.mark.parametrize("kind,m,s", _ROW_KERNEL_CASES)
    def test_rows_match_general_product(self, kind, m, s):
        spec = ChainSpec(kind, m, s)
        fam = _GENERATORS[kind](spec, 9)
        assert list(fam.members) == _reference_chain(spec, 9)
        for p in fam.members:
            for c in p.coeffs:
                assert all(type(x) is int if x.denominator == 1 else type(x) is Fraction
                           for x in c.coeffs), p.render()

    @pytest.mark.parametrize("kind", sorted(_GENERATORS))
    def test_order_zero_is_the_seed(self, kind):
        spec = next(ChainSpec(*case) for case in _ROW_KERNEL_CASES if case[0] == kind)
        assert _GENERATORS[kind](spec, 0).members == (ENERGY_ONE,)

    @pytest.mark.parametrize("kind", sorted(_GENERATORS))
    def test_negative_order_rejected(self, kind):
        spec = next(ChainSpec(*case) for case in _ROW_KERNEL_CASES if case[0] == kind)
        with pytest.raises(ValueError, match="order must be nonnegative"):
            _GENERATORS[kind](spec, -1)


class TestOneRepresentation:
    """A chain member stores its coefficient rows and nothing else: ints for
    integer M, Fractions only where M makes them."""

    @pytest.mark.parametrize("kind,m,s,order", [("P", 40, 0, 40), ("Qbar", 9, HALF, 12)])
    def test_integer_m_rows_hold_only_ints(self, kind, m, s, order):
        fam = _GENERATORS[kind](ChainSpec(kind, Fraction(m), Fraction(s)), order)
        assert all(type(x) is int for p in fam.members for row in p.rows for x in row)

    @pytest.mark.parametrize("m", [Fraction(5, 2), Fraction(5, 3)])
    def test_rational_m_division_reconstructs(self, m):
        fam = gen_family(ChainSpec("P", m, Fraction(0)), 8)
        # C_n carries 8*M, an integer for half-integer M
        has_fractions = any(type(x) is Fraction for row in fam[8].rows for x in row)
        assert has_fractions == (m.denominator == 3)
        for k in (1, 2, 3):
            for n in range(k, 9):
                q, r = poly_divide_exact(fam[n], fam[k])
                assert q * fam[k] + r == fam[n]
                assert r.degree() < k


class TestQuotients:
    def test_pbar1_m3(self):
        quot = gen_quotient(ChainSpec("Pbar", Fraction(3), Fraction(0)), 1)
        assert quot[1] == e_poly((16, 18), 1)

    def test_qbar0(self):
        quot = gen_quotient(ChainSpec("Qbar", Fraction(3), HALF), 0)
        assert quot[0] == ENERGY_ONE

    def test_sbar1_m4(self):
        quot = gen_quotient(ChainSpec("Sbar", Fraction(4), Fraction(0)), 1)
        assert quot[1] == e_poly((25, 22), 1)

    def test_invalid_combinations(self):
        for kind, m, s in [
            ("Pbar", 4, Fraction(0)),    # even M
            ("Pbar", 3, HALF),           # wrong s
            ("Rbar", 3, HALF),           # odd M
            ("Sbar", 4, HALF),           # wrong s
            ("Qbar", 3, Fraction(0)),    # wrong s
        ]:
            with pytest.raises(ChainSpecError, match="invalid quotient chain"):
                ChainSpec(kind, Fraction(m), s)

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("depth", [6])
    def test_division_reproduces_quotients(self, m, depth):
        if m % 2 == 1:
            combos = [("P", Fraction(0), "Pbar"), ("Q", HALF, "Qbar")]
        else:
            combos = [("P", HALF, "Rbar"), ("Q", Fraction(0), "Sbar")]
        for kind, s, qkind in combos:
            crit = int(critical_index(kind, Fraction(m), s))
            fam = gen_family(ChainSpec(kind, Fraction(m), s), crit + depth)
            quot = gen_quotient(ChainSpec(qkind, Fraction(m), s), depth)
            for n in range(depth + 1):
                q, r = poly_divide_exact(fam[crit + n], fam[crit])
                assert r.is_zero()
                assert q == quot[n]

    @pytest.mark.parametrize("kind,m,s", [
        ("Pbar", 3, Fraction(0)), ("Qbar", 5, HALF),
        ("Rbar", 4, HALF), ("Sbar", 6, Fraction(0)),
    ])
    def test_quotient_monic_degree(self, kind, m, s):
        quot = gen_quotient(ChainSpec(kind, Fraction(m), s), 6)
        for n, p in enumerate(quot.members):
            assert p.is_monic() and p.degree() == n


class TestFinkel:
    def test_main_chain_signs(self):
        # a_1 = -C_2 = -16 zeta at M=3, s=0
        fam = gen_family(ChainSpec("P", Fraction(3), Fraction(0)), 4)
        fin = finkel_form(three_term_form(fam), 1.0)
        assert fin.a[0] == 0.0
        assert fin.a[1] == pytest.approx(-16.0)
        assert all(s == -1 for s in fin.a_signs_before_termination)

    @pytest.mark.parametrize("m", range(3, 9))
    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_negative_before_termination_both_chains(self, m, zeta):
        for kind, s in ((("P", Fraction(0)), ("Q", HALF)) if m % 2
                        else (("P", HALF), ("Q", Fraction(0)))):
            fam = gen_family(ChainSpec(kind, Fraction(m), s), 8)
            fin = finkel_form(three_term_form(fam), zeta)
            assert all(sg == -1 for sg in fin.a_signs_before_termination)

    def test_quotient_chain_positive(self):
        # quotient chains reverse the sign pattern: a_k > 0, matching their
        # positive norms
        quot = gen_quotient(ChainSpec("Pbar", Fraction(3), Fraction(0)), 6)
        fin = finkel_form(three_term_form(quot), 1.0)
        assert all(a > 0 for a in fin.a[1:])
        # |a_1| = 4*zeta*(M+3)(M+2)(2) = 240 at M=3, zeta=1
        assert fin.a[1] == pytest.approx(240.0)

    @pytest.mark.parametrize("zeta", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_zeta_outside_the_positive_reals_rejected(self, zeta):
        # a NaN zeta gave all-NaN steps with signs (0, 0, 0), an infinite
        # one signs (-1, -1, -1) from infinite steps
        form = recursion_form(ChainSpec("P", Fraction(7), Fraction(0)), 6)
        with pytest.raises(ValueError, match="zeta must be positive"):
            finkel_form(form, zeta)


def _specialized_signs(member, zeta, points) -> list:
    """Signs of a bivariate member specialized at zeta, by exact Fractions."""
    coeffs = member.specialize(zeta)
    signs = []
    for t in points:
        if math.isinf(t):
            value = -coeffs[-1] if t < 0 and len(coeffs) % 2 == 0 else coeffs[-1]
        else:
            value = sum(c * Fraction(t) ** k for k, c in enumerate(coeffs))
        signs.append((value > 0) - (value < 0))
    return signs


def _dyadic_points(seed: int, size: float) -> list:
    """Both infinities and seeded floats (dyadic rationals) in (-size, size)."""
    rng = random.Random(seed)
    return [-math.inf, math.inf] + [rng.uniform(-size, size) for _ in range(16)]


class TestRecursionAtZeta:
    """The numeric core: the recursion run at one zeta, no bivariate chain."""

    @pytest.mark.parametrize("kind", ["P", "Q"])
    @pytest.mark.parametrize("s", [Fraction(0), HALF])
    @pytest.mark.parametrize("m", [3, 4, 9, 10, 17])
    @pytest.mark.parametrize("zr", [HALF, Fraction(3, 8), Fraction(0.7)])
    def test_member_signs_equal_specialized_chain(self, kind, s, m, zr):
        spec = ChainSpec(kind, Fraction(m), s)
        order = m // 2 + 2
        fam = gen_family(spec, order)
        points = _dyadic_points(m, (m + 2) ** 2 / 2)
        for n in range(order + 1):
            steps = chain_steps(spec, n, zr)
            assert member_signs(steps, points) == _specialized_signs(fam[n], zr, points)

    def test_quotient_chain_member_signs(self):
        spec = ChainSpec("Qbar", Fraction(5), HALF)
        fam = gen_quotient(spec, 4)
        points = _dyadic_points(5, 200.0)
        for zr in (Fraction(3, 8), Fraction(0.7)):
            for n, p in enumerate(fam.members):
                steps = chain_steps(spec, n, zr)
                assert member_signs(steps, points) == _specialized_signs(p, zr, points)

    def test_rational_m_member_signs(self):
        # a rational M carries Fractions in C_n only; the signs stay exact
        spec = ChainSpec("P", Fraction(7, 3), HALF)
        fam = gen_family(spec, 4)
        points = _dyadic_points(7, 100.0)
        for n, p in enumerate(fam.members):
            assert (member_signs(chain_steps(spec, n, Fraction(0.7)), points)
                    == _specialized_signs(p, Fraction(0.7), points))

    def test_exact_zero_next_to_its_neighbours(self):
        # P_1 = E + 2 zeta vanishes at the float E = -1 for zeta = 1/2, and
        # the floats on either side of it carry the signs of either side
        spec = ChainSpec("P", Fraction(3), Fraction(0))
        points = [-math.inf, math.nextafter(-1.0, -2.0), -1.0, math.nextafter(-1.0, 0.0), math.inf]
        assert member_signs(chain_steps(spec, 1, HALF), points) == [-1, -1, 0, 1, 1]
        # at zeta = 7/20 it vanishes at -7/10, which no float equals
        want = 1 if Fraction(-0.7) > Fraction(-7, 10) else -1
        assert member_signs(chain_steps(spec, 1, Fraction(7, 20)), [-0.7]) == [want]
        # a monic member of even degree is positive at both infinities
        assert member_signs(chain_steps(spec, 2, HALF), [-math.inf, math.inf]) == [1, 1]

    @pytest.mark.parametrize("kind,m,s", [("P", 9, Fraction(0)), ("Q", 10, Fraction(0)),
                                          ("P", 17, HALF), ("Q", 4, HALF)])
    @pytest.mark.parametrize("zeta", [0.5, 0.7, 2.0])
    def test_float_values_agree_with_horner(self, kind, m, s, zeta):
        spec = ChainSpec(kind, Fraction(m), s)
        order = m // 2 + 2
        fam = gen_family(spec, order)
        eps = np.array([-61.3, -7.25, -0.4, 0.0, 3.1, 48.0])
        steps = chain_steps(spec, order, zeta)
        values = family_values(steps, eps)
        assert len(values) == order + 1
        for n, p in enumerate(fam.members):
            for k, x in enumerate(eps):
                # rounding scale of the expanded polynomial at x
                scale = sum(abs(c.eval_float(zeta)) * abs(x) ** j
                            for j, c in enumerate(p.coeffs))
                assert abs(values[n][k] - p.eval_numeric(zeta, x)) <= 1e-13 * scale
                assert family_values(steps.head(n), float(x))[n] == values[n][k]
