"""Unit and property tests for affine expressions."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dependence.tests import affine_range
from repro.errors import AffineError
from repro.lang.affine import Affine, difference_is_constant

VARS = ["i", "j", "k", "m", "n"]


def small_affines():
    return st.builds(
        Affine,
        st.dictionaries(st.sampled_from(VARS), st.integers(-50, 50), max_size=4),
        st.integers(-100, 100),
    )


def envs():
    return st.fixed_dictionaries({v: st.integers(-20, 20) for v in VARS})


class TestConstruction:
    def test_var(self):
        a = Affine.var("i")
        assert a.coeff("i") == 1
        assert a.const == 0
        assert not a.is_constant

    def test_constant(self):
        a = Affine.constant(7)
        assert a.is_constant
        assert a.const == 7

    def test_zero_coefficients_dropped(self):
        a = Affine({"i": 0, "j": 2}, 1)
        assert a.variables() == frozenset({"j"})

    def test_non_int_coeff_rejected(self):
        with pytest.raises(AffineError):
            Affine({"i": 1.5}, 0)  # type: ignore[dict-item]

    def test_non_int_const_rejected(self):
        with pytest.raises(AffineError):
            Affine({}, 2.5)  # type: ignore[arg-type]

    def test_immutable(self):
        a = Affine.var("i")
        with pytest.raises(AttributeError):
            a.const = 5  # type: ignore[misc]


class TestArithmetic:
    def test_add_vars(self):
        c = Affine.var("i") + Affine.var("j")
        assert c.coeff("i") == 1 and c.coeff("j") == 1

    def test_add_int(self):
        assert (Affine.var("i") + 3).const == 3

    def test_radd(self):
        assert (3 + Affine.var("i")).const == 3

    def test_sub_cancels(self):
        assert (Affine.var("i") - Affine.var("i")).is_constant

    def test_rsub(self):
        a = 5 - Affine.var("i")
        assert a.coeff("i") == -1 and a.const == 5

    def test_mul_scalar(self):
        a = (Affine.var("i") + 2) * 3
        assert a.coeff("i") == 3 and a.const == 6

    def test_rmul(self):
        assert (3 * Affine.var("i")).coeff("i") == 3

    def test_neg(self):
        assert (-Affine.var("i")).coeff("i") == -1

    @given(small_affines(), small_affines(), envs())
    def test_add_evaluates_pointwise(self, a, b, env):
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)

    @given(small_affines(), small_affines(), envs())
    def test_sub_evaluates_pointwise(self, a, b, env):
        assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)

    @given(small_affines(), st.integers(-10, 10), envs())
    def test_mul_evaluates_pointwise(self, a, c, env):
        assert (a * c).evaluate(env) == a.evaluate(env) * c

    @given(small_affines(), small_affines())
    def test_commutative_add(self, a, b):
        assert a + b == b + a

    @given(small_affines())
    def test_additive_inverse(self, a):
        assert (a + (-a)).is_constant and (a + (-a)).const == 0


class TestEvaluateAndSubstitute:
    def test_unbound_raises(self):
        with pytest.raises(AffineError):
            Affine.var("i").evaluate({})

    def test_evaluate(self):
        a = Affine({"i": 2, "j": -1}, 5)
        assert a.evaluate({"i": 3, "j": 4}) == 2 * 3 - 4 + 5

    def test_substitute_int(self):
        a = Affine({"i": 2}, 1).substitute({"i": 4})
        assert a.is_constant and a.const == 9

    def test_substitute_affine(self):
        a = Affine.var("i").substitute({"i": Affine.var("k") + 1})
        assert a == Affine.var("k") + 1

    def test_substitute_leaves_others(self):
        a = (Affine.var("i") + Affine.var("j")).substitute({"i": 0})
        assert a == Affine.var("j")

    @given(small_affines(), envs())
    def test_substitute_full_env_equals_evaluate(self, a, env):
        result = a.substitute(env)
        assert result.is_constant
        assert result.const == a.evaluate(env)


class TestEquality:
    def test_eq_int(self):
        assert Affine.constant(4) == 4
        assert Affine.var("i") != 4

    def test_hashable(self):
        assert hash(Affine.var("i") + 1) == hash(Affine({"i": 1}, 1))

    @given(small_affines())
    def test_str_roundtrip_structure(self, a):
        # The string form must mention every variable with nonzero coeff.
        text = str(a)
        for var in a.variables():
            assert var in text


class TestHashContract:
    def test_constant_form_hashes_like_its_int(self):
        assert hash(Affine.constant(3)) == hash(3)
        assert {3: "x"}.get(Affine.constant(3)) == "x"
        assert {Affine.constant(0), 0} == {0}

    @given(small_affines(), st.integers(-100, 100))
    def test_equal_means_equal_hash(self, a, c):
        reordered = Affine(dict(reversed(a.coeffs.items())), a.const)
        for x, y in ((a, reordered), (a - a + c, c), (Affine.constant(c), c)):
            assert x == y and hash(x) == hash(y)


# -- reference: the algebra as it was, every result through ``Affine(...)``
def _validated_combine(a: Affine, b: Affine, sign: int) -> Affine:
    coeffs = dict(a.coeffs)
    for var, coeff in b.coeffs.items():
        coeffs[var] = coeffs.get(var, 0) + sign * coeff
    return Affine(coeffs, a.const + sign * b.const)


def _validated_scale(a: Affine, factor: int) -> Affine:
    return Affine({v: c * factor for v, c in a.coeffs.items()}, a.const * factor)


def _validated_range(expr: Affine, bounds) -> tuple[Affine, Affine]:
    lo = hi = expr
    for var, low, high in bounds:
        c_lo = lo.coeff(var)
        if c_lo:
            base = _validated_combine(lo, Affine({var: c_lo}), -1)
            lo = _validated_combine(base, _validated_scale(low if c_lo > 0 else high, c_lo), +1)
        c_hi = hi.coeff(var)
        if c_hi:
            base = _validated_combine(hi, Affine({var: c_hi}), -1)
            hi = _validated_combine(base, _validated_scale(high if c_hi > 0 else low, c_hi), +1)
    return lo, hi


def assert_same_form(got: Affine, want: Affine) -> None:
    """Equal as values *and* as representations: coefficient order, pickle bytes."""
    assert type(got) is Affine
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert got.const == want.const
    assert got == want and hash(got) == hash(want)
    assert pickle.dumps(got, pickle.HIGHEST_PROTOCOL) == pickle.dumps(want, pickle.HIGHEST_PROTOCOL)


def bound_lists():
    return st.lists(st.tuples(st.sampled_from(VARS), small_affines(), small_affines()), max_size=4)


class TestTrustedResults:
    """Arithmetic builds results without re-validating them, and nothing shows."""

    @given(small_affines(), small_affines())
    def test_add_and_sub(self, a, b):
        assert_same_form(a + b, _validated_combine(a, b, +1))
        assert_same_form(a - b, _validated_combine(a, b, -1))

    @given(small_affines(), st.integers(-3, 3))
    def test_mul(self, a, factor):
        assert_same_form(a * factor, _validated_scale(a, factor))
        assert_same_form(-a, _validated_scale(a, -1))

    @given(small_affines(), bound_lists())
    def test_affine_range(self, expr, bounds):
        for got, want in zip(affine_range(expr, bounds), _validated_range(expr, bounds)):
            assert_same_form(got, want)

    def test_cancelled_variable_moves_to_the_end(self):
        # j cancels when i is eliminated, then comes back from k's bound:
        # the order is the one step-by-step arithmetic gives
        expr = Affine({"j": 1, "i": 1, "m": 1})
        bounds = [
            ("i", Affine({"j": -1}), Affine({"j": -1})),
            ("k", Affine.constant(0), Affine.var("j")),
        ]
        _, hi = affine_range(expr + Affine.var("k"), bounds)
        assert list(hi.coeffs) == ["m", "j"]
        assert_same_form(hi, _validated_range(expr + Affine.var("k"), bounds)[1])

    @given(small_affines())
    def test_unpickling_still_validates(self, a):
        assert_same_form(pickle.loads(pickle.dumps(a)), a)
        rebuild, (coeffs, const) = a.__reduce__()
        assert rebuild is Affine  # the validating constructor
        with pytest.raises(AffineError):
            rebuild({**coeffs, "i": 1.5}, const)


class TestDifferenceIsConstant:
    def test_affinity_same_var(self):
        assert difference_is_constant(Affine.var("i"), Affine.var("i") + 2) == -2

    def test_no_affinity_different_vars(self):
        assert difference_is_constant(Affine.var("i"), Affine.var("j")) is None

    def test_affinity_constants(self):
        assert difference_is_constant(Affine.constant(3), Affine.constant(1)) == 2

    @given(small_affines(), st.integers(-20, 20))
    def test_shifted_copy_always_constant(self, a, c):
        assert difference_is_constant(a, a + c) == -c
