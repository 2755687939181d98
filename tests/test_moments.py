from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rqcgraph.errors import CapacityError, ValidationError
from rqcgraph.moments import (
    compose,
    cycle_count,
    identity_perm,
    inverse_perm,
    nd_constant,
    nd_fraction,
    second_moment_I,
    second_moment_numerator,
    shift_perm,
    single_edge_alpha_moment,
    single_edge_purity_variance,
)
from rqcgraph.rem import rem_alpha_purity

perms = st.permutations(list(range(5)))


def test_cycle_count_examples():
    assert cycle_count((0, 1, 2)) == 3
    assert cycle_count((1, 0, 2)) == 2
    assert cycle_count((1, 2, 0)) == 1
    with pytest.raises(ValidationError):
        cycle_count((0, 0, 1))


@given(perms, perms)
def test_cycle_count_conjugation_invariant(p, q):
    p, q = tuple(p), tuple(q)
    conj = compose(compose(q, p), inverse_perm(q))
    assert cycle_count(conj) == cycle_count(p)


@given(perms)
def test_inverse_perm(p):
    p = tuple(p)
    assert compose(p, inverse_perm(p)) == identity_perm(5)
    assert compose(inverse_perm(p), p) == identity_perm(5)


def test_shift_perm_is_single_cycle():
    for alpha in range(2, 7):
        assert cycle_count(shift_perm(alpha)) == 1


def test_nd_constant():
    assert nd_constant(2) == pytest.approx(0.4)
    assert nd_constant(3) == pytest.approx(0.3)
    for d in (1, 2.0):
        with pytest.raises(ValidationError):
            nd_constant(d)
    for d in range(2, 9):
        assert nd_fraction(d) == Fraction(d, d * d + 1)
        assert nd_constant(d) == d / (d * d + 1)


def test_alpha2_moment_equals_2nd():
    for d in range(2, 7):
        assert single_edge_alpha_moment(2, d) == pytest.approx(2 * nd_constant(d), abs=1e-15)


def test_alpha_moment_known_values():
    # alpha=3, d=2: exact 0.7; alpha=1 is trace preservation
    assert single_edge_alpha_moment(3, 2) == pytest.approx(0.7, abs=1e-15)
    assert single_edge_alpha_moment(1, 5) == pytest.approx(1.0, abs=1e-15)


def test_alpha_moments_decrease_with_alpha():
    vals = [single_edge_alpha_moment(a, 2) for a in range(1, 8)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)


def test_alpha_moment_caps_and_validation():
    with pytest.raises(CapacityError):
        single_edge_alpha_moment(9, 2)
    with pytest.raises(ValidationError):
        single_edge_alpha_moment(0, 2)
    with pytest.raises(ValidationError):
        single_edge_alpha_moment(2, 1)


def test_renyi_order_must_be_an_integer():
    for call in (
        lambda: single_edge_alpha_moment(2.5, 2),
        lambda: single_edge_alpha_moment(2.0, 2),
        lambda: single_edge_alpha_moment("2", 2),
        lambda: rem_alpha_purity(0.5, 2, 2.5),
    ):
        with pytest.raises(ValidationError, match="Renyi order"):
            call()
    assert single_edge_alpha_moment(np.int64(3), 2) == single_edge_alpha_moment(3, 2)


def test_local_dimension_must_be_an_integer():
    for d in (2.0, 1, "2"):
        for call in (single_edge_purity_variance, second_moment_I, lambda d: single_edge_alpha_moment(3, d)):
            with pytest.raises(ValidationError, match="local dimension"):
                call(d)
    assert second_moment_I(np.int64(3)) == second_moment_I(3)


def test_second_moment_numerator_closed_form():
    for d in range(2, 5):
        assert second_moment_numerator(d) == d * d * (2 * d**4 + 9 * d * d + 1) // 12


def test_second_moment_value():
    assert second_moment_I(2) == pytest.approx(23 / 35, abs=1e-15)


def test_purity_variance_closed_form():
    # Var = I - (2 N_d)^2 must agree with the printed rational closed form
    for d in range(2, 6):
        var = second_moment_I(d) - (2 * nd_constant(d)) ** 2
        assert single_edge_purity_variance(d) == pytest.approx(var, abs=1e-15)
    assert single_edge_purity_variance(2) == pytest.approx(float(Fraction(18, 1050)), abs=1e-16)
