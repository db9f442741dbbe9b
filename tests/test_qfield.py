import random
from fractions import Fraction

import pytest

from segrefuchs.qfield import (GaussianRational, ZERO, ONE, I, SQRT2, qi)
from reference import conj, power


def rnd(rng, sqrt2=True):
    return GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9),
                            rng.randint(-9, 9) if sqrt2 else 0,
                            rng.randint(-9, 9) if sqrt2 else 0,
                            rng.randint(1, 9))


def test_normalization_and_equality():
    assert GaussianRational(2, 4, 0, 0, 6) == GaussianRational(1, 2, 0, 0, 3)
    assert GaussianRational(1, 0, 0, 0, -2) == GaussianRational(-1, 0, 0, 0, 2)
    assert qi(Fraction(1, 2)) + qi(Fraction(1, 2)) == ONE


def test_field_axioms_randomized():
    rng = random.Random(1)
    for _ in range(200):
        x, y, z = rnd(rng), rnd(rng), rnd(rng)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x


def test_inverse_randomized():
    rng = random.Random(2)
    for _ in range(100):
        x = rnd(rng)
        if x.is_zero():
            continue
        assert x * x.inverse() == ONE
        assert (ONE / x) * x == ONE


def test_special_constants():
    assert I * I == -ONE
    assert SQRT2 * SQRT2 == qi(2)
    assert (I * SQRT2) * (I * SQRT2) == qi(-2)
    assert conj(I) == -I
    assert conj(SQRT2) == SQRT2


def test_pow_and_zero_division():
    x = qi(Fraction(2, 3), 1)
    assert power(x, 3) == x * x * x
    assert power(x, 0) == ONE
    assert power(x, -2) == (x * x).inverse()
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_float_view():
    x = qi(Fraction(1, 2), Fraction(-3, 4)) + SQRT2
    z = x.to_complex()
    assert abs(z.real - (0.5 + 2 ** 0.5)) < 1e-12
    assert abs(z.imag + 0.75) < 1e-12
