import numpy as np
import pytest

from saext.potentials import (
    CallablePotential,
    ConstantPotential,
    PotentialError,
    SampledPotential,
    ZeroPotential,
)


def test_zero_is_constant_everywhere():
    pot = ZeroPotential()
    assert pot.constant_value(0) == 0.0
    assert np.array_equal(pot.value(0, [0.1, 0.2]), [0.0, 0.0])


def test_constant_per_interval():
    pot = ConstantPotential([1.0, -2.5])
    assert pot.constant_value(1) == -2.5
    assert np.array_equal(pot.value(1, [0.0, 9.0]), [-2.5, -2.5])


def test_sampled_interpolates_linearly():
    pot = SampledPotential([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    assert pot.value(0, 0.5) == pytest.approx(1.0)
    assert pot.value(0, 1.5) == pytest.approx(1.0)
    assert pot.constant_value(0) is None


def test_sampled_validation():
    with pytest.raises(PotentialError):
        SampledPotential([0.0], [1.0])
    with pytest.raises(PotentialError):
        SampledPotential([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(PotentialError):
        SampledPotential([0.0, 1.0], [1.0, 2.0, 3.0])


def test_callable_scalar_broadcast():
    pot = CallablePotential(lambda x: 3.0)
    out = pot.value(0, np.array([0.1, 0.2, 0.3]))
    assert np.array_equal(out, [3.0, 3.0, 3.0])


def test_callable_rejects_complex():
    pot = CallablePotential(lambda x: 1j * x)
    with pytest.raises(PotentialError, match="complex"):
        pot.value(0, np.array([1.0]))


def test_callable_real_valued_complex_dtype_ok():
    pot = CallablePotential(lambda x: (x + 0j))
    assert np.array_equal(pot.value(0, np.array([1.0, 2.0])), [1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sampled_rejects_non_finite_table(bad):
    with pytest.raises(PotentialError, match="finite"):
        SampledPotential([0.0, 1.0, 2.0], [0.0, bad, 1.0])
    with pytest.raises(PotentialError, match="finite"):
        SampledPotential([0.0, bad, 2.0], [0.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_constant_rejects_non_finite_values(bad):
    with pytest.raises(PotentialError, match="finite"):
        ConstantPotential([1.0, bad])
