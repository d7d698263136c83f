import pytest

from urtetrad.cosmos import (
    UR_COUNT_REFERENCE,
    ExpansionModel,
    NegativeEpochError,
    radius_at,
)


def test_radius_examples():
    model = ExpansionModel(1.0, 1.0)
    assert radius_at(model, 0.0) == 1.0
    assert radius_at(model, 2.0) == 3.0


def test_radius_monotone():
    model = ExpansionModel(0.5, 2.0)
    values = [radius_at(model, t) for t in (0.0, 0.1, 1.0, 10.0)]
    assert values == sorted(values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_affine_on_integer_grid():
    model = ExpansionModel(1.0, 3.0)
    for t1 in range(5):
        for t2 in range(5):
            assert radius_at(model, t1 + t2) - radius_at(model, t1) == model.c * t2


def test_negative_epoch_rejected():
    with pytest.raises(NegativeEpochError):
        radius_at(ExpansionModel(1.0, 1.0), -1.0)


def test_model_invariants():
    with pytest.raises(ValueError):
        ExpansionModel(-1.0, 1.0)
    with pytest.raises(ValueError):
        ExpansionModel(1.0, 0.0)
    with pytest.raises(ValueError):
        ExpansionModel(1.0, -2.0)


@pytest.mark.parametrize("r0, c", [(float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("inf"))])
def test_model_rejects_nonfinite(r0, c):
    with pytest.raises(ValueError, match="finite"):
        ExpansionModel(r0, c)


@pytest.mark.parametrize("epoch", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_epoch_rejected(epoch):
    with pytest.raises(ValueError, match="finite"):
        radius_at(ExpansionModel(1.0, 1.0), epoch)


@pytest.mark.parametrize("r0, c, epoch", [(1.0, 1e308, 1e308), (1.7e308, 1.0, 1e308), (0.0, 2.0, 1.7e308)])
def test_overflowing_radius_rejected(r0, c, epoch):
    with pytest.raises(ValueError, match="overflows"):
        radius_at(ExpansionModel(r0, c), epoch)


def test_ur_count_reference():
    assert UR_COUNT_REFERENCE == 1e120
