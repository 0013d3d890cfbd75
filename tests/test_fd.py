import numpy as np
import pytest

from shapelab._fd import DEFAULT_FIRST_LADDER, derivative_ladder, ladder_steps


def _vector(t):
    return np.array([[np.sin(1.3 * t), np.exp(0.7 * t)],
                     [np.cos(2.0 * t) * t, 1.0 / (1.5 - t)]])


@pytest.mark.parametrize("order", [1, 2])
def test_vector_ladder_equals_componentwise_scalar_ladders(order):
    ladder = (0.04, 0.02, 0.01)
    vec = derivative_ladder(_vector, order, ladder)
    assert vec.value.shape == (2, 2)
    for i in range(2):
        for j in range(2):
            sca = derivative_ladder(lambda t: _vector(t)[i, j], order, ladder)
            assert vec.value[i, j] == sca.value
            assert [e[i, j] for e in vec.estimates] == list(sca.estimates)


def test_scalar_results_are_floats():
    res = derivative_ladder(np.sin, 1, (0.04, 0.02, 0.01))
    assert type(res.value) is float
    assert all(type(e) is float for e in res.estimates)


def test_vector_order_and_monotone_use_the_max_norm():
    # the linear component is differentiated exactly, so the max-norm
    # diagnostics are those of the sine component alone
    ladder = (0.2, 0.1, 0.05)
    vec = derivative_ladder(lambda t: np.array([np.sin(t), 3.0 * t]), 1, ladder)
    sca = derivative_ladder(np.sin, 1, ladder)
    assert vec.observed_order == sca.observed_order
    assert vec.monotone == sca.monotone


def _bumped_line(bump):
    # 2t plus +-bump at t = +-5e-3: on the ladder below the middle estimate
    # moves by 266.7 bump and the finest by -66.7 bump, so the gaps to the
    # Richardson value (88.9, 355.6, 22.2) x bump are not monotone
    return lambda t: 2.0 * t + (bump * np.sign(t) if abs(t) == 5e-3 else 0.0)


def test_rounding_level_ladder_is_not_flagged_non_monotone():
    res = derivative_ladder(_bumped_line(1e-15), 1, (1e-2, 5e-3, 2.5e-3))
    assert res.monotone
    assert res.warnings == ()


def test_non_monotone_ladder_above_the_floor_still_warns():
    res = derivative_ladder(_bumped_line(1e-10), 1, (1e-2, 5e-3, 2.5e-3))
    assert not res.monotone
    assert res.warnings == ("non-monotone ladder (cancellation suspected)",)


@pytest.mark.parametrize("ladder", [None, [], ()])
def test_an_absent_or_empty_ladder_is_the_default(ladder):
    assert ladder_steps(ladder) is None
    assert derivative_ladder(np.sin, 1, ladder).ladder == DEFAULT_FIRST_LADDER


@pytest.mark.parametrize("ladder", [[0.01], [0.01, 0.02], [0.01, 0.01], [0.01, 0.0],
                                    [0.01, -0.005], [float("nan"), 0.01],
                                    [float("inf"), 0.01], ["a", 0.01], 0.01])
def test_a_bad_ladder_is_a_value_error_that_names_the_key(ladder):
    with pytest.raises(ValueError, match="^ladder must be"):
        ladder_steps(ladder)
    with pytest.raises(ValueError, match="^ladder must be"):
        derivative_ladder(np.sin, 1, ladder)
