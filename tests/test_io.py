"""CSV files written by feecalib reload bit for bit, and config numbers are
checked strictly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feecalib import io as fio
from feecalib import ConfigError, make_trajectory

# besides what st.floats draws anyway: signed zero, subnormals and the
# ends of the double range
EDGES = [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
         1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGES))


@st.composite
def cycles(draw, forces=2):
    """A finite trajectory with nondecreasing t, plus force series."""
    n = draw(st.integers(0, 6))
    column = st.lists(FINITE, min_size=n, max_size=n)
    t = sorted(draw(column))
    return (make_trajectory(t, draw(column), draw(column), draw(column)),
            [np.array(draw(column)) for _ in range(forces)])


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@given(cycle=cycles())
@settings(max_examples=50, deadline=None)
def test_cycle_csv_reloads_bit_exactly(folder, cycle):
    trajectory, (f_t, f_n) = cycle
    path = folder / "cycle.csv"
    fio.write_cycle_csv(path, trajectory, f_t, f_n)
    loaded, got_t, got_n = fio.read_cycle_csv(path)
    for field in ("t", "x", "z", "rho"):
        assert np.array_equal(bits(loaded[field]), bits(trajectory[field]))
    assert np.array_equal(bits(got_t), bits(f_t))
    assert np.array_equal(bits(got_n), bits(f_n))


@given(cycle=cycles(forces=4))
@settings(max_examples=50, deadline=None)
def test_prediction_csv_reloads_bit_exactly(folder, cycle):
    trajectory, (depth, beta, f_t, f_n) = cycle
    path = folder / "predicted.csv"
    fio.write_prediction_csv(path, trajectory, depth, beta, f_t, f_n)
    loaded = fio.read_prediction_csv(path)
    expected = {"t_s": trajectory.t, "x_m": trajectory.x,
                "z_m": trajectory.z, "rho_rad": trajectory.rho,
                "d_m": depth, "beta_rad": beta, "ft_N": f_t, "fn_N": f_n,
                "fr_N": [math.hypot(a, b) for a, b in zip(f_t, f_n)]}
    assert set(loaded) == set(expected)
    for column, values in expected.items():
        assert np.array_equal(bits(loaded[column]), bits(values)), column


def test_integral_float_config_values_are_ints():
    options = fio.calibration_options_from_json(
        {"solver": {"n_starts": 3.0, "seed": 7, "max_iterations": 2e2}})
    assert (options.solver.n_starts, options.solver.seed,
            options.solver.max_iterations) == (3, 7, 200)
    assert all(type(v) is int for v in (options.solver.n_starts,
                                        options.solver.seed,
                                        options.solver.max_iterations))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "int-overflow"])
def test_non_finite_config_numbers_are_rejected(value):
    with pytest.raises(ConfigError, match="calibration.lambda_weight"):
        fio.calibration_options_from_json({"lambda_weight": value})
