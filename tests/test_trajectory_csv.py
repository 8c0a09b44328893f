"""The trajectory-CSV reader against a per-cell `float()` oracle.

`read_trajectory_csv` converts all rows with one numpy call; these tests
check that it returns, bit for bit, what converting each written cell with
Python's `float` gives, and which hand-edited cells it accepts.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from crosszone.cli import main, read_trajectory_csv, write_trajectory_csv
from crosszone.model import TimeGrid, Trajectory

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def oracle(path) -> dict:
    """The file's arrays, every cell converted on its own by `float`."""
    lines = [line for line in path.read_text(encoding="utf-8").split("\n")[1:] if line]
    n = (len(lines[0].split(",")) - 4) // 3
    last = 2 + n
    table = np.zeros((len(lines), 4 + 3 * n))
    for i, line in enumerate(lines):
        cells = line.split(",")
        table[i, : last if i == len(lines) - 1 else len(cells)] = [float(c) for c in cells if c]
    k = len(lines) - 1
    return {
        "temps": table[:, 2:last],
        "powers": table[:k, last : last + n],
        "gains": table[:k, last + n : last + 2 * n],
        "outdoor": table[:k, last + 2 * n],
        "price": table[:k, last + 2 * n + 1],
    }


def assert_bitwise_equal(path) -> None:
    data, expected = read_trajectory_csv(str(path)), oracle(path)
    for key, want in expected.items():
        got = data[key]
        assert got.shape == want.shape and got.dtype == want.dtype, key
        assert got.tobytes() == want.tobytes(), key
    assert data["steps"] == len(expected["price"])


VALUES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, 1e300, -1e300, 1 / 3]),
    st.integers(-(10**15), 10**15).map(float),
)


@st.composite
def trajectories(draw):
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    dt_h = draw(st.sampled_from([0.25, 0.1, 1 / 3, 1.0]))

    def block(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(VALUES, min_size=size, max_size=size))).reshape(shape)

    traj = Trajectory(
        grid=TimeGrid(dt_h, k),
        temps_c=block(k + 1, n),
        powers_kw=block(k, n),
        gains_kw=block(k, n),
        outdoor_c=block(k),
        temp_integrals_c_h=np.zeros((k, n)),
    )
    return traj, block(k)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("traj")


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=trajectories())
def test_random_tables_match_float_oracle(scratch, case):
    traj, price = case
    path = scratch / "t.csv"
    write_trajectory_csv(str(path), traj, price)
    assert_bitwise_equal(path)


def test_reproduce_example_files_match_float_oracle(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["reproduce-example", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    for name in ("baseline.csv", "experiment.csv"):
        assert_bitwise_equal(tmp_path / name)


ONE_ZONE = {
    "network": {"capacitances_kwh_per_c": [0.5], "conductances_w_per_c": [[0, 100], [100, 0]]},
    "zones": {"setpoints_c": [21.0], "controlled": [1]},
    "areas": {"exterior_wall_m2": [30.0], "floor_m2": [25.0]},
}


def small_file(tmp_path):
    traj = Trajectory(
        grid=TimeGrid(0.25, 3),
        temps_c=[[21.0], [20.5], [20.0], [20.25]],
        powers_kw=[[1.0], [0.5], [0.25]],
        gains_kw=[[0.0], [0.1], [0.2]],
        outdoor_c=[-5.0, -4.0, -3.0],
        temp_integrals_c_h=np.zeros((3, 1)),
    )
    path = tmp_path / "t.csv"
    write_trajectory_csv(str(path), traj, np.array([0.05, 0.06, 0.07]))
    return path


@pytest.mark.parametrize(
    "cell, value",
    [
        ("1.5", 1.5),
        (" 1.5", 1.5),
        ("1.5\t", 1.5),
        ("+1.5e0", 1.5),
        ('"1.5"', None),
        ("1_0", None),
        ("١٥", None),  # Arabic-Indic digits 1 and 5
        ("１", None),  # fullwidth digit 1
    ],
)
def test_hand_edited_cell(tmp_path, capsys, cell, value):
    # Line 4 is step 2; field 3 is q_1_kw.
    path = small_file(tmp_path)
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[3].split(",")
    fields[3] = cell
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")
    if value is not None:
        assert read_trajectory_csv(str(path))["powers"][2, 0] == value
        return
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"grid": {"dt_h": 0.25, "steps": 3}, **ONE_ZONE}), encoding="utf-8")
    code = main(
        ["estimate", "--config", str(config), "--out-dir", str(tmp_path), "--baseline", str(path),
         "--experiment", str(path)]
    )
    err = capsys.readouterr().err
    assert code == 4
    assert err == f"data mismatch: {path}: row 4: could not convert string to float: {cell!r}\n"
