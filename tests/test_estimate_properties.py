"""Property tests for `crosszone estimate`: every bad input exits 4, cleanly.

One small simulate/optimize pair (two zones, K=8) is produced once; each
example then writes a corrupted copy of it, or a config that disagrees
with it, into its own temporary directory and runs `estimate` in-process.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from crosszone.cli import main  # noqa: E402

STEPS, DT_H = 8, 0.25
GRID = {"dt_h": DT_H, "steps": STEPS}
FILES = ("baseline.csv", "experiment.csv")

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def run_estimate(config_doc: dict, files: dict[str, str]) -> tuple[int, str, str]:
    """Write the config and CSV texts into a fresh directory and run `estimate` there."""
    with tempfile.TemporaryDirectory() as d:
        config = os.path.join(d, "cfg.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(config_doc, fh)
        for name, text in files.items():
            with open(os.path.join(d, name), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["estimate", "--config", config, "--out-dir", d])
        return code, err.getvalue(), d


@pytest.fixture(scope="module")
def pair(tmp_path_factory) -> dict[str, str]:
    """CSV texts of one baseline/experiment pair on GRID."""
    d = tmp_path_factory.mktemp("pair")
    config = d / "cfg.json"
    config.write_text(json.dumps({"grid": GRID}), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(config), "--out-dir", str(d)]) == 0
        assert main(["optimize", "--config", str(config), "--out-dir", str(d)]) == 0
    return {name: (d / name).read_text(encoding="utf-8") for name in FILES}


def assert_mismatch_naming(code: int, err: str, d: str, name: str) -> None:
    assert code == 4, err
    assert err.startswith("data mismatch:"), err
    assert os.path.join(d, name) in err, err
    assert "Traceback" not in err


def chain_network(n: int) -> dict:
    """Config sections for an n-zone chain, every zone also on the outdoor node."""
    alpha = [[0.0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        alpha[0][i] = alpha[i][0] = 100.0
        if i < n:
            alpha[i][i + 1] = alpha[i + 1][i] = 50.0
    return {
        "network": {"capacitances_kwh_per_c": [0.5] * n, "conductances_w_per_c": alpha},
        "zones": {"setpoints_c": [21.0] * n, "controlled": [1]},
        "areas": {"exterior_wall_m2": [30.0] * n, "floor_m2": [25.0] * n},
    }


BAD_CELLS = st.sampled_from(["nan", "inf", "-inf", "x", "", "1e999", "1;2", "0x1p3"])


@SETTINGS
@given(name=st.sampled_from(FILES), row=st.integers(1, STEPS), column=st.integers(0, 9), cell=BAD_CELLS)
def test_corrupted_cell_exits_four(pair, name, row, column, cell):
    lines = pair[name].splitlines()
    fields = lines[row].split(",")
    fields[column] = cell
    lines[row] = ",".join(fields)
    code, err, d = run_estimate({"grid": GRID}, {**pair, name: "\n".join(lines) + "\n"})
    assert_mismatch_naming(code, err, d, name)


@SETTINGS
@given(
    name=st.sampled_from(FILES),
    row=st.integers(1, STEPS + 1),
    edit=st.sampled_from(["delete", "duplicate", "drop_field", "extra_field"]),
)
def test_corrupted_row_exits_four(pair, name, row, edit):
    lines = pair[name].splitlines()
    if edit == "delete":
        del lines[row]
    elif edit == "duplicate":
        lines.insert(row, lines[row])
    elif edit == "drop_field":
        lines[row] = lines[row].rsplit(",", 1)[0]
    else:
        lines[row] += ",0"
    code, err, d = run_estimate({"grid": GRID}, {**pair, name: "\n".join(lines) + "\n"})
    assert_mismatch_naming(code, err, d, name)


@SETTINGS
@given(
    name=st.sampled_from(FILES),
    column=st.integers(0, 9),
    label=st.sampled_from(["", "T_3_c", "q_1_kw", "time_s", "price"]),
)
def test_corrupted_header_field_exits_four(pair, name, column, label):
    lines = pair[name].splitlines()
    fields = lines[0].split(",")
    if fields[column] == label:
        label += "_x"
    fields[column] = label
    lines[0] = ",".join(fields)
    code, err, d = run_estimate({"grid": GRID}, {**pair, name: "\n".join(lines) + "\n"})
    assert_mismatch_naming(code, err, d, name)


@SETTINGS
@given(steps=st.integers(1, 24), dt_h=st.sampled_from([0.125, 0.25, 0.5, 1.0]))
def test_config_grid_differing_from_files_exits_four(pair, steps, dt_h):
    if (steps, dt_h) == (STEPS, DT_H):
        steps += 1
    code, err, d = run_estimate({"grid": {"dt_h": dt_h, "steps": steps}}, pair)
    assert_mismatch_naming(code, err, d, "baseline.csv")
    assert "grids differ" in err


@SETTINGS
@given(zones=st.sampled_from([3, 4, 5]))
def test_config_zone_count_differing_from_files_exits_four(pair, zones):
    code, err, d = run_estimate({"grid": GRID, **chain_network(zones)}, pair)
    assert_mismatch_naming(code, err, d, "baseline.csv")
    assert f"for {zones} zones" in err


@SETTINGS
@given(start_hour=st.integers(0, 23), seed=st.integers(0, 2**31))
def test_matching_inputs_exit_zero(pair, start_hour, seed):
    # The files carry no clock and no gains seed, so neither can disagree.
    doc = {"grid": {**GRID, "start_hour": float(start_hour)}, "gains": {"seed": seed}}
    code, err, d = run_estimate(doc, pair)
    assert code == 0, err
    assert err == ""

