"""Property tests for config files: malformed fields never end in a traceback.

One test replaces one field of the built-in config document (a leaf value
or a whole section) with a drawn JSON value or a value near its own, so that
some documents load; another replaces two numeric leaves, mostly with
numbers of the config's own scale; the last caps the heating power at a
few kW, so that some plans are infeasible. Each document runs `simulate`,
`optimize` and `reproduce-example --svg` in-process on a 24-step grid.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import traceback

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from crosszone.cli import main  # noqa: E402
from crosszone.config import _DEFAULT_DOC  # noqa: E402

STEPS = 24
BASE_DOC = {**_DEFAULT_DOC, "grid": {**_DEFAULT_DOC["grid"], "steps": STEPS}}


def _paths(value, prefix=()):
    """Every key or index path below ``value``, containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = list(_paths(BASE_DOC))

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _replaced(doc, path, value):
    """A copy of ``doc`` with the entry at ``path`` set to ``value``."""
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _too_many_steps(value) -> bool:
    return _is_number(value) and not value <= STEPS


# The built-in study leaves the heating power uncapped (null); a cap of a few
# kW makes some documents infeasible, so the commands' exit 3 is reached too.
MAX_KW = ("power_limits", "max_kw")
CAPS = st.floats(0.0, 5.0)


def _near(value, path=()):
    """Values of ``value``'s shape whose numbers move by up to half their size plus one.

    ``path`` locates ``value`` in the config document; the heating cap is
    drawn uncapped or from ``CAPS``.
    """
    if path == MAX_KW:
        return st.none() | CAPS
    if _is_number(value):
        low, high = value - abs(value) / 2 - 1, value + abs(value) / 2 + 1
        floats = st.floats(low, high)
        return st.integers(math.floor(low), math.ceil(high)) | floats if isinstance(value, int) else floats
    if isinstance(value, list):
        return st.tuples(*(_near(child, path + (i,)) for i, child in enumerate(value))).map(list)
    if isinstance(value, dict):
        return st.fixed_dictionaries({key: _near(child, path + (key,)) for key, child in value.items()})
    return st.just(value)


COMMANDS = (("simulate",), ("optimize",), ("reproduce-example", "--svg"))


def run(command: tuple[str, ...], doc: dict) -> tuple[int, str]:
    """Run ``command`` on ``doc`` in a fresh directory; exit code and stderr."""
    with tempfile.TemporaryDirectory() as d:
        config = os.path.join(d, "cfg.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([*command, "--config", config, "--out-dir", d])
            except Exception:  # reported as a failure below, with its traceback
                return -1, traceback.format_exc()
        return code, err.getvalue()


def check_every_command(doc: dict) -> None:
    for command in COMMANDS:
        code, err = run(command, doc)
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err
        if code:
            assert err.strip(), f"{command[0]} exited {code} with nothing on stderr"


FIELDS = st.sampled_from(PATHS).flatmap(lambda p: st.tuples(st.just(p), _near(_at(BASE_DOC, p), p) | JSON_VALUES))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(field=FIELDS)
def test_one_replaced_field_exits_with_a_message(field):
    path, value = field
    assume(not (path == ("grid", "steps") and _too_many_steps(value)))
    check_every_command(_replaced(BASE_DOC, path, value))


# Numbers of the config's own scale let some two-field documents load and reach the solver.
NUMBER_PATHS = [p for p in PATHS if _is_number(_at(BASE_DOC, p))] + [MAX_KW]
NUMBERS = st.integers(-2, 30) | st.floats(-50.0, 50.0) | CAPS | JSON_VALUES


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    paths=st.lists(st.sampled_from(NUMBER_PATHS), min_size=2, max_size=2, unique=True),
    values=st.tuples(NUMBERS, NUMBERS),
)
def test_two_replaced_fields_exit_with_a_message(paths, values):
    doc = BASE_DOC
    for path, value in zip(paths, values):
        assume(not (path == ("grid", "steps") and _too_many_steps(value)))
        doc = _replaced(doc, path, value)
    check_every_command(doc)


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(cap=CAPS)
def test_capped_heating_exits_zero_or_three(cap):
    # Too low a cap leaves the cold snap's comfort band out of reach: the
    # planning commands exit 3 with the solver's status, simulate still runs.
    doc = _replaced(BASE_DOC, MAX_KW, cap)
    for command in COMMANDS:
        code, err = run(command, doc)
        assert code in ((0,) if command == ("simulate",) else (0, 3)), err
        assert code == 0 or err.startswith("optimization infeasible: "), err
