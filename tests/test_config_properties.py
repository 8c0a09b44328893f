"""Property test for config files: one malformed field never ends in a traceback.

Each example replaces one field of the built-in config document (a leaf
value or a whole section) with a drawn JSON value and runs `simulate` and
`optimize` in-process on a 24-step grid.
"""

import contextlib
import io
import json
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


def _too_many_steps(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and not value <= STEPS


def run(command: str, doc: dict) -> tuple[int, str]:
    """Run ``command`` on ``doc`` in a fresh directory; exit code and stderr."""
    with tempfile.TemporaryDirectory() as d:
        config = os.path.join(d, "cfg.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([command, "--config", config, "--out-dir", d])
            except Exception:  # reported as a failure below, with its traceback
                return -1, traceback.format_exc()
        return code, err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(path=st.sampled_from(PATHS), value=JSON_VALUES)
def test_one_replaced_field_exits_with_a_message(path, value):
    assume(not (path == ("grid", "steps") and _too_many_steps(value)))
    doc = _replaced(BASE_DOC, path, value)
    for command in ("simulate", "optimize"):
        code, err = run(command, doc)
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err
        if code:
            assert err.strip(), f"{command} exited {code} with nothing on stderr"
