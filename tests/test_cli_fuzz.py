"""Fuzzing the command line contract: every argv and every family file ends in
exit 0, 1 or 2 without a traceback, with nothing on stdout for exit 2 and
data on stdout for exit 0."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from qgordon import RecursionFamily, member_decoder
from qgordon.cli import ORACLE_MAX_M, ORACLE_MAX_W, VERIFY_MAX_Q, main
from qgordon.series import MAX_CELLS


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, err)
    if code == 2:
        assert out == "", argv
    if code == 0:
        assert out, argv


# -- argv ----------------------------------------------------------------------

# spellings that are no integer, or an integer outside every accepted window
BAD = ["", "1.5", "0x10", "9" * 5000, "-1", str(10**30)]

# draws for each option: first a small valid value, then each bound and bound
# +- 1, and BAD; None leaves the option out. A pair (name, d) stands for the
# value drawn for option name plus d. Accepted windows stay within (4, 12),
# and solve and crosscheck take --k <= 50 or past MAX_CELLS (as 10**30 is)
WINDOW = {
    "--mmax": ["4", "0", "1", str(ORACLE_MAX_M + 1), None, *BAD],
    "--wmax": ["12", "0", "1", str(ORACLE_MAX_W + 1), None, *BAD],
}
OPTIONS = {
    "solve": {
        "--k": ["2", "0", "1", "50", str(MAX_CELLS), None, *BAD],
        "--xmax": ["4", "0", "1", None, *BAD],
        "--qmax": ["12", "0", "1", None, *BAD],
        "--format": ["json", "tsv", "xml", None],
    },
    "verify-gordon": {
        "--l": ["3", "1", "2", None, *BAD],
        "--t": ["2", "0", "1", ("--l", -1), ("--l", 0), ("--l", 1), None, *BAD],
        "--qmax": ["12", "0", "1", str(VERIFY_MAX_Q + 1), None, *BAD],
        "--xmax": ["12", "0", "1", None, *BAD],
    },
    "oracle": {
        "--k": ["2", "0", "1", None, *BAD],
        "--e": ["1", "0", "2", ("--k", 0), ("--k", 1), ("--k", 2), None, *BAD],
        **WINDOW,
        "--format": ["tsv", "json", "xml", None],
    },
    "crosscheck": {
        "--k": ["2", "0", "1", "50", str(MAX_CELLS), None, *BAD],
        **WINDOW,
    },
}


@st.composite
def argvs(draw, command):
    """An argv for command: the options of a drawn subset take any of their
    draws, the others their small valid value."""
    options = OPTIONS[command]
    wild = draw(st.sets(st.sampled_from(sorted(options))))
    argv = [command]
    values = {}
    for option, draws in options.items():
        value = draw(st.sampled_from(draws)) if option in wild else draws[0]
        if isinstance(value, tuple):
            name, offset = value
            try:
                value = str(int(values[name]) + offset)
            except (TypeError, ValueError):
                value = str(offset)
        values[option] = value
        if value is not None:
            argv += [option, value]
    return argv


@pytest.mark.parametrize("command", sorted(OPTIONS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_argv_contract(command, data):
    check_contract(data.draw(argvs(command)))


# -- family files --------------------------------------------------------------

FAMILY = json.loads(run(["solve", "--k", "2", "--xmax", "2", "--qmax", "4"])[1])
VALUES = [None, True, False, 1.5, "", "7", "x", 10**30, -(10**30), [], [0, 0, "1"], {}]


def _paths(obj, path=()):
    """The path of obj and of every value inside it, as tuples of keys."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _paths(value, path + (key,))


PATHS = list(_paths(FAMILY))


@st.composite
def mutated_families(draw):
    """FAMILY with one mutation: a value replaced, a key or member removed,
    or a key or member added."""
    obj = copy.deepcopy(FAMILY)
    path = draw(st.sampled_from(PATHS))
    value = draw(st.sampled_from(VALUES))
    if not path:
        return value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    target = parent[key]
    kind = draw(st.sampled_from(["replace", "remove", "add"]))
    if kind == "replace":
        parent[key] = value
    elif kind == "remove":
        del parent[key]
    elif isinstance(target, list):
        target.append(value)
    elif isinstance(target, dict):
        target["extra"] = value
    else:
        parent[key] = value
    return obj


@settings(max_examples=150, deadline=None, derandomize=True)
@given(obj=mutated_families())
def test_family_loader_contract(tmp_path_factory, obj):
    try:
        RecursionFamily.from_json_dict(
            json.loads(json.dumps(obj), object_hook=member_decoder())
        )
    except ValueError:
        pass
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(obj))
    check_contract(["check-recursions", "--input", str(path)])
