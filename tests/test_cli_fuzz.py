"""Fuzz gate over the CLI's input boundary.

Each example mutates one fixture input file and runs a command that reads
it, in process through ``cli.main`` and always with ``--out``. Every run
exits 0 or 2; on 2, standard error is one ``error:`` line naming the
mutated file, standard output is empty and no output file exists. The one
designed exit 1 is zero-probability blanket evidence, which the network
and readings can pose (``runtime error: InconsistentEvidenceError``).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from sensorval.cli import main
from conftest import FIXTURES

READINGS_2 = "".join((FIXTURES / "reference_readings.csv").read_text()
                     .splitlines(keepends=True)[:3])
# file kind -> (option, text of the unmutated file, commands that read it)
INPUTS = {
    "network": ("--network", (FIXTURES / "reference_net.json").read_text(),
                ("validate", "simulate", "compile-tree")),
    "discretizer": ("--discretizer",
                    (FIXTURES / "reference_net.disc.json").read_text(),
                    ("validate", "simulate")),
    "tree": ("--tree", (FIXTURES / "reference_pruned.tree.json").read_text(),
             ("validate", "simulate")),
    "readings": ("--data", READINGS_2, ("validate", "simulate", "learn")),
    "structure": ("--structure",
                  (FIXTURES / "reference_structure.json").read_text(),
                  ("learn",)),
}
COMMAND_INPUTS = {
    "validate": ("network", "discretizer", "tree", "readings"),
    "simulate": ("network", "discretizer", "tree", "readings"),
    "compile-tree": ("network",),
    "learn": ("structure", "readings"),
}
SENSORS = ("a", "g", "m", "p", "t")
ODD_NUMBERS = (float("nan"), float("inf"), float("-inf"), 1e308, -1e308,
               -0.0)
ODD_CELLS = ("nan", "inf", "-inf", "1e308", "-1e308", "-0.0", "x", "", "true")
OTHER_TYPES = (None, True, 0, 2.5, "x", [], {})
NOT_UTF8 = (b"\xff", b"\xc3\x28", b"\x80", b"\xed\xa0\x80")


class Pairs(list):
    """A JSON object written from its (key, value) pairs, so a key may
    repeat."""


def dump(value) -> str:
    if isinstance(value, dict):
        value = Pairs(value.items())
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}"
                               for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value)        # NaN, Infinity and -0.0 included


def paths(value, path=()):
    """Every (path, value) in the document, the root included."""
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from paths(child, path + (key,))


def parent_of(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def same_type(a, b) -> bool:
    return type(a) is type(b) or {type(a), type(b)} == {int, float}


@st.composite
def mutated_json(draw, text: str) -> str:
    doc = json.loads(text)
    nodes = list(paths(doc))
    in_objects = [(p, v) for p, v in nodes
                  if p and isinstance(parent_of(doc, p), dict)]
    numbers = [p for p, v in nodes if p and type(v) in (int, float)]
    kind = draw(st.sampled_from(["type", "delete", "repeat", "rename"]
                                + ["number"] * bool(numbers)))
    if kind == "type":
        path, old = draw(st.sampled_from(nodes))
        new = draw(st.sampled_from([v for v in OTHER_TYPES
                                    if not same_type(v, old)]))
        if not path:
            return dump(new)
        parent_of(doc, path)[path[-1]] = new
        return dump(doc)
    if kind == "delete":
        path, _ = draw(st.sampled_from(in_objects))
        del parent_of(doc, path)[path[-1]]
        return dump(doc)
    if kind == "repeat":
        path, old = draw(st.sampled_from(in_objects))
        parent = parent_of(doc, path)
        new = draw(st.sampled_from(OTHER_TYPES))
        pairs = Pairs(parent.items())
        pairs.insert(draw(st.integers(0, len(pairs))), (path[-1], new))
        if len(path) == 1:
            return dump(pairs)
        parent_of(doc, path[:-1])[path[-2]] = pairs
        return dump(doc)
    if kind == "number":
        path = draw(st.sampled_from(numbers))
        parent_of(doc, path)[path[-1]] = draw(st.sampled_from(ODD_NUMBERS))
        return dump(doc)
    # rename one sensor name where it appears as a string or as a key
    names = [(p, True) for p, v in nodes if p and v in SENSORS]
    names += [(p, False) for p, _ in in_objects if p[-1] in SENSORS]
    path, is_value = draw(st.sampled_from(names))
    parent = parent_of(doc, path)
    if is_value:
        parent[path[-1]] = "zz"
    else:
        parent["zz"] = parent.pop(path[-1])
    return dump(doc)


@st.composite
def mutated_csv(draw, text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    width = len(rows[0])
    kind = draw(st.sampled_from(["reorder", "drop", "repeat", "cell",
                                 "rename"]))
    if kind == "reorder":
        order = draw(st.permutations(range(width)))
        rows = [[row[i] for i in order] for row in rows]
    elif kind == "drop":
        column = draw(st.integers(0, width - 1))
        rows = [row[:column] + row[column + 1:] for row in rows]
    elif kind == "repeat":
        column = draw(st.integers(0, width - 1))
        rows = [row + [row[column]] for row in rows]
    elif kind == "cell":
        r = draw(st.integers(1, len(rows) - 1))
        rows[r][draw(st.integers(0, width - 1))] = draw(
            st.sampled_from(ODD_CELLS))
    else:
        rows[0][draw(st.integers(0, width - 1))] = "zz"
    return "".join(",".join(row) + "\n" for row in rows)


@st.composite
def mutated_bytes(draw, text: str) -> bytes:
    data = text.encode()
    at = draw(st.integers(0, len(data)))
    if draw(st.booleans()):
        return data[:at]
    return data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]


@st.composite
def mutations(draw):
    """(command, mutated input kind, its new bytes)."""
    kind = draw(st.sampled_from(sorted(INPUTS)))
    _, text, commands = INPUTS[kind]
    command = draw(st.sampled_from(commands))
    if draw(st.integers(0, 3)) == 0:
        return command, kind, draw(mutated_bytes(text))
    mutate = mutated_csv if kind == "readings" else mutated_json
    return command, kind, draw(mutate(text)).encode()


@settings(max_examples=300, deadline=None)
@given(mutations())
def test_a_mutated_input_exits_0_or_2_naming_its_file(mutation):
    command, kind, data = mutation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [command]
        for name in COMMAND_INPUTS[command]:
            option, text, _ = INPUTS[name]
            path = tmp / f"{name}.in"
            path.write_bytes(data if name == kind else text.encode())
            argv += [option, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*argv, "--out", str(tmp / "out.txt")])
        err = err.getvalue()
        assert "Traceback" not in err
        if rc == 1:
            assert err.startswith(
                "runtime error: InconsistentEvidenceError: "), err
        elif rc == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(tmp / f"{kind}.in") in err, err
            assert out.getvalue() == ""
            assert sorted(p.name for p in tmp.iterdir()) == sorted(
                f"{name}.in" for name in COMMAND_INPUTS[command])
        else:
            assert rc == 0 and err == "", err
