import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sensorval as sv
from sensorval import anytime, benchmarks
from sensorval.cli import main
from conftest import FIXTURES


NET = str(FIXTURES / "reference_net.json")
DISC = str(FIXTURES / "reference_net.disc.json")
READINGS = str(FIXTURES / "reference_readings.csv")
STRUCTURE = str(FIXTURES / "reference_structure.json")


@pytest.fixture()
def train_csv(tmp_path, ref):
    sub = sv.Dataset(ref.train.sensors, ref.train.values[:400])
    path = tmp_path / "train.csv"
    path.write_text(sub.to_csv())
    return str(path)


class TestLearn:
    def test_learn_round_trip(self, tmp_path, train_csv):
        out = tmp_path / "net.json"
        rc = main(["learn", "--structure", STRUCTURE, "--data", train_csv,
                   "--out", str(out)])
        assert rc == 0
        net = sv.load_network(out.read_text())
        assert len(net.variables) == 5
        disc = sv.discretizer_from_json(
            (tmp_path / "net.disc.json").read_text())
        assert disc.bins == 10

    def test_empty_csv(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("a,g,m,p,t\n")
        rc = main(["learn", "--structure", STRUCTURE, "--data", str(data),
                   "--out", str(tmp_path / "net.json")])
        assert rc == 2
        assert (f"error: training data {data}: no data rows\n"
                == capsys.readouterr().err)

    def test_unknown_column(self, tmp_path, train_csv, capsys):
        structure = tmp_path / "structure.json"
        structure.write_text(sv.save_structure(
            sv.NetworkStructure("bad", ("m", "zz"), ())))
        rc = main(["learn", "--structure", str(structure), "--data", train_csv,
                   "--out", str(tmp_path / "net.json")])
        assert rc == 2
        assert (f"error: training data {train_csv}: missing columns ['zz'] "
                f"of structure {structure}\n" == capsys.readouterr().err)

    @pytest.mark.parametrize("bins, constant, message", [
        ("1", False, "error: --bins must be at least 2\n"),
        ("10", True, "error: training data <data>: sensor 'g' is constant in "
                     "training data\n")])
    def test_inputs_are_checked_before_an_output_opens(
            self, tmp_path, train_csv, capsys, bins, constant, message):
        data = Path(train_csv)
        if constant:
            table = sv.Dataset.from_csv(data.read_text())
            table.values[:, table.sensors.index("g")] = 1.0
            data.write_text(table.to_csv())
        out = tmp_path / "net.json"
        out.write_text("kept")
        rc = main(["learn", "--structure", STRUCTURE, "--data", str(data),
                   "--out", str(out), "--bins", bins])
        assert rc == 2
        assert capsys.readouterr().err == message.replace("<data>", str(data))
        assert out.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json",
                                                              "train.csv"]

    def test_one_path_for_both_outputs(self, tmp_path, train_csv, capsys,
                                       monkeypatch):
        monkeypatch.setattr("sensorval.detection.fit_discretizer",
                            lambda *args, **kwargs: pytest.fail("fitted"))
        out = tmp_path / "net.json"
        rc = main(["learn", "--structure", STRUCTURE, "--data", train_csv,
                   "--out", str(out),
                   "--discretizer", str(tmp_path / "." / "net.json")])
        assert rc == 2
        assert "same file" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["learn", "--structure", str(tmp_path / "nope.json"),
                   "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "net.json")])
        assert rc == 2


class TestCompileTree:
    def test_pruned_default(self, tmp_path, capsys):
        out = tmp_path / "tree.json"
        rc = main(["compile-tree", "--network", NET, "--out", str(out)])
        assert rc == 0
        tree = sv.tree_from_json(out.read_text())
        assert tree.node_count() <= 30
        assert tree.depth() == 5
        out_text = capsys.readouterr().out
        assert "pruned" in out_text
        assert "compiled in" in out_text
        assert out.read_text() == (FIXTURES / "reference_pruned.tree.json"
                                   ).read_text()

    def test_full_flag(self, tmp_path, capsys):
        out = tmp_path / "tree.json"
        rc = main(["compile-tree", "--network", NET, "--out", str(out),
                   "--full"])
        assert rc == 0
        tree = sv.tree_from_json(out.read_text())
        assert tree.node_count() == 31
        assert tree.depth() == 5

    def test_single_sensor_net(self, tmp_path):
        variables = [sv.Variable("s", ("0", "1"))]
        net = sv.BayesNet(variables, [],
                          {"s": sv.Cpt("s", (), np.array([[0.5, 0.5]]))})
        path = tmp_path / "one.json"
        path.write_text(sv.save_network(net))
        out = tmp_path / "tree.json"
        assert main(["compile-tree", "--network", str(path),
                     "--out", str(out)]) == 0
        assert sv.tree_from_json(out.read_text()).node_count() == 1


class TestValidate:
    def test_streams_step_lines(self, tmp_path):
        out = tmp_path / "steps.jsonl"
        data = tmp_path / "one_row.csv"
        data.write_text("\n".join(Path(READINGS).read_text().splitlines()[:2])
                        + "\n")
        rc = main(["validate", "--network", NET, "--discretizer", DISC,
                   "--data", str(data), "--criterion", "sigma", "--k", "3",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        records = [json.loads(line) for line in lines]
        assert [r["step"] for r in records] == [1, 2, 3, 4, 5]
        assert records[-1]["quality"] > 0.9

    def test_fault_resolves_in_stream(self, tmp_path, ref):
        row = sv.inject_fault(ref.test.row(10), sv.FaultSpec("g", "severe"),
                              ref.discretizer)
        data = tmp_path / "fault.csv"
        data.write_text(sv.Dataset(ref.test.sensors, np.array(
            [[row[s] for s in ref.test.sensors]])).to_csv())
        out = tmp_path / "steps.jsonl"
        rc = main(["validate", "--network", NET, "--discretizer", DISC,
                   "--data", str(data), "--out", str(out)])
        assert rc == 0
        last = json.loads(out.read_text().splitlines()[-1])
        assert last["pf"]["g"] > 0.99

    def test_empty_body_ok(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("a,g,m,p,t\n")
        out = tmp_path / "steps.jsonl"
        rc = main(["validate", "--network", NET, "--discretizer", DISC,
                   "--data", str(data), "--out", str(out)])
        assert rc == 0
        assert out.read_text() == ""

    def test_missing_sensor_column(self, tmp_path, capsys):
        data = tmp_path / "short.csv"
        data.write_text("a,g,m,p\n0.1,0.1,0.1,0.1\n")
        rc = main(["validate", "--network", NET, "--discretizer", DISC,
                   "--data", str(data)])
        assert rc == 2
        assert (f"error: readings {data}: missing columns ['t'] of network "
                f"{NET}\n" == capsys.readouterr().err)

    def test_consumer_may_stop_reading(self, tmp_path):
        """A consumer that reads the first step and closes the stream leaves
        the producer exiting 0 with nothing on stderr."""
        header, *rows = Path(READINGS).read_text().splitlines()
        data = tmp_path / "rows.csv"
        # 6 x 40 rows stream about 300 kB (five lines of at least 227 bytes
        # per row), far beyond a 64 KiB pipe buffer plus the reader's own
        # buffer, so the producer is still writing when the pipe closes.
        data.write_text("\n".join([header] + rows * 6) + "\n")
        env = dict(os.environ)
        src = str(Path(sv.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "sensorval.cli", "validate",
             "--network", NET, "--discretizer", DISC, "--data", str(data)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        assert proc.returncode == 0, err
        assert err == b""
        record = json.loads(first)
        assert record["step"] == 1
        assert {"step", "sensor", "status", "pf", "quality",
                "elapsed_ms"} <= set(record)
        assert set(record["pf"]) == {"a", "g", "m", "p", "t"}

    def test_tree_traversal(self, tmp_path):
        tree_path = tmp_path / "tree.json"
        assert main(["compile-tree", "--network", NET,
                     "--out", str(tree_path)]) == 0
        data = tmp_path / "one_row.csv"
        data.write_text("\n".join(Path(READINGS).read_text().splitlines()[:2])
                        + "\n")
        out = tmp_path / "steps.jsonl"
        rc = main(["validate", "--network", NET, "--discretizer", DISC,
                   "--tree", str(tree_path), "--data", str(data),
                   "--out", str(out)])
        assert rc == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert first["sensor"] == "t"


def bad_trees(tmp_path):
    """(path, sensor) of a tree naming an unknown sensor and of a tree
    validating one sensor twice on a path."""
    good = json.loads((FIXTURES / "reference_pruned.tree.json").read_text())
    unknown = json.loads(json.dumps(good))
    unknown["ok"]["sensor"] = "zz"
    repeat = json.loads(json.dumps(good))
    repeat["ok"]["ok"]["sensor"] = good["sensor"]
    out = []
    for name, doc, sensor in (("unknown", unknown, "zz"),
                              ("repeat", repeat, good["sensor"])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out.append((str(path), sensor))
    return out


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_bad_tree_is_an_input_error(tmp_path, capsys, command):
    out = tmp_path / "out.txt"
    for path, sensor in bad_trees(tmp_path):
        rc = main([command, "--network", NET, "--discretizer", DISC,
                   "--data", READINGS, "--tree", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"decision tree {path}:" in err and repr(sensor) in err
        assert not out.exists()


def test_null_tree_is_valid(tmp_path, capsys):
    # the empty tree: every cycle ends before its first step
    path = tmp_path / "tree.json"
    path.write_text("null")
    rc = main(["validate", "--network", NET, "--discretizer", DISC,
               "--data", READINGS, "--tree", str(path),
               "--out", str(tmp_path / "out.txt")])
    assert rc == 0 and capsys.readouterr().err == ""


def run_with_document(tmp_path, capsys, argv, document, what):
    """Run the CLI with ``argv`` plus a file holding ``document`` as the
    last option's value. Returns the exit status and standard error, the
    file's path written as <path>, after checking that the error names
    the ``what`` file and that nothing went to standard output."""
    path = tmp_path / "doc.json"
    path.write_text(document)
    rc = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.replace(str(path), "<path>")
    assert f"error: {what} <path>: " in err
    return rc, err


def deep(what):
    """A document nested deeper than the JSON decoder recurses: refused,
    not a RecursionError."""
    return pytest.param(
        "[" * 100_000,
        f"error: {what} <path>: 'document' must be JSON (RecursionError(",
        id="deep-nesting")


@pytest.mark.parametrize("document, part", [
    ("[1, 2]", "not nested"), ('{"sensor": "t"}', "not nested"),
    # not JSON: worded as the other documents are
    ("", "'document' must be JSON (JSONDecodeError("),
    ("{", "'document' must be JSON (JSONDecodeError("),
    ('{"sensor": ["t"], "faulty": null, "ok": null}', "not nested"),
    ('{"sensor": 5, "faulty": null, "ok": null}', "not nested"),
    deep("decision tree")])
def test_malformed_tree_is_an_input_error(tmp_path, capsys, document, part):
    out = tmp_path / "out.txt"
    rc, err = run_with_document(
        tmp_path, capsys, ["validate", "--network", NET, "--discretizer", DISC,
                           "--data", READINGS, "--out", str(out), "--tree"],
        document, "decision tree")
    assert rc == 2 and part in err and "runtime error" not in err
    assert not out.exists()


def reference_net_with(change) -> str:
    """The reference network document after ``change`` edits it in place."""
    doc = json.loads(Path(NET).read_text())
    change(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("document, part", [
    ('{"variables": 5, "edges": [], "cpts": {}}', "'variables'"),
    ('{"variables": [5], "edges": [], "cpts": {}}', "'variables'"),
    ('{"variables": [], "edges": 5, "cpts": {}}', "'edges'"),
    ('{"variables": [], "edges": [], "cpts": []}', "'cpts'"),
    ('{"variables": [], "edges": [], "cpts": {"x": 5}}', "'cpts'"),
    ("null", "document"),
    # names that are not strings
    ('{"variables": [{"name": ["x"], "states": ["0", "1"]}], "edges": [],'
     ' "cpts": {}}', "'variables'"),
    ('{"variables": [{"name": "m", "states": ["0", "1"]},'
     ' {"name": "t", "states": ["0", "1"]}], "edges": [[["m"], "t"]],'
     ' "cpts": {}}', "'edges'"),
    ('{"variables": [{"name": "m", "states": ["0", "1"]},'
     ' {"name": "t", "states": ["0", "1"]}], "edges": [["m", "t"]],'
     ' "cpts": {"m": {"parents": [], "table": [[0.5, 0.5]]},'
     ' "t": {"parents": [["m"]], "table": [[0.5, 0.5], [0.5, 0.5]]}}}',
     "'cpts'"),
    pytest.param(
        reference_net_with(lambda doc: doc["edges"].append(["m", "t"])),
        "edge 'm' -> 't' is listed twice", id="repeated-edge"),
    pytest.param(
        reference_net_with(lambda doc: doc["cpts"].update(zz=doc["cpts"]["m"])),
        "undeclared variable 'zz'", id="stray-cpt"),
    pytest.param(
        reference_net_with(lambda doc: [row.__setitem__(3, float("nan"))
                                        for row in doc["cpts"]["m"]["table"]]),
        "CPT for 'm' has a non-finite entry", id="nan-cpt-entry"),
    pytest.param(
        reference_net_with(lambda doc: doc["variables"].append(
            doc["variables"][0])),
        "duplicate variable names", id="duplicate-variable"),
    pytest.param(
        reference_net_with(lambda doc: doc["edges"].append(["m", "zz"])),
        # printed without KeyError's quotes
        "error: network <path>: unknown variable 'zz'\n",
        id="unknown-edge-end"),
    pytest.param(
        reference_net_with(lambda doc: doc["cpts"]["m"].update(
            table=doc["cpts"]["m"]["table"][0])),
        "CPT for 'm' must be 2-D", id="1-d-cpt"),
    pytest.param(
        reference_net_with(lambda doc: doc["cpts"]["m"]["table"].append(
            doc["cpts"]["m"]["table"][0])),
        "CPT for 'm' has shape (2, 10), expected (1, 10)",
        id="cpt-shape"),
    pytest.param(
        reference_net_with(lambda doc: doc["cpts"]["m"].update(table=[
            list(map(str, row)) for row in doc["cpts"]["m"]["table"]])),
        "'cpts' must be", id="string-cpt-entries"),
    deep("network")])
def test_malformed_network_is_an_input_error(tmp_path, capsys, document, part):
    rc, err = run_with_document(
        tmp_path, capsys, ["validate", "--discretizer", DISC, "--data",
                           READINGS, "--network"], document, "network")
    assert rc == 2 and part in err and "runtime error" not in err


@pytest.mark.parametrize("document, part", [
    ('{"variables": 5, "edges": []}', "'variables'"),
    ('{"variables": ["a"], "edges": [5]}', "'edges'"),
    ("5", "document"),
    ('{"variables": [["a"]], "edges": []}', "'variables'"),
    ('{"variables": ["a", "g"], "edges": [["a", "g"], ["a", "g"]]}',
     "edge 'a' -> 'g' is listed twice"),
    deep("structure")])
def test_malformed_structure_is_an_input_error(tmp_path, capsys, document,
                                               part):
    rc, err = run_with_document(
        tmp_path, capsys, ["learn", "--data", READINGS, "--out",
                           str(tmp_path / "net.json"), "--structure"], document,
        "structure")
    assert rc == 2 and part in err and "runtime error" not in err
    assert not (tmp_path / "net.json").exists()


@pytest.mark.parametrize("document, part", [
    ('{"variables": 5, "edges": [], "cpts": {}}', "'variables' must be"),
    (reference_net_with(lambda doc: doc["cpts"]["m"].update(table=[
        [str(p) for p in row] for row in doc["cpts"]["m"]["table"]])),
     "'cpts' must be")])
def test_compile_tree_names_a_malformed_network(tmp_path, capsys, document,
                                                part):
    out = tmp_path / "tree.json"
    rc, err = run_with_document(
        tmp_path, capsys, ["compile-tree", "--out", str(out), "--network"],
        document, "network")
    assert rc == 2 and part in err
    assert not out.exists()


def test_repeated_csv_column_is_an_input_error(tmp_path, capsys):
    # a second g column must not be validated in place of the first
    lines = Path(READINGS).read_text().splitlines()[:3]
    data = tmp_path / "rows.csv"
    data.write_text("".join(f"{line},{line.split(',')[1]}\n" for line in lines))
    out = tmp_path / "steps.jsonl"
    rc = main(["validate", "--network", NET, "--discretizer", DISC,
               "--data", str(data), "--out", str(out)])
    assert rc == 2
    assert (f"error: readings {data}: column 'g' appears twice"
            in capsys.readouterr().err)
    assert not out.exists()


def test_huge_reading_is_validated(tmp_path, capsys):
    # 1e308 codes to the top interval instead of overflowing
    lines = Path(READINGS).read_text().splitlines()[:3]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[header.index("g")] = "1e308"
    data = tmp_path / "rows.csv"
    data.write_text("".join(",".join(r) + "\n" for r in [header, *rows]))
    out = tmp_path / "steps.jsonl"
    rc = main(["validate", "--network", NET, "--discretizer", DISC,
               "--data", str(data), "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    steps = [json.loads(line) for line in out.read_text().splitlines()]
    assert [s["step"] for s in steps] == [1, 2, 3, 4, 5] * 2
    assert any(s["sensor"] == "g" and s["status"] == "faulty" for s in steps)


@pytest.mark.parametrize("document, part", [
    ("[1, 2]", "document"),
    ('{"bins": [10], "bounds": {}}', "'bins'"),
    ('{"bins": 10, "bounds": []}', "'bounds'"),
    ('{"bins": 10, "bounds": {"a": 5}}', "'bounds'"),
    ('{"bins": 2.7, "bounds": {"a": [0, 1]}}', "'bins'"),
    # a JSON bool is not an interval count, though Python's bool is Integral
    ('{"bins": true, "bounds": {"a": [0, 1]}}',
     "'bins' must be an integer, not True"),
    ('{"bins": 10, "bounds": {"a": [0, Infinity]}}', "sensor 'a'"),
    ('{"bins": 10, "bounds": {"a": [-Infinity, Infinity]}}', "sensor 'a'"),
    ('{"bins": 10, "bounds": {"a": [0, 1e308]}}', "sensor 'a'"),
    ('{"bins": 10, "bounds": {"a": [-1e308, 1e308]}}', "sensor 'a'"),
    ('{"bins": 10, "bounds": {"a": [1, 1]}}',
     "zero-width range for sensor 'a'"),
    # bounds are a JSON array of two numbers, nothing that unpacks to two
    ('{"bins": 10, "bounds": {"a": "05"}}', "'bounds'"),
    ('{"bins": 10, "bounds": {"a": {"0": 7, "2": 8}}}', "'bounds'"),
    ('{"bins": 10, "bounds": {"a": [false, true]}}', "'bounds'"),
    ('{"bins": 10, "bounds": {"a": ["0", "1e1"]}}', "'bounds'"),
    # integers too large for a float
    pytest.param('{"bins": 10, "bounds": {"a": [0, 1%s]}}' % ("0" * 400),
                 "'bounds'", id="huge-integer-bound"),
    pytest.param('{"bins": 1%s, "bounds": {"a": [0, 1]}}' % ("0" * 400),
                 "sensor 'a' has a range [0.0, 1.0] too wide for 1",
                 id="huge-integer-bins"),
    pytest.param(json.dumps({"bins": 10, "bounds": {
        s: b for s, b in json.loads(Path(DISC).read_text())["bounds"].items()
        if s != "t"}}),
        f"error: discretizer <path>: missing sensors ['t'] of network {NET}\n",
        id="missing-sensor"),
    deep("discretizer")])
def test_malformed_discretizer_is_an_input_error(tmp_path, capsys, document,
                                                 part):
    rc, err = run_with_document(
        tmp_path, capsys, ["validate", "--network", NET, "--data", READINGS,
                           "--discretizer"], document, "discretizer")
    assert rc == 2 and part in err and "runtime error" not in err


@pytest.mark.parametrize("command, writes", [
    ("validate", False), ("validate", True), ("simulate", True),
    ("compare", True)])
def test_states_the_discretizer_cannot_code_are_refused_before_any_output(
        tmp_path, capsys, command, writes):
    def relabel(doc):
        p, = (v for v in doc["variables"] if v["name"] == "p")
        p["states"] = [f"s{k}" for k in range(len(p["states"]))]

    network = tmp_path / "net.json"
    network.write_text(reference_net_with(relabel))
    out = tmp_path / "out.txt"
    rc = main([command, "--network", str(network), "--discretizer", DISC,
               "--data", READINGS, *(["--out", str(out)] if writes else [])])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    # the error names both files
    assert captured.err.startswith(
        f"error: discretizer {DISC}: network {network}: variable 'p' has "
        "states")
    assert not out.exists()


@pytest.mark.parametrize("command, what", [
    ("validate", "readings"), ("simulate", "test data"),
    ("compare", "test data")])
def test_a_sensor_the_readings_lack_is_named_with_the_network(
        tmp_path, capsys, command, what):
    """A network and a discretizer that both rename 'g' to 'zz' agree with
    each other, not with the readings: the error names the network too."""
    network, disc = tmp_path / "net.json", tmp_path / "net.disc.json"
    network.write_text(Path(NET).read_text().replace('"g"', '"zz"'))
    disc.write_text(Path(DISC).read_text().replace('"g"', '"zz"'))
    out = tmp_path / "out.txt"
    rc = main([command, "--network", str(network), "--discretizer", str(disc),
               "--data", READINGS, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err == (f"error: {what} {READINGS}: missing columns "
                            f"['zz'] of network {network}\n")


@pytest.mark.parametrize("document, message", [
    ('{"variables": ["a", "g", "m"], "edges": '
     '[["a", "g"], ["g", "m"], ["m", "a"]]}',
     "directed cycle among ['a', 'g', 'm']"),
    ('{"variables": ["a", "g", "a"], "edges": []}',
     "duplicate variable names")])
def test_bad_structure_is_refused_before_any_output(tmp_path, capsys,
                                                    document, message):
    structure = tmp_path / "structure.json"
    structure.write_text(document)
    out = tmp_path / "net.json"
    out.write_text("kept")
    rc = main(["learn", "--structure", str(structure), "--data", READINGS,
               "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert out.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json",
                                                          "structure.json"]


class TestOutputNamesAnInput:
    """No command writes over one of its inputs or its other output: it
    exits 2 before it reads or opens a file, and leaves every file as it
    was. Each command runs on copies of the fixture inputs."""

    FILES = {"network": NET, "discretizer": DISC, "data": READINGS,
             "tree": str(FIXTURES / "reference_pruned.tree.json"),
             "structure": STRUCTURE}

    def refused(self, tmp_path, capsys, argv, inputs, output, target):
        for flag in inputs:
            path = tmp_path / Path(self.FILES[flag]).name
            path.write_bytes(Path(self.FILES[flag]).read_bytes())
            argv += [f"--{flag}", str(path)]
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        target = tmp_path / "." / Path(self.FILES[target]).name
        rc = main([*argv, f"--{output}", str(target)])
        assert rc == 2
        assert "same file" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("output, target", [
        ("out", "structure"), ("out", "data"), ("discretizer", "structure"),
        ("discretizer", "data")])
    def test_learn(self, tmp_path, capsys, output, target):
        # the other output has a path of its own
        argv = ["learn"] if output == "out" else [
            "learn", "--out", str(tmp_path / "net.json")]
        self.refused(tmp_path, capsys, argv, ("structure", "data"), output,
                     target)

    def test_compile_tree(self, tmp_path, capsys):
        self.refused(tmp_path, capsys, ["compile-tree"], ("network",), "out",
                     "network")

    @pytest.mark.parametrize("target", ["network", "discretizer", "data",
                                        "tree"])
    def test_validate(self, tmp_path, capsys, target):
        self.refused(tmp_path, capsys, ["validate"],
                     ("network", "discretizer", "data", "tree"), "out",
                     target)

    @pytest.mark.parametrize("target", ["network", "discretizer", "data",
                                        "tree"])
    def test_simulate(self, tmp_path, capsys, target):
        self.refused(tmp_path, capsys, ["simulate"],
                     ("network", "discretizer", "data", "tree"), "out",
                     target)

    @pytest.mark.parametrize("target", ["network", "discretizer", "data"])
    def test_compare(self, tmp_path, capsys, target):
        self.refused(tmp_path, capsys, ["compare"],
                     ("network", "discretizer", "data"), "out", target)


class TestSimulateAndCompare:
    def test_simulate_report(self, tmp_path):
        data = tmp_path / "rows.csv"
        lines = Path(READINGS).read_text().splitlines()
        data.write_text("\n".join(lines[:3]) + "\n")
        out = tmp_path / "report.csv"
        rc = main(["simulate", "--network", NET, "--discretizer", DISC,
                   "--data", str(data), "--criterion", "sigma", "--k", "3",
                   "--seed", "4", "--out", str(out)])
        assert rc == 0
        text = out.read_text().splitlines()
        assert text[0] == ("criterion,severity,type1_count,type1_rate,"
                           "type2_count,type2_rate")
        assert len(text) == 3

    def test_simulate_prints_throughput(self, tmp_path, capsys):
        data = tmp_path / "rows.csv"
        lines = Path(READINGS).read_text().splitlines()
        data.write_text("\n".join(lines[:3]) + "\n")
        rc = main(["simulate", "--network", NET, "--discretizer", DISC,
                   "--data", str(data), "--seed", "4",
                   "--out", str(tmp_path / "report.csv")])
        assert rc == 0
        last = capsys.readouterr().out.splitlines()[-1]
        # 2 rows x (1 control + 5 sensors x 2 severities)
        assert last.startswith("22 cycles in ") and last.endswith(" cycles/s)")

    def test_simulate_severity_filter(self, tmp_path):
        data = tmp_path / "rows.csv"
        lines = Path(READINGS).read_text().splitlines()
        data.write_text("\n".join(lines[:2]) + "\n")
        out = tmp_path / "report.csv"
        rc = main(["simulate", "--network", NET, "--discretizer", DISC,
                   "--data", str(data), "--severity", "severe",
                   "--seed", "4", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 1 and rows[0].split(",")[1] == "severe"

    def test_simulate_empty_test_set(self, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("a,g,m,p,t\n")
        out = tmp_path / "report.csv"
        rc = main(["simulate", "--network", NET, "--discretizer", DISC,
                   "--data", str(data), "--seed", "4", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[1].endswith("0,0.000000,0,0.000000")

    def test_simulate_deterministic(self, tmp_path):
        data = tmp_path / "rows.csv"
        lines = Path(READINGS).read_text().splitlines()
        data.write_text("\n".join(lines[:3]) + "\n")
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            rc = main(["simulate", "--network", NET, "--discretizer", DISC,
                       "--data", str(data), "--seed", "9", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_compare_profiles(self, tmp_path):
        data = tmp_path / "rows.csv"
        lines = Path(READINGS).read_text().splitlines()
        data.write_text("\n".join(lines[:6]) + "\n")
        out = tmp_path / "profile.csv"
        rc = main(["compare", "--network", NET, "--discretizer", DISC,
                   "--data", str(data), "--experiments", "6", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "step,mean_quality_entropy,mean_quality_random"
        assert len(rows) == 6
        values = [row.split(",") for row in rows[1:]]
        assert [v[0] for v in values] == ["1", "2", "3", "4", "5"]
        assert float(values[0][1]) >= float(values[0][2])

    def test_compare_needs_rows(self, tmp_path, capsys):
        data = tmp_path / "rows.csv"
        data.write_text("a,g,m,p,t\n")
        rc = main(["compare", "--network", NET, "--discretizer", DISC,
                   "--data", str(data), "--experiments", "2",
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert (f"error: test data {data}: no data rows\n"
                == capsys.readouterr().err)


@pytest.mark.parametrize("rows", [0, 2])
def test_simulate_refuses_a_bad_threshold(tmp_path, capsys, rows):
    data = tmp_path / "rows.csv"
    lines = Path(READINGS).read_text().splitlines()
    data.write_text("\n".join(lines[:1 + rows]) + "\n")
    out = tmp_path / "report.csv"
    rc = main(["simulate", "--network", NET, "--discretizer", DISC,
               "--data", str(data), "--declare", "1.5", "--out", str(out)])
    assert rc == 2
    assert ("error: --declare 1.5: declaration threshold must lie in (0, 1)"
            in capsys.readouterr().err)
    assert not out.exists()


def run_refused(tmp_path, capsys, argv, message):
    """``argv`` plus ``--out`` exits 2 with ``message`` and writes nothing."""
    out = tmp_path / "out.txt"
    rc = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and message in err and "runtime error" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "simulate", "compare"])
@pytest.mark.parametrize("option, value, message", [
    ("--k", "inf", "error: --k inf: sigma criterion parameter inf is not "
                   "finite\n"),
    ("--k", "0", "error: --k 0.0: sigma criterion needs k > 0\n"),
    ("--c", "1", "error: --c 1.0, --prior 0.5: link strength must lie in "
                 "(0, 1)\n"),
    ("--prior", "0", "error: --c 0.99, --prior 0.0: prior must lie in "
                     "(0, 1)\n")])
def test_bad_parameter_is_an_input_error(tmp_path, capsys, command, option,
                                         value, message):
    run_refused(tmp_path, capsys,
                [command, "--network", NET, "--discretizer", DISC, "--data",
                 READINGS, "--criterion", "sigma", option, value], message)


@pytest.mark.parametrize("option, value, message", [
    ("--experiments", "0", "--experiments must be at least 1"),
    ("--seed", "-1", "--seed must not be negative")])
def test_bad_compare_option_is_an_input_error(tmp_path, capsys, option,
                                              value, message):
    run_refused(tmp_path, capsys,
                ["compare", "--network", NET, "--discretizer", DISC,
                 "--data", READINGS, option, value], message)


@pytest.mark.parametrize("error", [KeyError, ValueError])
def test_internal_error_is_a_runtime_error(tmp_path, capsys, monkeypatch,
                                           error):
    # a bug inside the library, not bad input: exit 1, not 2
    def broken(_p):
        raise error("internal bug")

    monkeypatch.setattr(anytime, "binary_entropy", broken)
    rc = main(["validate", "--network", NET, "--discretizer", DISC,
               "--data", READINGS, "--out", str(tmp_path / "steps.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"runtime error: {error.__name__}:" in err and "internal bug" in err


@pytest.mark.parametrize("command", ["validate", "simulate", "learn",
                                     "compare"])
@pytest.mark.parametrize("row, message", [
    ("0.1,0.1,0.1", "CSV line 3 has 3 cells, the header 5"),
    ("0.1,x,0.1,0.1,0.1", "CSV line 3, column 'g': 'x' is not a number"),
    ("0.1,nan,0.1,0.1,0.1",
     "CSV line 3, column 'g': 'nan' is not a finite number"),
    ("0.1,0.1,inf,0.1,0.1",
     "CSV line 3, column 'm': 'inf' is not a finite number")])
def test_bad_csv_row_is_an_input_error(tmp_path, capsys, command, row,
                                       message):
    lines = Path(READINGS).read_text().splitlines()[:2]
    data = tmp_path / "rows.csv"
    data.write_text("\n".join(lines + [row]) + "\n")
    out = tmp_path / "out.txt"
    model = (["--structure", STRUCTURE] if command == "learn"
             else ["--network", NET, "--discretizer", DISC])
    rc = main([command, *model, "--data", str(data), "--out", str(out)])
    assert rc == 2
    assert f"{data}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", [
    "network is a directory", "network is not utf-8",
    "compile-tree", "validate", "simulate", "compare", "learn"])
def test_unreadable_input_or_unwritable_output_is_an_input_error(
        tmp_path, capsys, train_csv, case):
    network, out = NET, tmp_path / "out.txt"
    if case == "network is a directory":
        network, command = str(tmp_path), "compile-tree"
    elif case == "network is not utf-8":
        network, command = str(tmp_path / "net.json"), "compile-tree"
        Path(network).write_bytes(b'{"variables": "\xff"}')
    else:
        command, out = case, tmp_path / "missing" / "out.txt"
    if command == "compile-tree":
        argv = ["--network", network]
    elif command == "learn":
        argv = ["--structure", STRUCTURE, "--data", train_csv]
    else:
        argv = ["--network", network, "--discretizer", DISC,
                "--data", READINGS]
    rc = main([command, *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and "runtime error" not in err
    assert (network if out.parent.exists() else str(out)) in err


@pytest.mark.parametrize("command, work", [
    ("learn", "harness.learn_parameters"),
    ("compile-tree", "anytime.compile_decision_tree"),
    ("validate", "anytime.run_anytime_validation"),
    ("simulate", "harness.run_fault_experiments"),
    ("compare", "harness.compare_selection_policies")])
def test_unwritable_output_is_refused_before_the_work(
        tmp_path, capsys, monkeypatch, train_csv, command, work):
    ran = []

    def fail(*args, **kwargs):
        ran.append(command)
        raise RuntimeError("the work ran")

    monkeypatch.setattr(f"sensorval.{work}", fail)
    if command == "learn":
        argv = ["--structure", STRUCTURE, "--data", train_csv]
    elif command == "compile-tree":
        argv = ["--network", NET]
    else:
        argv = ["--network", NET, "--discretizer", DISC, "--data", READINGS]
    out = tmp_path / "missing" / "out.txt"
    rc = main([command, *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and "cannot write" in err and str(out) in err
    assert ran == []


class TestOutputDigests:
    """SHA-256 pins of whole outputs on the fixture readings: a change that
    moves one sensor order, one belief or one report count shows here.
    ``elapsed_ms`` is wall time, so it is dropped from each step line."""

    @staticmethod
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("tree, want", [
        (None, "efc713d698381946293d02af8e281bb3"
               "b6ab565087f1d3bc4d91ca2467d2a5bd"),
        ("reference_pruned.tree.json", "db4a5fb9cfee7c84cdfa3aee5c6d53be"
                                       "de8008284f97e7b3e5ad31200165b0d1")])
    def test_validate_lines(self, tmp_path, tree, want):
        out = tmp_path / "steps.jsonl"
        argv = ["validate", "--network", NET, "--discretizer", DISC,
                "--data", READINGS, "--out", str(out)]
        if tree:
            argv += ["--tree", str(FIXTURES / tree)]
        assert main(argv) == 0
        lines = []
        for line in out.read_text().splitlines():
            record = json.loads(line)
            del record["elapsed_ms"]
            lines.append(json.dumps(record))
        assert len(lines) >= 40 * 4
        assert self.digest("\n".join(lines)) == want

    def test_simulate_report(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["simulate", "--network", NET, "--discretizer", DISC,
                     "--data", READINGS, "--seed", "0",
                     "--out", str(out)]) == 0
        assert self.digest(out.read_text()) == (
            "dec882516cecbec7636b92cc44d5d46fa2ab4ff45e277d5e5f4de8cc329e18d3")

    def test_compare_profile(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["compare", "--network", NET, "--discretizer", DISC,
                     "--data", READINGS, "--criterion", "pvalue",
                     "--seed", "5", "--experiments", "300",
                     "--out", str(out)]) == 0
        assert self.digest(out.read_text()) == (
            "a249775fa003cfca54451311bde2b7876b14faa0a7ff678c49ffc898a8b755cb")

    @pytest.mark.parametrize("structure, seed, want", [
        (sv.reference_structure(), benchmarks.REFERENCE_DATA_SEED,
         "5d7c31fa40e6f816c6701939b18837f5612fea60cd6df7673a03b5da88b1f76a"),
        (sv.random_tree_structure(21, seed=benchmarks.TREE21_STRUCTURE_SEED),
         benchmarks.TREE21_DATA_SEED,
         "7d758a7ca115b0c880d2428528acf96413db2ace2da588fb9c416cc511fd86e2")])
    def test_synthetic_table(self, structure, seed, want):
        # the draw order fixes every synthetic table, learned network and
        # golden tree
        values = sv.generate_synthetic_dataset(
            structure, benchmarks.N_ROWS, benchmarks.NOISE, seed).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == want
