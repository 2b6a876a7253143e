import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sensorval as sv
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
        assert "no data rows" in capsys.readouterr().err

    def test_unknown_column(self, tmp_path, train_csv, capsys):
        structure = tmp_path / "structure.json"
        structure.write_text(sv.save_structure(
            sv.NetworkStructure("bad", ("m", "zz"), ())))
        rc = main(["learn", "--structure", str(structure), "--data", train_csv,
                   "--out", str(tmp_path / "net.json")])
        assert rc == 2
        assert "zz" in capsys.readouterr().err

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
        assert "t" in capsys.readouterr().err

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


@pytest.mark.parametrize("document", [
    "[1, 2]", '{"sensor": "t"}', "{", "null",
    '{"sensor": ["t"], "faulty": null, "ok": null}',
    '{"sensor": 5, "faulty": null, "ok": null}',
    '{"sensor": "t", "faulty": ' * 3000 + "null" + ', "ok": null}' * 3000])
def test_malformed_tree_is_an_input_error(tmp_path, capsys, document):
    path = tmp_path / "tree.json"
    path.write_text(document)
    rc = main(["validate", "--network", NET, "--discretizer", DISC,
               "--data", READINGS, "--tree", str(path),
               "--out", str(tmp_path / "out.txt")])
    err = capsys.readouterr().err
    if document == "null":
        # the empty tree is valid: every cycle ends before its first step
        assert rc == 0 and err == ""
    else:
        assert rc == 2
        assert f"decision tree {path}" in err


def run_with_document(tmp_path, capsys, argv, document):
    """Run the CLI with ``argv`` plus a file holding ``document`` as the
    last option's value; returns the exit status and standard error."""
    path = tmp_path / "doc.json"
    path.write_text(document)
    rc = main([*argv, str(path)])
    return rc, capsys.readouterr().err


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
        "undeclared variable 'zz'", id="stray-cpt")])
def test_malformed_network_is_an_input_error(tmp_path, capsys, document, part):
    rc, err = run_with_document(
        tmp_path, capsys, ["validate", "--discretizer", DISC, "--data",
                           READINGS, "--network"], document)
    assert rc == 2 and part in err and "runtime error" not in err


@pytest.mark.parametrize("document, part", [
    ('{"variables": 5, "edges": []}', "'variables'"),
    ('{"variables": ["a"], "edges": [5]}', "'edges'"),
    ("5", "document"),
    ('{"variables": [["a"]], "edges": []}', "'variables'"),
    ('{"variables": ["a", "g"], "edges": [["a", "g"], ["a", "g"]]}',
     "edge 'a' -> 'g' is listed twice")])
def test_malformed_structure_is_an_input_error(tmp_path, capsys, document,
                                               part):
    rc, err = run_with_document(
        tmp_path, capsys, ["learn", "--data", READINGS, "--out",
                           str(tmp_path / "net.json"), "--structure"], document)
    assert rc == 2 and part in err and "runtime error" not in err
    assert not (tmp_path / "net.json").exists()


def test_repeated_csv_column_is_an_input_error(tmp_path, capsys):
    # a second g column must not be validated in place of the first
    lines = Path(READINGS).read_text().splitlines()[:3]
    data = tmp_path / "rows.csv"
    data.write_text("".join(f"{line},{line.split(',')[1]}\n" for line in lines))
    out = tmp_path / "steps.jsonl"
    rc = main(["validate", "--network", NET, "--discretizer", DISC,
               "--data", str(data), "--out", str(out)])
    assert rc == 2
    assert "column 'g' appears twice" in capsys.readouterr().err
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
    ('{"bins": 10, "bounds": {"a": [0, Infinity]}}', "sensor 'a'"),
    ('{"bins": 10, "bounds": {"a": [-Infinity, Infinity]}}', "sensor 'a'")])
def test_malformed_discretizer_is_an_input_error(tmp_path, capsys, document,
                                                 part):
    rc, err = run_with_document(
        tmp_path, capsys, ["validate", "--network", NET, "--data", READINGS,
                           "--discretizer"], document)
    assert rc == 2 and part in err and "runtime error" not in err


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
