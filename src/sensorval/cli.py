"""Command-line front end: learn, compile-tree, validate, simulate, compare.

Validation steps stream as JSON lines flushed per step, so a consumer can
act on partial results at any moment. All randomness flows from --seed.
Exit codes: 0 success, 2 input error, 1 runtime error. ``_load`` reads,
parses and checks every input file: an unreadable file, a malformed
document or CSV, a discretizer that cannot code the network (the error
names both files) or a tree that does not fit it raises an InputError
that starts with the file; a bad option value, one that starts with the
option. Any other exception, a KeyError or ValueError included, is a
runtime error. An output path that names an input is refused before any
read; every input is checked (``learn`` fits its discretizer) before an
output opens, and outputs open before the work, so a bad one costs none.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from pathlib import Path

from . import anytime, detection, harness, isolation, model

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _load(parse, path: str, what: str):
    """``parse`` of the text of the ``what`` file at ``path``; an unreadable
    file, or a NetworkError or ValueError from ``parse``, is an InputError."""
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: "
                         f"{exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} file {path} is not {exc.encoding} text: "
                         f"{exc.reason} at byte {exc.start}") from None
    try:
        return parse(text)
    except (model.NetworkError, ValueError) as exc:
        raise InputError(f"{what} {path}: {exc}") from None


def _open_out(path: str, what: str):
    """``path`` opened for writing, or InputError naming it."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise InputError(f"cannot write {what} to {path}: "
                         f"{exc.strerror or exc}") from None


def _refuse_overwrite(args, *outputs: str) -> None:
    """InputError when one of the ``outputs`` (``args`` attributes) resolves
    to the path of an input or of an earlier output."""
    inputs = [flag for flag in ("structure", "network", "discretizer", "data",
                                "tree") if flag not in outputs]
    taken = {}
    for flag in (*inputs, *outputs):
        path = getattr(args, flag, None)
        other = taken.setdefault(Path(path).resolve(), flag) if path else flag
        if flag in outputs and other != flag:
            raise InputError(f"--{other} and --{flag} name the same file: "
                             f"{path}")


def _readings(text: str, sensors, rows: bool = False) -> harness.Dataset:
    """The CSV in ``text``, with a column for every one of ``sensors`` and,
    when ``rows``, at least one data row."""
    data = harness.Dataset.from_csv(text)
    missing = [s for s in sensors if s not in data.sensors]
    if missing:
        raise ValueError(f"missing columns {missing}")
    if rows and len(data) == 0:
        raise ValueError("no data rows")
    return data


def _build_isolation(net, args) -> isolation.IsolationNet:
    try:
        return isolation.build_isolation_network(
            model.emb_table(net), link_strength=args.c, prior=args.prior)
    except ValueError as exc:            # --c or --prior out of range
        raise InputError(f"--c {args.c}, --prior {args.prior}: "
                         f"{exc}") from None


def _load_inputs(args, what: str, rows: bool = False):
    """The network, discretizer, isolation network, decision tree (None
    without ``--tree``), ``what`` CSV (with data rows when ``rows``) and
    criterion of ``validate``, ``simulate`` or ``compare``, each checked."""
    _refuse_overwrite(args, "out")
    net = _load(model.load_network, args.network, "network")

    def parse_discretizer(text):
        disc = detection.discretizer_from_json(text)
        missing = [s for s in net.names() if s not in disc.bounds]
        if missing:
            raise ValueError(
                f"missing sensors {missing} of network {args.network}")
        try:   # refuses state labels that are not interval codes
            for s in net.names():
                detection.blanket_kernel(net, s, disc.bins)
        except detection.DiscretizerError as exc:
            raise ValueError(f"network {args.network}: {exc}") from None
        return disc

    def parse_tree(text):
        tree = anytime.tree_from_json(text)
        tree.check(iso.sensors)         # a sensor unknown or met twice
        return tree

    disc = _load(parse_discretizer, args.discretizer, "discretizer")
    iso = _build_isolation(net, args)
    tree = (_load(parse_tree, args.tree, "decision tree")
            if getattr(args, "tree", None) else None)
    data = _load(lambda text: _readings(text, net.names(), rows), args.data,
                 what)
    flag = {"sigma": "k", "pvalue": "p", "tau": "tau"}[args.criterion]
    value = getattr(args, flag)
    try:
        criterion = detection.DetectionCriterion(args.criterion, value)
    except ValueError as exc:
        raise InputError(f"--{flag} {value}: {exc}") from None
    return net, disc, iso, tree, data, criterion


def cmd_learn(args) -> int:
    if not args.discretizer:
        args.discretizer = str(Path(args.out).with_suffix(".disc.json"))
    if args.bins < 2:
        raise InputError("--bins must be at least 2")
    _refuse_overwrite(args, "out", "discretizer")
    structure = _load(model.load_structure, args.structure, "structure")

    def fit(text):
        data = _readings(text, structure.sensors, rows=True)
        return data, detection.fit_discretizer(data, structure.sensors,
                                               bins=args.bins)

    data, disc = _load(fit, args.data, "training data")
    with _open_out(args.out, "network") as net_out, \
            _open_out(args.discretizer, "discretizer") as disc_out:
        net = harness.learn_parameters(structure, disc, data)
        net_out.write(model.save_network(net))
        disc_out.write(detection.discretizer_to_json(disc))
    print(f"learned {len(net.variables)} variables from {len(data)} rows "
          f"-> {args.out}, discretizer -> {args.discretizer}")
    return EXIT_OK


def cmd_compile_tree(args) -> int:
    _refuse_overwrite(args, "out")
    net = _load(model.load_network, args.network, "network")
    emb = model.emb_table(net)
    iso = _build_isolation(net, args)
    with _open_out(args.out, "decision tree") as out:
        start = time.perf_counter()
        tree = anytime.compile_decision_tree(iso,
                                             emb=None if args.full else emb)
        seconds = time.perf_counter() - start
        out.write(anytime.tree_to_json(tree))
    print(f"{'full' if args.full else 'pruned'} tree: "
          f"{tree.node_count()} nodes, depth {tree.depth()}, "
          f"compiled in {seconds:.3f} s -> {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    net, disc, iso, tree, data, criterion = _load_inputs(args, "readings")
    with (_open_out(args.out, "steps") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        for reading in data.rows():
            for record in anytime.run_anytime_validation(
                    net, disc, iso, tree, reading, criterion):
                out.write(record.to_json() + "\n")
                out.flush()
    return EXIT_OK


def cmd_simulate(args) -> int:
    # checked here, not per record, so a CSV without rows is refused too
    if not 0.0 < args.declare < 1.0:
        raise InputError(f"--declare {args.declare}: declaration threshold "
                         "must lie in (0, 1)")
    net, disc, iso, tree, data, criterion = _load_inputs(args, "test data")
    severities = (args.severity,) if args.severity else (harness.SEVERE,
                                                         harness.MILD)
    records = []
    with _open_out(args.out, "report") as out:
        if len(data) == 0:
            report = harness.ErrorReport(tuple(
                (harness.criterion_label(criterion), sev, 0, 0, 0.0, 0, 0, 0.0)
                for sev in severities))
        else:
            start = time.perf_counter()
            records = harness.run_fault_experiments(
                net, disc, iso, tree, data, [criterion],
                declare_threshold=args.declare, seed=args.seed,
                severities=severities)
            seconds = time.perf_counter() - start
            report = harness.evaluate_errors(records)
            report = harness.ErrorReport(tuple(
                e for e in report.entries if e[1] in severities))
        out.write(report.to_csv())
    for (label, severity, t1c, _t1n, t1r, t2c, _t2n, t2r) in report.entries:
        print(f"{label} {severity}: type I {t1c} ({t1r:.1%}), "
              f"type II {t2c} ({t2r:.1%})")
    print(f"report -> {args.out}")
    if records:
        print(f"{len(records)} cycles in {seconds:.2f} s "
              f"({len(records) / seconds:.1f} cycles/s)")
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.experiments < 1:
        raise InputError("--experiments must be at least 1")
    if args.seed < 0:
        raise InputError("--seed must not be negative")
    net, disc, iso, _, data, criterion = _load_inputs(args, "test data",
                                                      rows=True)
    with _open_out(args.out, "profile") as out:
        entropy_q, random_q = harness.compare_selection_policies(
            net, disc, iso, data, args.experiments, args.seed,
            criterion=criterion)
        out.write(harness.policy_comparison_csv(entropy_q, random_q))
    mid = len(entropy_q) // 2
    print(f"{args.experiments} experiments: midpoint quality "
          f"entropy {entropy_q[mid]:.3f} vs random {random_q[mid]:.3f} "
          f"-> {args.out}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, *flags: str):
    if "network" in flags:
        parser.add_argument("--network", required=True, help="network JSON file")
    if "discretizer" in flags:
        parser.add_argument("--discretizer", required=True,
                            help="discretizer JSON file")
    if "data" in flags:
        parser.add_argument("--data", required=True, help="CSV data file")
    if "tree" in flags:
        parser.add_argument("--tree", help="compiled decision-tree JSON file")
    if "criterion" in flags:
        parser.add_argument("--criterion", choices=["sigma", "pvalue", "tau"],
                            default="sigma")
        parser.add_argument("--k", type=float, default=3.0,
                            help="sigma criterion multiplier")
        parser.add_argument("--p", type=float, default=0.01,
                            help="p-value criterion level")
        parser.add_argument("--tau", type=float, default=0.1,
                            help="tau criterion level")
    if "isolation" in flags:
        parser.add_argument("--c", type=float, default=0.99,
                            help="noisy-OR link strength")
        parser.add_argument("--prior", type=float, default=0.5,
                            help="root fault prior")
    if "seed" in flags:
        parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorval",
        description="Anytime probabilistic sensor validation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="fit discretizer and CPTs from data")
    p.add_argument("--structure", required=True, help="structure JSON file")
    _add_common(p, "data")
    p.add_argument("--out", required=True, help="output network JSON path")
    p.add_argument("--discretizer", help="output discretizer path "
                                         "(default: <out>.disc.json)")
    p.add_argument("--bins", type=int, default=detection.DEFAULT_BINS)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("compile-tree", help="precompile the validation order")
    _add_common(p, "network", "isolation")
    p.add_argument("--out", required=True, help="output tree JSON path")
    p.add_argument("--full", action="store_true",
                   help="compile the unpruned tree")
    p.set_defaults(func=cmd_compile_tree)

    p = sub.add_parser("validate", help="stream anytime validation steps")
    _add_common(p, "network", "discretizer", "data", "tree",
                "criterion", "isolation")
    p.add_argument("--out", help="JSON-lines output path (default: stdout)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="fault-injection error report")
    _add_common(p, "network", "discretizer", "data", "tree",
                "criterion", "isolation", "seed")
    p.add_argument("--declare", type=float, default=harness.DEFAULT_DECLARE,
                   help="fault declaration threshold")
    p.add_argument("--severity", choices=[harness.SEVERE, harness.MILD])
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="entropy vs random selection profiles")
    _add_common(p, "network", "discretizer", "data",
                "criterion", "isolation", "seed")
    p.add_argument("--experiments", type=int, default=260)
    p.add_argument("--out", required=True, help="profile CSV path")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the downstream consumer stopped reading mid-stream; that is the
        # anytime contract working, not a failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - runtime failures get exit 1
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
