"""Command-line front end: learn, compile-tree, validate, simulate, compare.

Validation steps stream as JSON lines flushed per step, so a consumer can
act on partial results at any moment. All randomness flows from --seed.
Exit codes: 0 success, 2 input error, 1 runtime error. Input is checked
where it enters: a bad file, CSV, option value, structure or decision
tree, an input file that cannot be read as text, or an output path that
cannot be written or names an input or the other output raises InputError
(or DiscretizerError, for network states that are not interval codes);
the error of a bad network, discretizer, structure or tree document names
its file. Any other exception, a KeyError or ValueError included, is a
runtime error. Outputs are opened once the inputs are checked, before the
work, so a bad output path costs no work; one that names an input is
refused before any read.
"""

from __future__ import annotations

import argparse
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


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: "
                         f"{exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} file {path} is not {exc.encoding} text: "
                         f"{exc.reason} at byte {exc.start}") from None


def _load(load, path: str, what: str):
    """``load`` of the text of the ``what`` file at ``path``; a defect in the
    document raises InputError naming the file."""
    document = _read(path, what)
    try:
        return load(document)
    except (model.NetworkError, detection.DiscretizerError) as exc:
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


def _read_data(path: str, what: str, sensors) -> harness.Dataset:
    """The CSV at ``path``, with a column for every one of ``sensors``."""
    text = _read(path, what)
    try:
        data = harness.Dataset.from_csv(text)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    missing = [s for s in sensors if s not in data.sensors]
    if missing:
        raise InputError(f"{what} CSV is missing columns {missing}")
    return data


def _criterion(args) -> detection.DetectionCriterion:
    kind = args.criterion
    parameter = {"sigma": args.k, "pvalue": args.p, "tau": args.tau}[kind]
    try:
        return detection.DetectionCriterion(kind, parameter)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _load_model(args):
    net = _load(model.load_network, args.network, "network")
    disc = _load(detection.discretizer_from_json, args.discretizer,
                 "discretizer")
    missing = [s for s in net.names() if s not in disc.bounds]
    if missing:
        raise InputError(f"discretizer {args.discretizer}: missing sensors "
                         f"{missing}")
    for s in net.names():   # refuses state labels that are not interval codes
        detection.blanket_kernel(net, s, disc.bins)
    return net, disc


def _load_tree(args, iso) -> anytime.DecisionTree | None:
    if not args.tree:
        return None
    document = _read(args.tree, "decision tree")
    try:
        tree = anytime.tree_from_json(document)
        tree.check(iso.sensors)
    except ValueError as exc:            # a malformed document or a bad sensor
        raise InputError(f"decision tree {args.tree}: {exc}") from None
    return tree


def _build_isolation(net, args) -> isolation.IsolationNet:
    try:
        return isolation.build_isolation_network(
            model.emb_table(net), link_strength=args.c, prior=args.prior)
    except ValueError as exc:            # --c or --prior out of range
        raise InputError(str(exc)) from None


def cmd_learn(args) -> int:
    if not args.discretizer:
        args.discretizer = str(Path(args.out).with_suffix(".disc.json"))
    _refuse_overwrite(args, "out", "discretizer")
    structure = _load(model.load_structure, args.structure, "structure")
    data = _read_data(args.data, "training data", structure.sensors)
    if len(data) == 0:
        raise InputError("training CSV has no data rows")
    with _open_out(args.out, "network") as net_out, \
            _open_out(args.discretizer, "discretizer") as disc_out:
        disc = detection.fit_discretizer(data, structure.sensors,
                                         bins=args.bins)
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
    _refuse_overwrite(args, "out")
    net, disc = _load_model(args)
    iso = _build_isolation(net, args)
    tree = _load_tree(args, iso)
    data = _read_data(args.data, "readings", net.names())
    criterion = _criterion(args)
    out = _open_out(args.out, "steps") if args.out else sys.stdout
    try:
        for reading in data.rows():
            for record in anytime.run_anytime_validation(
                    net, disc, iso, tree, reading, criterion):
                out.write(record.to_json() + "\n")
                out.flush()
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_simulate(args) -> int:
    # checked here, not per record, so a CSV without rows is refused too
    if not 0.0 < args.declare < 1.0:
        raise InputError("declaration threshold must lie in (0, 1)")
    _refuse_overwrite(args, "out")
    net, disc = _load_model(args)
    iso = _build_isolation(net, args)
    tree = _load_tree(args, iso)
    data = _read_data(args.data, "test data", net.names())
    criterion = _criterion(args)
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
    _refuse_overwrite(args, "out")
    net, disc = _load_model(args)
    iso = _build_isolation(net, args)
    data = _read_data(args.data, "test data", net.names())
    if len(data) == 0:
        raise InputError("test CSV has no data rows")
    criterion = _criterion(args)
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
    except (InputError, model.NetworkError, detection.DiscretizerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - runtime failures get exit 1
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
