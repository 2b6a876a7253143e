"""Command-line front end: learn, compile-tree, validate, simulate, compare.

Validation steps stream as JSON lines flushed per step, so a consumer can
act on partial results at any moment. All randomness flows from --seed.
Exit codes: 0 success, 2 input error, 1 runtime error.
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
    p = Path(path)
    if not p.exists():
        raise InputError(f"{what} file not found: {path}")
    return p.read_text()


def _criterion(args) -> detection.DetectionCriterion:
    kind = args.criterion
    parameter = {"sigma": args.k, "pvalue": args.p, "tau": args.tau}[kind]
    return detection.DetectionCriterion(kind, parameter)


def _load_model(args):
    net = model.load_network(_read(args.network, "network"))
    disc = detection.discretizer_from_json(_read(args.discretizer, "discretizer"))
    missing = [s for s in net.names() if s not in disc.bounds]
    if missing:
        raise InputError(f"discretizer is missing sensors {missing}")
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
    return isolation.build_isolation_network(
        model.emb_table(net), link_strength=args.c, prior=args.prior)


def cmd_learn(args) -> int:
    structure = model.load_structure(_read(args.structure, "structure"))
    data = harness.Dataset.from_csv(_read(args.data, "training data"))
    if len(data) == 0:
        raise InputError("training CSV has no data rows")
    missing = [s for s in structure.sensors if s not in data.sensors]
    if missing:
        raise InputError(f"training data is missing columns {missing}")
    disc = detection.fit_discretizer(data, structure.sensors, bins=args.bins)
    net = harness.learn_parameters(structure, disc, data)
    Path(args.out).write_text(model.save_network(net))
    disc_path = args.discretizer or str(Path(args.out).with_suffix(".disc.json"))
    Path(disc_path).write_text(detection.discretizer_to_json(disc))
    print(f"learned {len(net.variables)} variables from {len(data)} rows "
          f"-> {args.out}, discretizer -> {disc_path}")
    return EXIT_OK


def cmd_compile_tree(args) -> int:
    net = model.load_network(_read(args.network, "network"))
    emb = model.emb_table(net)
    iso = isolation.build_isolation_network(emb, link_strength=args.c,
                                            prior=args.prior)
    start = time.perf_counter()
    tree = anytime.compile_decision_tree(iso, emb=None if args.full else emb)
    seconds = time.perf_counter() - start
    Path(args.out).write_text(anytime.tree_to_json(tree))
    print(f"{'full' if args.full else 'pruned'} tree: "
          f"{tree.node_count()} nodes, depth {tree.depth()}, "
          f"compiled in {seconds:.3f} s -> {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    net, disc = _load_model(args)
    iso = _build_isolation(net, args)
    tree = _load_tree(args, iso)
    data = harness.Dataset.from_csv(_read(args.data, "readings"))
    missing = [s for s in net.names() if s not in data.sensors]
    if missing:
        raise InputError(f"readings are missing sensor columns {missing}")
    criterion = _criterion(args)
    out = open(args.out, "w") if args.out else sys.stdout
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
    net, disc = _load_model(args)
    iso = _build_isolation(net, args)
    tree = _load_tree(args, iso)
    data = harness.Dataset.from_csv(_read(args.data, "test data"))
    criterion = _criterion(args)
    severities = (args.severity,) if args.severity else (harness.SEVERE,
                                                         harness.MILD)
    records = []
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
    Path(args.out).write_text(report.to_csv())
    for (label, severity, t1c, _t1n, t1r, t2c, _t2n, t2r) in report.entries:
        print(f"{label} {severity}: type I {t1c} ({t1r:.1%}), "
              f"type II {t2c} ({t2r:.1%})")
    print(f"report -> {args.out}")
    if records:
        print(f"{len(records)} cycles in {seconds:.2f} s "
              f"({len(records) / seconds:.1f} cycles/s)")
    return EXIT_OK


def cmd_compare(args) -> int:
    net, disc = _load_model(args)
    iso = _build_isolation(net, args)
    data = harness.Dataset.from_csv(_read(args.data, "test data"))
    if len(data) == 0:
        raise InputError("test CSV has no data rows")
    entropy_q, random_q = harness.compare_selection_policies(
        net, disc, iso, data, args.experiments, args.seed,
        criterion=_criterion(args))
    Path(args.out).write_text(harness.policy_comparison_csv(entropy_q, random_q))
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
    except (InputError, model.NetworkError, detection.DiscretizerError,
            KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - runtime failures get exit 1
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
