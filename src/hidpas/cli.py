"""Command-line entry point for all pipelines.

Exit codes: 0 success, 1 data/model errors, 2 usage errors. The HIDPAS_LOG
environment variable (error|warn|info|debug) controls log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .core import PARAMS, DataError, check_params

log = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}
_LEARN = ("max_parents", "smoothing", "tau")  # the settings both learn commands take


def _add_setting(p: argparse.ArgumentParser, flag: str, name: str, **kwargs) -> None:
    """Add flag as the setting PARAMS[name], its default and rule stated in
    its help; a token outside the rule is a usage error naming the flag."""
    param = PARAMS[name]

    def read(token: str):
        try:
            return param.read(token)
        except ValueError as exc:
            kind = "int" if param.parse is int else "float"
            raise argparse.ArgumentTypeError(f"invalid {kind} value: {token!r} ({exc})") from None

    kwargs.setdefault("default", param.default)
    shown = "" if kwargs["default"] is None else f"default {kwargs['default']}; "
    kwargs["help"] = f"{kwargs.get('help', param.doc)} ({shown}{param.rule})"
    if param.choices:
        kwargs["choices"] = param.choices
    else:
        kwargs["type"] = read
    p.add_argument(flag, **kwargs)


def _at_least(low: int):
    """Reader of an integer option whose value below low is a usage error."""
    def read(token: str) -> int:
        try:
            if (value := int(token)) >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r} (expected >= {low})")
    return read


def _build_parser() -> argparse.ArgumentParser:
    from .features import KDD_FEATURES, LABEL_COLUMN
    from .prediction import ATTRIBUTE_FIELDS

    merge_key = {"default": "attack_type", "choices": ATTRIBUTE_FIELDS, "metavar": "FIELD",
                 "help": "alert attribute defining an attack-plan step: one of "
                         f"{', '.join(ATTRIBUTE_FIELDS)} (default attack_type)"}
    parser = argparse.ArgumentParser(
        prog="hidpas",
        description=("Hybrid probabilistic-possibilistic Bayesian networks for "
                     "host intrusion detection and network attack prediction."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn-detector",
                       help="train the connection classifier from labeled data")
    p.add_argument("--data", required=True, help="KDD-format connection CSV")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--class-column", default=LABEL_COLUMN, metavar="COLUMN",
                   choices=[name for name, _ in KDD_FEATURES] + [LABEL_COLUMN],
                   help=f"class column: {LABEL_COLUMN} (default) or a KDD feature name")
    p.add_argument("--label-granularity", choices=("category", "attack"),
                   default="category",
                   help="train on the 5-way category or the specific attack label")
    for name in ("top_k",) + _LEARN:
        _add_setting(p, "--" + name.replace("_", "-"), name)
    p.add_argument("--order", default=None,
                   help="comma-separated column names overriding the search order")
    p.add_argument("--rules", default=None,
                   help="also write the discretization rules to this path")
    p.add_argument("--skip-bad-rows", action="store_true",
                   help="skip malformed input rows instead of aborting")
    p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("detect", help="classify a connection stream and emit alerts")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="connection stream CSV")
    p.add_argument("--host", required=True, help="host id stamped on alerts")
    p.add_argument("--alerts-out", required=True)
    p.add_argument("--skip-bad-rows", action="store_true")

    p = sub.add_parser("transform",
                       help="print the possibility and necessity of a probability vector")
    p.add_argument("probabilities", nargs="*",
                   help="probability values (read from stdin when omitted)")

    p = sub.add_parser("aggregate", help="aggregate an alert log into hyper-alerts")
    p.add_argument("--alerts", required=True)
    p.add_argument("--out", required=True, help="output hyper-alert CSV")
    p.add_argument("--merge-key", **merge_key)

    p = sub.add_parser("learn-plan",
                       help="learn the attack-plan model (and optionally the alert classifier)")
    p.add_argument("--alerts", required=True)
    p.add_argument("--out", required=True, help="output plan model path")
    p.add_argument("--classifier-out", default=None,
                   help="also train and save the alert classifier")
    _add_setting(p, "--slot", "slot")
    _add_setting(p, "--span", "span")
    p.add_argument("--merge-key", **merge_key)
    for name in _LEARN:
        _add_setting(p, "--" + name.replace("_", "-"), name)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(parser=p)  # reports --span against --slot after parsing

    p = sub.add_parser("predict", help="predict unobserved hyper-alerts")
    p.add_argument("--model", required=True, help="plan model path")
    p.add_argument("--observed", required=True,
                   help="comma-separated observed hyper-alerts, each a name, or an id "
                        "where no hyper-alert has that name")
    _add_setting(p, "--select", "selection")
    _add_setting(p, "--threshold", "theta", help="probability floor for --select threshold")

    p = sub.add_parser("simulate", help="run the two-layer agent simulation")
    p.add_argument("--config", required=True, help="key = value simulation config")
    _add_setting(p, "--seed", "seed", default=None,
                 help=f"overrides the config file's seed, which is {PARAMS['seed'].default} "
                      "unless the file sets it")
    p.add_argument("--log", dest="log_path", default=None,
                   help="write the event log as newline-delimited JSON")

    p = sub.add_parser("oracle-check",
                       help="cross-check fast inference paths against brute force")
    p.add_argument("--seed", type=_at_least(0), default=1)
    p.add_argument("--networks", type=_at_least(1), default=200)
    p.add_argument("--transforms", type=_at_least(1), default=1000)

    return parser


def run_command(argv: list[str]) -> int:
    """Dispatch one invocation; returns the process exit code."""
    level = _LOG_LEVELS.get(os.environ.get("HIDPAS_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "span", None) is not None:
            try:
                check_params(span=args.span, slot=args.slot)
            except ValueError as exc:
                args.parser.error(f"argument --span: {exc}")
    except SystemExit as exc:
        return int(exc.code or 0)

    handler = {
        "learn-detector": _cmd_learn_detector,
        "detect": _cmd_detect,
        "transform": _cmd_transform,
        "aggregate": _cmd_aggregate,
        "learn-plan": _cmd_learn_plan,
        "predict": _cmd_predict,
        "simulate": _cmd_simulate,
        "oracle-check": _cmd_oracle_check,
    }[args.command]
    from .possibility import ImpossibleEvidenceError

    try:
        return handler(args)
    except (DataError, ImpossibleEvidenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_learn_detector(args) -> int:
    from .detection import DetectorConfig, train_detector
    from .features import apply_label_granularity, load_kdd, save_rules
    from .model_io import save_detector

    table = load_kdd(args.data, on_bad="skip" if args.skip_bad_rows else "abort")
    if not table.row_count:
        raise DataError(f"{args.data}: no connection rows to learn from")
    table = apply_label_granularity(table, args.label_granularity, args.class_column)
    order = tuple(args.order.split(",")) if args.order else None
    config = DetectorConfig(class_column=args.class_column, top_k=args.top_k, order=order,
                            **{name: getattr(args, name) for name in _LEARN})
    try:
        model = train_detector(table, config)
    except DataError as exc:  # a cell that is no state label, or an --order fault
        raise DataError(f"{args.data}: {exc}") from None
    save_detector(model, args.out, timestamp=not args.no_timestamp)
    if args.rules:
        save_rules(model.rules, args.rules)
    print(f"trained detector over {len(model.features)} features "
          f"+ class; saved to {args.out}")
    return 0


def _cmd_detect(args) -> int:
    from .detection import detect_stream, load_stream, write_alerts_csv
    from .model_io import load_detector

    model = load_detector(args.model)
    records = load_stream(args.data, on_bad="skip" if args.skip_bad_rows else "abort")
    alerts = detect_stream(model, records, args.host)
    write_alerts_csv(alerts, args.alerts_out)
    print(f"{len(records)} records, {len(alerts)} alerts -> {args.alerts_out}")
    return 0


def _cmd_transform(args) -> int:
    from .possibility import necessity, prob_to_poss

    raw = args.probabilities or sys.stdin.read().split()
    if not raw:
        raise DataError("no probability values supplied")
    try:
        pi = prob_to_poss([float(x) for x in raw])
    except ValueError as exc:  # a token that is not a number, or not a distribution
        raise DataError(f"bad probability vector '{' '.join(raw)}': {exc}") from None
    n = necessity(pi)
    print("pi: " + " ".join(f"{x:.12g}" for x in pi))
    print("N:  " + " ".join(f"{x:.12g}" for x in n))
    return 0


def _cmd_aggregate(args) -> int:
    from .prediction import (aggregate_alerts, load_alert_log,
                             phase1_cluster_count, write_hyper_csv)

    alerts = load_alert_log(args.alerts)
    hypers = aggregate_alerts(alerts, merge_key=args.merge_key)
    write_hyper_csv(hypers, args.out)
    print(f"{len(alerts)} alerts -> {phase1_cluster_count(alerts)} clusters "
          f"-> {len(hypers)} hyper-alerts; saved to {args.out}")
    for h in hypers:
        print(f"  {h.id} {h.name} size={h.size}")
    return 0


def _cmd_learn_plan(args) -> int:
    from .model_io import save_classifier, save_plan
    from .prediction import (aggregate_alerts, build_transactions,
                             load_alert_log, train_alert_classifier,
                             train_plan_model)

    alerts = load_alert_log(args.alerts)
    if not alerts:
        raise DataError(f"{args.alerts}: no alerts to learn from")
    hypers = aggregate_alerts(alerts, merge_key=args.merge_key)
    learn = {name: getattr(args, name) for name in _LEARN}
    try:
        tm = build_transactions(hypers, dt=args.slot, span=args.span)
    except (ValueError, MemoryError) as exc:  # more slots than an array can hold
        raise DataError(f"{args.alerts}: cannot slot its time range ({exc})") from None
    plan = train_plan_model(tm, **learn)
    save_plan(plan, args.out, timestamp=not args.no_timestamp)
    print(f"plan model over {len(plan.hyper_names)} hyper-alerts "
          f"({tm.slot_count} slots); saved to {args.out}")
    if args.classifier_out:
        clf = train_alert_classifier(hypers, **learn)
        save_classifier(clf, args.classifier_out, timestamp=not args.no_timestamp)
        print(f"alert classifier saved to {args.classifier_out}")
    return 0


def _cmd_predict(args) -> int:
    from .model_io import load_plan
    from .prediction import predict_attacks

    model = load_plan(args.model)
    observed = [token for token in map(str.strip, args.observed.split(",")) if token]
    report = predict_attacks(model, observed, selection=args.select,
                             theta=args.threshold)
    print(f"observed: {', '.join(report.observed) or '(none)'}")
    print(report.format_table())
    return 0


def _cmd_simulate(args) -> int:
    from dataclasses import replace

    from .agents import load_sim_config, run_simulation

    config = load_sim_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    result = run_simulation(config)
    alerts = sum(1 for m in result.event_log if m.kind == "alert")
    print(f"simulation finished: {alerts} alerts, {len(result.reports)} predictions")
    for msg in result.event_log:
        print(msg.to_json())
    if args.log_path:
        result.write_ndjson(args.log_path)
    return 0


def _cmd_oracle_check(args) -> int:
    from .oracles import run_all

    reports = run_all(seed=args.seed, networks=args.networks, draws=args.transforms)
    failed = False
    for report in reports:
        print(report.line())
        failed = failed or not report.passed
    return 1 if failed else 0


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
