"""Batch command-line frontend.

Commands: ``train``, ``eval``, ``sample``, ``cv``, and ``metrics``
(standalone CSV scoring).  Options can also come from a key=value config
file via ``--config``; explicit flags override file entries, which
override defaults, and unknown keys are rejected.

Exit codes: 0 success, 2 dataset errors, 3 configuration errors,
4 internal errors.  Every command is deterministic given its inputs and
seed, and all file writes are atomic (temp file plus rename).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import random
import sys

from . import boost, dbn, hybrid, metrics, rctbn
from .logic import (
    ExampleSet,
    FactBase,
    ParseError,
    Schema,
    _content_lines,
    parse_examples,
    parse_facts,
    parse_modes,
    parse_schema,
    serialize_facts,
)
from .regtree import RoutingCache, TreeConfig, parse_finite
from .util import atomic_write


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


TRAIN_KINDS = ("rfgb", "soft-rfgb", "hybrid", "rctbn", "dbn-bic", "dbn-bde", "dbn-mit")

# name -> (type, default, validator, help)
_COMMON_OPTS = {
    "config": (str, None, None, "key=value option file; flags override it"),
    "seed": (int, 0, None, "RNG seed"),
}

_TRAIN_OPTS = {
    **_COMMON_OPTS,
    "kind": (str, None, lambda v: v in TRAIN_KINDS, f"one of {', '.join(TRAIN_KINDS)}"),
    "schema": (str, None, None, "schema file"),
    "facts": (str, None, None, "facts file"),
    "pos": (str, None, None, "positive examples file"),
    "neg": (str, None, None, "negative examples file"),
    "examples": (str, None, None, "valued examples file (hybrid)"),
    "modes": (str, None, None, "mode declarations file"),
    "traj": (str, None, None, "trajectory file (rctbn, hybrid aggregation)"),
    "data": (str, None, None, "paired-slice dataset file (dbn)"),
    "target": (str, None, None, "target predicate name"),
    "from": (str, None, None, "rctbn from state (true/false or class index)"),
    "to": (str, None, None, "rctbn to state"),
    "out": (str, None, None, "output model file"),
    "log": (str, None, None, "training log file (default: <out>.log)"),
    "iters": (int, 20, lambda v: v >= 1, "boosting iterations"),
    "leaves": (int, 8, lambda v: v >= 2, "max leaves per tree"),
    "alpha": (float, 0.0, None, "soft-margin false-negative cost"),
    "beta": (float, 0.0, None, "soft-margin false-positive cost"),
    "neg-subsample": (float, None, lambda v: v > 0, "negatives kept per positive"),
    "neg-cap": (int, None, lambda v: v >= 1, "rctbn negatives kept per trajectory"),
    "eta": (float, None, lambda v: v > 0, "hybrid step size override"),
    "bool-agg": (str, "indicator", lambda v: v in hybrid.BOOL_AGGREGATORS,
                 "boolean aggregator for --traj hybrid data"),
    "num-agg": (str, "mean", lambda v: v in hybrid.NUM_AGGREGATORS,
                "numeric aggregator for --traj hybrid data"),
    "max-parents": (int, 3, lambda v: v >= 1, "dbn parent cap"),
    "ess": (float, 1.0, lambda v: v > 0, "BDe equivalent sample size"),
    "mit-alpha": (float, 0.95, lambda v: 0 < v < 1, "MIT confidence level"),
}

_EVAL_OPTS = {
    **_COMMON_OPTS,
    "model": (str, None, None, "model file"),
    "schema": (str, None, None, "schema file"),
    "facts": (str, None, None, "facts file"),
    "pos": (str, None, None, "positive examples file"),
    "neg": (str, None, None, "negative examples file"),
    "examples": (str, None, None, "valued examples file (hybrid)"),
    "traj": (str, None, None, "trajectory file (rctbn)"),
    "report": (str, None, None, "write the report here as key=value lines"),
    "threshold": (float, None, lambda v: 0 <= v <= 1, "classification threshold"),
    "gamma": (float, 0.8, lambda v: 0 <= v <= 1, "weighted AUC skew"),
    "strips": (int, 4, lambda v: v >= 1, "weighted AUC strip count N"),
    "delta": (float, 5.0, lambda v: v > 0, "F-measure delta"),
}

_SAMPLE_OPTS = {
    **_COMMON_OPTS,
    "spec": (str, None, None, "ground-truth spec file"),
    "schema": (str, None, None, "schema file"),
    "horizon": (float, None, lambda v: v > 0, "observation horizon"),
    "out": (str, None, None, "output trajectory file"),
    "out-facts": (str, None, None, "output shared facts file"),
}

_CV_OPTS = {
    **_TRAIN_OPTS,
    "k": (int, 5, lambda v: v >= 2, "fold count"),
    "gamma": (float, 0.8, lambda v: 0 <= v <= 1, "weighted AUC skew"),
    "strips": (int, 4, lambda v: v >= 1, "weighted AUC strip count N"),
    "delta": (float, 5.0, lambda v: v > 0, "F-measure delta"),
    "report": (str, None, None, "write per-fold metrics here"),
}

_METRICS_OPTS = {
    **_COMMON_OPTS,
    "csv": (str, None, None, "score,label CSV file with header"),
    "report": (str, None, None, "write the report here"),
    "threshold": (float, None, lambda v: 0 <= v <= 1, "classification threshold"),
    "gamma": (float, 0.8, lambda v: 0 <= v <= 1, "weighted AUC skew"),
    "strips": (int, 4, lambda v: v >= 1, "weighted AUC strip count N"),
    "delta": (float, 5.0, lambda v: v > 0, "F-measure delta"),
}

_COMMANDS = {
    "train": _TRAIN_OPTS,
    "eval": _EVAL_OPTS,
    "sample": _SAMPLE_OPTS,
    "cv": _CV_OPTS,
    "metrics": _METRICS_OPTS,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="relboost", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, opts in _COMMANDS.items():
        sub = subs.add_parser(command, prog=f"relboost {command}")
        for name, (typ, default, _check, help_text) in opts.items():
            text = help_text if default is None else f"{help_text} (default {default})"
            sub.add_argument(f"--{name}", type=typ, default=None,
                             dest=name.replace("-", "_"), help=text)
    return parser


def _merge_options(command: str, args: argparse.Namespace) -> dict:
    """Precedence: explicit flags, then config file entries, then defaults."""
    opts = _COMMANDS[command]
    merged = {}
    file_values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        for lineno, line in _content_lines(_read(config_path)):
            if "=" not in line:
                raise ConfigError(f"{config_path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in opts:
                raise ConfigError(f"{config_path}:{lineno}: unknown key {key!r}")
            file_values[key] = value.strip()
    for name, (typ, default, check, _help) in opts.items():
        value = getattr(args, name.replace("-", "_"))
        if value is None and name in file_values:
            try:
                value = typ(file_values[name])
            except ValueError:
                raise ConfigError(f"bad value for {name!r} in config file")
        if value is None:
            value = default
        if typ is float and value is not None and not math.isfinite(value):
            raise ConfigError(f"--{name}={value} is not a finite number")
        if value is not None and check is not None and not check(value):
            raise ConfigError(f"--{name}={value} out of range")
        merged[name] = value
    return merged


def _read(path: str) -> str:
    if path is None:
        raise ConfigError("a required file option is missing")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}")


def _require(opts: dict, *names: str):
    for name in names:
        if opts[name] is None:
            raise ConfigError(f"--{name} is required here")


def _load_bundle(opts: dict):
    schema = parse_schema(_read(opts["schema"]))
    facts = parse_facts(_read(opts["facts"]), schema) if opts["facts"] else None
    modes = parse_modes(_read(opts["modes"]), rctbn.projected_schema(schema)) \
        if opts.get("modes") else []
    return schema, facts, modes


def _target_sig(schema: Schema, name: str):
    if name is None:
        raise ConfigError("--target is required here")
    if "/" in name:
        name = name.split("/")[0]
    if name not in schema:
        raise DataError(f"target predicate {name!r} not in schema")
    return schema.get(name)


def _labelled_examples(opts: dict, target) -> ExampleSet:
    _require(opts, "pos", "neg")
    pos = parse_examples(_read(opts["pos"]), target, label=1)
    try:    # name the negatives file: a duplicate there may repeat a positive
        neg = parse_examples(_read(opts["neg"]), target, label=0, earlier=pos)
    except ParseError as exc:
        raise DataError(f"{opts['neg']}: {exc}") from None
    return pos.merged_with(neg)


def _report_lines(report: dict) -> str:
    return "".join(f"{k}={report[k]!r}\n" if isinstance(report[k], float)
                   else f"{k}={report[k]}\n" for k in sorted(report))


def _emit_report(report: dict, path):
    text = _report_lines(report)
    sys.stdout.write(text)
    if path:
        atomic_write(path, text)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _tree_config(opts: dict) -> TreeConfig:
    return TreeConfig(max_leaves=opts["leaves"])


def cmd_train(opts: dict) -> int:
    _require(opts, "kind", "out")
    kind = opts["kind"]
    log_lines = []

    if kind in ("rfgb", "soft-rfgb"):
        _require(opts, "schema", "facts", "modes", "target")
        schema, facts, modes = _load_bundle(opts)
        target = _target_sig(schema, opts["target"])
        examples = _labelled_examples(opts, target)
        gradient = boost.Hard() if kind == "rfgb" else boost.Soft(opts["alpha"], opts["beta"])
        config = boost.BoostConfig(opts["iters"], _tree_config(opts),
                                   opts["neg-subsample"], opts["seed"])
        model = boost.train(examples, facts, modes, config, gradient,
                            on_iteration=lambda m, obj: log_lines.append(
                                f"iter={m} objective={obj!r}"))
        text = boost.serialize_model(model)
    elif kind == "hybrid":
        _require(opts, "schema", "modes", "target")
        schema = parse_schema(_read(opts["schema"]))
        static = parse_facts(_read(opts["facts"]), schema) if opts["facts"] else None
        if opts["traj"]:
            trajs = rctbn.parse_trajectories(_read(opts["traj"]), schema)
            facts, examples = hybrid.aggregate_trajectories(
                trajs, schema, opts["target"].split("/")[0],
                opts["bool-agg"], opts["num-agg"])
            working = facts.schema if static is None else facts.schema.merged_with(static.schema)
            facts = FactBase(working, facts.facts() + (static.facts() if static else []))
        else:
            _require(opts, "examples")
            target = _target_sig(schema, opts["target"])
            examples = parse_examples(_read(opts["examples"]), target)
            facts = static
            working = schema
        modes = parse_modes(_read(opts["modes"]), working)
        config = hybrid.HybridConfig(iterations=opts["iters"], tree=_tree_config(opts))
        if opts["eta"] is not None:
            config.eta_multinomial = config.eta_poisson = opts["eta"]
            config.eta_mu = config.eta_sigma = opts["eta"]
        models = hybrid.train_hybrid(
            {examples.target.name: examples}, facts, modes, config,
            on_iteration=lambda name, m, ll: log_lines.append(
                f"target={name} iter={m} objective={ll!r}"))
        text = hybrid.serialize_hybrid(models[examples.target.name])
    elif kind == "rctbn":
        _require(opts, "schema", "traj", "modes", "target", "from", "to")
        schema, facts, modes = _load_bundle(opts)
        target = _target_sig(schema, opts["target"])
        transition = rctbn.Transition(
            target.name,
            rctbn._parse_event_value(target, opts["from"]),
            rctbn._parse_event_value(target, opts["to"]))
        trajs = rctbn.parse_trajectories(_read(opts["traj"]), schema)
        config = rctbn.RctbnConfig(opts["iters"], _tree_config(opts),
                                   opts["neg-cap"], opts["seed"])
        models = rctbn.train_rctbn(
            trajs, facts, schema, [transition], modes, config,
            on_iteration=lambda tr, m, ll: log_lines.append(
                f"iter={m} objective={ll!r}"))
        text = rctbn.serialize_rctbn(models[transition])
    else:  # dbn-*
        _require(opts, "data")
        data = dbn.parse_dataset(_read(opts["data"]))
        score = {"dbn-bic": dbn.BIC(),
                 "dbn-bde": dbn.BDe(opts["ess"]),
                 "dbn-mit": dbn.MIT(opts["mit-alpha"])}[kind]
        net = dbn.hill_climb(data, score, opts["max-parents"],
                             on_step=lambda s, move, sc: log_lines.append(
                                 f"step={s} move={'-'.join(str(p) for p in move)} score={sc!r}"))
        text = dbn.serialize_network(net)

    atomic_write(opts["out"], text)
    atomic_write(opts["log"] or opts["out"] + ".log", "\n".join(log_lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# eval and metrics
# ---------------------------------------------------------------------------


def _prediction_report(preds: metrics.PredictionSet, opts: dict) -> dict:
    report = metrics.confusion_report(preds, opts.get("threshold"),
                                      metrics.FDeltaConfig(opts["delta"]))
    report["auc_roc"] = metrics.auc_roc(preds)
    report["weighted_auc_roc"] = metrics.weighted_auc_roc(
        preds, metrics.WeightConfig(opts["strips"], opts["gamma"]))
    report["positives"] = preds.positives
    report["negatives"] = preds.negatives
    return report


def cmd_eval(opts: dict) -> int:
    _require(opts, "model", "schema")
    schema = parse_schema(_read(opts["schema"]))
    model_text = _read(opts["model"])
    header = model_text.splitlines()[0] if model_text else ""
    facts = parse_facts(_read(opts["facts"]), schema) if opts["facts"] else None
    cache = RoutingCache()

    if header.startswith("model rfgb "):
        model = boost.parse_model(model_text, schema)
        examples = _labelled_examples(opts, model.target)
        pairs = [(boost.predict(model, atom, facts, cache), label)
                 for atom, label in examples.entries]
        report = _prediction_report(metrics.PredictionSet(pairs), opts)
    elif header.startswith("model hybrid "):
        model = hybrid.parse_hybrid(model_text, schema)
        _require(opts, "examples")
        examples = parse_examples(_read(opts["examples"]), model.target)
        probs = [model.prob_of_truth(atom, value, facts, cache)
                 for atom, value in examples.entries]
        report = {"mse": metrics.mse(probs), "mean_loglik": metrics.mean_loglik(probs),
                  "examples": len(probs)}
    elif header.startswith("model rctbn "):
        model = rctbn.parse_rctbn(model_text, schema)
        _require(opts, "traj")
        trajs = rctbn.parse_trajectories(_read(opts["traj"]), schema)
        segments = rctbn.segment(trajs, facts, schema, model.transition)
        if not segments:
            raise DataError("no segments in the trajectory file")
        pairs = [(model.transition_probability(s, cache), 1 if s.positive else 0)
                 for s in segments]
        report = _prediction_report(metrics.PredictionSet(pairs), opts)
        report["mean_loglik"] = sum(
            rctbn.segment_loglik(s.positive, model.phi(s, cache), s.residence_time)
            for s in segments) / len(segments)
    else:
        raise DataError("unrecognized model file")
    _emit_report(report, opts["report"])
    return 0


def cmd_metrics(opts: dict) -> int:
    _require(opts, "csv")
    reader = csv.reader(io.StringIO(_read(opts["csv"])))
    if [c.strip() for c in next(reader, [])] != ["score", "label"]:
        raise DataError("predictions CSV needs a score,label header")
    pairs = []
    for row in reader:
        try:
            score, label = row
            pairs.append((parse_finite(score, "score"), int(label)))
        except (ParseError, ValueError) as exc:
            raise DataError(f"line {reader.line_num}: bad row in predictions CSV: {exc}")
    if not pairs:
        raise DataError("empty predictions CSV")
    report = _prediction_report(metrics.PredictionSet(pairs), opts)
    _emit_report(report, opts["report"])
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def cmd_sample(opts: dict) -> int:
    _require(opts, "spec", "schema", "horizon", "out")
    schema = parse_schema(_read(opts["schema"]))
    spec, worlds = rctbn.parse_groundtruth(_read(opts["spec"]), schema)
    trajs = rctbn.forward_sample(spec, worlds, schema, opts["horizon"], opts["seed"])
    atomic_write(opts["out"], rctbn.serialize_trajectories(trajs))
    if opts["out-facts"]:
        atomic_write(opts["out-facts"],
                     serialize_facts(rctbn.worlds_facts(worlds, schema)))
    return 0


# ---------------------------------------------------------------------------
# cross validation
# ---------------------------------------------------------------------------


def _stratified_folds(examples: ExampleSet, k: int, seed: int) -> list:
    """Seeded round-robin dealing per class keeps the ratio within one."""
    rng = random.Random(seed)
    folds = [[] for _ in range(k)]
    for label in (1, 0):
        idx = [i for i, (_, l) in enumerate(examples.entries) if l == label]
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            folds[pos % k].append(i)
    return [sorted(f) for f in folds]


def cmd_cv(opts: dict) -> int:
    if opts["kind"] not in ("rfgb", "soft-rfgb"):
        raise ConfigError("cv supports the rfgb and soft-rfgb kinds")
    _require(opts, "schema", "facts", "modes", "target")
    schema, facts, modes = _load_bundle(opts)
    target = _target_sig(schema, opts["target"])
    examples = _labelled_examples(opts, target)
    k = opts["k"]
    if len(examples.entries) < k:
        raise DataError("fewer examples than folds")
    folds = _stratified_folds(examples, k, opts["seed"])
    gradient = boost.Hard() if opts["kind"] == "rfgb" \
        else boost.Soft(opts["alpha"], opts["beta"])
    lines = []
    fold_reports = []
    cache = RoutingCache()      # a routing depends on the trees' tests, not the fold's model
    for fold_id, holdout in enumerate(folds):
        held = set(holdout)
        train_set = ExampleSet(target, [e for i, e in enumerate(examples.entries)
                                        if i not in held])
        test_set = [examples.entries[i] for i in holdout]
        config = boost.BoostConfig(opts["iters"], _tree_config(opts),
                                   opts["neg-subsample"], opts["seed"] + fold_id)
        model = boost.train(train_set, facts, modes, config, gradient)
        pairs = [(boost.predict(model, atom, facts, cache), label) for atom, label in test_set]
        report = _prediction_report(metrics.PredictionSet(pairs), opts)
        fold_reports.append(report)
        for key in sorted(report):
            lines.append(f"fold={fold_id} {key}={report[key]!r}")
    for key in sorted(fold_reports[0]):
        mean = sum(r[key] for r in fold_reports) / len(fold_reports)
        lines.append(f"aggregate {key}={mean!r}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if opts["report"]:
        atomic_write(opts["report"], text)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_HANDLERS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "sample": cmd_sample,
    "cv": cmd_cv,
    "metrics": cmd_metrics,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        opts = _merge_options(args.command, args)
        return _HANDLERS[args.command](opts)
    except ConfigError as exc:
        print(f"relboost: config error: {exc}", file=sys.stderr)
        return 3
    except (DataError, ParseError, ValueError) as exc:
        print(f"relboost: data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover
        print(f"relboost: internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
