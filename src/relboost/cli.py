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
import gc
import io
import math
import random
import re
import sys
from dataclasses import replace

import numpy as np

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
from .regtree import RoutingCache, TreeConfig, _preroute, parse_finite
from .util import _clamped_exp, atomic_write, ordered_sum


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


TRAIN_KINDS = ("rfgb", "soft-rfgb", "hybrid", "rctbn", "dbn-bic", "dbn-bde", "dbn-mit")

# name -> (type, default, validator, help); a command lists the options it reads
_CONFIG_OPT = {"config": (str, None, None, "key=value option file; flags override it")}
_SEED_OPT = {"seed": (int, 0, None, "RNG seed")}

_RFGB_OPTS = {  # the rfgb inputs and learner options of train and cv
    "schema": (str, None, None, "schema file"),
    "facts": (str, None, None, "facts file"),
    "pos": (str, None, None, "positive examples file"),
    "neg": (str, None, None, "negative examples file"),
    "modes": (str, None, None, "mode declarations file"),
    "target": (str, None, None, "target predicate, as name or name/arity"),
    "iters": (int, 20, lambda v: v >= 1, "boosting iterations"),
    "leaves": (int, 8, lambda v: v >= 2, "max leaves per tree"),
    "alpha": (float, 0.0, None, "soft-margin false-negative cost"),
    "beta": (float, 0.0, None, "soft-margin false-positive cost"),
    "neg-subsample": (float, None, lambda v: v > 0, "negatives kept per positive"),
}

_SCORING_OPTS = {
    "gamma": (float, 0.8, lambda v: 0 <= v <= 1, "weighted AUC skew"),
    "strips": (int, 4, lambda v: v >= 1, "weighted AUC strip count N"),
    "delta": (float, 5.0, lambda v: v > 0, "F-measure delta"),
}

_THRESHOLD_OPT = {"threshold": (float, None, lambda v: 0 <= v <= 1, "classification threshold")}

_TRAIN_OPTS = {
    **_CONFIG_OPT, **_SEED_OPT,
    "kind": (str, None, lambda v: v in TRAIN_KINDS, f"one of {', '.join(TRAIN_KINDS)}"),
    **_RFGB_OPTS,
    "examples": (str, None, None, "valued examples file (hybrid)"),
    "traj": (str, None, None, "trajectory file (rctbn, hybrid aggregation)"),
    "data": (str, None, None, "paired-slice dataset file (dbn)"),
    "from": (str, None, None, "rctbn from state (true/false or class index)"),
    "to": (str, None, None, "rctbn to state"),
    "out": (str, None, None, "output model file"),
    "log": (str, None, None, "training log file (default: <out>.log)"),
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
    **_CONFIG_OPT,
    "model": (str, None, None, "model file"),
    "schema": (str, None, None, "schema file"),
    "facts": (str, None, None, "facts file"),
    "pos": (str, None, None, "positive examples file"),
    "neg": (str, None, None, "negative examples file"),
    "examples": (str, None, None, "valued examples file (hybrid)"),
    "traj": (str, None, None, "trajectory file (rctbn)"),
    "report": (str, None, None, "write the report here as key=value lines"),
    **_THRESHOLD_OPT, **_SCORING_OPTS,
}

_SAMPLE_OPTS = {
    **_CONFIG_OPT, **_SEED_OPT,
    "spec": (str, None, None, "ground-truth spec file"),
    "schema": (str, None, None, "schema file"),
    "horizon": (float, None, lambda v: v > 0, "observation horizon"),
    "out": (str, None, None, "output trajectory file"),
    "out-facts": (str, None, None, "output shared facts file"),
}

_CV_OPTS = {
    **_CONFIG_OPT, **_SEED_OPT,
    "kind": (str, None, lambda v: v in ("rfgb", "soft-rfgb"), "rfgb or soft-rfgb"),
    **_RFGB_OPTS,
    "k": (int, 5, lambda v: v >= 2, "fold count"),
    **_SCORING_OPTS,
    "report": (str, None, None, "write per-fold metrics here"),
}

_METRICS_OPTS = {
    **_CONFIG_OPT,
    "csv": (str, None, None, "score,label CSV file with header"),
    "report": (str, None, None, "write the report here"),
    **_THRESHOLD_OPT, **_SCORING_OPTS,
}


def _build_parser(argv=None) -> _Parser:
    """The parser of every command, or with `argv` one that registers every
    command but gives options only to the one `argv` names: its first
    argument that is not an option, as `relboost` takes no options of its
    own besides --help."""
    built = _COMMANDS if argv is None else {next((a for a in argv if not a.startswith("-")), None)}
    parser = _Parser(prog="relboost", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_handler, opts) in _COMMANDS.items():
        sub = subs.add_parser(command, prog=f"relboost {command}")
        if command not in built:
            continue
        for name, (typ, default, _check, help_text) in opts.items():
            text = help_text if default is None else f"{help_text} (default {default})"
            sub.add_argument(f"--{name}", type=typ, default=None,
                             dest=name.replace("-", "_"), help=text)
    return parser


def _merge_options(command: str, args: argparse.Namespace) -> dict:
    """Precedence: explicit flags, then config file entries, then defaults."""
    opts = _COMMANDS[command][1]
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


def _read_facts(opts: dict, schema: Schema, trajectories: bool = False) -> FactBase:
    """The --facts base, or an empty one without the option.  Beside
    trajectories, a fact on a temporal predicate is an error at its line."""
    if not opts["facts"]:
        return FactBase(schema)
    parse = rctbn.parse_static_facts if trajectories else parse_facts
    return parse(_read(opts["facts"]), schema)


def _load_bundle(opts: dict, trajectories: bool = False):
    schema = parse_schema(_read(opts["schema"]))
    facts = _read_facts(opts, schema, trajectories)
    modes = parse_modes(_read(opts["modes"]), rctbn.projected_schema(schema)) \
        if opts["modes"] else []
    return schema, facts, modes


def _target_sig(schema: Schema, text: str):
    """The signature `--target name` or `--target name/arity` names; the
    arity, when given, must be the schema's, as in a model file header."""
    if text is None:
        raise ConfigError("--target is required here")
    name, slash, arity = text.partition("/")
    if name not in schema:
        raise DataError(f"target predicate {name!r} not in schema")
    target = schema.get(name)
    if slash and arity != str(target.arity):
        raise DataError(f"target {text} does not match the schema's {name}/{target.arity}")
    return target


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


def _emit(text: str, path):
    sys.stdout.write(text)
    if path:
        atomic_write(path, text)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _rfgb_setup(opts: dict) -> tuple:
    """(facts, modes, labelled examples, gradient, BoostConfig) of rfgb train or cv."""
    _require(opts, "kind", "schema", "facts", "modes", "target")
    for name in ("alpha", "beta"):     # the hard gradient has no soft-margin costs
        if opts["kind"] == "rfgb" and opts[name] != 0.0:
            raise ConfigError(f"--{name}={opts[name]} needs --kind soft-rfgb; "
                              "--kind rfgb takes no soft-margin cost")
    schema, facts, modes = _load_bundle(opts)
    examples = _labelled_examples(opts, _target_sig(schema, opts["target"]))
    gradient = boost.Hard() if opts["kind"] == "rfgb" \
        else boost.Soft(opts["alpha"], opts["beta"])
    config = boost.BoostConfig(opts["iters"], TreeConfig(max_leaves=opts["leaves"]),
                               opts["neg-subsample"], opts["seed"])
    return facts, modes, examples, gradient, config


def cmd_train(opts: dict) -> int:
    _require(opts, "kind", "out")
    kind = opts["kind"]
    log_lines = []

    def log(m, objective, prefix=""):
        log_lines.append(f"{prefix}iter={m} objective={objective!r}")

    if kind in ("rfgb", "soft-rfgb"):
        facts, modes, examples, gradient, config = _rfgb_setup(opts)
        text = boost.serialize_model(
            boost.train(examples, facts, modes, config, gradient, on_iteration=log))
    elif kind == "hybrid":
        _require(opts, "schema", "modes", "target")
        schema = parse_schema(_read(opts["schema"]))
        static = _read_facts(opts, schema, bool(opts["traj"]))
        if opts["traj"]:
            trajs = rctbn.parse_trajectories(_read(opts["traj"]), schema)
            facts, examples = hybrid.aggregate_trajectories(
                trajs, schema, _target_sig(schema, opts["target"]).name,
                opts["bool-agg"], opts["num-agg"])
            working = facts.schema.merged_with(static.schema)
            facts = FactBase(working, facts.facts(), base=static)
        else:
            _require(opts, "examples")
            target = _target_sig(schema, opts["target"])
            examples = parse_examples(_read(opts["examples"]), target)
            facts = static
            working = schema
        modes = parse_modes(_read(opts["modes"]), working)
        config = hybrid.HybridConfig(iterations=opts["iters"],
                                     tree=TreeConfig(max_leaves=opts["leaves"]))
        if opts["eta"] is not None:
            config.eta_multinomial = config.eta_poisson = opts["eta"]
            config.eta_mu = config.eta_sigma = opts["eta"]
        text = hybrid.serialize_hybrid(hybrid.train_hybrid(
            examples, facts, modes, config,
            on_iteration=lambda m, ll: log(m, ll, f"target={examples.target.name} ")))
    elif kind == "rctbn":
        _require(opts, "schema", "traj", "modes", "target", "from", "to")
        schema, facts, modes = _load_bundle(opts, trajectories=True)
        target = _target_sig(schema, opts["target"])
        transition = rctbn.Transition(
            target.name,
            rctbn._parse_event_value(target, opts["from"]),
            rctbn._parse_event_value(target, opts["to"]))
        trajs = rctbn.parse_trajectories(_read(opts["traj"]), schema)
        config = rctbn.RctbnConfig(opts["iters"], TreeConfig(max_leaves=opts["leaves"]),
                                   opts["neg-cap"], opts["seed"])
        text = rctbn.serialize_rctbn(rctbn.train_rctbn(
            trajs, facts, schema, transition, modes, config, on_iteration=log))
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


def _rfgb_predictions(model, facts: FactBase, entries: list,
                      cache: RoutingCache) -> metrics.PredictionSet:
    """The model's score and the label of each (atom, label) entry."""
    _preroute(model.trees, [(atom, facts) for atom, _ in entries], cache)
    return metrics.PredictionSet.from_columns(
        [boost.predict(model, atom, facts, cache) for atom, _ in entries],
        [label for _, label in entries])


def cmd_eval(opts: dict) -> int:
    _require(opts, "model", "schema")
    schema = parse_schema(_read(opts["schema"]))
    model_text = _read(opts["model"])
    header = model_text.splitlines()[0] if model_text else ""
    facts = _read_facts(opts, schema, header.startswith("model rctbn "))
    cache = RoutingCache()

    if header.startswith("model rfgb "):
        model = boost.parse_model(model_text, schema)
        examples = _labelled_examples(opts, model.target)
        preds = _rfgb_predictions(model, facts, examples.entries, cache)
        report = _prediction_report(preds, opts)
    elif header.startswith("model hybrid "):
        model = hybrid.parse_hybrid(model_text, schema)
        _require(opts, "examples")
        examples = parse_examples(_read(opts["examples"]), model.target)
        _preroute([tree for trees in [*model.functions.values(), model.sigma_trees]
                   for tree in trees], [(atom, facts) for atom, _ in examples.entries], cache)
        try:
            probs = [model.prob_of_truth(atom, value, facts, cache)
                     for atom, value in examples.entries]
        except OverflowError:   # held-out values so large that residuals pass float range
            raise DataError(f"target {model.target.name}: "
                            "values too large for float arithmetic") from None
        report = {"mse": metrics.mse(probs), "mean_loglik": metrics.mean_loglik(probs),
                  "examples": len(probs)}
    elif header.startswith("model rctbn "):
        model = rctbn.parse_rctbn(model_text, schema)
        _require(opts, "traj")
        trajs = rctbn.parse_trajectories(_read(opts["traj"]), schema)
        segments = rctbn.segment(trajs, facts, schema, model.transition)
        if not segments:
            raise DataError("no segments in the trajectory file")
        _preroute(model.trees, [(s.target, s.context) for s in segments], cache)
        phis = [model.phi(s, cache) for s in segments]
        preds = metrics.PredictionSet.from_columns(
            [rctbn.transition_prob(_clamped_exp(phi), s.residence_time)
             for s, phi in zip(segments, phis)],
            [s.positive for s in segments])
        report = _prediction_report(preds, opts)
        report["mean_loglik"] = ordered_sum(
            rctbn.segment_loglik(s.positive, phi, s.residence_time)
            for s, phi in zip(segments, phis)) / len(segments)
    else:
        raise DataError("unrecognized model file")
    _emit(_report_lines(report), opts["report"])
    return 0


_PLAIN_CHARS_RE = re.compile(r"[-.,0-9\n]*")


def _plain_columns(text: str) -> tuple | None:
    """The (scores, labels) arrays of a predictions CSV in its common form,
    the header ``score,label`` and then ``score,0`` or ``score,1`` rows of
    ASCII digits, '.' and '-', each line ending in a newline; None for any
    other text.

    The body is read in whole-text passes, none of them per line.  When
    every newline follows ",0" or ",1" and there are as many commas as
    lines, each line holds one comma, so the fields alternate score, label
    and each label is the character before its newline.  numpy reads the
    score fields as `float` would, bit for bit, and makes no Python float.
    """
    header = "score,label\n"
    if not (text.startswith(header) and text.endswith("\n")):
        return None
    body = text[len(header):]
    lines = body.count("\n")
    if not (lines and _PLAIN_CHARS_RE.fullmatch(body)
            and body.count(",") == lines == body.count(",0\n") + body.count(",1\n")):
        return None
    try:
        scores = np.array(body.replace("\n", ",").split(",")[0:-1:2], dtype=np.float64)
    except ValueError:      # a score such as "1.2.3" or "-"
        return None
    if not np.isfinite(scores).all():     # hundreds of digits pass float range
        return None
    codes = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    labels = codes[np.flatnonzero(codes == ord("\n")) - 1] - ord("0")
    return scores, labels


def _csv_columns(text: str) -> tuple:
    """The (scores, labels) lists of a predictions CSV in any form that
    `csv.reader` reads; a bad row is an error at its line."""
    reader = csv.reader(io.StringIO(text))
    scores, labels = [], []
    try:    # csv.Error: a row `csv.reader` cannot read, such as a field past its size limit
        if [c.strip() for c in next(reader, [])] != ["score", "label"]:
            raise DataError("predictions CSV needs a score,label header")
        for row in reader:
            score, label = row
            scores.append(parse_finite(score, "score"))
            labels.append(int(label))
            if labels[-1] not in (0, 1):
                raise ValueError("labels must be 0 or 1")
    except (csv.Error, ParseError, ValueError) as exc:
        raise DataError(f"line {reader.line_num}: bad row in predictions CSV: {exc}")
    if not scores:
        raise DataError("empty predictions CSV")
    return scores, labels


def cmd_metrics(opts: dict) -> int:
    """Score a predictions CSV.  A CSV in its common form (`_plain_columns`)
    is read in whole-text passes; any other goes to the `csv.reader` loop,
    which raises every error at its line."""
    _require(opts, "csv")
    text = _read(opts["csv"])
    columns = _plain_columns(text) or _csv_columns(text)
    report = _prediction_report(metrics.PredictionSet.from_columns(*columns), opts)
    _emit(_report_lines(report), opts["report"])
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
    facts, modes, examples, gradient, config = _rfgb_setup(opts)
    k = opts["k"]
    if len(examples.entries) < k:
        raise DataError("fewer examples than folds")
    folds = _stratified_folds(examples, k, opts["seed"])
    lines = []
    fold_reports = []
    cache = RoutingCache()      # a routing depends on the trees' tests, not the fold's model
    for fold_id, holdout in enumerate(folds):
        held = set(holdout)
        train_set = ExampleSet(examples.target, [e for i, e in enumerate(examples.entries)
                                                 if i not in held])
        test_set = [examples.entries[i] for i in holdout]
        model = boost.train(train_set, facts, modes,
                            replace(config, rng_seed=config.rng_seed + fold_id), gradient)
        report = _prediction_report(_rfgb_predictions(model, facts, test_set, cache), opts)
        fold_reports.append(report)
        for key in sorted(report):
            lines.append(f"fold={fold_id} {key}={report[key]!r}")
    for key in sorted(fold_reports[0]):
        mean = ordered_sum(r[key] for r in fold_reports) / len(fold_reports)
        lines.append(f"aggregate {key}={mean!r}")
    _emit("\n".join(lines) + "\n", opts["report"])
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_COMMANDS = {  # command -> (handler, option table)
    "train": (cmd_train, _TRAIN_OPTS),
    "eval": (cmd_eval, _EVAL_OPTS),
    "sample": (cmd_sample, _SAMPLE_OPTS),
    "cv": (cmd_cv, _CV_OPTS),
    "metrics": (cmd_metrics, _METRICS_OPTS),
}


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is paused for the whole command and put
    back as it was on return: a command makes almost no cyclic garbage,
    while each collection would rescan every container it has parsed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _build_parser(argv).parse_args(argv)
        opts = _merge_options(args.command, args)
        return _COMMANDS[args.command][0](opts)
    except ConfigError as exc:
        print(f"relboost: config error: {exc}", file=sys.stderr)
        return 3
    except (DataError, ParseError, ValueError) as exc:
        print(f"relboost: data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"relboost: internal error: {exc}", file=sys.stderr)
        return 4
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
