"""Exponential-family gradient boosting for multinomial, Poisson, and
Gaussian relational targets, with optional continuous parents.

A target has K class scores if multinomial (softmax link), one log-rate
score if Poisson, and a mean score plus a directly modeled deviation sigma
if Gaussian.  A :class:`HybridModel`'s score is psi_0 + sum_j x_j psi_j
over its continuous parents x_1..x_P, each psi_j a boosted function of the
discrete context; a plain hybrid model has no parents.

One loop trains every model.  Each iteration fits the columns j = 0..P in order
(x_0 = 1): the K class functions of a column share one set of residuals,
computed from the scores after the columns before it, and fit the residual
times x_j.  A Gaussian's sigma function is fitted last, against the
updated means.  sigma is read as max(SIGMA_FLOOR, sigma0 + the sum of its
leaves) in fitting and prediction alike, so a model predicts exactly the
values it was fitted at.  The step size eta multiplies leaf contributions.

The distribution is the target's schema value kind and nothing else:
``multiclass(K)`` is multinomial over K classes, ``count`` is Poisson and
``continuous`` is Gaussian; boolean targets belong to the rfgb learner.  A
model file's header repeats it as ``kind=multinomial:K``, ``kind=poisson``
or ``kind=gaussian``, and a header whose token is not the one the schema
implies is a ParseError at line 1.  The file names class k's psi_0
``class=k``, ``rate`` or ``mu``, appends ``*<parent>`` for psi_j, and
lists the parents as ``parents=`` in the header only when there are some.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

from .logic import Atom, ExampleSet, FactBase, ParseError, PredicateSignature, Schema
from .regtree import (
    RoutingCache,
    TreeConfig,
    boost_step,
    evaluate,
    parse_header,
    read_trees,
    write_model,
)
from .util import _clamped_exp, ordered_sum

SIGMA_FLOOR = 1e-3


# ---------------------------------------------------------------------------
# gradient and likelihood formulas
# ---------------------------------------------------------------------------


def multinomial_prob(psis: list) -> list:
    """Softmax of the class scores; shift invariant, sums to one."""
    m = max(psis)
    exps = [math.exp(p - m) for p in psis]
    z = ordered_sum(exps)
    return [e / z for e in exps]


def multinomial_gradient(true_class: int, probs: list) -> list:
    """Component j is I(j = true_class) - p_j; components sum to zero."""
    if not 0 <= true_class < len(probs):
        raise ValueError("true_class out of range")
    return [(1.0 if j == true_class else 0.0) - p for j, p in enumerate(probs)]


def multinomial_ll(true_class: int, psis: list) -> float:
    m = max(psis)
    return psis[true_class] - m - math.log(ordered_sum(math.exp(p - m) for p in psis))


def poisson_gradient(y: int, psi: float) -> float:
    """y - e^psi, the log-likelihood gradient in the log-rate."""
    if y < 0:
        raise ValueError("counts are non-negative")
    return y - _clamped_exp(psi)


def poisson_ll(y: int, psi: float) -> float:
    """y psi - e^psi - ln y!"""
    if y < 0:
        raise ValueError("counts are non-negative")
    return y * psi - _clamped_exp(psi) - math.lgamma(y + 1)


def gaussian_gradients(y: float, mu: float, sigma: float) -> tuple:
    """(d/dmu, d/dsigma) of the Gaussian log-density at y."""
    if sigma < SIGMA_FLOOR:
        raise ValueError(f"sigma below floor {SIGMA_FLOOR}")
    r = y - mu
    return r / sigma ** 2, r * r / sigma ** 3 - 1.0 / sigma


def gaussian_ll(y: float, mu: float, sigma: float) -> float:
    if sigma < SIGMA_FLOOR:
        raise ValueError(f"sigma below floor {SIGMA_FLOOR}")
    return -0.5 * math.log(2.0 * math.pi) - math.log(sigma) \
        - (y - mu) ** 2 / (2.0 * sigma ** 2)


def mixed_gaussian_mean(intercept: float, coeffs: list, x_values: list) -> float:
    """psi0 + sum_j x_j psi_j."""
    if len(coeffs) != len(x_values):
        raise ValueError("coefficient list does not align with x_values")
    return intercept + ordered_sum(map(operator.mul, x_values, coeffs))


# ---------------------------------------------------------------------------
# hybrid and mixed-parent models
# ---------------------------------------------------------------------------


@dataclass
class HybridConfig:
    iterations: int = 20
    tree: TreeConfig = field(default_factory=TreeConfig)
    eta_multinomial: float = 1.0
    eta_poisson: float = 0.5
    eta_mu: float = 1.0
    eta_sigma: float = 0.5
    sigma0: float = 1.0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.sigma0 < SIGMA_FLOOR:
            raise ValueError("sigma0 below floor")


def _numeric_kind(target: PredicateSignature) -> str:
    """The target's value kind: "multiclass", "count" or "continuous"."""
    if target.kind == "boolean":
        raise ValueError(f"{target.name} is boolean; use the rfgb learner")
    return target.kind


def _eta(config: HybridConfig, kind: str) -> float:
    """The step size of the first function fitted for a value kind."""
    return {"multiclass": config.eta_multinomial, "count": config.eta_poisson,
            "continuous": config.eta_mu}[kind]


@dataclass
class HybridModel:
    """Per-function tree lists for one target predicate.

    ``functions[(k, j)]`` is class k's psi_j (one class k = 0 for Poisson
    and Gaussian targets), ``sigma_trees`` a Gaussian's sigma function.  A
    parent's fact payload at the target atom's arguments is its x_j.  Leaf
    contributions are already scaled by the step size at training time.
    """

    target: PredicateSignature
    # always target.kind; kept as the second field because callers build
    # models by position, e.g. a copy with every tree removed
    kind: str
    functions: dict
    eta: float
    sigma0: float = 1.0
    sigma_trees: list = field(default_factory=list)
    parents: tuple = ()

    def __post_init__(self):
        if self.kind != _numeric_kind(self.target):
            raise ValueError(f"model kind {self.kind!r} is not {self.target.name}'s "
                             f"value kind {self.target.kind!r}")
        # each class's coefficient keys, the intercept first
        n_classes = self.target.classes if self.kind == "multiclass" else 1
        self._keys = [[(k, j) for j in range(len(self.parents) + 1)] for k in range(n_classes)]

    def predict(self, atom: Atom, db: FactBase, cache: Optional[RoutingCache] = None):
        """Class probabilities, rate, or (mu, sigma) depending on the kind."""
        if self.parents:
            xs = _parent_values(self.parents, atom, db)
            coeffs = [[evaluate(self.functions[key], atom, db, cache) for key in keys]
                      for keys in self._keys]
            scores = [mixed_gaussian_mean(c[0], c[1:], xs) for c in coeffs]
        else:   # a score is its intercept function
            scores = [evaluate(self.functions[keys[0]], atom, db, cache) for keys in self._keys]
        if self.kind == "multiclass":
            return multinomial_prob(scores)
        if self.kind == "count":
            return _clamped_exp(scores[0])
        return scores[0], max(SIGMA_FLOOR,
                              self.sigma0 + evaluate(self.sigma_trees, atom, db, cache))

    def prob_of_truth(self, atom: Atom, value, db: FactBase,
                      cache: Optional[RoutingCache] = None) -> float:
        """Probability (density for Gaussian) of the observed value."""
        out = self.predict(atom, db, cache)
        if self.kind == "multiclass":
            return out[value]
        if self.kind == "count":
            return math.exp(value * math.log(out) - out - math.lgamma(value + 1))
        return math.exp(gaussian_ll(value, *out))


# perfbench/layertrace.py wraps ``MixedParentModel.predict`` through the
# class's own __dict__; the alias goes with that tracer (ROADMAP item 1)
MixedParentModel = HybridModel


def _check_parents(parents: list, target: PredicateSignature, schema: Schema) -> tuple:
    """The parents of a model of `target`: distinct count or continuous
    schema predicates of the target's arity, other than the target.  A
    parent's value is a factor of the linear score, so a boolean or class
    parent, which has no number at the atoms where it is false, is refused."""
    for i, name in enumerate(parents):
        problem = ("is empty" if not name else "is the target" if name == target.name
                   else "is not in the schema" if name not in schema
                   else f"does not have arity {target.arity}"
                   if schema.get(name).arity != target.arity
                   else f"is {schema.get(name).kind}, not count or continuous"
                   if schema.get(name).kind not in ("count", "continuous")
                   else "appears twice" if name in parents[:i] else None)
        if problem:
            raise ValueError(f"parent {name!r} {problem}")
    return tuple(parents)


def _parent_values(parents: tuple, atom: Atom, db: FactBase) -> list:
    """x_1..x_P at `atom`: each parent's fact payload at its arguments."""
    xs = [db.lookup(p, atom.args) for p in parents]
    if None in xs:
        raise ValueError(f"no {parents[xs.index(None)]} fact for {atom}")
    return [float(x) for x in xs]


def _function_names(target: PredicateSignature, parents: tuple) -> dict:
    """The model-file name of each coefficient key ``(k, j)``, class by
    class and the intercept first."""
    bases = ([f"class={k}" for k in range(target.classes)] if target.kind == "multiclass"
             else ["rate" if target.kind == "count" else "mu"])
    return {(k, j): base + suffix for k, base in enumerate(bases)
            for j, suffix in enumerate(["", *(f"*{p}" for p in parents)])}


def _loglik(kind: str, values: list, scores: list, sigmas: Optional[list]) -> float:
    if kind == "multiclass":
        return ordered_sum(multinomial_ll(y, row) for y, row in zip(values, zip(*scores)))
    if kind == "count":
        return ordered_sum(poisson_ll(y, psi) for y, psi in zip(values, scores[0]))
    return ordered_sum(gaussian_ll(y, mu, sigma)
                       for y, mu, sigma in zip(values, scores[0], sigmas))


def _boost(examples: ExampleSet, db: FactBase, modes: list, parents: tuple,
           config: HybridConfig, on_iteration=None) -> HybridModel:
    """The model of `examples`' target over `parents`, boosted in the order
    the module docstring gives.  The loop's state is columns: each
    function's leaf sums and each class's score at every row."""
    target = examples.target
    kind = _numeric_kind(target)
    if not examples.entries:
        raise ValueError(f"no examples for target {target.name}")
    atoms = [a for a, _ in examples.entries]
    values = [v for _, v in examples.entries]
    x_cols = [[1.0] * len(atoms), *zip(*(_parent_values(parents, a, db) for a in atoms))]
    trees = {key: [] for key in _function_names(target, parents)}
    sums = {key: [0.0] * len(atoms) for key in trees}
    sigma_trees, sigma_sums = [], [0.0] * len(atoms)
    n_classes = len(trees) // len(x_cols)
    cache = RoutingCache()      # the target's functions route the same rows
    slots = cache.register([(a, db) for a in atoms])

    def score(k) -> list:
        # mixed_gaussian_mean's order: the parent terms from 0.0, then the intercept
        total = [0.0] * len(atoms)
        for j in range(1, len(x_cols)):
            total = [t + x * c for t, x, c in zip(total, x_cols[j], sums[(k, j)])]
        return [b + t for b, t in zip(sums[(k, 0)], total)]

    def sigmas() -> list:
        return [max(SIGMA_FLOOR, config.sigma0 + s) for s in sigma_sums]

    def residuals(scores) -> list:
        if kind == "multiclass":
            return list(zip(*(multinomial_gradient(y, multinomial_prob(row))
                              for y, row in zip(values, zip(*scores)))))
        if kind == "count":
            return [[poisson_gradient(y, psi) for y, psi in zip(values, scores[0])]]
        return [[gaussian_gradients(y, mu, s)[0] for y, mu, s in zip(values, scores[0], sigma)]]

    def step(fitted, gradients, column, eta):
        fitted.append(boost_step(slots, list(enumerate(gradients)), modes, config.tree,
                                 column, cache, eta))

    scores, eta = [score(k) for k in range(n_classes)], _eta(config, kind)
    sigma = sigmas() if kind == "continuous" else None    # rebuilt after each sigma step
    try:
        for m in range(config.iterations):
            for j, xs in enumerate(x_cols):
                for k, res in enumerate(residuals(scores)):
                    step(trees[(k, j)], [r * x for r, x in zip(res, xs)], sums[(k, j)], eta)
                scores = [score(k) for k in range(n_classes)]
            if kind == "continuous":
                step(sigma_trees, [gaussian_gradients(y, mu, s)[1] for y, mu, s
                                   in zip(values, scores[0], sigma)],
                     sigma_sums, config.eta_sigma)
                sigma = sigmas()
            if on_iteration is not None:
                on_iteration(m + 1, _loglik(kind, values, scores, sigma))
    except OverflowError:   # targets so large that squared residuals pass float range
        raise ValueError(f"target {target.name}: values too large for float arithmetic") from None
    return HybridModel(target, kind, trees, eta, config.sigma0, sigma_trees, parents)


def train_hybrid(examples: ExampleSet, db: FactBase, modes: list,
                 config: Optional[HybridConfig] = None,
                 on_iteration: Optional[Callable[[int, float], None]] = None) -> HybridModel:
    """Boost a HybridModel with no parents for the target of `examples`,
    dispatched on the target's declared value kind."""
    return _boost(examples, db, modes, (), config or HybridConfig(), on_iteration)


def train_mixed(examples: ExampleSet, db: FactBase, modes: list, parents: list,
                config: Optional[HybridConfig] = None) -> HybridModel:
    """Boost a HybridModel over the continuous `parents`: one coefficient
    tree per class, parent and iteration, each fitted to the distribution
    residual times x_j."""
    parents = _check_parents(list(parents), examples.target, db.schema)
    return _boost(examples, db, modes, parents, config or HybridConfig())


# ---------------------------------------------------------------------------
# trajectory aggregation
# ---------------------------------------------------------------------------

BOOL_AGGREGATORS = ("indicator", "count")
NUM_AGGREGATORS = ("min", "max", "mean", "latest")


def _aggregator(sig: PredicateSignature, bool_agg: str, num_agg: str):
    """The derived signature of one temporal predicate, and the aggregate
    that maps a stream's values up to the cutoff to the derived payload
    (None for no fact: an indicator with no true value)."""
    arity = sig.arity - 1
    if sig.kind == "boolean":
        if bool_agg == "indicator":
            return (PredicateSignature(f"{sig.name}_ind", arity, "boolean"),
                    lambda v: True if True in v else None)
        return PredicateSignature(f"{sig.name}_cnt", arity, "count"), lambda v: v.count(True)
    if sig.kind == "continuous":
        agg = {"min": min, "max": max, "mean": lambda v: ordered_sum(v) / len(v),
               "latest": lambda v: v[-1]}[num_agg]
        return (PredicateSignature(f"{sig.name}_{num_agg}", arity, "continuous"),
                lambda v: float(agg(v)))
    return (PredicateSignature(f"{sig.name}_latest", arity, sig.kind, sig.classes),
            lambda v: v[-1])


def aggregate_trajectories(trajectories: list, schema: Schema, target: str,
                           bool_agg: str = "indicator", num_agg: str = "mean"):
    """Flatten trajectories into static facts plus a count-valued target.

    The target value is the number of times the entity's target stream
    turns true; every other stream, other entities' target streams too, is
    aggregated over the stretch before the first target occurrence (the
    whole trajectory when there is none).  Each temporal predicate has one
    :func:`_aggregator` entry: boolean streams aggregate with
    indicator/count, continuous ones with min/max/mean/latest, and
    discrete-valued ones keep their latest value.  Every stream starts at
    t=0, so no window is empty.

    Returns (FactBase, ExampleSet) over the derived schema.
    """
    if bool_agg not in BOOL_AGGREGATORS:
        raise ValueError(f"bool_agg must be one of {BOOL_AGGREGATORS}")
    if num_agg not in NUM_AGGREGATORS:
        raise ValueError(f"num_agg must be one of {NUM_AGGREGATORS}")
    if target not in schema:
        raise ValueError(f"unknown target predicate {target!r}")
    target_sig = schema.get(target)
    if not target_sig.temporal or target_sig.kind != "boolean":
        raise ValueError("the aggregation target must be a boolean temporal predicate")

    out_target = PredicateSignature(f"{target}_count", target_sig.arity - 1, "count")
    table = {sig.name: _aggregator(sig, bool_agg, num_agg) for sig in schema if sig.temporal}
    derived = Schema([out_target] + [out_sig for out_sig, _ in table.values()])
    facts, entries = [], []
    for traj in trajectories:
        streams: dict = {}
        for ev in traj.events:
            streams.setdefault(ev.stream(), []).append(ev)
        target_key = (target, (traj.entity,))
        hits = [e.time for e in streams.get(target_key, []) if e.value is True]
        cutoff = hits[0] if hits else traj.horizon
        entries.append((Atom(out_target, target_key[1]), len(hits)))
        for key, events in streams.items():
            if key == target_key:
                continue
            out_sig, aggregate = table[key[0]]
            value = aggregate([e.value for e in events if e.time <= cutoff])
            if value is not None:
                facts.append(Atom(out_sig, key[1], value))
    return FactBase(derived, facts), ExampleSet(out_target, entries)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def _header_kind(target: PredicateSignature) -> str:
    """The ``kind=`` token that the target's value kind implies."""
    if target.kind == "multiclass":
        return f"multinomial:{target.classes}"
    return "poisson" if target.kind == "count" else "gaussian"


def serialize_hybrid(model: HybridModel) -> str:
    functions = {name: model.functions[key]
                 for key, name in _function_names(model.target, model.parents).items()}
    if model.kind == "continuous":
        functions["sigma"] = model.sigma_trees
    return write_model(f"model hybrid target={model.target.name}/{model.target.arity} "
                       f"kind={_header_kind(model.target)} eta={model.eta!r}"
                       + (f" sigma0={model.sigma0!r}" if model.kind == "continuous" else "")
                       + (f" parents={','.join(model.parents)}" if model.parents else ""),
                       {name: functions[name] for name in sorted(functions)})


def parse_hybrid(text: str, schema: Schema) -> HybridModel:
    fields, target = parse_header(text, "hybrid", schema, ("kind", "eta"), ("eta", "sigma0"),
                                  ("sigma0", "parents"))
    token = fields["kind"]
    if target.kind == "boolean":
        raise ParseError(f"kind={token} on boolean target {target.name}; "
                         "use the rfgb learner", 1)
    expected = _header_kind(target)
    if token != expected:
        raise ParseError(f"kind={token} does not match the schema: {target.name} is "
                         f"{target.kind}, which needs kind={expected}", 1)
    sigma0 = fields.get("sigma0", 1.0)
    if sigma0 < SIGMA_FLOOR:
        raise ParseError(f"sigma0 below floor {SIGMA_FLOOR}", 1)
    try:
        parents = _check_parents(fields["parents"].split(","), target, schema) \
            if "parents" in fields else ()
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None
    names = _function_names(target, parents)
    needed = [*names.values(), *(["sigma"] if target.kind == "continuous" else [])]
    trees = read_trees(text, schema, target, keyed=True)
    if sorted(trees) != sorted(needed):
        raise ParseError(f"{token} models need the functions {needed}")
    return HybridModel(target, target.kind, {key: trees[name] for key, name in names.items()},
                       fields["eta"], sigma0, trees.get("sigma", []), parents)
