"""Exponential-family gradient boosting for multinomial, Poisson, and
Gaussian relational targets, with optional continuous parents.

A target has K class scores if multinomial (softmax link), one log-rate
score if Poisson, and a mean score plus a directly modeled deviation sigma
if Gaussian.  A score is psi_0 + sum_j x_j psi_j over the continuous
parents x_1..x_P of a :class:`MixedParentModel`, each psi_j a boosted
function of the discrete context; a :class:`HybridModel` has no parents.

One loop trains both.  Each iteration fits the columns j = 0..P in order
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
implies is a ParseError at line 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

from .logic import Atom, Constant, ExampleSet, FactBase, ParseError, PredicateSignature, Schema
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
    """Per-function tree lists for one target predicate: a mixed-parent
    model with no parents.

    functions: multinomial targets use keys ``class=k``; Poisson uses
    ``rate``; Gaussian uses ``mu`` and ``sigma``.  Leaf contributions are
    already scaled by the step size at training time.
    """

    target: PredicateSignature
    # always target.kind; kept as the second field because callers build
    # models by position, e.g. a copy with every tree removed
    kind: str
    functions: dict
    eta: float
    sigma0: float = 1.0

    def __post_init__(self):
        if self.kind != _numeric_kind(self.target):
            raise ValueError(f"model kind {self.kind!r} is not {self.target.name}'s "
                             f"value kind {self.target.kind!r}")
        # the score functions, in class order: with no parents a score is
        # its intercept function
        self._scores = [key for key in _function_keys(self.target) if key != "sigma"]

    def predict(self, atom: Atom, db: FactBase, cache: Optional[RoutingCache] = None):
        """Class probabilities, rate, or (mu, sigma) depending on the kind."""
        scores = [evaluate(self.functions[key], atom, db, cache) for key in self._scores]
        sigma = self.sigma0 + evaluate(self.functions["sigma"], atom, db, cache) \
            if self.kind == "continuous" else None
        return _mixed_output(self.target, scores, sigma)

    def prob_of_truth(self, atom: Atom, value, db: FactBase,
                      cache: Optional[RoutingCache] = None) -> float:
        """Probability (density for Gaussian) of the observed value."""
        out = self.predict(atom, db, cache)
        if self.kind == "multiclass":
            return out[value]
        if self.kind == "count":
            return math.exp(value * math.log(out) - out - math.lgamma(value + 1))
        return math.exp(gaussian_ll(value, *out))


@dataclass
class MixedParentModel:
    """Tree-valued coefficients over the discrete context, one list per
    continuous parent plus an intercept list.

    The continuous parents are predicates whose fact payload, looked up at
    the target atom's arguments, supplies x_j.  For multinomial targets the
    coefficient and intercept lists are per class: ``functions[(k, j)]``
    with j = 0 the intercept and j >= 1 the parents in order.
    """

    target: PredicateSignature
    parents: list
    functions: dict
    sigma0: float = 1.0
    sigma_trees: list = field(default_factory=list)

    def parent_values(self, atom: Atom, db: FactBase) -> list:
        return _parent_values(self.parents, atom, db)

    def predict(self, atom: Atom, db: FactBase, cache: Optional[RoutingCache] = None):
        """Class probabilities, rate, or (mu, sigma) depending on the kind."""
        coeffs = [evaluate(self.functions[key], atom, db, cache)
                  for key in _mixed_keys(self.target, self.parents)]
        xs = self.parent_values(atom, db)
        width = len(xs) + 1
        scores = [mixed_gaussian_mean(coeffs[at], coeffs[at + 1:at + width], xs)
                  for at in range(0, len(coeffs), width)]
        return _mixed_output(self.target, scores,
                             self.sigma0 + evaluate(self.sigma_trees, atom, db, cache))


def _parent_values(parents: list, atom: Atom, db: FactBase) -> list:
    """x_1..x_P at `atom`: each parent's fact payload at its arguments."""
    xs = []
    for p in parents:
        v = db.lookup(p, atom.args)
        if v is None:
            raise ValueError(f"no {p} fact for {atom}")
        xs.append(float(v))
    return xs


def _function_keys(target: PredicateSignature) -> list:
    if target.kind == "multiclass":
        return [f"class={k}" for k in range(target.classes)]
    return ["rate"] if target.kind == "count" else ["mu", "sigma"]


def _mixed_keys(target: PredicateSignature, parents: list) -> list:
    """The coefficient function keys ``(k, j)`` of a mixed-parent model:
    class by class, the intercept first, then the parents in order."""
    n_classes = target.classes if target.kind == "multiclass" else 1
    return [(k, j) for k in range(n_classes) for j in range(len(parents) + 1)]


def _mixed_output(target: PredicateSignature, scores: list, sigma: float):
    """The prediction of both models from the class scores (one score for
    Poisson and Gaussian targets) and the unfloored Gaussian sigma."""
    if target.kind == "multiclass":
        return multinomial_prob(scores)
    if target.kind == "count":
        return _clamped_exp(scores[0])
    return scores[0], max(SIGMA_FLOOR, sigma)


def _loglik(kind: str, values: list, scores: list, sigmas: list) -> float:
    if kind == "multiclass":
        return ordered_sum(multinomial_ll(y, row) for y, row in zip(values, zip(*scores)))
    if kind == "count":
        return ordered_sum(poisson_ll(y, psi) for y, psi in zip(values, scores[0]))
    return ordered_sum(gaussian_ll(y, mu, sigma)
                       for y, mu, sigma in zip(values, scores[0], sigmas))


def _boost(examples: ExampleSet, db: FactBase, modes: list, parents: list,
           config: HybridConfig, on_iteration=None) -> tuple:
    """The loop of both models, in the order the module docstring gives:
    the coefficient trees of `examples`' target keyed ``(k, j)``, and the
    sigma trees.  Its state is columns: each function's leaf sums and each
    class's score at every row."""
    target = examples.target
    kind = _numeric_kind(target)
    if not examples.entries:
        raise ValueError(f"no examples for target {target.name}")
    atoms = [a for a, _ in examples.entries]
    values = [v for _, v in examples.entries]
    x_cols = [[1.0] * len(atoms), *zip(*(_parent_values(parents, a, db) for a in atoms))]
    trees = {key: [] for key in _mixed_keys(target, parents)}
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
        return [[gaussian_gradients(y, mu, sigma)[0]
                 for y, mu, sigma in zip(values, scores[0], sigmas())]]

    def step(fitted, gradients, column, eta):
        fitted.append(boost_step(slots, list(enumerate(gradients)), modes, config.tree,
                                 column, cache, eta))

    scores, eta = [score(k) for k in range(n_classes)], _eta(config, kind)
    try:
        for m in range(config.iterations):
            for j, xs in enumerate(x_cols):
                for k, res in enumerate(residuals(scores)):
                    step(trees[(k, j)], [r * x for r, x in zip(res, xs)], sums[(k, j)], eta)
                scores = [score(k) for k in range(n_classes)]
            if kind == "continuous":
                step(sigma_trees, [gaussian_gradients(y, mu, sigma)[1] for y, mu, sigma
                                   in zip(values, scores[0], sigmas())],
                     sigma_sums, config.eta_sigma)
            if on_iteration is not None:
                on_iteration(m + 1, _loglik(kind, values, scores, sigmas()))
    except OverflowError:   # targets so large that squared residuals pass float range
        raise ValueError(f"target {target.name}: values too large for float arithmetic") from None
    return trees, sigma_trees


def train_hybrid(examples: ExampleSet, db: FactBase, modes: list,
                 config: Optional[HybridConfig] = None,
                 on_iteration: Optional[Callable[[int, float], None]] = None) -> HybridModel:
    """Boost one HybridModel for the target of `examples`: the loop with no
    parents, dispatched on the target's declared value kind."""
    config = config or HybridConfig()
    target = examples.target
    trees, sigma_trees = _boost(examples, db, modes, [], config, on_iteration)
    # zip drops the sigma trees of targets without a sigma function
    functions = dict(zip(_function_keys(target), [*trees.values(), sigma_trees]))
    return HybridModel(target, target.kind, functions, _eta(config, target.kind), config.sigma0)


def train_mixed(examples: ExampleSet, db: FactBase, modes: list, parents: list,
                config: Optional[HybridConfig] = None) -> MixedParentModel:
    """Fit a MixedParentModel: one coefficient tree per class, parent and
    iteration, each fitted to the distribution residual times x_j."""
    config = config or HybridConfig()
    trees, sigma_trees = _boost(examples, db, modes, list(parents), config)
    return MixedParentModel(examples.target, list(parents), trees, config.sigma0, sigma_trees)


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
        target_key = (target, (Constant(traj.entity),))
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
    return write_model(f"model hybrid target={model.target.name}/{model.target.arity} "
                       f"kind={_header_kind(model.target)} eta={model.eta!r}"
                       + (f" sigma0={model.sigma0!r}" if model.kind == "continuous" else ""),
                       {key: model.functions[key] for key in sorted(model.functions)})


def parse_hybrid(text: str, schema: Schema) -> HybridModel:
    fields, target = parse_header(text, "hybrid", schema, ("kind", "eta"), ("eta", "sigma0"))
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
    functions = read_trees(text, schema, target, keyed=True)
    if sorted(functions) != sorted(_function_keys(target)):
        raise ParseError(f"{token} models need the functions {_function_keys(target)}")
    return HybridModel(target, target.kind, functions, fields["eta"], sigma0)
