"""Exponential-family gradient boosting for multinomial, Poisson, and
Gaussian relational targets.

Each target predicate gets one boosted regression function per natural
parameter: K class functions for multinomial targets (softmax link), one
log-rate function for Poisson counts, and a mean plus a directly modeled
standard deviation for Gaussian targets.  Gradient steps fit one tree per
function per iteration; the step size eta multiplies leaf contributions.

The distribution is the target's schema value kind and nothing else:
``multiclass(K)`` is multinomial over K classes, ``count`` is Poisson and
``continuous`` is Gaussian; boolean targets belong to the rfgb learner.  A
model file's header repeats it as ``kind=multinomial:K``, ``kind=poisson``
or ``kind=gaussian``, and a header whose token is not the one the schema
implies is a ParseError at line 1.

For mixed boolean-numeric parents the prediction is (log-)linear in the
continuous parent values with tree-valued coefficients over the discrete
context; see :class:`MixedParentModel`.
"""

from __future__ import annotations

import math
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
    return psis[true_class] - m - math.log(sum(math.exp(p - m) for p in psis))


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


def mixed_softmax_prob(intercepts: list, coeffs: list, x_values: list,
                       k: int) -> float:
    """Softmax probability of class k with scores linear in the parents.

    ``coeffs[k][j]`` multiplies ``x_values[j]`` in class k's score.
    """
    if any(len(c) != len(x_values) for c in coeffs):
        raise ValueError("coefficient lists do not align with x_values")
    scores = [mixed_gaussian_mean(b, row, x_values) for b, row in zip(intercepts, coeffs)]
    return multinomial_prob(scores)[k]


def mixed_poisson_rate(intercept: float, coeffs: list, x_values: list) -> float:
    """e^(psi0 + sum_j x_j psi_j) with the exponent clamped."""
    if len(coeffs) != len(x_values):
        raise ValueError("coefficient list does not align with x_values")
    return _clamped_exp(intercept + sum(x * w for x, w in zip(x_values, coeffs)))


def mixed_gaussian_mean(intercept: float, coeffs: list, x_values: list) -> float:
    """psi0 + sum_j x_j psi_j."""
    if len(coeffs) != len(x_values):
        raise ValueError("coefficient list does not align with x_values")
    return intercept + sum(x * w for x, w in zip(x_values, coeffs))


# ---------------------------------------------------------------------------
# boosted hybrid models
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

    def class_probs(self, atom: Atom, db: FactBase, cache: Optional[RoutingCache] = None) -> list:
        if self.kind != "multiclass":
            raise ValueError("not a multinomial model")
        return multinomial_prob([evaluate(self.functions[f"class={k}"], atom, db, cache)
                                 for k in range(self.target.classes)])

    def rate(self, atom: Atom, db: FactBase, cache: Optional[RoutingCache] = None) -> float:
        if self.kind != "count":
            raise ValueError("not a Poisson model")
        return _clamped_exp(evaluate(self.functions["rate"], atom, db, cache))

    def mu_sigma(self, atom: Atom, db: FactBase, cache: Optional[RoutingCache] = None) -> tuple:
        if self.kind != "continuous":
            raise ValueError("not a Gaussian model")
        mu = evaluate(self.functions["mu"], atom, db, cache)
        sigma = max(SIGMA_FLOOR, self.sigma0 + evaluate(self.functions["sigma"], atom, db, cache))
        return mu, sigma

    def prob_of_truth(self, atom: Atom, value, db: FactBase,
                      cache: Optional[RoutingCache] = None) -> float:
        """Probability (density for Gaussian) of the observed value."""
        if self.kind == "multiclass":
            return self.class_probs(atom, db, cache)[value]
        if self.kind == "count":
            lam = self.rate(atom, db, cache)
            return math.exp(value * math.log(lam) - lam - math.lgamma(value + 1))
        mu, sigma = self.mu_sigma(atom, db, cache)
        return math.exp(gaussian_ll(value, mu, sigma))


def _function_keys(target: PredicateSignature) -> list:
    if target.kind == "multiclass":
        return [f"class={k}" for k in range(target.classes)]
    return ["rate"] if target.kind == "count" else ["mu", "sigma"]


def _loglik(target: PredicateSignature, values: list, psis: dict) -> float:
    if target.kind == "multiclass":
        cols = [psis[key] for key in _function_keys(target)]
        return sum(multinomial_ll(y, [c[i] for c in cols]) for i, y in enumerate(values))
    if target.kind == "count":
        return sum(poisson_ll(y, psi) for y, psi in zip(values, psis["rate"]))
    return sum(gaussian_ll(y, mu, sigma)
               for y, mu, sigma in zip(values, psis["mu"], psis["sigma"]))


def train_hybrid(examples: ExampleSet, db: FactBase, modes: list,
                 config: Optional[HybridConfig] = None,
                 on_iteration: Optional[Callable[[int, float], None]] = None) -> HybridModel:
    """Boost one HybridModel for the target of `examples`; the distribution
    is dispatched from the target's declared value kind."""
    config = config or HybridConfig()
    target = examples.target
    if not examples.entries:
        raise ValueError(f"no examples for target {target.name}")
    kind = _numeric_kind(target)
    atoms = [a for a, _ in examples.entries]
    values = [v for _, v in examples.entries]
    model = HybridModel(target, kind, {key: [] for key in _function_keys(target)},
                        _eta(config, kind), config.sigma0)
    psis = {key: [0.0] * len(atoms) for key in model.functions}
    if kind == "continuous":
        psis["sigma"] = [config.sigma0] * len(atoms)
    cache = RoutingCache()      # the target's functions route the same rows
    slots = cache.register([(a, db) for a in atoms])

    def step(key, gradients, eta):
        model.functions[key].append(boost_step(slots, list(enumerate(gradients)), modes,
                                               config.tree, psis[key], cache, eta))

    try:
        for m in range(config.iterations):
            if kind == "multiclass":
                keys = _function_keys(target)
                grads = [multinomial_gradient(y, multinomial_prob([psis[key][i] for key in keys]))
                         for i, y in enumerate(values)]
                for k, key in enumerate(keys):
                    step(key, [g[k] for g in grads], config.eta_multinomial)
            elif kind == "count":
                step("rate", [poisson_gradient(y, psi) for y, psi in zip(values, psis["rate"])],
                     config.eta_poisson)
            else:
                step("mu", [gaussian_gradients(y, mu, sigma)[0] for y, mu, sigma
                            in zip(values, psis["mu"], psis["sigma"])], config.eta_mu)
                # sigma gradients use the just-updated means; stale means
                # inflate the squared residuals and blow sigma up
                step("sigma", [gaussian_gradients(y, mu, sigma)[1] for y, mu, sigma
                               in zip(values, psis["mu"], psis["sigma"])], config.eta_sigma)
                # project back to the floor after each boosting step
                psis["sigma"] = [max(SIGMA_FLOOR, sigma) for sigma in psis["sigma"]]
            if on_iteration is not None:
                on_iteration(m + 1, _loglik(target, values, psis))
    except OverflowError:   # targets so large that squared residuals pass float range
        raise ValueError(f"target {target.name}: values too large for float arithmetic") from None
    return model


# ---------------------------------------------------------------------------
# mixed boolean-numeric parents
# ---------------------------------------------------------------------------


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
        xs = []
        for p in self.parents:
            v = db.lookup(p, atom.args)
            if v is None:
                raise ValueError(f"no {p} fact for {atom}")
            xs.append(float(v))
        return xs

    def predict(self, atom: Atom, db: FactBase, cache: Optional[RoutingCache] = None):
        """Class probabilities, rate, or (mu, sigma) depending on the kind."""
        coeffs = [evaluate(self.functions[key], atom, db, cache)
                  for key in _mixed_keys(self.target, self.parents)]
        return _mixed_output(self.target, coeffs, self.parent_values(atom, db),
                             self.sigma0 + evaluate(self.sigma_trees, atom, db, cache))


def _mixed_keys(target: PredicateSignature, parents: list) -> list:
    """The coefficient function keys ``(k, j)`` of a mixed-parent model, in
    the order `_mixed_output` takes their values."""
    n_classes = target.classes if target.kind == "multiclass" else 1
    return [(k, j) for k in range(n_classes) for j in range(len(parents) + 1)]


def _mixed_output(target: PredicateSignature, coeffs, xs: list, sigma: float):
    """MixedParentModel.predict from the coefficient values `coeffs` in
    `_mixed_keys` order, parent values `xs`, and the unfloored Gaussian
    sigma."""
    width = len(xs) + 1
    if target.kind == "multiclass":
        return multinomial_prob([mixed_gaussian_mean(coeffs[at], coeffs[at + 1:at + width], xs)
                                 for at in range(0, len(coeffs), width)])
    if target.kind == "count":
        return mixed_poisson_rate(coeffs[0], coeffs[1:width], xs)
    return mixed_gaussian_mean(coeffs[0], coeffs[1:width], xs), max(SIGMA_FLOOR, sigma)


def train_mixed(examples: ExampleSet, db: FactBase, modes: list, parents: list,
                config: Optional[HybridConfig] = None) -> MixedParentModel:
    """Fit a MixedParentModel: one coefficient tree per parent per iteration.

    The gradient for coefficient function psi_j is the chain rule through
    the (log-)linear link: the distribution residual times x_j (x_0 = 1 for
    the intercept).  Coefficients fitted earlier in the same iteration feed
    the residuals of later ones.  Each example's coefficient and sigma sums
    are updated tree by tree, so each tree is evaluated once per example.
    """
    config = config or HybridConfig()
    target = examples.target
    kind = _numeric_kind(target)
    model = MixedParentModel(target, list(parents),
                             {key: [] for key in _mixed_keys(target, parents)},
                             sigma0=config.sigma0)
    atoms = [a for a, _ in examples.entries]
    values = [v for _, v in examples.entries]
    xs = [model.parent_values(a, db) for a in atoms]
    coeffs = {key: [0.0] * len(atoms) for key in model.functions}
    sigma_sums = [0.0] * len(atoms)
    cache = RoutingCache()
    slots = cache.register([(a, db) for a in atoms])

    def outputs():
        # row i's coefficient values, in _mixed_keys order, are column i of coeffs
        return [_mixed_output(target, row, x, config.sigma0 + sigma)
                for row, x, sigma in zip(zip(*coeffs.values()), xs, sigma_sums)]

    def residual(y, out) -> list:
        if kind == "multiclass":
            return multinomial_gradient(y, out)
        if kind == "count":
            return [y - out]
        return [gaussian_gradients(y, *out)[0]]

    def step(trees, gradients, psis, eta):
        trees.append(boost_step(slots, list(enumerate(gradients)), modes, config.tree,
                                psis, cache, eta))

    eta = _eta(config, kind)
    try:
        for _ in range(config.iterations):
            for (k, j), trees in model.functions.items():
                res = [residual(y, out)[k] for y, out in zip(values, outputs())]
                step(trees, [r * (1.0 if j == 0 else x[j - 1]) for r, x in zip(res, xs)],
                     coeffs[(k, j)], eta)
            if kind == "continuous":
                step(model.sigma_trees, [gaussian_gradients(y, *out)[1]
                                         for y, out in zip(values, outputs())],
                     sigma_sums, config.eta_sigma)
    except OverflowError:   # targets so large that squared residuals pass float range
        raise ValueError(f"target {target.name}: values too large for float arithmetic") from None
    return model


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
        agg = {"min": min, "max": max, "mean": lambda v: sum(v) / len(v),
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
