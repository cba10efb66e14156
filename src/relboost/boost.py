"""Functional gradient boosting for binary relational targets.

The model is a sum of relational regression trees: the regression value
psi of a ground target atom is psi0 plus the tree contributions, and the
predicted probability is the sigmoid of psi.  The hard gradient is
``label - p``; the soft-margin gradient scales p by a cost factor
lambda so misclassified positives (alpha) and negatives (beta) can be
penalized asymmetrically.  With alpha = beta = 0 the two coincide exactly.

Sign convention: positive beta punishes false positives harder; negative
beta tolerates them (the high-recall setting for imbalanced data).

Each iteration computes a row's sigmoid and gradient, and its ``.log``
objective term, once per distinct (label, psi) pair (`util.per_distinct`).
psi is constant on each leaf-path cell of the trees so far, so thousands
of rows hold a handful of pairs.  The rctbn learner keeps its segment terms
per row: a segment's key would hold its residence time, a continuous value
that rarely repeats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .logic import Atom, ExampleSet, FactBase, PredicateSignature, ParseError, Schema
from .regtree import (
    RoutingCache,
    TreeConfig,
    boost_step,
    evaluate,
    parse_finite,
    parse_header,
    read_trees,
    write_model,
)
from .util import ordered_sum, per_distinct

PSI_CLAMP = 40.0  # |psi| beyond this saturates the sigmoid anyway


@dataclass(frozen=True)
class Hard:
    pass


@dataclass(frozen=True)
class Soft:
    alpha: float
    beta: float


GradientKind = Union[Hard, Soft]


@dataclass
class BoostConfig:
    iterations: int = 20
    tree: TreeConfig = field(default_factory=TreeConfig)
    neg_subsample_ratio: Optional[float] = None  # negatives kept per positive
    rng_seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.neg_subsample_ratio is not None and self.neg_subsample_ratio <= 0:
            raise ValueError("neg_subsample_ratio must be positive")


@dataclass
class BoostedModel:
    target: PredicateSignature
    psi0: float
    trees: list
    kind: GradientKind

    def psi(self, target: Atom, db: FactBase, cache: Optional[RoutingCache] = None) -> float:
        return self.psi0 + evaluate(self.trees, target, db, cache)


def sigmoid_prob(psi: float) -> float:
    """1 / (1 + e^-psi), clamped so extreme psi cannot overflow.

    The result stays strictly inside (0, 1): beyond |psi| of about 36 the
    quotient would round to an endpoint, so it is nudged one ulp inward.
    """
    psi = min(max(psi, -PSI_CLAMP), PSI_CLAMP)
    if psi >= 0:
        p = 1.0 / (1.0 + math.exp(-psi))
    else:
        z = math.exp(psi)
        p = z / (1.0 + z)
    if p == 1.0:
        return math.nextafter(1.0, 0.0)
    if p == 0.0:
        return math.nextafter(0.0, 1.0)
    return p


def hard_gradient(label: int, p: float) -> float:
    """label - p: the pointwise log-likelihood gradient in psi."""
    return float(label) - p


def soft_lambda(label: int, p: float, alpha: float, beta: float) -> float:
    """Cost factor on the predicted probability inside the soft gradient.

    Positives: 1 / (p + (1-p) e^alpha).  Negatives: e^beta / (p e^beta +
    (1-p)), computed in the equivalent overflow-safe form
    1 / (p + (1-p) e^-beta).  Both reduce to 1 at alpha = beta = 0.
    """
    expo = alpha if label == 1 else -beta
    return 1.0 / (p + (1.0 - p) * math.exp(min(max(expo, -700.0), 700.0)))


def soft_gradient(label: int, p: float, alpha: float, beta: float) -> float:
    """I(label=1) - lambda * p; equals the hard gradient when alpha=beta=0."""
    return float(label == 1) - soft_lambda(label, p, alpha, beta) * p


def _gradient(kind: GradientKind, label: int, p: float) -> float:
    if isinstance(kind, Hard):
        return hard_gradient(label, p)
    return soft_gradient(label, p, kind.alpha, kind.beta)


def per_example_objective(label: int, psi: float, kind: GradientKind) -> float:
    """The penalized pseudo-log-likelihood term this gradient family optimizes.

    psi_truth - log( e^{psi + c(label, 1)} + e^{c(label, 0)} ), with the
    model fixing psi(y=0) = 0 and c the misclassification cost.
    """
    if isinstance(kind, Hard):
        alpha = beta = 0.0
    else:
        alpha, beta = kind.alpha, kind.beta
    c1 = 0.0 if label == 1 else beta    # cost of predicting 1
    c0 = alpha if label == 1 else 0.0   # cost of predicting 0
    truth = psi if label == 1 else 0.0
    m = max(psi + c1, c0)
    return truth - (m + math.log(math.exp(psi + c1 - m) + math.exp(c0 - m)))


def train(examples: ExampleSet, db: FactBase, modes: list, config: BoostConfig,
          kind: GradientKind,
          on_iteration: Optional[Callable[[int, float], None]] = None) -> BoostedModel:
    """Run the boosting loop and return the fitted model.

    Deterministic under config.rng_seed; when neg_subsample_ratio is set
    the kept negatives are re-drawn each iteration from the seeded RNG.
    psi0 is 0 so an empty model predicts probability one half.
    """
    pos_idx = [i for i, (_, l) in enumerate(examples.entries) if l == 1]
    neg_idx = [i for i, (_, l) in enumerate(examples.entries) if l == 0]
    if not pos_idx or not neg_idx:
        raise ValueError("training needs at least one positive and one negative")
    rng = random.Random(config.rng_seed)
    model = BoostedModel(examples.target, 0.0, [], kind)
    cache = RoutingCache()
    slots = cache.register([(atom, db) for atom, _ in examples.entries])
    labels = [label for _, label in examples.entries]
    psis = [0.0] * len(slots)

    def gradient(label: int, psi: float) -> float:
        return _gradient(kind, label, sigmoid_prob(psi))

    def objective(label: int, psi: float) -> float:
        return per_example_objective(label, psi, kind)

    for m in range(config.iterations):
        if config.neg_subsample_ratio is not None:
            keep = min(len(neg_idx),
                       max(1, round(config.neg_subsample_ratio * len(pos_idx))))
            chosen = sorted(rng.sample(neg_idx, keep))
        else:
            chosen = neg_idx
        rows = pos_idx + chosen
        gradients = per_distinct(gradient, ((labels[i], psis[i]) for i in rows))
        model.trees.append(boost_step(slots, list(zip(rows, gradients)), modes,
                                      config.tree, psis, cache))
        if on_iteration is not None:
            on_iteration(m + 1, ordered_sum(per_distinct(objective, zip(labels, psis))))
    return model


def predict(model: BoostedModel, target: Atom, db: FactBase,
            cache: Optional[RoutingCache] = None) -> float:
    """Predicted probability of the target atom being true."""
    return sigmoid_prob(model.psi(target, db, cache))


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def _kind_token(kind: GradientKind) -> str:
    if isinstance(kind, Hard):
        return "hard"
    return f"soft:{kind.alpha!r},{kind.beta!r}"


def serialize_model(model: BoostedModel) -> str:
    return write_model(f"model rfgb target={model.target.name}/{model.target.arity} "
                       f"kind={_kind_token(model.kind)} psi0={model.psi0!r}",
                       {None: model.trees})


def parse_model(text: str, schema: Schema) -> BoostedModel:
    fields, target = parse_header(text, "rfgb", schema, ("kind", "psi0"), ("psi0",))
    token = fields["kind"]
    if token == "hard":
        kind: GradientKind = Hard()
    elif token.startswith("soft:") and token.count(",") == 1:
        alpha, beta = token[5:].split(",")
        kind = Soft(parse_finite(alpha, "alpha", 1), parse_finite(beta, "beta", 1))
    else:
        raise ParseError(f"unknown gradient kind {token!r}", 1)
    return BoostedModel(target, fields["psi0"], read_trees(text, schema, target)[None], kind)
