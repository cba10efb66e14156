"""Relational continuous-time models: trajectories, segment extraction,
intensity learning by functional gradient boosting, forward sampling, and
amalgamation of conditional intensity matrices.

A trajectory is one closed world (for example a family): every temporal
stream in it initializes at time 0 and then transitions at strictly
distinct times, because two streams of one world cannot transition at the
same instant.  A segment is a stretch of constant context ending at
exactly one transition; its context is the piecewise-constant snapshot of
all non-target streams at the segment start, projected to atemporal atoms
(time argument dropped), merged with the world's static relational facts.

The learned quantity is a boosted function phi with intensity q = e^phi;
the segment gradients are qT/(e^(qT)-1) for positives and -qT for
negatives, which are the exact stable forms of -(1-p)ln(1-p)/p and
ln(1-p) at p = 1 - e^(-qT).
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .logic import (
    Atom,
    Constant,
    FactBase,
    Literal,
    ParseError,
    PredicateSignature,
    Schema,
    Variable,
    _check_payload,
    _content_lines,
    _parse_ground_atom,
    parse_literal_list,
    parse_term,
    satisfies,
    serialize_facts,
)
from .regtree import (
    RegressionExample,
    RoutingCache,
    TreeConfig,
    boost_step,
    parse_finite,
    parse_header,
    read_trees,
    trees_value,
    write_model,
)

PHI_CLAMP = 40.0


def _stream_key(stream: tuple) -> tuple:
    name, args = stream
    return (name, tuple(a.symbol for a in args))


# ---------------------------------------------------------------------------
# events and trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    """One observation: a stream's value from `time` onward.

    `pred` is the temporal signature; `args` exclude the time argument.
    """

    pred: PredicateSignature
    args: tuple
    time: float
    value: object

    def stream(self) -> tuple:
        return (self.pred.name, self.args)


@dataclass
class Trajectory:
    """Events of one world, sorted by time, observed up to `horizon`.

    `entity` names the index individual whose target stream is learned.
    Streams initialize at time 0 (several streams may share that instant);
    later events are true transitions: the value changes, times within a
    stream strictly increase, and no two streams transition at the same
    time.
    """

    entity: str
    events: list
    horizon: float

    def __post_init__(self):
        self.events = sorted(self.events,
                             key=lambda e: (e.time,) + _stream_key(e.stream()))
        last: dict = {}
        seen_times: set = set()
        for ev in self.events:
            if not math.isfinite(ev.time) or ev.time < 0:
                raise ValueError(f"bad event time {ev.time}")
            key = ev.stream()
            if key not in last:
                if ev.time != 0.0:
                    raise ValueError(
                        f"stream {key} not initialized at time 0 (first event at {ev.time})")
            else:
                prev_t, prev_v = last[key]
                if ev.time <= prev_t:
                    raise ValueError(f"non-increasing times in stream {key}")
                if ev.value == prev_v:
                    raise ValueError(
                        f"stream {key} repeats value {ev.value!r} at t={ev.time}")
                if ev.time in seen_times:
                    raise ValueError(
                        f"simultaneous transitions at t={ev.time} in trajectory {self.entity}")
                seen_times.add(ev.time)
            last[key] = (ev.time, ev.value)
        if self.events and self.horizon < max(e.time for e in self.events):
            raise ValueError("horizon earlier than the last event")

    def transitions(self) -> list:
        """Every event after the initializations, which all sit at t=0."""
        return [ev for ev in self.events if ev.time > 0.0]


def projected_schema(schema: Schema, extra: Iterable[PredicateSignature] = ()) -> Schema:
    """Schema over snapshot atoms: temporal predicates lose the time slot."""
    out = Schema()
    for sig in schema:
        out.add(sig.dropped_time())
    for sig in extra:
        out.add(sig)
    return out


def _context(proj: Schema, static_facts: list, streams: Iterable[tuple],
             exclude: Optional[tuple] = None) -> FactBase:
    """The projected context of one world state: the static facts plus one
    atom per (stream, value) pair other than `exclude`.

    Boolean streams appear only while true (negation-as-failure covers the
    false state); valued streams carry their current payload.
    """
    atoms = list(static_facts)
    for (name, args), value in streams:
        if (name, args) == exclude:
            continue
        pred = proj.get(name)
        if pred.kind != "boolean":
            atoms.append(Atom(pred, args, value))
        elif value is True:
            atoms.append(Atom(pred, args, True))
    return FactBase(proj, atoms)


def snapshot(traj: Trajectory, static_db: Optional[FactBase], schema: Schema,
             t: float, exclude: Optional[tuple] = None) -> FactBase:
    """Context fact base at time t: the streams' values at t plus the static
    facts.  `exclude` drops one stream, used for the target's own."""
    current: dict = {}
    for ev in traj.events:
        if ev.time <= t:
            current[ev.stream()] = ev.value
    return _context(projected_schema(schema),
                    static_db.facts() if static_db is not None else [],
                    current.items(), exclude)


# ---------------------------------------------------------------------------
# trajectory files
# ---------------------------------------------------------------------------

_TRAJ_EVENT_RE = re.compile(
    r"t=(\S+)\s+([a-z][A-Za-z0-9_]*)\s*(?:\(\s*([^()]*?)\s*\))?\s*=\s*(\S+)\Z")


def _parse_event_value(pred: PredicateSignature, token: str,
                       lineno: Optional[int] = None):
    """A value of `pred`'s stream: true/false, a class index or count, or a
    finite real.  Trajectory events and transition states both use it."""
    if pred.kind == "boolean":
        if token not in ("true", "false"):
            raise ParseError(f"{pred.name} values are true/false, not {token!r}", lineno)
        return token == "true"
    if pred.kind in ("multiclass", "count"):
        if not re.match(r"[0-9]+\Z", token):
            raise ParseError(f"{pred.name} values are integers, not {token!r}", lineno)
        v = int(token)
        _check_payload(pred, v, lineno)
        return v
    return parse_finite(token, f"{pred.name} value", lineno)


def parse_trajectories(text: str, schema: Schema) -> list:
    """Parse `traj` blocks: header, `t=<real> pred(args)=<value>` lines,
    then `horizon=<real>`.  Times must be numeric."""
    trajs = []
    entity = None
    events: list = []
    for lineno, line in _content_lines(text):
        if line.startswith("traj "):
            if entity is not None:
                raise ParseError(f"trajectory {entity!r} missing horizon", lineno)
            entity = line[5:].strip()
            events = []
        elif line.startswith("horizon="):
            if entity is None:
                raise ParseError("horizon outside a trajectory block", lineno)
            horizon = parse_finite(line[len("horizon="):], "horizon", lineno)
            try:
                trajs.append(Trajectory(entity, events, horizon))
            except ValueError as exc:
                raise ParseError(str(exc), lineno)
            entity = None
        else:
            if entity is None:
                raise ParseError("event outside a trajectory block", lineno)
            m = _TRAJ_EVENT_RE.match(line)
            if not m:
                raise ParseError(f"bad event line {line!r}", lineno)
            ttok, name, argtext, valuetok = m.groups()
            if name not in schema:
                raise ParseError(f"unknown predicate {name!r}", lineno)
            pred = schema.get(name)
            if not pred.temporal:
                raise ParseError(f"{name} is not temporal", lineno)
            try:
                t = float(ttok)
            except ValueError:
                raise ParseError(f"times must be numeric, got {ttok!r}", lineno)
            args = tuple(parse_term(a.strip(), lineno)
                         for a in argtext.split(",")) if argtext else ()
            if len(args) != pred.arity - 1:
                raise ParseError(
                    f"{name} events carry {pred.arity - 1} arguments", lineno)
            for a in args:
                if isinstance(a, Variable):
                    raise ParseError("event arguments must be constants", lineno)
            events.append(Event(pred, args, t, _parse_event_value(pred, valuetok, lineno)))
    if entity is not None:
        raise ParseError(f"trajectory {entity!r} missing horizon")
    return trajs


def _event_value_text(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return repr(value) if isinstance(value, float) else str(value)


def serialize_trajectories(trajs: Iterable[Trajectory]) -> str:
    lines = []
    for traj in trajs:
        lines.append(f"traj {traj.entity}")
        for ev in traj.events:
            inner = ",".join(str(a) for a in ev.args)
            head = f"{ev.pred.name}({inner})" if ev.args else ev.pred.name
            lines.append(f"t={ev.time!r} {head}={_event_value_text(ev.value)}")
        lines.append(f"horizon={traj.horizon!r}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transition:
    """A target state change: predicate name, from value, to value."""

    pred: str
    from_value: object
    to_value: object


@dataclass
class Segment:
    """One training unit: constant context ending at one transition."""

    target: Atom            # projected (atemporal) target grounding
    start_state: object
    residence_time: float
    context: FactBase
    positive: bool

    def __post_init__(self):
        if self.residence_time <= 0:
            raise ValueError("residence time must be positive")


def segment(trajectories: Iterable[Trajectory], static_db: Optional[FactBase],
            schema: Schema, transition: Transition) -> list:
    """Extract segments for one target transition.

    The target stream of a trajectory is the target predicate grounded to
    the trajectory's entity.  A segment ends at every transition; it is
    positive when the target makes the requested change, negative when
    some other stream transitions while the target sits in the from
    state, and the horizon closes a final negative segment.  Segments
    where the target is not in the from state produce no example.

    A segment's context is `snapshot` at its start without the target
    stream.  It depends only on the joint state of the other streams, so
    segments in equal states share one context object.
    """
    if transition.pred not in schema:
        raise ParseError(f"unknown target predicate {transition.pred!r}")
    pred = schema.get(transition.pred)
    proj = pred.dropped_time()
    proj_schema = projected_schema(schema)
    static = static_db.facts() if static_db is not None else []
    contexts: dict = {}     # joint state of the non-target streams -> FactBase
    out = []

    def context(current: dict, exclude: tuple) -> FactBase:
        state = tuple(kv for kv in current.items() if kv[0] != exclude)
        if state not in contexts:
            contexts[state] = _context(proj_schema, static, state)
        return contexts[state]

    for traj in trajectories:
        stream_key = (pred.name, (Constant(traj.entity),))
        target_atom = Atom(proj, stream_key[1])
        current: dict = {}      # stream -> value since t_prev
        t_prev = 0.0
        for ev in traj.events:  # initializations, all at t=0, come first
            value = current.get(stream_key)
            if value == transition.from_value and ev.time > t_prev:
                positive = ev.stream() == stream_key and ev.value == transition.to_value
                out.append(Segment(target_atom, value, ev.time - t_prev,
                                   context(current, stream_key), positive))
            current[ev.stream()] = ev.value
            t_prev = ev.time
        value = current.get(stream_key)
        if value == transition.from_value and traj.horizon > t_prev:
            out.append(Segment(target_atom, value, traj.horizon - t_prev,
                               context(current, stream_key), False))
    return out


# ---------------------------------------------------------------------------
# exponential machinery and segment gradients
# ---------------------------------------------------------------------------


def exp_pdf(q: float, t: float) -> float:
    """Density q e^(-q t) of the transition time, t >= 0."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return q * math.exp(-q * t)


def exp_cdf(q: float, t: float) -> float:
    """1 - e^(-q t)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return -math.expm1(-q * t)


def expected_transition_time(q: float) -> float:
    """Mean residence time 1/q of an exponential clock with rate q."""
    return 1.0 / q


def transition_prob(q: float, T: float) -> float:
    """Probability 1 - e^(-qT) that the transition happens within T."""
    if q <= 0 or T <= 0:
        raise ValueError("q and T must be positive")
    return -math.expm1(-q * T)


def pos_gradient(p: float) -> float:
    """-(1-p) ln(1-p) / p: the positive segment's log-likelihood gradient.

    Non-negative on (0, 1]; tends to 1 as p -> 0 and to 0 as p -> 1.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if p == 1.0:
        return 0.0
    return -(1.0 - p) * math.log1p(-p) / p


def neg_gradient(p: float) -> float:
    """ln(1-p): the negative segment's gradient, 0 at p = 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    return math.log1p(-p)


def pos_gradient_rate(qt: float) -> float:
    """pos_gradient at p = 1 - e^(-qt), computed stably as qt/(e^qt - 1)."""
    if qt <= 0:
        raise ValueError("qt must be positive")
    if qt > 700.0:
        return 0.0
    return qt / math.expm1(qt)


def neg_gradient_rate(qt: float) -> float:
    """neg_gradient at p = 1 - e^(-qt), which is exactly -qt."""
    if qt <= 0:
        raise ValueError("qt must be positive")
    return -qt


def segment_loglik(positive: bool, phi: float, T: float) -> float:
    """Log of the segment's transition term at intensity q = e^phi."""
    qt = math.exp(min(max(phi, -PHI_CLAMP), PHI_CLAMP)) * T
    if positive:
        # log(1 - e^(-qt)) without cancellation
        return math.log(-math.expm1(-qt)) if qt < 700.0 else 0.0
    return -qt


# ---------------------------------------------------------------------------
# the learner
# ---------------------------------------------------------------------------


@dataclass
class RctbnConfig:
    iterations: int = 10
    tree: TreeConfig = field(default_factory=TreeConfig)
    neg_cap_per_traj: Optional[int] = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.neg_cap_per_traj is not None and self.neg_cap_per_traj < 1:
            raise ValueError("neg_cap_per_traj must be positive")


@dataclass
class RctbnModel:
    """Boosted intensity for one target transition: q = e^(phi0 + trees)."""

    transition: Transition
    target: PredicateSignature      # projected target signature
    phi0: float
    trees: list

    def phi(self, seg: Segment, cache: Optional[RoutingCache] = None) -> float:
        return self.phi0 + trees_value(self.trees, seg.target, seg.context, cache)

    def transition_probability(self, seg: Segment, cache: Optional[RoutingCache] = None) -> float:
        return transition_prob(intensity(self, seg, cache), seg.residence_time)


def intensity(model: RctbnModel, seg: Segment, cache: Optional[RoutingCache] = None) -> float:
    """e^phi with phi clamped; always positive."""
    return math.exp(min(max(model.phi(seg, cache), -PHI_CLAMP), PHI_CLAMP))


def _cap_negatives(per_traj_groups: list, cap: int,
                   rng: random.Random) -> list:
    kept = []
    for group in per_traj_groups:
        negs = [s for s in group if not s.positive]
        pos = [s for s in group if s.positive]
        if cap is not None and len(negs) > cap:
            idx = sorted(rng.sample(range(len(negs)), cap))
            negs = [negs[i] for i in idx]
        kept.extend(pos)
        kept.extend(negs)
    return kept


def train_rctbn(trajectories: list, static_db: Optional[FactBase], schema: Schema,
                transitions: list, modes: list,
                config: Optional[RctbnConfig] = None,
                on_iteration: Optional[Callable[[Transition, int, float], None]] = None) -> dict:
    """Boost one intensity model per requested target transition.

    Deterministic under config.rng_seed; when neg_cap_per_traj is set the
    kept negatives are drawn once per transition from the seeded RNG.
    phi0 = 0 gives a unit baseline intensity.
    """
    config = config or RctbnConfig()
    rng = random.Random(config.rng_seed)
    models = {}
    for transition in transitions:
        groups = [segment([traj], static_db, schema, transition) for traj in trajectories]
        segments = _cap_negatives(groups, config.neg_cap_per_traj, rng)
        if not any(s.positive for s in segments):
            raise ValueError(f"no positive segments for {transition}")
        pred = schema.get(transition.pred).dropped_time()
        model = RctbnModel(transition, pred, 0.0, [])
        rows = [(seg.target, seg.context) for seg in segments]
        phis = [0.0] * len(segments)
        cache = RoutingCache()
        for m in range(config.iterations):
            regs = []
            for i, seg in enumerate(segments):
                q = math.exp(min(max(phis[i], -PHI_CLAMP), PHI_CLAMP))
                qt = q * seg.residence_time
                grad = pos_gradient_rate(qt) if seg.positive else neg_gradient_rate(qt)
                regs.append(RegressionExample(seg.target, grad, db=seg.context))
            model.trees.append(boost_step(regs, None, modes, config.tree, rows, phis, cache))
            if on_iteration is not None:
                ll = sum(segment_loglik(seg.positive, phis[i], seg.residence_time)
                         for i, seg in enumerate(segments))
                on_iteration(transition, m + 1, ll)
        models[transition] = model
    return models


def serialize_rctbn(model: RctbnModel) -> str:
    t = model.transition
    return write_model(f"model rctbn target={t.pred}/{model.target.arity + 1} "
                       f"from={_event_value_text(t.from_value)} "
                       f"to={_event_value_text(t.to_value)} phi0={model.phi0!r}",
                       {None: model.trees})


def parse_rctbn(text: str, schema: Schema) -> RctbnModel:
    fields, pred = parse_header(text, "rctbn", schema, ("from", "to", "phi0"), ("phi0",))
    transition = Transition(pred.name,
                            _parse_event_value(pred, fields["from"], 1),
                            _parse_event_value(pred, fields["to"], 1))
    proj = pred.dropped_time()
    return RctbnModel(transition, proj, fields["phi0"],
                      read_trees(text, projected_schema(schema), proj)[None])


# ---------------------------------------------------------------------------
# conditional intensity matrices and amalgamation
# ---------------------------------------------------------------------------


@dataclass
class CIM:
    """Transition-rate matrix over one variable's states; rows sum to zero."""

    rates: list

    def __post_init__(self):
        r = len(self.rates)
        for row in self.rates:
            if len(row) != r:
                raise ValueError("CIM must be square")
        for k, row in enumerate(self.rates):
            for k2, q in enumerate(row):
                if k2 != k and q < 0:
                    raise ValueError("off-diagonal intensities must be non-negative")
            if abs(sum(row)) > 1e-9:
                raise ValueError(f"CIM row {k} does not sum to zero")

    @property
    def states(self) -> int:
        return len(self.rates)

    def exit_rate(self, k: int) -> float:
        return -self.rates[k][k]


def add_cims(cims: list) -> CIM:
    """Intensity addition: the combining rule for clauses sharing a head."""
    if not cims:
        raise ValueError("nothing to add")
    r = cims[0].states
    for c in cims:
        if c.states != r:
            raise ValueError("inconsistent state-space dimensions")
    return CIM([[sum(c.rates[i][j] for c in cims) for j in range(r)] for i in range(r)])


def amalgamate(state_counts: list, active_cims: Callable[[int, tuple], list]) -> np.ndarray:
    """Joint intensity matrix over the product state space.

    `active_cims(i, joint_state)` returns the CIMs of variable i whose
    clause bodies hold in the joint state; their intensities add.  Joint
    states are indexed with the first variable varying fastest.  Entries
    for two or more simultaneous changes are zero and every row sums to
    zero.
    """
    n = len(state_counts)
    strides = []
    total = 1
    for r in state_counts:
        strides.append(total)
        total *= r
    joint = np.zeros((total, total))

    def unpack(idx: int) -> tuple:
        out = []
        for i in range(n):
            out.append((idx // strides[i]) % state_counts[i])
        return tuple(out)

    for idx in range(total):
        state = unpack(idx)
        for i in range(n):
            cims = active_cims(i, state)
            if not cims:
                continue
            combined = add_cims(cims)
            if combined.states != state_counts[i]:
                raise ValueError("inconsistent state-space dimensions")
            k = state[i]
            for k2 in range(state_counts[i]):
                if k2 == k:
                    continue
                jdx = idx + (k2 - k) * strides[i]
                joint[idx, jdx] += combined.rates[k][k2]
        joint[idx, idx] = -joint[idx].sum()
    return joint


# ---------------------------------------------------------------------------
# ground-truth specifications and forward sampling
# ---------------------------------------------------------------------------


@dataclass
class VariableSpec:
    """A temporal predicate with its initial-state distribution."""

    pred: PredicateSignature
    init: list          # probability per state index

    def __post_init__(self):
        if not self.pred.temporal:
            raise ValueError(f"{self.pred.name} must be temporal")
        if len(self.init) != self.states or abs(sum(self.init) - 1.0) > 1e-9 \
                or any(p < 0 for p in self.init):
            raise ValueError(f"bad initial distribution for {self.pred.name}")

    @property
    def states(self) -> int:
        return 2 if self.pred.kind == "boolean" else self.pred.classes


@dataclass
class ClauseSpec:
    """body holding in the current context activates this CIM for the head."""

    pred: str
    cim: CIM
    body: list = field(default_factory=list)


@dataclass
class GroundTruthSpec:
    variables: dict     # predicate name -> VariableSpec
    clauses: list

    def __post_init__(self):
        for clause in self.clauses:
            var = self.variables.get(clause.pred)
            if var is None:
                raise ValueError(f"clause head {clause.pred!r} is not a declared variable")
            if clause.cim.states != var.states:
                raise ValueError(f"CIM size does not match states of {clause.pred}")


@dataclass
class World:
    """Entities of one independent sampling unit plus its relational facts."""

    entity: str
    streams: list       # (predicate name, args tuple)
    facts: list = field(default_factory=list)


def _state_to_value(var: VariableSpec, k: int):
    return bool(k) if var.pred.kind == "boolean" else k


def _active_rates(spec: GroundTruthSpec, world: World, schema: Schema,
                  states: dict, stream: tuple, cache: dict) -> CIM:
    """Summed CIM of the stream's clauses whose bodies hold in the joint
    state `states`; `cache` keeps one answer per (stream, joint state)."""
    key = (stream, tuple(sorted(states.items(), key=lambda kv: _stream_key(kv[0]))))
    if key not in cache:
        name, args = stream
        seed = {Variable(f"V{i}"): a for i, a in enumerate(args)}
        context = _context(projected_schema(schema), world.facts,
                           ((s, _state_to_value(spec.variables[s[0]], k))
                            for s, k in states.items()), exclude=stream)
        active = [clause.cim for clause in spec.clauses
                  if clause.pred == name and satisfies(clause.body, seed, context)]
        if not active:
            raise ValueError(f"no active clause for {name}{args} (spec incomplete)")
        cache[key] = add_cims(active)
    return cache[key]


def _derive_seed(seed: int, idx: int) -> int:
    return (seed * 2654435761 + idx * 97531) % (2 ** 63)


def forward_sample(spec: GroundTruthSpec, worlds: list, schema: Schema,
                   horizon: float, seed: int) -> list:
    """Sample trajectories by racing exponential clocks.

    At each step every stream draws a candidate transition time from its
    currently active intensity; the earliest wins, its state updates, and
    the race restarts (memorylessness makes this exact).  Worlds are
    independent, each with an RNG stream derived from the seed.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    trajectories = []
    for w_idx, world in enumerate(worlds):
        rng = random.Random(_derive_seed(seed, w_idx))
        states: dict = {}
        events: list = []
        rate_cache: dict = {}  # joint states recur; contexts are rebuilt once
        for name, args in world.streams:
            var = spec.variables.get(name)
            if var is None:
                raise ValueError(f"stream predicate {name!r} not declared")
            u = rng.random()
            acc = 0.0
            k = var.states - 1
            for j, p in enumerate(var.init):
                acc += p
                if u < acc:
                    k = j
                    break
            states[(name, args)] = k
            events.append(Event(var.pred, args, 0.0, _state_to_value(var, k)))
        t_now = 0.0
        while True:
            best = None
            for stream in sorted(states, key=_stream_key):
                var = spec.variables[stream[0]]
                cim = _active_rates(spec, world, schema, states, stream, rate_cache)
                k = states[stream]
                q = cim.exit_rate(k)
                if q <= 0.0:
                    continue
                dt = rng.expovariate(q)
                if best is None or t_now + dt < best[0]:
                    best = (t_now + dt, stream, cim)
            if best is None or best[0] > horizon:
                break
            t_now, stream, cim = best
            var = spec.variables[stream[0]]
            k = states[stream]
            row = cim.rates[k]
            total = cim.exit_rate(k)
            u = rng.random() * total
            acc = 0.0
            k2 = None
            for j in range(var.states):
                if j == k:
                    continue
                acc += row[j]
                if u < acc:
                    k2 = j
                    break
            if k2 is None:
                k2 = max(j for j in range(var.states) if j != k)
            states[stream] = k2
            events.append(Event(var.pred, stream[1], t_now, _state_to_value(var, k2)))
        trajectories.append(Trajectory(world.entity, events, horizon))
    return trajectories


def worlds_facts(worlds: Iterable[World], schema: Schema) -> FactBase:
    """Union of the worlds' relational facts as one shared fact base."""
    atoms = [a for w in worlds for a in w.facts]
    return FactBase(projected_schema(schema), atoms)


# ---------------------------------------------------------------------------
# ground-truth spec files
# ---------------------------------------------------------------------------


def parse_groundtruth(text: str, schema: Schema):
    """Parse a ground-truth file into (GroundTruthSpec, worlds).

    Lines: ``var <pred> init=<json list>``, ``clause <pred> cim=<json
    matrix> [if "<literals>"]``, and ``world <entity>`` blocks containing
    ``stream <pred>(<consts>)`` and ``fact <atom>.`` lines closed by
    ``end``.  Clause bodies are evaluated over the projected context with
    V0.. bound to the stream's arguments.
    """
    variables: dict = {}
    clauses: list = []
    worlds: list = []
    current_world = None
    proj = projected_schema(schema)
    for lineno, line in _content_lines(text):
        if line.startswith("var "):
            m = re.match(r"var\s+([a-z][A-Za-z0-9_]*)\s+init=(\[.*\])\s*\Z", line)
            if not m:
                raise ParseError(f"bad var line {line!r}", lineno)
            name, init_text = m.groups()
            if name not in schema:
                raise ParseError(f"unknown predicate {name!r}", lineno)
            try:
                variables[name] = VariableSpec(schema.get(name), json.loads(init_text))
            except (ValueError, json.JSONDecodeError) as exc:
                raise ParseError(str(exc), lineno)
        elif line.startswith("clause "):
            m = re.match(r"clause\s+([a-z][A-Za-z0-9_]*)\s+cim=(\[.*\])"
                         r"(?:\s+if\s+\"([^\"]*)\")?\s*\Z", line)
            if not m:
                raise ParseError(f"bad clause line {line!r}", lineno)
            name, cim_text, body_text = m.groups()
            try:
                cim = CIM(json.loads(cim_text))
            except (ValueError, json.JSONDecodeError) as exc:
                raise ParseError(str(exc), lineno)
            body = parse_literal_list(body_text, proj) if body_text else []
            clauses.append(ClauseSpec(name, cim, body))
        elif line.startswith("world "):
            if current_world is not None:
                raise ParseError("nested world block", lineno)
            current_world = World(line[6:].strip(), [], [])
        elif line == "end":
            if current_world is None:
                raise ParseError("end outside a world block", lineno)
            worlds.append(current_world)
            current_world = None
        elif line.startswith("stream "):
            if current_world is None:
                raise ParseError("stream outside a world block", lineno)
            m = re.match(r"stream\s+([a-z][A-Za-z0-9_]*)\s*\(\s*([^()]*?)\s*\)\Z", line)
            if not m:
                raise ParseError(f"bad stream line {line!r}", lineno)
            name, argtext = m.groups()
            if name not in schema:
                raise ParseError(f"unknown predicate {name!r}", lineno)
            args = tuple(parse_term(a.strip(), lineno) for a in argtext.split(","))
            current_world.streams.append((name, args))
        elif line.startswith("fact "):
            if current_world is None:
                raise ParseError("fact outside a world block", lineno)
            current_world.facts.append(_parse_ground_atom(line[5:].strip(), proj, lineno))
        else:
            raise ParseError(f"bad ground-truth line {line!r}", lineno)
    if current_world is not None:
        raise ParseError("unterminated world block")
    try:
        return GroundTruthSpec(variables, clauses), worlds
    except ValueError as exc:
        raise ParseError(str(exc))
