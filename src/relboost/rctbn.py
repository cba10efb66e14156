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
from itertools import groupby
from typing import Callable, Iterable, Optional

import numpy as np

from .logic import (
    Atom,
    FactBase,
    ParseError,
    PredicateSignature,
    Schema,
    Variable,
    _CONSTANT_RE,
    _check_payload,
    _content_lines,
    _parse_ground_atom,
    _rows,
    compile_body,
    parse_facts,
    parse_int,
    parse_literal_list,
    parse_term,
    solutions,
)
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
from .util import _clamped_exp, ordered_sum


def _head(name: str, args) -> str:
    """A stream as trajectory files write it: `cvd(a)`, or `name` at arity 0."""
    return f"{name}({','.join(args)})" if args else name


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

    Each event's key, (time, stream), is computed once: the events are
    sorted on it and checked on it, and an error names the stream as
    trajectory files write it, `cvd(a)`.
    """

    entity: str
    events: list
    horizon: float

    def __post_init__(self):
        keys = [(ev.time, ev.stream()) for ev in self.events]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self.events = [self.events[i] for i in order]
        last: dict = {}
        seen_times: set = set()
        for ev, i in zip(self.events, order):
            t, key = keys[i]
            if not math.isfinite(t) or t < 0:
                raise ValueError(f"bad event time {t}")
            if key not in last:
                if t != 0.0:
                    raise ValueError(f"stream {_head(*key)} not initialized at time 0 "
                                     f"(first event at {t})")
            else:
                prev_t, prev_v = last[key]
                if t <= prev_t:
                    raise ValueError(f"non-increasing times in stream {_head(*key)}")
                if ev.value == prev_v:
                    raise ValueError(
                        f"stream {_head(*key)} repeats value {ev.value!r} at t={t}")
                if t in seen_times:
                    raise ValueError(
                        f"simultaneous transitions at t={t} in trajectory {self.entity}")
                seen_times.add(t)
            last[key] = (t, ev.value)
        if self.events and self.horizon < self.events[-1].time:   # times ascend
            raise ValueError("horizon earlier than the last event")

    def transitions(self) -> list:
        """Every event after the initializations, which all sit at t=0."""
        return [ev for ev in self.events if ev.time > 0.0]


def projected_schema(schema: Schema) -> Schema:
    """Schema over snapshot atoms: temporal predicates lose the time slot."""
    out = Schema()
    for sig in schema:
        out.add(sig.dropped_time())
    return out


def _context(static: FactBase, streams: Iterable[tuple]) -> FactBase:
    """The projected context of one world state: the static base extended
    with one atom per (stream, value) pair.

    Boolean streams appear only while true (negation-as-failure covers the
    false state); valued streams carry their current payload.
    """
    atoms = []
    for (name, args), value in streams:
        pred = static.schema.get(name)
        if pred.kind != "boolean":
            atoms.append(Atom(pred, args, value))
        elif value is True:
            atoms.append(Atom(pred, args, True))
    return FactBase(static.schema, atoms, base=static)


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
        v = parse_int(token, f"{pred.name} value", lineno)
        _check_payload(pred, v, lineno)
        return v
    return parse_finite(token, f"{pred.name} value", lineno)


def _stream_args(schema: Schema, name: str, argtext: Optional[str], lineno: int) -> tuple:
    """(signature, arguments) of a stream named on a trajectory or
    ground-truth line, checked as the fact reader checks an atom: a temporal
    predicate, its arity less the time slot, and constants only."""
    if name not in schema:
        raise ParseError(f"unknown predicate {name!r}", lineno)
    pred = schema.get(name)
    if not pred.temporal:
        raise ParseError(f"{name} is not temporal", lineno)
    args = tuple(parse_term(a.strip(), lineno) for a in argtext.split(",")) if argtext else ()
    if len(args) != pred.arity - 1:
        raise ParseError(f"{name} streams carry {pred.arity - 1} arguments", lineno)
    if any(isinstance(a, Variable) for a in args):
        raise ParseError(f"{name} stream arguments must be constants", lineno)
    return pred, args


def parse_static_facts(text: str, schema: Schema) -> FactBase:
    """Parse the static facts that go with trajectories.

    A temporal predicate's values come only from the trajectories, so a
    fact on one is a `ParseError` at its line, as a world `fact` on a
    stream predicate is in `parse_groundtruth`.
    """
    db = parse_facts(text, schema)
    streams = {sig.name for sig in schema if sig.temporal and sig.name in db._columns}
    if streams:     # name the first line on one, from the reader's rows
        rows, lines, _ = _rows(text)
        k = next(k for k, row in enumerate(rows) if row[0] in streams)
        raise ParseError(f"{rows[k][0]} is a stream predicate; "
                         "its values come from the trajectories", lines[k])
    return db


def _entity(text: str, lineno: int) -> str:
    """The entity of a `traj` or `world` header: a constant."""
    entity = text.strip()
    if not _CONSTANT_RE.match(entity):
        raise ParseError(f"bad entity {entity!r}: must be a constant", lineno)
    return entity


def parse_trajectories(text: str, schema: Schema) -> list:
    """Parse `traj` blocks: header, `t=<real> pred(args)=<value>` lines,
    then `horizon=<real>`.  Times must be numeric.

    A stream's (name, argument text) is checked against the schema once
    per call, at its first line, and its (signature, arguments) reused on
    later lines: the check reads nothing else, so a bad stream fails at its
    first line.
    """
    trajs = []
    entity = None
    events: list = []
    streams: dict = {}      # (name, argument text) -> (signature, arguments)
    for lineno, line in _content_lines(text):
        if line.startswith("traj "):
            if entity is not None:
                raise ParseError(f"trajectory {entity!r} missing horizon", lineno)
            entity = _entity(line[5:], lineno)
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
            stream = streams.get((name, argtext))
            if stream is None:
                stream = streams[(name, argtext)] = _stream_args(schema, name, argtext, lineno)
            pred, args = stream
            try:
                t = float(ttok)
            except ValueError:
                raise ParseError(f"times must be numeric, got {ttok!r}", lineno)
            if not math.isfinite(t) or t < 0:
                raise ParseError(f"bad event time {t}", lineno)
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
    """Trajectory blocks; each stream's head text is built once per block."""
    lines = []
    for traj in trajs:
        lines.append(f"traj {traj.entity}")
        heads: dict = {}        # stream -> its head text
        for ev in traj.events:
            stream = ev.stream()
            head = heads.get(stream)
            if head is None:
                head = heads[stream] = _head(*stream)
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

    A segment's context extends one base of the static facts, under the
    projected schema, with the values of the other streams at its start,
    so segments in equal joint states of the other streams share one
    context object.  Each trajectory's segments are consecutive and share
    one target `Atom`.  `train_rctbn` fits the segments built here and
    `relboost eval` scores them, so both see the same rows.
    """
    if transition.pred not in schema:
        raise ParseError(f"unknown target predicate {transition.pred!r}")
    pred = schema.get(transition.pred)
    proj = pred.dropped_time()
    static = FactBase(projected_schema(schema), base=static_db)
    # joint state of the non-target streams, as (stream, value) pairs -> FactBase
    contexts: dict = {}
    out = []

    def context(current: dict, exclude: tuple) -> FactBase:
        state = tuple(kv for kv in current.items() if kv[0] != exclude)
        if state not in contexts:
            contexts[state] = _context(static, state)
        return contexts[state]

    for traj in trajectories:
        target = (pred.name, (traj.entity,))
        target_atom = Atom(proj, target[1])
        current: dict = {}      # stream -> value since t_prev
        t_prev = 0.0
        for ev in traj.events:  # initializations, all at t=0, come first
            stream = ev.stream()
            value = current.get(target)
            if value == transition.from_value and ev.time > t_prev:
                positive = stream == target and ev.value == transition.to_value
                out.append(Segment(target_atom, value, ev.time - t_prev,
                                   context(current, target), positive))
            current[stream] = ev.value
            t_prev = ev.time
        value = current.get(target)
        if value == transition.from_value and traj.horizon > t_prev:
            out.append(Segment(target_atom, value, traj.horizon - t_prev,
                               context(current, target), False))
    return out


# ---------------------------------------------------------------------------
# exponential machinery and segment gradients
# ---------------------------------------------------------------------------


def transition_prob(q: float, T: float) -> float:
    """Probability 1 - e^(-qT) that the transition happens within T."""
    if q <= 0 or T <= 0:
        raise ValueError("q and T must be positive")
    return -math.expm1(-q * T)


def pos_gradient_rate(qt: float) -> float:
    """The positive segment's log-likelihood gradient -(1-p) ln(1-p) / p at
    p = 1 - e^(-qt), computed stably as qt/(e^qt - 1)."""
    if qt <= 0:
        raise ValueError("qt must be positive")
    if qt > 700.0:
        return 0.0
    return qt / math.expm1(qt)


def neg_gradient_rate(qt: float) -> float:
    """The negative segment's gradient ln(1-p) at p = 1 - e^(-qt), which is
    exactly -qt."""
    if qt <= 0:
        raise ValueError("qt must be positive")
    return -qt


def segment_loglik(positive: bool, phi: float, T: float) -> float:
    """Log of the segment's transition term at intensity q = e^phi."""
    return _loglik_rate(positive, _clamped_exp(phi) * T)


def _loglik_rate(positive: bool, qt: float) -> float:
    """Log of a transition term at qt = q*T: log(1 - e^-qt), or -qt."""
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
        return self.phi0 + evaluate(self.trees, seg.target, seg.context, cache)

    def transition_probability(self, seg: Segment, cache: Optional[RoutingCache] = None) -> float:
        return transition_prob(intensity(self, seg, cache), seg.residence_time)


def intensity(model: RctbnModel, seg: Segment, cache: Optional[RoutingCache] = None) -> float:
    """e^phi with phi clamped; always positive."""
    return _clamped_exp(model.phi(seg, cache))


def _cap_negatives(segments: list, cap: Optional[int], rng: random.Random) -> list:
    """Each trajectory's positive segments, then at most `cap` of its
    negatives drawn from `rng`.  A trajectory's segments are the run that
    shares its one target atom, so two trajectories of one entity are
    capped apart."""
    kept = []
    for _, run in groupby(segments, key=lambda s: id(s.target)):
        group = list(run)
        negs = [s for s in group if not s.positive]
        if cap is not None and len(negs) > cap:
            negs = [negs[i] for i in sorted(rng.sample(range(len(negs)), cap))]
        kept.extend(s for s in group if s.positive)
        kept.extend(negs)
    return kept


def train_rctbn(trajectories: list, static_db: Optional[FactBase], schema: Schema,
                transition: Transition, modes: list,
                config: Optional[RctbnConfig] = None,
                on_iteration: Optional[Callable[[int, float], None]] = None) -> RctbnModel:
    """Boost the intensity model of one target transition.

    Deterministic under config.rng_seed; when neg_cap_per_traj is set the
    kept negatives are drawn once from the seeded RNG.  phi0 = 0 gives a
    unit baseline intensity.
    """
    config = config or RctbnConfig()
    segments = _cap_negatives(segment(trajectories, static_db, schema, transition),
                              config.neg_cap_per_traj, random.Random(config.rng_seed))
    if not any(s.positive for s in segments):
        raise ValueError(f"no positive segments for {transition}")
    model = RctbnModel(transition, schema.get(transition.pred).dropped_time(), 0.0, [])
    cache = RoutingCache()
    slots = cache.register([(seg.target, seg.context) for seg in segments])
    phis = [0.0] * len(segments)
    qts = [seg.residence_time for seg in segments]      # e^phi * T at phi = 0
    for m in range(config.iterations):
        fit = [(i, pos_gradient_rate(qt) if seg.positive else neg_gradient_rate(qt))
               for i, (seg, qt) in enumerate(zip(segments, qts))]
        model.trees.append(boost_step(slots, fit, modes, config.tree, phis, cache))
        # each segment's e^phi once per step, for the objective and the next gradients
        qts = [_clamped_exp(phi) * seg.residence_time for phi, seg in zip(phis, segments)]
        if on_iteration is not None:
            on_iteration(m + 1, ordered_sum(_loglik_rate(seg.positive, qt)
                                            for seg, qt in zip(segments, qts)))
    return model


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


def _check_finite(entries: list, what: str) -> None:
    """A ValueError naming the first entry that is no finite int or float;
    a bool is not a number here, and an int must fit a float."""
    for x in entries:
        try:
            ok = isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"{what} entries must be finite numbers, not {x!r}")


@dataclass
class CIM:
    """Transition-rate matrix over one variable's states; rows sum to zero."""

    rates: list

    def __post_init__(self):
        r = len(self.rates)
        for row in self.rates:
            if not isinstance(row, (list, tuple)) or len(row) != r:
                raise ValueError("CIM must be square")
            _check_finite(row, "CIM")
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
    rates = [[0.0] * r for _ in range(r)]
    for c in cims:      # left to right, so no float total depends on `sum`
        _add_rates(rates, c)
    return CIM(rates)


def _add_rates(rates: list, cim: CIM) -> None:
    """Add `cim`'s intensities into the matrix `rates`, entry by entry."""
    for row, added in zip(rates, cim.rates):
        for j, rate in enumerate(added):
            row[j] += rate


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
        _check_finite(self.init, f"{self.pred.name} init")
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


# expected transitions of one stream over the horizon past which the
# sampler refuses a spec, rather than drawing them one by one
MAX_EXPECTED_TRANSITIONS = 10 ** 7


def _state_to_value(var: VariableSpec, k: int):
    return bool(k) if var.pred.kind == "boolean" else k


def _derive_seed(seed: int, idx: int) -> int:
    return (seed * 2654435761 + idx * 97531) % (2 ** 63)


def _draw(u: float, weighted) -> int:
    """The index of the first (index, weight) pair at which the running sum
    of weights passes u, or the last index when rounding leaves u past the
    total."""
    acc = 0.0
    for j, w in weighted:
        acc += w
        if u < acc:
            return j
    return j


def forward_sample(spec: GroundTruthSpec, worlds: list, schema: Schema,
                   horizon: float, seed: int) -> list:
    """Sample trajectories by racing exponential clocks.

    At each step every stream draws a candidate transition time from its
    currently active intensity; the earliest wins, its state updates, and
    the race restarts (memorylessness makes this exact).  Worlds are
    independent, each with an RNG stream derived from the seed.

    A world's streams are raced by index, in sorted (name, args) order.  A
    clause body reads only the predicates it names, so each stream keeps a
    table from the states of its dependencies (the other streams of those
    predicates) to the rows and exit rates of its summed CIM, and looks its
    entry up again only when a dependency moves.  A miss grounds each body
    of the head, compiled once per call against V0.. bound to the stream's
    arguments, on one context: the static facts and the dependencies'
    values.

    Every transition is drawn one by one, so a head whose summed clauses
    (the bound on any sum of its active ones) reach an exit rate whose
    product with the horizon passes MAX_EXPECTED_TRANSITIONS is refused
    before any world is sampled.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    proj = projected_schema(schema)
    reads: dict = {}    # head predicate -> predicates its clause bodies name
    totals: dict = {}   # head predicate -> its clauses' intensities added up
    for clause in spec.clauses:
        reads.setdefault(clause.pred, set()).update(lit.atom.pred.name for lit in clause.body)
        r = clause.cim.states
        _add_rates(totals.setdefault(clause.pred, [[0.0] * r for _ in range(r)]), clause.cim)
    for name, total in totals.items():
        rate = max(-row[k] for k, row in enumerate(total))
        if rate * horizon > MAX_EXPECTED_TRANSITIONS:
            raise ValueError(f"the {name} clauses reach exit rate {rate!r}: over horizon "
                             f"{horizon!r} a {name} stream could expect {rate * horizon:.3g} "
                             f"transitions, past the limit of {MAX_EXPECTED_TRANSITIONS:.0e}")
    heads: dict = {}    # head predicate -> [(CIM, compiled body)], compiled on first use

    trajectories = []
    for w_idx, world in enumerate(worlds):
        rng = random.Random(_derive_seed(seed, w_idx))
        initial: dict = {}
        events: list = []
        for name, args in world.streams:
            var = spec.variables.get(name)
            if var is None:
                raise ValueError(f"stream predicate {name!r} not declared")
            k = _draw(rng.random(), enumerate(var.init))
            initial[(name, args)] = k
            events.append(Event(var.pred, args, 0.0, _state_to_value(var, k)))
        order = sorted(initial)
        states = [initial[s] for s in order]
        variables = [spec.variables[name] for name, _ in order]
        deps = [tuple(j for j, other in enumerate(order)
                      if j != i and other[0] in reads.get(order[i][0], ()))
                for i in range(len(order))]
        tables: list = [{} for _ in order]  # states of a stream's deps -> its rates
        static = FactBase(proj, world.facts)

        def rates(i: int) -> tuple:
            key = tuple([states[j] for j in deps[i]])
            if key not in tables[i]:
                name, args = order[i]
                if name not in heads:
                    layout = tuple(Variable(f"V{v}") for v in range(variables[i].pred.arity - 1))
                    heads[name] = [(clause.cim, compile_body(tuple(clause.body), layout))
                                   for clause in spec.clauses if clause.pred == name]
                context = _context(static, ((order[j], _state_to_value(variables[j], states[j]))
                                            for j in deps[i]))
                binding = [[tuple(args)]]
                active = [cim for cim, plan in heads[name]
                          if solutions(plan, binding, context)[0]]
                if not active:
                    raise ValueError(f"no active clause for {name}{args} (spec incomplete)")
                cim = add_cims(active)
                tables[i][key] = (cim.rates, [cim.exit_rate(k) for k in range(cim.states)])
            return tables[i][key]

        dependents = [tuple(j for j, d in enumerate(deps) if i in d) for i in range(len(order))]
        current = [rates(i) for i in range(len(order))]
        t_now = 0.0
        while True:
            best = None
            for i, k in enumerate(states):
                entry = current[i]
                q = entry[1][k]
                if q <= 0.0:
                    continue
                dt = rng.expovariate(q)
                if best is None or t_now + dt < best[0]:
                    best = (t_now + dt, i, entry)
            if best is None or best[0] > horizon:
                break
            t_now, i, (rows, exits) = best
            var, k = variables[i], states[i]
            row = rows[k]
            k2 = _draw(rng.random() * exits[k],
                       ((j, row[j]) for j in range(var.states) if j != k))
            states[i] = k2
            events.append(Event(var.pred, order[i][1], t_now, _state_to_value(var, k2)))
            for j in dependents[i]:
                current[j] = rates(j)
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
    ``end``.  A stream names a declared variable with its arguments less
    the time slot, at most once per world; a fact names an atemporal one.
    Clause bodies are evaluated over the projected context with V0.. bound
    to the stream's arguments.  A clause whose intensities, added to those
    of the earlier clauses of its head, leave float range is an error at its
    line, whatever their bodies: which bodies can hold at once is known only
    in a sampled context, so the sum of every clause of a head is the bound
    that holds for each sum the sampler forms.
    """
    variables: dict = {}
    clauses: list = []
    totals: dict = {}       # clause head -> its clauses' intensities added so far
    worlds: list = []
    current_world = None
    stream_lines: dict = {}     # stream predicate -> line of its first stream
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
            try:    # V0.. are bound to the stream's arguments
                body = parse_literal_list(body_text, proj) if body_text else []
                if name in proj:
                    compile_body(body, [Variable(f"V{i}") for i in range(proj.get(name).arity)])
            except (ParseError, ValueError) as exc:
                raise ParseError(str(exc), lineno)
            clauses.append(ClauseSpec(name, cim, body))
            total = totals.setdefault(name, [[0.0] * cim.states for _ in range(cim.states)])
            if len(total) == cim.states:    # else GroundTruthSpec refuses the size
                _add_rates(total, cim)      # as `add_cims` adds them
                if not all(math.isfinite(rate) for row in total for rate in row):
                    raise ParseError(f"the intensities of the {name} clauses sum past "
                                     "float range", lineno)
        elif line.startswith("world "):
            if current_world is not None:
                raise ParseError("nested world block", lineno)
            current_world = World(_entity(line[6:], lineno), [], [])
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
            stream = (name, _stream_args(schema, name, argtext, lineno)[1])
            if stream in current_world.streams:
                raise ParseError(f"repeated stream {name}({argtext}) in world "
                                 f"{current_world.entity}", lineno)
            current_world.streams.append(stream)
            stream_lines.setdefault(name, lineno)
        elif line.startswith("fact "):
            if current_world is None:
                raise ParseError("fact outside a world block", lineno)
            atom = _parse_ground_atom(line[5:].strip(), proj, lineno)
            if schema.get(atom.pred.name).temporal:
                raise ParseError(f"{atom.pred.name} is a stream predicate; "
                                 "its values come from stream lines", lineno)
            current_world.facts.append(atom)
        else:
            raise ParseError(f"bad ground-truth line {line!r}", lineno)
    if current_world is not None:
        raise ParseError("unterminated world block")
    for name, lineno in stream_lines.items():     # var lines may follow the worlds
        if name not in variables:
            raise ParseError(f"stream predicate {name!r} not declared", lineno)
    try:
        return GroundTruthSpec(variables, clauses), worlds
    except ValueError as exc:
        raise ParseError(str(exc))
