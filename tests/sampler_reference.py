"""The forward sampler as it raced streams by their (name, arguments) keys,
kept as the reference that the tests compare `relboost.rctbn.forward_sample`
with.

Each race step looks up every stream's summed CIM in one cache keyed by the
stream and the states of the streams its clause bodies read, and a miss
tests each clause body with `satisfies` on a fresh context.  The CIMs of a
head are added rate by rate, left to right from 0.0, as the built-in `sum`
added them through Python 3.11.
"""

import operator
import random
from functools import reduce

from relboost.logic import FactBase, Variable, satisfies
from relboost.rctbn import (
    CIM,
    Event,
    Trajectory,
    _context,
    _derive_seed,
    _draw,
    _state_to_value,
    projected_schema,
)


def add_cims(cims: list) -> CIM:
    r = cims[0].states
    return CIM([[reduce(operator.add, (c.rates[i][j] for c in cims), 0.0) for j in range(r)]
                for i in range(r)])


def _active_rates(spec, static: FactBase, states: dict, stream: tuple, deps: list,
                  cache: dict) -> CIM:
    key = (stream, tuple(states[s] for s in deps))
    if key not in cache:
        name, args = stream
        seed = {Variable(f"V{i}"): a for i, a in enumerate(args)}
        context = _context(static, ((s, _state_to_value(spec.variables[s[0]], k))
                                     for s, k in states.items() if s != stream))
        active = [clause.cim for clause in spec.clauses
                  if clause.pred == name and satisfies(clause.body, seed, context)]
        if not active:
            raise ValueError(f"no active clause for {name}{args} (spec incomplete)")
        cache[key] = add_cims(active)
    return cache[key]


def forward_sample(spec, worlds: list, schema, horizon: float, seed: int) -> list:
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    proj = projected_schema(schema)
    reads: dict = {}
    for clause in spec.clauses:
        reads.setdefault(clause.pred, set()).update(lit.atom.pred.name for lit in clause.body)
    trajectories = []
    for w_idx, world in enumerate(worlds):
        rng = random.Random(_derive_seed(seed, w_idx))
        states: dict = {}
        events: list = []
        rate_cache: dict = {}
        for name, args in world.streams:
            var = spec.variables.get(name)
            if var is None:
                raise ValueError(f"stream predicate {name!r} not declared")
            k = _draw(rng.random(), enumerate(var.init))
            states[(name, args)] = k
            events.append(Event(var.pred, args, 0.0, _state_to_value(var, k)))
        order = sorted(states)     # (name, args) tuples of strings
        deps = {s: [o for o in order if o != s and o[0] in reads.get(s[0], ())]
                for s in order}
        static = FactBase(proj, world.facts)
        t_now = 0.0
        while True:
            best = None
            for stream in order:
                cim = _active_rates(spec, static, states, stream, deps[stream], rate_cache)
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
            k2 = _draw(rng.random() * cim.exit_rate(k),
                       ((j, row[j]) for j in range(var.states) if j != k))
            states[stream] = k2
            events.append(Event(var.pred, stream[1], t_now, _state_to_value(var, k2)))
        trajectories.append(Trajectory(world.entity, events, horizon))
    return trajectories
