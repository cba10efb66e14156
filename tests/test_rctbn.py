"""Continuous-time model tests: segmentation, gradients, sampling,
amalgamation, and intensity recovery."""

import builtins
import math
import operator
import random
from functools import reduce

import numpy as np
import pytest

from relboost import rctbn
from relboost.logic import (
    Atom,
    Constant,
    FactBase,
    ParseError,
    Variable,
    parse_facts,
    parse_literal_list,
    parse_modes,
    parse_schema,
    satisfies,
    serialize_facts,
)
from relboost.rctbn import (
    CIM,
    MAX_EXPECTED_TRANSITIONS,
    ClauseSpec,
    Event,
    GroundTruthSpec,
    RctbnConfig,
    RctbnModel,
    Segment,
    Trajectory,
    Transition,
    VariableSpec,
    World,
    add_cims,
    amalgamate,
    forward_sample,
    intensity,
    neg_gradient_rate,
    parse_groundtruth,
    parse_rctbn,
    parse_static_facts,
    parse_trajectories,
    pos_gradient_rate,
    projected_schema,
    segment,
    segment_loglik,
    serialize_rctbn,
    serialize_trajectories,
    train_rctbn,
    transition_prob,
    worlds_facts,
)
from relboost.regtree import TreeConfig, evaluate

from tests import sampler_reference
from tests.conftest import compensated_sum
from tests.formula_reference import (
    exp_cdf,
    exp_pdf,
    expected_transition_time,
    neg_gradient,
    pos_gradient,
)


SCHEMA_TEXT = """
predicate: cvd/2 boolean temporal.
predicate: bp/2 multiclass(2) temporal.
predicate: diab/2 boolean temporal.
predicate: parentOf/2 boolean.
predicate: elder/1 boolean.
predicate: checkup/2 boolean temporal.
"""


@pytest.fixture(scope="module")
def schema():
    return parse_schema(SCHEMA_TEXT)


def snapshot(traj, static_db, schema, t, exclude=None):
    """Reference context at time t, built from scratch in one fact base: the
    static facts plus each stream's value at t other than `exclude`.
    Boolean streams appear only while true."""
    proj = projected_schema(schema)
    current: dict = {}
    for ev in traj.events:
        if ev.time <= t:
            current[ev.stream()] = ev.value
    atoms = static_db.facts() if static_db is not None else []
    for (name, args), value in current.items():
        pred = proj.get(name)
        if (name, args) != exclude and value is not False:
            atoms.append(Atom(pred, args, value))
    return FactBase(proj, atoms)


# mirrors a single-person history: blood pressure flip-flops, diabetes
# turns on, and the disease event lands at t5 while pressure is high
JOHN_TEXT = """
traj john
t=0.0 cvd(john)=false
t=0.0 bp(john)=0
t=0.0 diab(john)=false
t=1.0 bp(john)=1
t=2.0 bp(john)=0
t=3.0 diab(john)=true
t=4.0 bp(john)=1
t=5.0 cvd(john)=true
t=6.0 bp(john)=0
horizon=7.0
"""


class TestTrajectories:
    def test_parse_and_roundtrip(self, schema):
        trajs = parse_trajectories(JOHN_TEXT, schema)
        assert len(trajs) == 1
        text = serialize_trajectories(trajs)
        assert serialize_trajectories(parse_trajectories(text, schema)) == text

    def test_symbolic_times_rejected(self, schema):
        bad = "traj a\nt=t0 cvd(a)=false\nhorizon=1.0\n"
        with pytest.raises(Exception, match="numeric"):
            parse_trajectories(bad, schema)

    def test_simultaneous_transitions_rejected(self, schema):
        bad = """
traj a
t=0.0 cvd(a)=false
t=0.0 diab(a)=false
t=1.0 cvd(a)=true
t=1.0 diab(a)=true
horizon=2.0
"""
        with pytest.raises(Exception, match="simultaneous"):
            parse_trajectories(bad, schema)

    def test_repeated_value_rejected(self, schema):
        bad = "traj a\nt=0.0 cvd(a)=false\nt=1.0 cvd(a)=false\nhorizon=2.0\n"
        with pytest.raises(Exception, match="repeats"):
            parse_trajectories(bad, schema)

    def test_uninitialized_stream_rejected(self, schema):
        bad = "traj a\nt=1.0 cvd(a)=true\nhorizon=2.0\n"
        with pytest.raises(Exception, match="not initialized"):
            parse_trajectories(bad, schema)

    @pytest.mark.parametrize("text,message", [
        ("traj a\nt=0.0 cvd(a)=false\nhorizon=nan\n", "line 3: horizon must be a finite"),
        ("traj a\nt=0.0 cvd(a)=false\nhorizon=inf\n", "line 3: horizon must be a finite"),
        ("traj a\nt=0.0 sbp(a)=-inf\nhorizon=1.0\n", "line 2: sbp value must be a finite"),
        ("traj a\nt=0.0 cvd(a)=false\nt=nan cvd(a)=true\nt=1.0 cvd(a)=true\nhorizon=5.0\n",
         "line 3: bad event time nan"),
        ("traj a\nt=0.0 cvd(a)=false\nt=inf cvd(a)=true\nhorizon=5.0\n",
         "line 3: bad event time inf"),
        ("traj a\nt=0.0 cvd(a)=false\nt=-1.0 cvd(a)=true\nhorizon=5.0\n",
         "line 3: bad event time -1.0"),
    ])
    def test_non_finite_numbers_rejected(self, text, message):
        schema = parse_schema(SCHEMA_TEXT + "predicate: sbp/2 continuous temporal.\n")
        with pytest.raises(ParseError, match=message):
            parse_trajectories(text, schema)

    @pytest.mark.parametrize("events,line,message", [
        (f"t=0.0 n(p1)={10 ** 400}", 2, r"n expects a count of at most 2\*\*53"),
        (f"t=0.0 n(p1)=0\nt=1.0 n(p1)={2 ** 53 + 1}", 3,
         r"n expects a count of at most 2\*\*53"),
        ("t=0.0 bp(p1)=7", 2, "class index 7 out of range for bp"),
        ("t=0.0 n(p1)=" + "1" * 5000, 2, "n value has 5000 digits"),
    ], ids=["count-1e400", "count-2**53+1", "class-7", "count-5000-digits"])
    def test_event_values_are_bounded_at_their_line(self, events, line, message):
        schema = parse_schema(SCHEMA_TEXT + "predicate: n/2 count temporal.\n")
        with pytest.raises(ParseError, match=message) as info:
            parse_trajectories(f"traj p1\n{events}\nhorizon=2.0\n", schema)
        assert info.value.line == line

    @pytest.mark.parametrize("events,line,message", [
        ("t=0.0 cvd(a)=false\nt=nan cvd(a)=true", 3, "bad event time nan"),
        ("t=1.0 cvd(a)=true", 3,
         "stream cvd(a) not initialized at time 0 "
         "(first event at 1.0)"),
        ("t=0.0 cvd(a)=false\nt=1.0 cvd(a)=true\nt=1.0 cvd(a)=false", 5,
         "non-increasing times in stream cvd(a)"),
        ("t=0.0 bp(a)=0\nt=1.0 bp(a)=1\nt=2.0 bp(a)=1", 5,
         "stream bp(a) repeats value 1 at t=2.0"),
        ("t=0.0 cvd(a)=false\nt=0.0 diab(a)=false\nt=1.0 diab(a)=true\nt=1.0 cvd(a)=true", 6,
         "simultaneous transitions at t=1.0 in trajectory a"),
        ("t=0.0 cvd(a)=false\nt=3.0 cvd(a)=true", 4, "horizon earlier than the last event"),
    ], ids=["bad-time", "not-initialized", "non-increasing", "repeats", "simultaneous",
            "horizon"])
    def test_trajectory_errors_are_pinned_at_their_line(self, schema, events, line, message):
        # a bad time is the event line's error; the others are the block's,
        # raised at its horizon line
        with pytest.raises(ParseError) as info:
            parse_trajectories(f"traj a\n{events}\nhorizon=2.0\n", schema)
        assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")

    def test_bad_event_time_of_a_built_trajectory(self):
        pred = parse_schema(SCHEMA_TEXT).get("cvd")
        with pytest.raises(ValueError, match=r"\Abad event time -1.0\Z"):
            Trajectory("a", [Event(pred, (Constant("a"),), -1.0, False)], 2.0)

    @pytest.mark.parametrize("stream,message", [
        ("zzz(a)", "unknown predicate 'zzz'"),
        ("elder(a)", "elder is not temporal"),
        ("cvd(a,b)", "cvd streams carry 1 arguments"),
        ("cvd(X)", "cvd stream arguments must be constants"),
    ])
    def test_bad_stream_text_names_its_first_line(self, schema, stream, message):
        # the same bad text on a later line, also in a later block
        text = (f"traj b\nt=0.0 cvd(b)=false\nt=0.0 {stream}=true\nhorizon=1.0\n"
                f"traj c\nt=0.0 {stream}=true\nhorizon=1.0\n")
        with pytest.raises(ParseError) as info:
            parse_trajectories(text, schema)
        assert (info.value.line, str(info.value)) == (3, f"line 3: {message}")

    def test_count_of_2_53_is_exact_and_parses(self):
        schema = parse_schema(SCHEMA_TEXT + "predicate: n/2 count temporal.\n")
        traj = parse_trajectories(f"traj p1\nt=0.0 n(p1)={2 ** 53}\nhorizon=1.0\n", schema)[0]
        assert traj.events[0].value == 2 ** 53

    def test_snapshot_is_piecewise_constant(self, schema):
        traj = parse_trajectories(JOHN_TEXT, schema)[0]
        at = snapshot(traj, None, schema, 3.5)
        assert at.lookup("bp", (Constant("john"),)) == 0
        assert at.lookup("diab", (Constant("john"),)) is True
        assert at.lookup("cvd", (Constant("john"),)) is None  # still false


class TestSegmentation:
    def test_single_positive_with_reference_residence(self, schema):
        trajs = parse_trajectories(JOHN_TEXT, schema)
        segs = segment(trajs, None, schema, Transition("cvd", False, True))
        positives = [s for s in segs if s.positive]
        assert len(positives) == 1
        # the stretch before the event runs from the previous transition at t4
        assert positives[0].residence_time == pytest.approx(1.0)
        # context snapshot at the segment start: bp high, diabetes present
        assert positives[0].context.lookup("bp", (Constant("john"),)) == 1
        assert positives[0].context.lookup("diab", (Constant("john"),)) is True

    def test_no_target_transitions_all_negative(self, schema):
        text = """
traj a
t=0.0 cvd(a)=false
t=0.0 bp(a)=0
t=1.0 bp(a)=1
t=2.5 bp(a)=0
horizon=4.0
"""
        trajs = parse_trajectories(text, schema)
        segs = segment(trajs, None, schema, Transition("cvd", False, True))
        assert len(segs) == 3  # two bp transitions plus the horizon closure
        assert all(not s.positive for s in segs)
        assert [s.residence_time for s in segs] == pytest.approx([1.0, 1.5, 1.5])

    def test_empty_trajectory_list(self, schema):
        assert segment([], None, schema, Transition("cvd", False, True)) == []

    def test_after_target_leaves_from_state_no_examples(self, schema):
        trajs = parse_trajectories(JOHN_TEXT, schema)
        segs = segment(trajs, None, schema, Transition("cvd", False, True))
        # the bp transition at t6 happens while cvd is true: no segment
        assert all(s.residence_time <= 5.0 for s in segs)
        assert len(segs) == 5

    def test_interleaving_order_invariance(self, schema):
        trajs = parse_trajectories(JOHN_TEXT, schema)[0]
        shuffled = Trajectory(trajs.entity, list(reversed(trajs.events)),
                              trajs.horizon)
        a = segment([trajs], None, schema, Transition("cvd", False, True))
        b = segment([shuffled], None, schema, Transition("cvd", False, True))
        assert [(s.residence_time, s.positive) for s in a] == \
            [(s.residence_time, s.positive) for s in b]


    def test_contexts_are_snapshots_shared_by_joint_state(self, schema):
        # bp is a valued and diab a boolean context stream; cvd turns true at
        # t3 and false again at t5, so segments resume from t5 on
        text = """
traj john
t=0.0 cvd(john)=false
t=0.0 bp(john)=0
t=0.0 diab(john)=false
t=1.0 bp(john)=1
t=2.0 diab(john)=true
t=3.0 cvd(john)=true
t=4.0 bp(john)=0
t=5.0 cvd(john)=false
t=6.0 bp(john)=1
t=7.0 diab(john)=false
t=8.0 bp(john)=0
horizon=9.0
"""
        traj = parse_trajectories(text, schema)[0]
        static = parse_facts("parentOf(ann,john).\nelder(ann).", projected_schema(schema))
        segs = segment([traj], static, schema, Transition("cvd", False, True))
        assert [s.residence_time for s in segs] == [1.0] * 7
        assert [s.positive for s in segs] == [False, False, True] + [False] * 4
        target_stream = ("cvd", (Constant("john"),))
        for seg, start in zip(segs, [0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 8.0]):
            assert serialize_facts(seg.context) == serialize_facts(
                snapshot(traj, static, schema, start, exclude=target_stream))
        states = [(s.context.lookup("bp", (Constant("john"),)),
                   s.context.lookup("diab", (Constant("john"),))) for s in segs]
        for a, state_a in zip(segs, states):
            for b, state_b in zip(segs, states):
                assert (a.context is b.context) == (state_a == state_b)
        assert len({id(s.context) for s in segs}) == 4


class TestExponentialMachinery:
    def test_transition_prob_reference(self):
        assert transition_prob(1.0, 1.0) == pytest.approx(1.0 - 1.0 / math.e)

    def test_transition_prob_small_limit(self):
        assert transition_prob(1e-3, 1e-3) < 1e-5
        assert transition_prob(1e-6, 1.0) < 1.1e-6

    def test_survival_complements(self):
        rng = random.Random(3)
        for _ in range(100):
            q, t = rng.uniform(0.01, 5), rng.uniform(0.01, 5)
            assert transition_prob(q, t) + math.exp(-q * t) == pytest.approx(1.0)

    def test_monotone_in_q_and_t(self):
        probs = [transition_prob(q / 10.0, 1.0) for q in range(1, 60)]
        assert all(a < b for a, b in zip(probs, probs[1:]))
        probs = [transition_prob(1.0, t / 10.0) for t in range(1, 60)]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_expected_transition_time(self):
        assert expected_transition_time(2.0) == 0.5
        assert expected_transition_time(1.0) == 1.0

    def test_expected_time_monte_carlo(self):
        rng = random.Random(12)
        q = 1.7
        mean = sum(rng.expovariate(q) for _ in range(100_000)) / 100_000
        assert mean == pytest.approx(expected_transition_time(q), rel=0.02)

    def test_exp_pdf_cdf_values(self):
        assert exp_cdf(3.0, 0.0) == 0.0
        assert exp_pdf(1.0, 0.0) == 1.0

    def test_pdf_integrates_to_cdf(self):
        # quadrature over [0, 10/q] reaches 1 - e^-10
        q = 0.7
        grid = 200_000
        upper = 10.0 / q
        h = upper / grid
        total = sum(exp_pdf(q, (i + 0.5) * h) for i in range(grid)) * h
        assert total == pytest.approx(1.0 - math.exp(-10.0), abs=1e-7)


class TestSegmentGradients:
    def test_positive_limit_at_one(self):
        assert pos_gradient(1.0 - 1e-6) < 1e-4
        assert pos_gradient(1.0) == 0.0

    def test_positive_reference_point(self):
        p = 1.0 - 1.0 / math.e
        assert pos_gradient(p) == pytest.approx((1.0 / math.e) / p)
        assert pos_gradient(p) == pytest.approx(0.5820, abs=1e-4)

    def test_positive_limit_at_zero(self):
        assert pos_gradient(1e-4) == pytest.approx(1.0, abs=1e-3)

    def test_negative_reference_points(self):
        assert neg_gradient(0.0) == 0.0
        assert neg_gradient(1.0 - 1.0 / math.e) == pytest.approx(-1.0)
        assert neg_gradient(0.5) == pytest.approx(math.log(0.5))

    def test_rate_forms_agree_with_probability_forms(self):
        # beyond qt of about 10 the probability form loses the survival
        # mass to rounding, which is why the trainer uses the rate form
        rng = random.Random(8)
        for _ in range(500):
            qt = rng.uniform(1e-4, 10.0)
            p = 1.0 - math.exp(-qt)
            assert pos_gradient_rate(qt) == pytest.approx(pos_gradient(p),
                                                          rel=1e-9, abs=1e-12)
            assert neg_gradient_rate(qt) == pytest.approx(neg_gradient(p),
                                                          rel=1e-9, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pos_gradient(0.0)
        with pytest.raises(ValueError):
            neg_gradient(1.0)

    def test_gradients_match_loglik_finite_differences(self):
        rng = random.Random(44)
        h = 1e-5
        for _ in range(1000):
            phi = rng.uniform(-3.0, 3.0)
            T = rng.uniform(0.05, 5.0)
            for positive in (True, False):
                fd = (segment_loglik(positive, phi + h, T)
                      - segment_loglik(positive, phi - h, T)) / (2.0 * h)
                qt = math.exp(phi) * T
                grad = pos_gradient_rate(qt) if positive else neg_gradient_rate(qt)
                assert grad == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_loglik_is_concave_in_phi(self):
        rng = random.Random(45)
        h = 1e-3
        for _ in range(1000):
            phi = rng.uniform(-3.0, 3.0)
            T = rng.uniform(0.05, 5.0)
            for positive in (True, False):
                second = (segment_loglik(positive, phi + h, T)
                          - 2.0 * segment_loglik(positive, phi, T)
                          + segment_loglik(positive, phi - h, T)) / h ** 2
                assert second <= 1e-9


def _constant_rate_worlds(n, with_noise=True):
    worlds = []
    for i in range(n):
        ent = f"w{i:04d}"
        streams = [("cvd", (Constant(ent),))]
        if with_noise:
            streams.append(("checkup", (Constant(ent),)))
        worlds.append(World(ent, streams, []))
    return worlds


def _spec(schema, text):
    spec, _ = parse_groundtruth(text, schema)
    return spec


class TestForwardSampling:
    def test_single_rate_long_horizon(self, schema):
        spec = _spec(schema, """
var cvd init=[0.5, 0.5]
clause cvd cim=[[-1.0, 1.0], [1.0, -1.0]]
""")
        worlds = [World("solo", [("cvd", (Constant("solo"),))], [])]
        trajs = forward_sample(spec, worlds, schema, horizon=10_000.0, seed=5)
        transitions = len(trajs[0].transitions())
        rate = transitions / 10_000.0
        assert rate == pytest.approx(1.0, rel=0.03)

    def test_zero_rate_no_events(self, schema):
        spec = _spec(schema, """
var cvd init=[1.0, 0.0]
clause cvd cim=[[0.0, 0.0], [0.0, 0.0]]
""")
        worlds = [World("solo", [("cvd", (Constant("solo"),))], [])]
        trajs = forward_sample(spec, worlds, schema, horizon=100.0, seed=5)
        assert len(trajs[0].transitions()) == 0

    def test_a_head_expecting_too_many_transitions_is_refused_before_sampling(self, schema):
        # the bound is on the sum of every clause of a head, bodies aside:
        # 4e5 + 6e5 = 1e6 per time unit, so horizon 10 is exactly at the limit
        spec = _spec(schema, """
var cvd init=[1.0, 0.0]
clause cvd cim=[[-4e5, 4e5], [0.0, 0.0]]
clause cvd cim=[[-6e5, 6e5], [0.0, 0.0]] if "parentOf(Y,V0), cvd(Y)"
""")
        assert MAX_EXPECTED_TRANSITIONS == 10 ** 7
        assert forward_sample(spec, [], schema, horizon=10.0, seed=5) == []
        with pytest.raises(ValueError, match=r"the cvd clauses reach exit rate 1000000\.0: "
                                             r"over horizon 10\.5 .* past the limit of 1e\+07"):
            forward_sample(spec, [], schema, horizon=10.5, seed=5)

    def test_competing_clocks_sum_rates(self, schema):
        qa, qb = 0.8, 1.7
        spec = _spec(schema, f"""
var cvd init=[1.0, 0.0]
var checkup init=[1.0, 0.0]
clause cvd cim=[[{-qa}, {qa}], [0.0, 0.0]]
clause checkup cim=[[{-qb}, {qb}], [0.0, 0.0]]
""")
        worlds = []
        for i in range(4000):
            e = f"w{i:05d}"
            worlds.append(World(e, [("cvd", (Constant(e),)),
                                    ("checkup", (Constant(e),))], []))
        trajs = forward_sample(spec, worlds, schema, horizon=50.0, seed=9)
        firsts = [t.transitions()[0].time for t in trajs if t.transitions()]
        mean_first = sum(firsts) / len(firsts)
        assert mean_first == pytest.approx(1.0 / (qa + qb), rel=0.03)

    def test_residence_times_match_active_rates(self, schema):
        # two-context model: mean residence per (state, context), measured
        # by the occupancy estimator (time in state over stays ended by the
        # state's own clock), matches the reciprocal of the active rate
        spec = _spec(schema, """
var cvd init=[1.0, 0.0]
var checkup init=[0.5, 0.5]
clause cvd cim=[[-1.0, 1.0], [1.2, -1.2]]
clause cvd cim=[[-1.5, 1.5], [0.0, 0.0]] if "checkup(V0)"
clause checkup cim=[[-2.0, 2.0], [2.0, -2.0]]
""")
        worlds = []
        for i in range(2600):
            e = f"w{i:05d}"
            worlds.append(World(e, [("cvd", (Constant(e),)),
                                    ("checkup", (Constant(e),))], []))
        trajs = forward_sample(spec, worlds, schema, horizon=25.0, seed=10)
        time_in = {True: 0.0, False: 0.0}
        fired = {True: 0, False: 0}
        gaps = {True: 0, False: 0}
        for traj in trajs:
            me = (Constant(traj.entity),)
            state = {}
            t_prev = 0.0
            for ev in sorted(traj.events, key=lambda e: e.time):
                if ev.time == 0.0:
                    state[ev.stream()] = ev.value
                    continue
                if state[("cvd", me)] is False:
                    ctx = state[("checkup", me)] is True
                    time_in[ctx] += ev.time - t_prev
                    gaps[ctx] += 1
                    if ev.pred.name == "cvd":
                        fired[ctx] += 1
                state[ev.stream()] = ev.value
                t_prev = ev.time
            if state[("cvd", me)] is False:
                # the censored final stay belongs in the occupancy time
                ctx = state[("checkup", me)] is True
                time_in[ctx] += traj.horizon - t_prev
        for ctx, q_active in ((True, 1.0 + 1.5), (False, 1.0)):
            assert fired[ctx] >= 10_000
            mean_residence = time_in[ctx] / fired[ctx]
            assert mean_residence == pytest.approx(1.0 / q_active, rel=0.03)

    def test_a_worlds_streams_are_its_trajectorys_event_streams(self, schema):
        # a parsed world's (name, args) is the Event.stream() of what it samples,
        # and the segment target is the entity itself
        spec, worlds = parse_groundtruth("""
var cvd init=[0.5, 0.5]
var checkup init=[0.5, 0.5]
clause cvd cim=[[-1.0, 1.0], [1.0, -1.0]] if "parentOf(Y,V0), checkup(Y)"
clause cvd cim=[[-0.5, 0.5], [0.5, -0.5]]
clause checkup cim=[[-2.0, 2.0], [2.0, -2.0]]
world p1
stream cvd(p1)
stream checkup(d1)
fact parentOf(d1,p1).
end
""", schema)
        [traj] = forward_sample(spec, worlds, schema, horizon=5.0, seed=3)
        streams = [ev.stream() for ev in traj.events if ev.time == 0.0]
        assert sorted(streams) == sorted(worlds[0].streams) == [("checkup", ("d1",)),
                                                               ("cvd", ("p1",))]
        assert {ev.stream() for ev in traj.events} == set(worlds[0].streams)
        assert all(type(c) is str for name, args in streams for c in args)
        segs = segment([traj], worlds_facts(worlds, schema), schema,
                       Transition("cvd", False, True))
        assert segs and all(s.target.args == (traj.entity,) == ("p1",) for s in segs)

    def test_seed_determinism(self, schema):
        spec = _spec(schema, """
var cvd init=[0.5, 0.5]
clause cvd cim=[[-1.0, 1.0], [1.0, -1.0]]
""")
        worlds = _constant_rate_worlds(5, with_noise=False)
        a = serialize_trajectories(forward_sample(spec, worlds, schema, 10.0, 3))
        b = serialize_trajectories(forward_sample(spec, worlds, schema, 10.0, 3))
        assert a == b

    def test_missing_clause_rejected(self, schema):
        spec = _spec(schema, """
var cvd init=[1.0, 0.0]
clause cvd cim=[[-1.0, 1.0], [0.0, 0.0]] if "checkup(V0)"
""")
        worlds = [World("solo", [("cvd", (Constant("solo"),))], [])]
        with pytest.raises(ValueError, match="no active clause"):
            forward_sample(spec, worlds, schema, 10.0, 1)


DIFF_SCHEMA_TEXT = SCHEMA_TEXT + """
predicate: stage/2 multiclass(3) temporal.
predicate: sib/2 boolean.
"""

DIFF_STATES = {"cvd": 2, "diab": 2, "bp": 2, "stage": 3}
DIFF_INITS = {2: ([1.0, 0.0], [0.5, 0.5], [0.25, 0.75]),
              3: ([1.0, 0.0, 0.0], [0.5, 0.25, 0.25], [0.125, 0.125, 0.75])}
DIFF_BODIES = (     # negated, valued, and chained through one or two parents
    "cvd(V0)", "!cvd(V0)", "bp(V0)=1", "!bp(V0)=0", "stage(V0)=2", "elder(V0)",
    "!elder(V0)", "diab(V0), !stage(V0)=1", "parentOf(Y,V0), cvd(Y)",
    "parentOf(Y,V0), !cvd(Y)", "parentOf(Y,V0), stage(Y)=1",
    "parentOf(Y,V0), parentOf(Z,Y), diab(Z)", "sib(V0,Y), !elder(Y), bp(Y)=1",
    "parentOf(Y,V0), elder(Y), !stage(Y)=0",
)


def _random_cim(rng: random.Random, states: int) -> str:
    rows = []
    for k in range(states):
        absorbing = rng.random() < 0.25
        off = [0.0 if absorbing or rng.random() < 0.3 else round(rng.uniform(0.1, 2.0), 3)
               for _ in range(states - 1)]
        off.insert(k, -sum(off) if any(off) else 0.0)
        rows.append(off)
    return repr(rows)


def _random_spec_text(seed: int) -> str:
    """Every variable with one unconditional clause and up to three
    conditional ones, any of whose rows may be absorbing."""
    rng = random.Random(seed)
    lines = []
    for name, states in DIFF_STATES.items():
        lines.append(f"var {name} init={rng.choice(DIFF_INITS[states])}")
        lines.append(f"clause {name} cim={_random_cim(rng, states)}")
        for _ in range(rng.randint(0, 3)):
            lines.append(f'clause {name} cim={_random_cim(rng, states)} '
                         f'if "{rng.choice(DIFF_BODIES)}"')
    return "\n".join(lines) + "\n"


def _random_worlds(seed: int, proj) -> list:
    """Worlds of 1-4 entities, each entity with some of the streams, linked
    by parentOf, sib and elder facts."""
    rng = random.Random(seed)
    worlds = []
    for w in range(8):
        ents = [Constant(f"e{w}x{j}") for j in range(rng.randint(1, 4))]
        streams = [(name, (e,)) for e in ents for name in DIFF_STATES
                   if rng.random() < 0.7]
        facts = []
        for j, e in enumerate(ents):
            if j and rng.random() < 0.7:
                facts.append(Atom(proj.get("parentOf"), (ents[rng.randrange(j)], e), True))
            if rng.random() < 0.4:
                facts.append(Atom(proj.get("elder"), (e,), True))
            if rng.random() < 0.3:
                facts.append(Atom(proj.get("sib"), (e, rng.choice(ents)), True))
        worlds.append(World(ents[0], streams, facts))
    return worlds


class TestSamplerAgainstReference:
    """`forward_sample` against the sampler that raced streams by their
    (name, arguments) keys: the same trajectories byte for byte, and the
    same errors."""

    @pytest.fixture(scope="class")
    def diff_schema(self):
        return parse_schema(DIFF_SCHEMA_TEXT)

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_random_specs_sample_the_same_bytes(self, diff_schema, seed):
        spec, _ = parse_groundtruth(_random_spec_text(seed), diff_schema)
        worlds = _random_worlds(seed, projected_schema(diff_schema))
        want = serialize_trajectories(
            sampler_reference.forward_sample(spec, worlds, diff_schema, 6.0, seed))
        assert serialize_trajectories(forward_sample(spec, worlds, diff_schema, 6.0, seed)) \
            == want
        assert any(line.startswith("t=") and not line.startswith("t=0.0 ")
                   for line in want.splitlines())     # some stream transitions

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_random_specs_sample_the_same_bytes_under_a_compensated_sum(
            self, diff_schema, seed, monkeypatch):
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        self.test_random_specs_sample_the_same_bytes(diff_schema, seed)

    def test_absorbing_spec_samples_no_transitions(self, diff_schema):
        spec = _spec(diff_schema, """
var stage init=[0.0, 1.0, 0.0]
clause stage cim=[[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
clause stage cim=[[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]] if "elder(V0)"
""")
        worlds = _random_worlds(4, projected_schema(diff_schema))
        worlds = [World(w.entity, [s for s in w.streams if s[0] == "stage"], w.facts)
                  for w in worlds]
        got = serialize_trajectories(forward_sample(spec, worlds, diff_schema, 6.0, 4))
        assert got == serialize_trajectories(
            sampler_reference.forward_sample(spec, worlds, diff_schema, 6.0, 4))
        assert "t=0.0 " in got and all(line.startswith(("traj", "t=0.0", "horizon"))
                                       for line in got.splitlines())

    @pytest.mark.parametrize("spec_text,streams", [
        # checkup is not a declared variable
        ("var cvd init=[1.0, 0.0]\nclause cvd cim=[[-1.0, 1.0], [0.0, 0.0]]\n",
         ["cvd", "checkup"]),
        # no clause of cvd holds at the start
        ('var cvd init=[1.0, 0.0]\nclause cvd cim=[[-1.0, 1.0], [0.0, 0.0]] if "diab(V0)"\n'
         "var diab init=[1.0, 0.0]\nclause diab cim=[[-1.0, 1.0], [1.0, -1.0]]\n",
         ["diab", "cvd"]),
        # the only clause of cvd stops holding once diab turns off
        ('var cvd init=[1.0, 0.0]\nclause cvd cim=[[-0.1, 0.1], [0.0, 0.0]] if "diab(V0)"\n'
         "var diab init=[0.0, 1.0]\nclause diab cim=[[0.0, 0.0], [1.0, -1.0]]\n",
         ["cvd", "diab"]),
    ], ids=["undeclared", "incomplete-at-start", "incomplete-later"])
    def test_the_same_errors(self, diff_schema, spec_text, streams):
        spec = _spec(diff_schema, spec_text)
        worlds = [World("solo", [(name, (Constant("solo"),)) for name in streams], [])]
        with pytest.raises(ValueError) as want:
            sampler_reference.forward_sample(spec, worlds, diff_schema, 50.0, 3)
        with pytest.raises(ValueError) as got:
            forward_sample(spec, worlds, diff_schema, 50.0, 3)
        assert str(got.value) == str(want.value)
        assert ("not declared" if len(spec.variables) == 1 else "no active clause") \
            in str(got.value)


class TestIntensityAndModel:
    def _segment(self, schema, T=1.0):
        proj = projected_schema(schema)
        from relboost.logic import FactBase
        target = Atom(proj.get("cvd"), (Constant("a"),))
        return Segment(target, False, T, FactBase(proj, []), True)

    def test_unit_intensity_at_zero_phi(self, schema):
        model = RctbnModel(Transition("cvd", False, True),
                           projected_schema(schema).get("cvd"), 0.0, [])
        assert intensity(model, self._segment(schema)) == 1.0

    def test_log_two_intensity(self, schema):
        model = RctbnModel(Transition("cvd", False, True),
                           projected_schema(schema).get("cvd"),
                           math.log(2.0), [])
        assert intensity(model, self._segment(schema)) == pytest.approx(2.0)

    def test_reciprocal_of_expected_time(self, schema):
        model = RctbnModel(Transition("cvd", False, True),
                           projected_schema(schema).get("cvd"), 0.7, [])
        q = intensity(model, self._segment(schema))
        assert expected_transition_time(q) == pytest.approx(1.0 / q)


class TestTraining:
    def test_single_rate_recovery(self, schema):
        # brisk competing transitions keep segments short, where the
        # within-T transition likelihood stays close to the counting MLE
        spec = _spec(schema, """
var cvd init=[1.0, 0.0]
var checkup init=[0.5, 0.5]
clause cvd cim=[[-1.0, 1.0], [0.0, 0.0]]
clause checkup cim=[[-6.0, 6.0], [6.0, -6.0]]
""")
        worlds = _constant_rate_worlds(120)
        trajs = forward_sample(spec, worlds, schema, horizon=2.0, seed=21)
        tr = Transition("cvd", False, True)
        segs = segment(trajs, None, schema, tr)
        assert len(segs) >= 500
        modes = parse_modes("", projected_schema(schema))
        model = train_rctbn(trajs, None, schema, tr, modes,
                            RctbnConfig(iterations=60, rng_seed=2))
        counting_mle = (sum(1 for s in segs if s.positive)
                        / sum(s.residence_time for s in segs))
        learned = intensity(model, segs[0])
        assert abs(learned - 1.0) / 1.0 < 0.2
        assert abs(learned - counting_mle) / counting_mle < 0.2

    @staticmethod
    def _parent_domain(schema):
        """(trajectories, facts, modes, config) where an ill parent or an
        elder one raises an entity's cvd rate."""
        proj = projected_schema(schema)
        spec = _spec(schema, """
var cvd init=[1.0, 0.0]
var checkup init=[0.5, 0.5]
clause cvd cim=[[-0.1, 0.1], [0.0, 0.0]]
clause cvd cim=[[-0.9, 0.9], [0.0, 0.0]] if "parentOf(Y,V0), cvd(Y)"
clause cvd cim=[[-0.7, 0.7], [0.0, 0.0]] if "elder(V0)"
clause checkup cim=[[-3.0, 3.0], [3.0, -3.0]]
""")
        worlds = []
        for i in range(60):
            ent = f"p{i:03d}"
            par = Constant(f"d{i:03d}")
            worlds.append(World(ent, [
                ("cvd", (Constant(ent),)), ("cvd", (par,)),
                ("checkup", (Constant(ent),))],
                [Atom(proj.get("parentOf"), (par, Constant(ent)), True),
                 Atom(proj.get("elder"), (par,), True)]))
        trajs = forward_sample(spec, worlds, schema, horizon=3.0, seed=31)
        facts = worlds_facts(worlds, schema)
        modes = parse_modes(
            "mode: parentOf(-,+).\nmode: cvd(+).\nmode: checkup(+).", proj)
        config = RctbnConfig(iterations=6, tree=TreeConfig(max_leaves=2),
                             rng_seed=7)
        return trajs, facts, modes, config

    def test_relational_context_split_and_determinism(self, schema):
        trajs, facts, modes, config = self._parent_domain(schema)
        tr = Transition("cvd", False, True)
        model = train_rctbn(trajs, facts, schema, tr, modes, config)
        root_line = serialize_rctbn(model).splitlines()[2]
        assert "parentOf" in root_line and "cvd" in root_line
        again = train_rctbn(trajs, facts, schema, tr, modes, config)
        assert serialize_rctbn(model) == serialize_rctbn(again)

    def test_intensity_of_a_probe_segment_built_by_position(self, schema):
        # the calls perfbench's rctbn check makes on a trained model file
        trajs, facts, modes, config = self._parent_domain(schema)
        model = parse_rctbn(serialize_rctbn(train_rctbn(
            trajs, facts, schema, Transition("cvd", False, True), modes, config)), schema)
        proj = projected_schema(schema)
        ent, par = Constant("probe"), Constant("probe_parent")
        target = Atom(proj.get("cvd"), (ent,))

        def rate(atoms):
            seg = Segment(target, False, 1.0, FactBase(proj, atoms), False)
            q = intensity(model, seg)
            assert q == math.exp(model.phi0 + evaluate(model.trees, target, seg.context))
            return q

        ill = rate([Atom(proj.get("parentOf"), (par, ent), True),
                    Atom(proj.get("elder"), (par,), True),
                    Atom(proj.get("cvd"), (par,), True)])
        assert ill > rate([])

    def test_segments_sharing_target_and_context_are_routed_alike(self, schema):
        # cvd turns true at t3 and false again at t5; the segments from t0
        # and t8 share the target atom and the context (bp=0, diab=false)
        text = """
traj john
t=0.0 cvd(john)=false
t=0.0 bp(john)=0
t=0.0 diab(john)=false
t=1.0 bp(john)=1
t=2.0 diab(john)=true
t=3.0 cvd(john)=true
t=4.0 bp(john)=0
t=5.0 cvd(john)=false
t=6.0 bp(john)=1
t=7.0 diab(john)=false
t=8.0 bp(john)=0
horizon=9.0
"""
        trajs = parse_trajectories(text, schema)
        tr = Transition("cvd", False, True)
        segs = segment(trajs, None, schema, tr)
        assert segs[0].target is segs[-1].target and segs[0].context is segs[-1].context
        modes = parse_modes("mode: diab(+).\nmode: bp(+).", projected_schema(schema))
        lls = []
        model = train_rctbn(trajs, None, schema, tr, modes, RctbnConfig(iterations=4),
                            on_iteration=lambda m, ll: lls.append(ll))
        assert any(tree.leaf_count() > 1 for tree in model.trees)
        # training sums the positive segments first, as train_rctbn keeps
        # them, left to right from 0.0
        ordered = [s for s in segs if s.positive] + [s for s in segs if not s.positive]
        for m, ll in enumerate(lls, start=1):
            head = RctbnModel(tr, model.target, model.phi0, model.trees[:m])
            assert ll == reduce(operator.add, (segment_loglik(s.positive, head.phi(s),
                                                              s.residence_time)
                                               for s in ordered), 0.0)

    def test_segments_sharing_target_and_context_are_routed_alike_under_a_compensated_sum(
            self, schema, monkeypatch):
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        self.test_segments_sharing_target_and_context_are_routed_alike(schema)

    def test_no_positive_segments_rejected(self, schema):
        text = """
traj a
t=0.0 cvd(a)=false
t=0.0 bp(a)=0
t=1.0 bp(a)=1
horizon=2.0
"""
        trajs = parse_trajectories(text, schema)
        with pytest.raises(ValueError, match="no positive segments"):
            train_rctbn(trajs, None, schema, Transition("cvd", False, True),
                        [], RctbnConfig(iterations=1))

    def test_negative_cap_subsamples(self, schema):
        spec = _spec(schema, """
var cvd init=[1.0, 0.0]
var checkup init=[0.5, 0.5]
clause cvd cim=[[-0.5, 0.5], [0.0, 0.0]]
clause checkup cim=[[-4.0, 4.0], [4.0, -4.0]]
""")
        worlds = _constant_rate_worlds(40)
        trajs = forward_sample(spec, worlds, schema, horizon=2.0, seed=12)
        tr = Transition("cvd", False, True)
        config = RctbnConfig(iterations=2, neg_cap_per_traj=2, rng_seed=5)
        model = train_rctbn(trajs, None, schema, tr, parse_modes("", projected_schema(schema)),
                            config)
        assert len(model.trees) == 2

    def test_negative_cap_groups_by_trajectory_not_by_entity(self, schema, monkeypatch):
        # two trajectories of one entity a: the first has one positive and
        # four negative segments, the second four negatives
        trajs = parse_trajectories("""
traj a
t=0.0 cvd(a)=false
t=0.0 bp(a)=0
t=1.0 bp(a)=1
t=2.0 bp(a)=0
t=3.0 bp(a)=1
t=4.0 bp(a)=0
t=5.0 cvd(a)=true
horizon=6.0
traj a
t=0.0 cvd(a)=false
t=0.0 bp(a)=1
t=1.5 bp(a)=0
t=2.5 bp(a)=1
t=3.5 bp(a)=0
horizon=4.0
""", schema)
        tr = Transition("cvd", False, True)
        modes = parse_modes("mode: bp(+).", projected_schema(schema))
        config = RctbnConfig(iterations=3, neg_cap_per_traj=2, rng_seed=4)
        lls = []
        model = train_rctbn(trajs, None, schema, tr, modes, config,
                            on_iteration=lambda m, ll: lls.append(ll))
        # the reference caps each trajectory's own segments, in file order,
        # from one RNG seeded as train_rctbn's
        rng = random.Random(config.rng_seed)
        reference = []
        for traj in trajs:
            segs = segment([traj], None, schema, tr)
            negs = [s for s in segs if not s.positive]
            if len(negs) > config.neg_cap_per_traj:
                negs = [negs[i] for i in sorted(rng.sample(range(len(negs)),
                                                           config.neg_cap_per_traj))]
            reference += [s for s in segs if s.positive] + negs
        assert len(reference) == 5      # capping entity a as one group keeps 3
        monkeypatch.setattr(rctbn, "segment", lambda *args: reference)
        ref_lls = []
        ref_model = train_rctbn(trajs, None, schema, tr, modes,
                                RctbnConfig(iterations=3, rng_seed=4),
                                on_iteration=lambda m, ll: ref_lls.append(ll))
        assert serialize_rctbn(model) == serialize_rctbn(ref_model)
        assert lls == ref_lls

    def test_model_file_roundtrip(self, schema):
        trajs = parse_trajectories(JOHN_TEXT, schema)
        tr = Transition("cvd", False, True)
        modes = parse_modes("mode: diab(+).\nmode: bp(+).",
                            projected_schema(schema))
        model = train_rctbn(trajs, None, schema, tr, modes,
                            RctbnConfig(iterations=3, rng_seed=1))
        text = serialize_rctbn(model)
        again = parse_rctbn(text, schema)
        assert serialize_rctbn(again) == text
        segs = segment(trajs, None, schema, tr)
        for s in segs:
            assert again.phi(s) == model.phi(s)


def _expand_cim_oracle(n_states, cims_with_context):
    """Appendix-style expansion-and-sum oracle, built independently:
    every (context, variable CIM) pair becomes a full joint matrix with an
    indicator of the context, and the expansions are summed."""
    strides = []
    total = 1
    for r in n_states:
        strides.append(total)
        total *= r

    def unpack(idx):
        return tuple((idx // strides[i]) % n_states[i] for i in range(len(n_states)))

    joint = np.zeros((total, total))
    for var_idx, context_fn, cim in cims_with_context:
        for idx in range(total):
            state = unpack(idx)
            if not context_fn(state):
                continue
            k = state[var_idx]
            for k2 in range(n_states[var_idx]):
                if k2 == k:
                    continue
                joint[idx, idx + (k2 - k) * strides[var_idx]] += cim[k][k2]
            joint[idx, idx] += cim[k][k]
    return joint


class TestAmalgamation:
    def test_single_variable_is_identity(self):
        cim = CIM([[-2.0, 2.0], [0.5, -0.5]])
        joint = amalgamate([2], lambda i, s: [cim])
        assert np.allclose(joint, np.array(cim.rates))

    def test_shared_head_rates_add(self):
        c1 = CIM([[-1.0, 1.0], [0.0, 0.0]])
        c2 = CIM([[-0.5, 0.5], [0.0, 0.0]])
        joint = amalgamate([2], lambda i, s: [c1, c2])
        assert joint[0, 1] == pytest.approx(1.5)

    def test_three_binary_variables_against_expansion(self):
        # variables ordered [disease, pressure, mass]; the disease CIM
        # depends on the pressure state through one clause pair and on the
        # mass state through another; pressure and mass are unconditioned
        a0 = [[-0.3, 0.3], [0.6, -0.6]]
        a1 = [[-1.1, 1.1], [0.2, -0.2]]
        b0 = [[-0.05, 0.05], [0.4, -0.4]]
        b1 = [[-0.9, 0.9], [0.15, -0.15]]
        qh = [[-0.7, 0.7], [0.5, -0.5]]
        qm = [[-0.25, 0.25], [0.35, -0.35]]

        def active(i, state):
            if i == 0:
                return [CIM(a1 if state[1] else a0), CIM(b1 if state[2] else b0)]
            if i == 1:
                return [CIM(qh)]
            return [CIM(qm)]

        joint = amalgamate([2, 2, 2], active)
        oracle = _expand_cim_oracle([2, 2, 2], [
            (0, lambda s: s[1] == 0, a0),
            (0, lambda s: s[1] == 1, a1),
            (0, lambda s: s[2] == 0, b0),
            (0, lambda s: s[2] == 1, b1),
            (1, lambda s: True, qh),
            (2, lambda s: True, qm),
        ])
        assert joint.shape == (8, 8)
        assert np.allclose(joint, oracle, atol=1e-14)

    def test_rows_sum_to_zero_and_double_changes_vanish(self):
        rng = random.Random(19)
        for _ in range(10):
            states = [rng.choice([2, 3]) for _ in range(3)]

            def random_cim(r):
                rates = [[rng.uniform(0.0, 2.0) if i != j else 0.0
                          for j in range(r)] for i in range(r)]
                for i in range(r):
                    rates[i][i] = -sum(rates[i])
                return CIM(rates)

            cims = {i: [random_cim(states[i])] for i in range(3)}
            joint = amalgamate(states, lambda i, s: cims[i])
            assert np.allclose(joint.sum(axis=1), 0.0, atol=1e-12)
            total = states[0] * states[1] * states[2]
            strides = [1, states[0], states[0] * states[1]]

            def unpack(idx):
                return tuple((idx // strides[i]) % states[i] for i in range(3))

            for i in range(total):
                for j in range(total):
                    changed = sum(a != b for a, b in zip(unpack(i), unpack(j)))
                    if changed >= 2:
                        assert joint[i, j] == 0.0
                    elif changed == 1:
                        assert joint[i, j] >= 0.0

    def test_inconsistent_dimensions_rejected(self):
        c1 = CIM([[-1.0, 1.0], [0.0, 0.0]])
        c3 = CIM([[-1.0, 0.5, 0.5], [0.0, 0.0, 0.0], [0.2, 0.3, -0.5]])
        with pytest.raises(ValueError):
            add_cims([c1, c3])
        with pytest.raises(ValueError):
            amalgamate([2], lambda i, s: [c3])

    def test_bad_cim_rejected(self):
        with pytest.raises(ValueError, match="sum to zero"):
            CIM([[-1.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            CIM([[0.5, -0.5], [0.0, 0.0]])


class TestGroundTruthFiles:
    def test_parse_worlds(self, schema):
        spec, worlds = parse_groundtruth("""
var cvd init=[1.0, 0.0]
clause cvd cim=[[-1.0, 1.0], [0.0, 0.0]]
world p1
stream cvd(p1)
fact elder(p1).
end
""", schema)
        assert worlds[0].entity == "p1"
        assert worlds[0].streams == [("cvd", (Constant("p1"),))]
        assert worlds[0].facts[0].pred.name == "elder"

    @pytest.mark.parametrize("line,message", [
        ("stream cvd(X)", "cvd stream arguments must be constants"),
        ("stream cvd(p1,x)", "cvd streams carry 1 arguments"),
        ("stream parentOf(d1,p1)", "parentOf is not temporal"),
        ("stream cvd(p1)", r"repeated stream cvd\(p1\) in world p1"),
        ("fact cvd(p1).", "cvd is a stream predicate"),
    ], ids=["variable", "arity", "atemporal", "repeated", "fact-on-stream"])
    def test_bad_world_line_is_parse_error_at_its_line(self, schema, line, message):
        # a world fact on a stream predicate would shadow the stream in
        # every sampled context
        text = ("var cvd init=[1.0, 0.0]\nclause cvd cim=[[-1.0, 1.0], [0.0, 0.0]]\n"
                f"world p1\nstream cvd(p1)\n{line}\nend\n")
        with pytest.raises(ParseError, match=message) as info:
            parse_groundtruth(text, schema)
        assert info.value.line == 5

    @pytest.mark.parametrize("text,line,name", [
        ("parentOf(a,b).\nelder(a).\n", None, None),
        ("parentOf(a,b).\ncvd(a,0.0).\nelder(a).\ncvd(a,0.0).\n", 2, "cvd"),
        ("% header\nelder(a).\n\n  bp( a , 1.0 )=1. % late\ncvd(b,2.0).\n", 4, "bp"),
        ("checkup(a,1.0).\ncheckup(a,1.0).\n", 1, "checkup"),
    ], ids=["static", "common-form", "per-line", "duplicate"])
    def test_static_fact_on_a_stream_names_the_first_such_line(self, schema, text, line,
                                                               name):
        if line is None:
            assert len(parse_static_facts(text, schema)) == 2
            return
        with pytest.raises(ParseError, match=f"^line {line}: {name} is a stream predicate; "
                           "its values come from the trajectories$") as info:
            parse_static_facts(text, schema)
        assert info.value.line == line

    @pytest.mark.parametrize("var_after_worlds", [False, True])
    def test_undeclared_stream_is_parse_error_at_its_line(self, schema, var_after_worlds):
        # var lines may follow the world blocks, so only the whole file
        # tells a stream's predicate undeclared
        var = "var cvd init=[1.0, 0.0]\n"
        text = ((var if not var_after_worlds else "")
                + "clause cvd cim=[[-1.0, 1.0], [0.0, 0.0]]\n"
                "world p1\nstream cvd(p1)\nend\n"
                "world p2\nstream cvd(p2)\nstream checkup(p2)\nstream checkup(p3)\nend\n"
                + (var if var_after_worlds else ""))
        with pytest.raises(ParseError, match="stream predicate 'checkup' not declared") as info:
            parse_groundtruth(text, schema)
        assert info.value.line == (8 if not var_after_worlds else 7)
        spec, worlds = parse_groundtruth(text + "var checkup init=[0.5, 0.5]\n", schema)
        assert sorted(spec.variables) == ["checkup", "cvd"] and len(worlds) == 2

    @pytest.mark.parametrize("body,message", [
        ("!parentOf(Y,V0)", r"unbound variable Y in negated literal !parentOf\(Y,V0\)"),
        ("!cvd(V1)", r"unbound variable V1 in negated literal !cvd\(V1\)"),
        ("parentOf(Y,V0", r"bad literal 'parentOf\(Y,V0'"),
        ("cvd(Y), parentOf(Y)", "parentOf expects 2 arguments, got 1"),
        ("bp(V0)=" + "1" * 5000, "class index has 5000 digits"),
    ], ids=["unbound-y", "past-the-head", "bad-literal", "arity", "class-5000-digits"])
    def test_bad_clause_body_is_parse_error_at_its_line(self, schema, body, message):
        text = (f'var cvd init=[1.0, 0.0]\nclause cvd cim=[[-1.0, 1.0], [0.0, 0.0]]\n'
                f'clause cvd cim=[[-0.5, 0.5], [0.0, 0.0]] if "{body}"\n')
        with pytest.raises(ParseError, match=message) as info:
            parse_groundtruth(text, schema)
        assert info.value.line == 3

    def test_negated_literal_bound_by_the_head_or_an_earlier_literal_parses(self, schema):
        spec, _ = parse_groundtruth(
            'var cvd init=[1.0, 0.0]\n'
            'clause cvd cim=[[-1.0, 1.0], [0.0, 0.0]] if "!cvd(V0)"\n'
            'clause cvd cim=[[-0.5, 0.5], [0.0, 0.0]] if "parentOf(Y,V0), !cvd(Y)"\n', schema)
        assert [str(l) for c in spec.clauses for l in c.body] == [
            "!cvd(V0)", "parentOf(Y,V0)", "!cvd(Y)"]

    def test_clause_head_must_be_declared(self, schema):
        with pytest.raises(Exception, match="not a declared variable"):
            parse_groundtruth("clause cvd cim=[[-1.0, 1.0], [0.0, 0.0]]", schema)

    def test_bad_init_rejected(self, schema):
        with pytest.raises(Exception, match="initial distribution"):
            parse_groundtruth("var cvd init=[0.9, 0.3]", schema)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, "a", [1], {}, True,
                                       pytest.param(10 ** 400, id="10**400")])
    def test_an_entry_that_is_no_finite_number_is_rejected(self, schema, entry):
        # json.loads reads NaN, Infinity and true; none is a rate or a probability
        with pytest.raises(ValueError, match="^CIM entries must be finite numbers, not "):
            CIM([[-1.0, entry], [0.0, 0.0]])
        with pytest.raises(ValueError, match="^cvd init entries must be finite numbers, not "):
            VariableSpec(schema.get("cvd"), [entry, 0.0])

    def test_integer_entries_are_numbers(self, schema):
        assert CIM([[-1, 1], [0, 0]]).exit_rate(0) == 1
        assert VariableSpec(schema.get("cvd"), [0, 1]).init == [0, 1]

    def test_a_cim_row_that_is_no_list_is_rejected(self):
        with pytest.raises(ValueError, match="CIM must be square"):
            CIM([1, 2])
