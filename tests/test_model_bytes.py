"""Golden model bytes: the sha256 of every learner's serialized model on
small fixed domains.

A refactor of the boosting loops or the model-file code must leave these
digests unchanged.  Each domain is seeded and small enough to train in a
second or two, yet grows multi-leaf trees with two-literal chains, so a
change in split choice, leaf scaling, psi accumulation or file layout
shows up as a different digest.  The DBN cases pin each hill climb's
network file and its step log, whose scores show every float of the climb.
Every model pin, and the `relboost train` pins below, are checked twice
(the `float_sum` fixture): with the built-in `sum`, and with `sum` swapped
for the compensated float sum of Python 3.12 and later, so that no model
or training-log byte depends on how `sum` adds floats.

The `eval` and `cv` reports are pinned the same way, so a change to how
prediction routes an atom through a model's trees, or to the order its tree
values are summed in, shows up as a different report digest.  The eval
reports are checked again with `sum` swapped for the compensated float sum
of Python 3.12 and later during the eval, so that no report byte depends
on how `sum` adds floats.

The rctbn sampler's trajectories and world facts are pinned too, for three
ground-truth specs and seeds 1-3 and for the README's `relboost sample`
demo, so a change to how the sampler builds contexts or caches rates shows
up as a different trajectory digest.  They are checked again with `sum`
swapped for the compensated float sum of Python 3.12 and later, so that no
sampled byte depends on how `sum` adds floats.

Last, the model file and the `.log` that `relboost train` writes are
pinned for every relational kind, so a change to how the command reads its
options, sets up a learner or reports its iterations shows up as a
different digest.

The `relboost metrics` report of a seeded 10^5-row predictions CSV with
heavily tied scores is pinned at the default strips and gamma, at gamma 1
and at one strip, so a change to how the ROC curve or its strip areas are
computed shows up as a different report digest.
"""

import builtins
import hashlib
import random
from pathlib import Path

import pytest

from relboost import boost, dbn, hybrid, rctbn
from relboost.cli import main
from relboost.logic import (
    Atom,
    Constant,
    parse_modes,
    parse_schema,
    serialize_facts,
)
from relboost.regtree import TreeConfig, serialize_tree

from tests.conftest import (
    HYBRID_MODES_TEXT,
    HYBRID_SCHEMA_TEXT,
    LINKED_MODES_TEXT,
    LINKED_SCHEMA_TEXT,
    build_hybrid_domain,
    build_linked_domain,
    compensated_sum,
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write(path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _eval_report(tmp_path, schema_text: str, db, model_text: str, *inputs) -> str:
    """The report `relboost eval` writes for a model, with `db` as the facts
    and `inputs` the (option, file name, text) triples of its other files."""
    args = ["eval", "--model", _write(tmp_path / "model.txt", model_text),
            "--schema", _write(tmp_path / "schema.txt", schema_text),
            "--facts", _write(tmp_path / "facts.txt", serialize_facts(db)),
            "--report", str(tmp_path / "report.txt")]
    for option, name, text in inputs:
        args += [option, _write(tmp_path / name, text)]
    assert main(args) == 0
    return (tmp_path / "report.txt").read_text()


def _lines(atoms) -> str:
    return "".join(f"{atom}.\n" for atom in atoms)


@pytest.fixture(params=["sum", "compensated-sum"])
def float_sum(request, monkeypatch):
    """Runs a test once with the built-in `sum` and once with `sum` swapped
    for the compensated float sum of Python 3.12 and later, so that a pin
    that holds both ways does not depend on how `sum` adds floats."""
    if request.param == "compensated-sum":
        monkeypatch.setattr(builtins, "sum", compensated_sum)


# ---------------------------------------------------------------------------
# rfgb
# ---------------------------------------------------------------------------

RFGB_DIGESTS = {
    "hard": "9b49a1a8e5e5c8616fd7b2e55fabda3dfc0ed8b5471437115e98f95ef181198b",
    "soft": "15406f379f2a7e813ee2525f89cdfb6b581e2e9a2c72351e1c2c43ac0bc4f90c",
    "neg-subsample": "03762a9ab5e7eecbc49891d2c23e27d56fc61af42d366a88c78beb6630f19929",
}


@pytest.fixture(scope="module")
def rfgb_domain():
    return build_linked_domain(15, 45, seed=41, feature_rate_pos=0.8,
                               feature_rate_neg=0.15)


RFGB_EVAL_DIGESTS = {
    "hard": "dd72b74add5365b5a640536657451d3600048afbfa07612d1fe7deba45f2f33c",
    "soft": "aae9fc4f51c282a764869d840ee9f4d0ac5a43f686adf9fcb6a4eea3138d474e",
    "neg-subsample": "97093afb28d1c8bea7d29ee2e861333a5f564002cb6d440f68ea24d9a9e53377",
}

CV_DIGEST = "c82d9659997598e186b5f2a5ec73f990802e272f4a3699d219566dee33d1c802"


def _rfgb_model(domain, case: str):
    _, db, modes, examples = domain
    tree = TreeConfig(max_leaves=4)
    if case == "hard":
        config, kind = boost.BoostConfig(4, tree, rng_seed=3), boost.Hard()
    elif case == "soft":
        config, kind = boost.BoostConfig(4, tree, rng_seed=3), boost.Soft(1.0, -2.0)
    else:
        config, kind = boost.BoostConfig(4, tree, 1.5, rng_seed=5), boost.Hard()
    return boost.train(examples, db, modes, config, kind)


def _labelled_files(examples) -> tuple:
    return (("--pos", "pos.txt", _lines(a for a, label in examples.entries if label == 1)),
            ("--neg", "neg.txt", _lines(a for a, label in examples.entries if label == 0)))


@pytest.mark.parametrize("case", sorted(RFGB_DIGESTS))
def test_rfgb_model_bytes(rfgb_domain, float_sum, case):
    model = _rfgb_model(rfgb_domain, case)
    assert _digest(boost.serialize_model(model)) == RFGB_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(RFGB_EVAL_DIGESTS))
def test_rfgb_eval_report_bytes(rfgb_domain, tmp_path, case):
    _, db, _, examples = rfgb_domain
    model = _rfgb_model(rfgb_domain, case)
    report = _eval_report(tmp_path, LINKED_SCHEMA_TEXT, db, boost.serialize_model(model),
                          *_labelled_files(examples))
    assert _digest(report) == RFGB_EVAL_DIGESTS[case]


def test_cv_report_bytes(rfgb_domain, tmp_path):
    _, db, _, examples = rfgb_domain
    args = ["cv", "--kind", "soft-rfgb", "--alpha", "1.0", "--beta", "-2.0",
            "--schema", _write(tmp_path / "schema.txt", LINKED_SCHEMA_TEXT),
            "--facts", _write(tmp_path / "facts.txt", serialize_facts(db)),
            "--modes", _write(tmp_path / "modes.txt", LINKED_MODES_TEXT),
            "--target", "target", "--k", "3", "--iters", "3", "--leaves", "4",
            "--seed", "3", "--report", str(tmp_path / "cv.txt")]
    for option, name, text in _labelled_files(examples):
        args += [option, _write(tmp_path / name, text)]
    assert main(args) == 0
    assert _digest((tmp_path / "cv.txt").read_text()) == CV_DIGEST


# ---------------------------------------------------------------------------
# hybrid and mixed parents
# ---------------------------------------------------------------------------

HYBRID_DIGESTS = {
    "visits": "7f13905f0e9ec78b0c1ccf67432adcbb3caef2274d02b5779b366376bca4ac4f",
    "weight": "ba09f4908de4e4f2188edc8f0b40aa56755db8dd928fe7fb4f998533fab8227a",
    "grade": "755734ce81328fb44847512d8677669867bcf55705a0c739491a894dc765aefe",
}

HYBRID_EVAL_DIGESTS = {
    "visits": "4d2a088f759f785ec50678f0638ce908509ffec69a75b3b9e3fab9ebba8110bf",
    "weight": "0f7d6234bb18c884b6a92b70fd4e3eb2e91f79518ea98201f74d278b4ee72de1",
    "grade": "e1317bed9613e41613d8d969d7425c115970a750f380c7724624a4dd5509fd44",
}

MIXED_PREDICTIONS = {   # repr of a mixed model's predict at e000, e001, e057
    "visits": "1.4810073022885037; 2.1225047842440197; 2.1808533672290156",
    "weight": "(0.31762889581541276, 2.096434943680672); "
              "(1.7254602484295536, 2.540354246699506); "
              "(1.7546391640046353, 2.540354246699506)",
    "grade": "[0.6059319175725407, 0.2489404040817585, 0.1451276783457009]; "
             "[0.28939599874146216, 0.5015199818835856, 0.2090840193749523]; "
             "[0.2637499669551442, 0.529806537451284, 0.20644349559357184]",
}

MIXED_DIGESTS = {
    "visits": "0ca32e85a6708449c890c141890acf350a68a0dff2e8e188438d354a884b0d99",
    "weight": "9dbe63ec3b167c7671651067a15327bd6fe95f425f71b3316dce21cc56345afe",
    "grade": "5858ff463599fef4f4e8142bf50db84be7a540403fc8e413ca04ab269585e948",
}

MIXED_FILE_DIGESTS = {  # the same models as serialize_hybrid writes them
    "visits": "b7ec1ec6c21aa7062e1566482dff78bf7640a8b28b0528e58e9ea841b0dd6ef9",
    "weight": "6c62eb9a1820da7c7b7675308dff94d080b2a98a9404d65536338634e1479b00",
    "grade": "476a4908ed55d95fb32ad1794acf77cd69c127f8fffd322c677ab5cf92104c05",
}


@pytest.fixture(scope="module")
def hybrid_domain():
    return build_hybrid_domain()


def _hybrid_model(domain, name: str):
    _, db, modes, dataset = domain
    config = hybrid.HybridConfig(iterations=4, tree=TreeConfig(max_leaves=4),
                                 sigma0=1.5)
    return hybrid.train_hybrid(dataset[name], db, modes, config)


@pytest.mark.parametrize("name", sorted(HYBRID_DIGESTS))
def test_hybrid_model_bytes(hybrid_domain, float_sum, name):
    model = _hybrid_model(hybrid_domain, name)
    assert _digest(hybrid.serialize_hybrid(model)) == HYBRID_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(HYBRID_EVAL_DIGESTS))
def test_hybrid_eval_report_bytes(hybrid_domain, tmp_path, name):
    _, db, _, dataset = hybrid_domain
    model = _hybrid_model(hybrid_domain, name)
    examples = _lines(Atom(atom.pred, atom.args, value)
                      for atom, value in dataset[name].entries)
    report = _eval_report(tmp_path, HYBRID_SCHEMA_TEXT, db, hybrid.serialize_hybrid(model),
                          ("--examples", "values.txt", examples))
    assert _digest(report) == HYBRID_EVAL_DIGESTS[name]


def _mixed_text(model) -> str:
    """Every coefficient and sigma tree in key order, with sigma0: a text
    of the trees alone, independent of the model-file format."""
    parts = [f"sigma0={model.sigma0!r}\n"]
    for key in sorted(model.functions):
        for i, tree in enumerate(model.functions[key]):
            parts += [f"function {key[0]},{key[1]} tree {i}\n", serialize_tree(tree)]
    for i, tree in enumerate(model.sigma_trees):
        parts += [f"function sigma tree {i}\n", serialize_tree(tree)]
    return "".join(parts)


def _mixed_model(domain, name: str):
    _, db, modes, dataset = domain
    config = hybrid.HybridConfig(iterations=3, tree=TreeConfig(max_leaves=3),
                                 eta_mu=0.5, eta_poisson=0.2)
    return hybrid.train_mixed(dataset[name], db, modes, ["dose", "age"], config)


@pytest.mark.parametrize("name", sorted(MIXED_DIGESTS))
def test_mixed_model_bytes(hybrid_domain, float_sum, name):
    model = _mixed_model(hybrid_domain, name)
    assert _digest(_mixed_text(model)) == MIXED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(MIXED_FILE_DIGESTS))
def test_mixed_model_file_round_trip(hybrid_domain, float_sum, name):
    """A mixed model's file is pinned, reads back to the same bytes, and
    the model read back predicts bit for bit what the trained one does."""
    schema, db, _, dataset = hybrid_domain
    model = _mixed_model(hybrid_domain, name)
    text = hybrid.serialize_hybrid(model)
    assert _digest(text) == MIXED_FILE_DIGESTS[name]
    assert text.splitlines()[0].endswith(" parents=dose,age")
    again = hybrid.parse_hybrid(text, schema)
    assert hybrid.serialize_hybrid(again) == text
    assert [repr(again.predict(atom, db)) for atom, _ in dataset[name].entries] \
        == [repr(model.predict(atom, db)) for atom, _ in dataset[name].entries]


@pytest.mark.parametrize("name", sorted(MIXED_PREDICTIONS))
def test_mixed_predictions(hybrid_domain, float_sum, name):
    _, db, _, dataset = hybrid_domain
    model = _mixed_model(hybrid_domain, name)
    atoms = [dataset[name].entries[i][0] for i in (0, 1, 57)]
    assert "; ".join(repr(model.predict(atom, db)) for atom in atoms) \
        == MIXED_PREDICTIONS[name]


# ---------------------------------------------------------------------------
# rctbn
# ---------------------------------------------------------------------------

RCTBN_DIGEST = "bc6e384fcfe70fa28092862500c19f44f6b6a5d0ef8c63a15513ccd98f51372c"

RCTBN_EVAL_DIGEST = "646eeceaa2556940f280b4e6e092ada5b93dd029a32e88dcf9dc30c6cf87f81a"

RCTBN_SCHEMA_TEXT = """
predicate: cvd/2 boolean temporal.
predicate: checkup/2 boolean temporal.
predicate: parentOf/2 boolean.
predicate: elder/1 boolean.
"""


@pytest.fixture(scope="module")
def rctbn_domain():
    """(trajectories, static facts, fitted model) of a sampled cvd domain."""
    schema = parse_schema(RCTBN_SCHEMA_TEXT)
    proj = rctbn.projected_schema(schema)
    spec, _ = rctbn.parse_groundtruth("""
var cvd init=[1.0, 0.0]
var checkup init=[0.5, 0.5]
clause cvd cim=[[-0.1, 0.1], [0.0, 0.0]]
clause cvd cim=[[-0.9, 0.9], [0.0, 0.0]] if "parentOf(Y,V0), cvd(Y)"
clause cvd cim=[[-0.7, 0.7], [0.0, 0.0]] if "elder(V0)"
clause checkup cim=[[-3.0, 3.0], [3.0, -3.0]]
""", schema)
    worlds = []
    for i in range(30):
        ent, par = f"p{i:03d}", Constant(f"d{i:03d}")
        static = [Atom(proj.get("parentOf"), (par, Constant(ent)), True)]
        if i % 3 == 0:
            static.append(Atom(proj.get("elder"), (par,), True))
        worlds.append(rctbn.World(ent, [("cvd", (Constant(ent),)), ("cvd", (par,)),
                                        ("checkup", (Constant(ent),))], static))
    trajs = rctbn.forward_sample(spec, worlds, schema, horizon=3.0, seed=31)
    facts = rctbn.worlds_facts(worlds, schema)
    return trajs, facts, _rctbn_model(trajs, facts)


def _rctbn_model(trajs, facts):
    schema = parse_schema(RCTBN_SCHEMA_TEXT)
    modes = parse_modes("mode: parentOf(-,+).\nmode: cvd(+).\nmode: checkup(+).\n"
                        "mode: elder(+).", rctbn.projected_schema(schema))
    config = rctbn.RctbnConfig(iterations=3, tree=TreeConfig(max_leaves=3),
                               neg_cap_per_traj=3, rng_seed=7)
    return rctbn.train_rctbn(trajs, facts, schema, rctbn.Transition("cvd", False, True),
                             modes, config)


def test_rctbn_model_bytes(rctbn_domain, float_sum):
    trajs, facts, _ = rctbn_domain
    assert _digest(rctbn.serialize_rctbn(_rctbn_model(trajs, facts))) == RCTBN_DIGEST


def test_rctbn_eval_report_bytes(rctbn_domain, tmp_path):
    trajs, facts, model = rctbn_domain
    report = _eval_report(tmp_path, RCTBN_SCHEMA_TEXT, facts, rctbn.serialize_rctbn(model),
                          ("--traj", "traj.txt", rctbn.serialize_trajectories(trajs)))
    assert _digest(report) == RCTBN_EVAL_DIGEST


# ---------------------------------------------------------------------------
# rctbn forward sampling
# ---------------------------------------------------------------------------

SAMPLE_SCHEMA_TEXT = RCTBN_SCHEMA_TEXT + "predicate: bp/2 multiclass(3) temporal.\n"

SAMPLE_SPECS = {  # name -> (spec text, streams of each entity and parent)
    # criterion 6: a 0.1 baseline plus 0.9 while some parent is ill
    "criterion-6": ("""
var cvd init=[1.0, 0.0]
var checkup init=[0.5, 0.5]
clause cvd cim=[[-0.1, 0.1], [1.5, -1.5]]
clause cvd cim=[[-0.9, 0.9], [0.0, 0.0]] if "parentOf(Y,V0), cvd(Y)"
clause cvd cim=[[-0.8, 0.8], [0.0, 0.0]] if "elder(V0)"
clause checkup cim=[[-1.0, 1.0], [1.0, -1.0]]
clause checkup cim=[[-8.0, 8.0], [8.0, -8.0]] if "parentOf(Y,V0), cvd(Y)"
""", ("cvd", "checkup"), ("cvd",)),
    # negation as failure over a parent's stream, the entity's other stream
    # and a static fact
    "negated": ("""
var cvd init=[0.8, 0.2]
var checkup init=[0.5, 0.5]
clause cvd cim=[[-0.2, 0.2], [0.5, -0.5]]
clause cvd cim=[[-0.6, 0.6], [0.0, 0.0]] if "parentOf(Y,V0), !cvd(Y)"
clause cvd cim=[[-0.4, 0.4], [0.3, -0.3]] if "!checkup(V0)"
clause checkup cim=[[-1.0, 1.0], [1.0, -1.0]]
clause checkup cim=[[-2.0, 2.0], [0.5, -0.5]] if "!elder(V0), cvd(V0)"
""", ("cvd", "checkup"), ("cvd",)),
    # a three-state stream that follows cvd and drives it, in the entity and
    # through a parent
    "multiclass": ("""
var cvd init=[0.9, 0.1]
var bp init=[0.5, 0.3, 0.2]
clause cvd cim=[[-0.1, 0.1], [0.4, -0.4]]
clause cvd cim=[[-0.6, 0.6], [0.0, 0.0]] if "bp(V0)=2"
clause cvd cim=[[-0.3, 0.3], [0.0, 0.0]] if "parentOf(Y,V0), bp(Y)=1"
clause bp cim=[[-1.0, 0.6, 0.4], [0.5, -1.0, 0.5], [0.2, 0.8, -1.0]]
clause bp cim=[[-0.5, 0.5, 0.0], [0.0, -0.5, 0.5], [0.0, 0.0, 0.0]] if "cvd(V0)"
""", ("cvd", "bp"), ("cvd", "bp")),
}

SAMPLE_FACTS_DIGESTS = {  # seed -> world facts, the same for every spec
    1: "67307f5ec1df78a835cb7653da03a4f61db1897e60c1e20ee74a2cdd388785d2",
    2: "64dcb3256b6e79e0a26ecaca591b622aa60dd65335f88d6d8af1c01e722834aa",
    3: "d19665e5147be87ef338a8463332f4dfee4115ec40ea22cab9248e0e1523e63d",
}

SAMPLE_DIGESTS = {  # (spec, seed) -> trajectories
    ("criterion-6", 1): "5129b0b130f5a4f7eb2dd372824a472cd5504c7a1f8fc7180be1ecd237f51de6",
    ("criterion-6", 2): "70d2bb7676fe410f03210e00ae7839841bc8c34b5296307b4c91846e9b20c382",
    ("criterion-6", 3): "e9caca08d9e64b5cc1a1d7246ab9fbbd96e880bfc9833553fe8010196878fdd4",
    ("multiclass", 1): "6cbe2d23e6383e576ab5364f43b616aa7e537edb3c9d1ed642fa573362279d61",
    ("multiclass", 2): "9c4fad6f2dac9185a3493c3e260d5c14f629dfb5645e77bd9b4a5dee79310e1e",
    ("multiclass", 3): "c4fa31e06379256b05b06e1018d5e4a7c05643a574bd27538326f79fc3ba145c",
    ("negated", 1): "adf09ca4ea6ad3d894edfe67bca8fccf1e599d0f407514eca198780a8b8417ae",
    ("negated", 2): "bea08b4ff4bca5b004d02818a2fccab02f3352de71b57fda3b8bee95720f164b",
    ("negated", 3): "5015dd71af4386a6d5f5ea3fe4c190b612b5790e28343827ef77fe3df9e038e1",
}

DEMO_SAMPLE_DIGESTS = (  # (--out, --out-facts)
    "032a140d145b7ea68290d851c48b2919622b7627d5de1a51eade762cf79f3c27",
    "e407b1e75cb60da2ad865a7519026b7c8c51e767e4bbd6cc6c30017e838cbe87",
)

DEMO = Path(__file__).resolve().parent.parent / "demo"


def _sample_worlds(name: str, seed: int, proj) -> list:
    """24 worlds; about half hold a parent, and about half of those an elder
    one, drawn from the seed."""
    _, own, parents = SAMPLE_SPECS[name]
    rng = random.Random(seed)
    worlds = []
    for i in range(24):
        ent, par = Constant(f"p{i:03d}"), Constant(f"d{i:03d}")
        streams = [(pred, (ent,)) for pred in own]
        facts = []
        if rng.random() < 0.5:
            streams += [(pred, (par,)) for pred in parents]
            facts.append(Atom(proj.get("parentOf"), (par, ent), True))
            if rng.random() < 0.5:
                facts.append(Atom(proj.get("elder"), (par,), True))
        worlds.append(rctbn.World(ent, streams, facts))
    return worlds


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SAMPLE_SPECS))
def test_forward_sample_bytes(name, seed):
    schema = parse_schema(SAMPLE_SCHEMA_TEXT)
    spec, _ = rctbn.parse_groundtruth(SAMPLE_SPECS[name][0], schema)
    worlds = _sample_worlds(name, seed, rctbn.projected_schema(schema))
    trajs = rctbn.forward_sample(spec, worlds, schema, horizon=10.0, seed=seed)
    facts = rctbn.worlds_facts(worlds, schema)
    assert _digest(rctbn.serialize_trajectories(trajs)) == SAMPLE_DIGESTS[(name, seed)]
    assert _digest(serialize_facts(facts)) == SAMPLE_FACTS_DIGESTS[seed]


def test_demo_sample_bytes(tmp_path):
    traj, facts = tmp_path / "train.txt", tmp_path / "facts.txt"
    assert main(["sample", "--spec", str(DEMO / "groundtruth.txt"),
                 "--schema", str(DEMO / "schema.txt"), "--horizon", "8.0",
                 "--seed", "7", "--out", str(traj), "--out-facts", str(facts)]) == 0
    assert (_digest(traj.read_text()), _digest(facts.read_text())) == DEMO_SAMPLE_DIGESTS


def test_compensated_sum_differs_from_a_left_to_right_sum():
    assert compensated_sum([0.1] * 10) == 1.0 != builtins.sum([0.1] * 10)
    assert compensated_sum([1, 2, 3]) == 6 and compensated_sum([], 0.5) == 0.5


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SAMPLE_SPECS))
def test_forward_sample_bytes_under_a_compensated_sum(monkeypatch, name, seed):
    """The sampler's bytes do not depend on how `sum` adds floats."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    test_forward_sample_bytes(name, seed)


def test_demo_sample_bytes_under_a_compensated_sum(monkeypatch, tmp_path):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    test_demo_sample_bytes(tmp_path)


@pytest.mark.parametrize("kind, case", [*(("rfgb", case) for case in sorted(RFGB_EVAL_DIGESTS)),
                                        *(("hybrid", name) for name in sorted(HYBRID_EVAL_DIGESTS)),
                                        ("rctbn", None)])
def test_eval_report_bytes_under_a_compensated_sum(rfgb_domain, hybrid_domain, rctbn_domain,
                                                   monkeypatch, tmp_path, kind, case):
    """An eval report does not depend on how `sum` adds floats.  The model
    is trained with the built-in `sum`: only the eval is under the swap."""
    if kind == "rfgb":
        _, db, _, examples = rfgb_domain
        model = boost.serialize_model(_rfgb_model(rfgb_domain, case))
        schema, inputs, digest = LINKED_SCHEMA_TEXT, _labelled_files(examples), \
            RFGB_EVAL_DIGESTS[case]
    elif kind == "hybrid":
        _, db, _, dataset = hybrid_domain
        model = hybrid.serialize_hybrid(_hybrid_model(hybrid_domain, case))
        examples = _lines(Atom(atom.pred, atom.args, value)
                          for atom, value in dataset[case].entries)
        schema, inputs, digest = HYBRID_SCHEMA_TEXT, [("--examples", "values.txt", examples)], \
            HYBRID_EVAL_DIGESTS[case]
    else:
        trajs, db, fitted = rctbn_domain
        model = rctbn.serialize_rctbn(fitted)
        schema, digest = RCTBN_SCHEMA_TEXT, RCTBN_EVAL_DIGEST
        inputs = [("--traj", "traj.txt", rctbn.serialize_trajectories(trajs))]
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert _digest(_eval_report(tmp_path, schema, db, model, *inputs)) == digest


# ---------------------------------------------------------------------------
# dbn
# ---------------------------------------------------------------------------

DBN_DIGESTS = {  # (network file, .log)
    "bic": ("0c388262f3666f138f9e1b4d1b5c089b23a48187c449a9fe2869678857a18895",
            "00c4c8dc2e1e153f7b3b9376a583a52312a1054cdf496da22730aaf7c3879835"),
    "bde": ("0c388262f3666f138f9e1b4d1b5c089b23a48187c449a9fe2869678857a18895",
            "2f367cbba59f9bfe1987863bd4859c64929e0da13e33e4d21a35bbc7c131d6b6"),
    "mit": ("0c388262f3666f138f9e1b4d1b5c089b23a48187c449a9fe2869678857a18895",
            "4fb87b14dc0e27978f6a6ae2f0d8a78e3681b849facdb9858a4035533d58d67f"),
}


def _dbn_planted_text(seed: int, n_rows: int) -> str:
    """Six variables of arities 2 and 3.  Within slice t+1, v0 is a noisy OR
    of v1 and v2 (a v-structure the climb first gets wrong and then
    reverses), v3 follows v0, v5 follows v3; v2, v3 and v4 also depend on
    slice t."""
    arities = [2, 2, 2, 3, 2, 3]
    rng = random.Random(seed)
    lines = ["vars: " + ", ".join(f"v{j}:{r}" for j, r in enumerate(arities))]

    def noisy(value, r, keep):
        return value % r if rng.random() < keep else rng.randrange(r)

    for _ in range(n_rows):
        now = [rng.randrange(r) for r in arities]
        nxt = [0] * 6
        nxt[1] = rng.randrange(2)
        nxt[2] = noisy(now[2], 2, 0.8)
        nxt[0] = noisy(nxt[1] | nxt[2], 2, 0.9)
        nxt[3] = noisy(now[3] + nxt[0], 3, 0.75)
        nxt[4] = noisy(now[1], 2, 0.8)
        nxt[5] = noisy(nxt[3], 3, 0.5)
        lines.append(",".join(str(v) for v in now + nxt))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("score", sorted(DBN_DIGESTS))
def test_dbn_model_bytes(tmp_path, float_sum, score):
    data = tmp_path / "slices.txt"
    data.write_text(_dbn_planted_text(2, 1500))
    out = tmp_path / "net.txt"
    assert main(["train", "--kind", f"dbn-{score}", "--data", str(data),
                 "--max-parents", "2", "--mit-alpha", "0.99",
                 "--out", str(out)]) == 0
    net, log = out.read_text(), (tmp_path / "net.txt.log").read_text()
    assert (_digest(net), _digest(log)) == DBN_DIGESTS[score]


def test_dbn_totals_add_family_scores_left_to_right(monkeypatch):
    """`score_network` and `hill_climb`'s starting score, the base of every
    `.log` score= line, add family scores from 0.0 left to right: with
    family scores 1e16, 1.0, -1e16 that gives 0.0 under a compensated
    `sum` too, where the compensated total is 1.0."""
    data = dbn.parse_dataset("vars: a:2, b:2, c:2\n0,1,0,1,0,1\n1,0,1,0,1,0\n0,0,1,1,1,0\n")
    base = [1e16, 1.0, -1e16]

    def family_scores(data, i, families, stack, kind):
        # only b's arc from its own slice-t value gains, by 0.5
        return [base[i] + (0.5 if (i, parents) == (1, (("t", 1),)) else -1.0 if parents else 0.0)
                for parents in families]

    monkeypatch.setattr(dbn, "_family_scores", family_scores)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert compensated_sum(base) == 1.0
    empty = dbn.TwoSliceNetwork(data.names, data.arities, set(), set())
    assert dbn.score_network(empty, data, dbn.BIC()) == 0.0
    steps = []
    net = dbn.hill_climb(data, dbn.BIC(), 1, on_step=lambda *step: steps.append(step))
    assert [score for _, _, score in steps] == [0.5] and net.inter == {(1, 1)}


# ---------------------------------------------------------------------------
# relboost train: model file and .log
# ---------------------------------------------------------------------------

TRAIN_DIGESTS = {  # case -> (model file, .log)
    "rfgb": ("03762a9ab5e7eecbc49891d2c23e27d56fc61af42d366a88c78beb6630f19929",
            "20e65c0f1ba7f53320e6234602a664bc77c195d8cf43d810723b6ed205ff7e26"),
    "soft-rfgb": ("15406f379f2a7e813ee2525f89cdfb6b581e2e9a2c72351e1c2c43ac0bc4f90c",
                 "289450bd1f00de2638f7a6fe30924e85d67a068a7aa4b51417f61650e0fadab8"),
    "hybrid-visits": ("7f13905f0e9ec78b0c1ccf67432adcbb3caef2274d02b5779b366376bca4ac4f",
                     "25b9ed04786e3fff6ff4b1703ffffb6b75a05e05576a1226ed50f9d6e6138f04"),
    "hybrid-weight": ("d0339d5bbf9fa7c15056483746cef845da60cf618734511897b5afa3944bcf4f",
                     "7b4e2aa9452794093691793207d0d9aa1531f323bb810f4e47a94ae229a15f66"),
    "hybrid-grade": ("755734ce81328fb44847512d8677669867bcf55705a0c739491a894dc765aefe",
                    "c76bb307e204666749e905dc4e056adb4b510bcb54b2ed64abdb0b24689dc4f8"),
    "hybrid-traj": ("f7a270fb71f78a4aaa3868945616daec33e1b95be01486735f360c793968de59",
                   "7f26ab4cb03c0b7fe947cefca75ce719f812014db118c4faf068eebf1acd5eb6"),
    "rctbn": ("bc6e384fcfe70fa28092862500c19f44f6b6a5d0ef8c63a15513ccd98f51372c",
             "feb7e2627361173538cb165ec8035dc19832fc23561b3b08a1547d45e7f0ab82"),
}


def _train_files(tmp_path, case: str, rfgb_domain, hybrid_domain, rctbn_domain) -> list:
    """The `relboost train` arguments of one case, with its input files."""
    if case in ("rfgb", "soft-rfgb"):
        _, db, _, examples = rfgb_domain
        args = ["--kind", case, "--target", "target", "--iters", "4", "--leaves", "4",
                "--schema", _write(tmp_path / "schema.txt", LINKED_SCHEMA_TEXT),
                "--facts", _write(tmp_path / "facts.txt", serialize_facts(db)),
                "--modes", _write(tmp_path / "modes.txt", LINKED_MODES_TEXT)]
        for option, name, text in _labelled_files(examples):
            args += [option, _write(tmp_path / name, text)]
        return args + (["--neg-subsample", "1.5", "--seed", "5"] if case == "rfgb"
                       else ["--alpha", "1.0", "--beta", "-2.0", "--seed", "3"])
    if case in ("hybrid-grade", "hybrid-visits", "hybrid-weight"):
        _, db, _, dataset = hybrid_domain
        name = case[len("hybrid-"):]
        examples = _lines(Atom(atom.pred, atom.args, value)
                          for atom, value in dataset[name].entries)
        return ["--kind", "hybrid", "--target", name, "--iters", "4", "--leaves", "4",
                "--schema", _write(tmp_path / "schema.txt", HYBRID_SCHEMA_TEXT),
                "--facts", _write(tmp_path / "facts.txt", serialize_facts(db)),
                "--modes", _write(tmp_path / "modes.txt", HYBRID_MODES_TEXT),
                "--examples", _write(tmp_path / "values.txt", examples)] \
            + (["--eta", "0.5"] if name == "weight" else [])
    trajs, facts, _ = rctbn_domain
    args = ["--schema", _write(tmp_path / "schema.txt", RCTBN_SCHEMA_TEXT),
            "--facts", _write(tmp_path / "facts.txt", serialize_facts(facts)),
            "--traj", _write(tmp_path / "traj.txt", rctbn.serialize_trajectories(trajs)),
            "--target", "cvd", "--iters", "3", "--leaves", "3"]
    if case == "rctbn":
        return args + ["--kind", "rctbn", "--from", "false", "--to", "true",
                       "--neg-cap", "3", "--seed", "7", "--modes",
                       _write(tmp_path / "modes.txt", "mode: parentOf(-,+).\nmode: cvd(+).\n"
                              "mode: checkup(+).\nmode: elder(+).\n")]
    # hybrid-traj: a count target aggregated from the entities' own streams
    own = [rctbn.Trajectory(t.entity, [e for e in t.events if e.args == (Constant(t.entity),)],
                            t.horizon) for t in trajs]
    args[5] = _write(tmp_path / "traj.txt", rctbn.serialize_trajectories(own))
    return args + ["--kind", "hybrid", "--bool-agg", "count", "--modes",
                   _write(tmp_path / "modes.txt", "mode: parentOf(-,+).\n"
                          "mode: checkup_cnt(+).\nmode: elder(+).\n")]


@pytest.mark.parametrize("case", sorted(TRAIN_DIGESTS))
def test_train_command_bytes(rfgb_domain, hybrid_domain, rctbn_domain, tmp_path, float_sum,
                             case):
    out = tmp_path / "model.txt"
    args = _train_files(tmp_path, case, rfgb_domain, hybrid_domain, rctbn_domain)
    assert main(["train", *args, "--out", str(out)]) == 0
    model, log = out.read_text(), (tmp_path / "model.txt.log").read_text()
    assert (_digest(model), _digest(log)) == TRAIN_DIGESTS[case]


# ---------------------------------------------------------------------------
# relboost metrics: the report of a predictions CSV
# ---------------------------------------------------------------------------

METRICS_DIGESTS = {
    "defaults": "b1c04a3a9eddd0e6c516518d0d7ab48341e504a4c3e54d7f1765056025e6d0fb",
    "gamma-1": "77c7357b699755173063ea09203582a4c4e9448af1cd01a6471d5d0bb8104dc2",
    "strips-1": "e74ce52b1b7688b33df5f2812799ad62a07e0f291caa163065fe54de8291036d",
}

METRICS_OPTIONS = {"defaults": [], "gamma-1": ["--gamma", "1"], "strips-1": ["--strips", "1"]}


@pytest.fixture(scope="module")
def predictions_csv(tmp_path_factory):
    """10^5 seeded rows, 10% positives, scores rounded to 3 decimals so that
    most scores are tied with many others of both labels."""
    rng = random.Random(23)
    rows = ["score,label"]
    for _ in range(100_000):
        label = 1 if rng.random() < 0.1 else 0
        rows.append(f"{rng.betavariate(2 + 2 * label, 3):.3f},{label}")
    path = tmp_path_factory.mktemp("metrics") / "predictions.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("case", sorted(METRICS_DIGESTS))
def test_metrics_report_bytes(predictions_csv, tmp_path, case):
    report = tmp_path / "report.txt"
    assert main(["metrics", "--csv", predictions_csv, *METRICS_OPTIONS[case],
                 "--report", str(report)]) == 0
    assert _digest(report.read_text()) == METRICS_DIGESTS[case]
