"""Golden model bytes: the sha256 of every learner's serialized model on
small fixed domains.

A refactor of the boosting loops or the model-file code must leave these
digests unchanged.  Each domain is seeded and small enough to train in a
second or two, yet grows multi-leaf trees with two-literal chains, so a
change in split choice, leaf scaling, psi accumulation or file layout
shows up as a different digest.  The DBN cases pin each hill climb's
network file and its step log, whose scores show every float of the climb.
"""

import hashlib
import random

import pytest

from relboost import boost, hybrid, rctbn
from relboost.cli import main
from relboost.logic import (
    Atom,
    Constant,
    ExampleSet,
    FactBase,
    parse_modes,
    parse_schema,
)
from relboost.regtree import TreeConfig, serialize_tree

from tests.conftest import build_linked_domain


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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


@pytest.mark.parametrize("case", sorted(RFGB_DIGESTS))
def test_rfgb_model_bytes(rfgb_domain, case):
    _, db, modes, examples = rfgb_domain
    tree = TreeConfig(max_leaves=4)
    if case == "hard":
        config, kind = boost.BoostConfig(4, tree, rng_seed=3), boost.Hard()
    elif case == "soft":
        config, kind = boost.BoostConfig(4, tree, rng_seed=3), boost.Soft(1.0, -2.0)
    else:
        config, kind = boost.BoostConfig(4, tree, 1.5, rng_seed=5), boost.Hard()
    model = boost.train(examples, db, modes, config, kind)
    assert _digest(boost.serialize_model(model)) == RFGB_DIGESTS[case]


# ---------------------------------------------------------------------------
# hybrid and mixed parents
# ---------------------------------------------------------------------------

HYBRID_SCHEMA_TEXT = """
predicate: sick/1 boolean.
predicate: knows/2 boolean.
predicate: dose/1 continuous.
predicate: age/1 continuous.
predicate: visits/1 count.
predicate: weight/1 continuous.
predicate: grade/1 multiclass(3).
"""

HYBRID_MODES_TEXT = """
mode: sick(+).
mode: knows(+,-).
"""

HYBRID_DIGESTS = {
    "visits": "7f13905f0e9ec78b0c1ccf67432adcbb3caef2274d02b5779b366376bca4ac4f",
    "weight": "fb221f2a1e9d94a3e172be3175f38d55a87d52af3989909f56fba086f94746ec",
    "grade": "755734ce81328fb44847512d8677669867bcf55705a0c739491a894dc765aefe",
}

MIXED_DIGESTS = {
    "visits": "0ca32e85a6708449c890c141890acf350a68a0dff2e8e188438d354a884b0d99",
    "weight": "9dbe63ec3b167c7671651067a15327bd6fe95f425f71b3316dce21cc56345afe",
    "grade": "6ab1b60f9885d2eaee3354943ba001d39a8485e898df99a8d45aa074723d705f",
}


@pytest.fixture(scope="module")
def hybrid_domain():
    """Entities whose targets depend on their own and a friend's sickness
    and, linearly, on two continuous parents."""
    schema = parse_schema(HYBRID_SCHEMA_TEXT)
    modes = parse_modes(HYBRID_MODES_TEXT, schema)
    rng = random.Random(77)
    n = 120
    sick = [rng.random() < 0.4 for _ in range(n)]
    facts, values = [], {"visits": [], "weight": [], "grade": []}
    for i in range(n):
        e = Constant(f"e{i:03d}")
        friend = (i * 7 + 3) % n
        facts.append(Atom(schema.get("knows"), (e, Constant(f"e{friend:03d}")), True))
        if sick[i]:
            facts.append(Atom(schema.get("sick"), (e,), True))
        dose, age = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        facts.append(Atom(schema.get("dose"), (e,), dose))
        facts.append(Atom(schema.get("age"), (e,), age))
        level = sick[i] + 0.5 * sick[friend] + dose - 0.5 * age
        values["visits"].append(max(0, round(2.0 * level + rng.gauss(1.0, 1.0))))
        values["weight"].append(3.0 * level + rng.gauss(0.0, 1.0))
        values["grade"].append(min(2, max(0, round(level + rng.gauss(0.0, 0.6)))))
    db = FactBase(schema, facts)
    dataset = {name: ExampleSet(schema.get(name),
                                [(Atom(schema.get(name), (Constant(f"e{i:03d}"),)), v)
                                 for i, v in enumerate(vals)])
               for name, vals in values.items()}
    return schema, db, modes, dataset


@pytest.mark.parametrize("name", sorted(HYBRID_DIGESTS))
def test_hybrid_model_bytes(hybrid_domain, name):
    _, db, modes, dataset = hybrid_domain
    config = hybrid.HybridConfig(iterations=4, tree=TreeConfig(max_leaves=4),
                                 sigma0=1.5)
    model = hybrid.train_hybrid({name: dataset[name]}, db, modes, config)[name]
    assert _digest(hybrid.serialize_hybrid(model)) == HYBRID_DIGESTS[name]


def _mixed_text(model) -> str:
    """Every coefficient and sigma tree in key order, with sigma0."""
    parts = [f"sigma0={model.sigma0!r}\n"]
    for key in sorted(model.functions):
        for i, tree in enumerate(model.functions[key]):
            parts += [f"function {key[0]},{key[1]} tree {i}\n", serialize_tree(tree)]
    for i, tree in enumerate(model.sigma_trees):
        parts += [f"function sigma tree {i}\n", serialize_tree(tree)]
    return "".join(parts)


@pytest.mark.parametrize("name", sorted(MIXED_DIGESTS))
def test_mixed_model_bytes(hybrid_domain, name):
    _, db, modes, dataset = hybrid_domain
    config = hybrid.HybridConfig(iterations=3, tree=TreeConfig(max_leaves=3),
                                 eta_mu=0.5, eta_poisson=0.2)
    model = hybrid.train_mixed(dataset[name], db, modes, ["dose", "age"], config)
    assert _digest(_mixed_text(model)) == MIXED_DIGESTS[name]


# ---------------------------------------------------------------------------
# rctbn
# ---------------------------------------------------------------------------

RCTBN_DIGEST = "bc6e384fcfe70fa28092862500c19f44f6b6a5d0ef8c63a15513ccd98f51372c"


def test_rctbn_model_bytes():
    schema = parse_schema("""
predicate: cvd/2 boolean temporal.
predicate: checkup/2 boolean temporal.
predicate: parentOf/2 boolean.
predicate: elder/1 boolean.
""")
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
    transition = rctbn.Transition("cvd", False, True)
    modes = parse_modes("mode: parentOf(-,+).\nmode: cvd(+).\nmode: checkup(+).\n"
                        "mode: elder(+).", proj)
    config = rctbn.RctbnConfig(iterations=3, tree=TreeConfig(max_leaves=3),
                               neg_cap_per_traj=3, rng_seed=7)
    model = rctbn.train_rctbn(trajs, facts, schema, [transition], modes, config)[transition]
    assert _digest(rctbn.serialize_rctbn(model)) == RCTBN_DIGEST


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
def test_dbn_model_bytes(tmp_path, score):
    data = tmp_path / "slices.txt"
    data.write_text(_dbn_planted_text(2, 1500))
    out = tmp_path / "net.txt"
    assert main(["train", "--kind", f"dbn-{score}", "--data", str(data),
                 "--max-parents", "2", "--mit-alpha", "0.99",
                 "--out", str(out)]) == 0
    net, log = out.read_text(), (tmp_path / "net.txt.log").read_text()
    assert (_digest(net), _digest(log)) == DBN_DIGESTS[score]
