"""The four benchmark workloads: seeded input generators, command pipelines
and output checks.

Each workload is a module-level ``Workload`` value.  ``generate(seed)``
returns the input files as ``{file name: text}``; the same seed always gives
the same bytes.  ``steps(seed, inp, out)`` lists the pipeline in order: each
step is a ``relboost`` command line, run in-process through
``relboost.cli.main``, or (for ``train_mixed``, which has no command) a
call of the public function.  ``check(inp, out)`` inspects the outputs
of one pass and returns ``[(check name, passed, detail)]``.

The sizes below are the paper-style test domains cut down so that one pass
of a pipeline takes a few seconds on one core; see README.md for the
reasoning behind each.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# ---------------------------------------------------------------------------
# sizes (frozen with the benchmark; changing one is a benchmark change)
# ---------------------------------------------------------------------------

RFGB_POS, RFGB_NEG = 40, 2000          # criterion-4 training domain
RFGB_HELD_POS, RFGB_HELD_NEG = 40, 1600  # held-out set, drawn with a second seed
RFGB_ITERS, RFGB_LEAVES = 3, 8

RCTBN_WORLDS, RCTBN_TRAIN = 100, 60    # trajectories sampled / used for training
RCTBN_ITERS = 4
RCTBN_HORIZON = "10.0"

HYBRID_ENTITIES = 10_000               # criterion-8 domain
HYBRID_TARGETS = {                     # target: (train, held out, iterations, eta)
    "visits": (2000, 2000, 3, "0.2"),
    "weight": (1000, 1000, 3, None),
    "grade": (800, 1000, 3, None),
}
MIXED_TRAIN, MIXED_HELD, MIXED_ITERS = 800, 200, 4

DBN_VARS, DBN_ROWS = 14, 20_000
MIT_ALPHA = "0.9999"               # keeps chance arcs out of the MIT climb
METRICS_ROWS = 100_000


@dataclass(frozen=True)
class Step:
    """One operation of a pass: a command line or a function call."""

    label: str
    stage: str                  # "sample", "train", "eval" or "other"
    argv: tuple = ()
    call: Callable = None       # call(inputs, out) -> exit code


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable
    steps: Callable
    check: Callable
    models: tuple               # output files whose sha256 is recorded


class Dir:
    """A directory of a pass: ``d("name")`` is the path of a file in it, and
    ``d.state`` carries in-memory results from a step to the checks."""

    def __init__(self, root: str):
        self.root = root
        self.state: dict = {}

    def __call__(self, name: str) -> str:
        return os.path.join(self.root, name)


def write_inputs(files: dict, directory: str):
    os.makedirs(directory, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _report(path: str) -> dict:
    """Parse an eval/metrics report of key=value lines into floats."""
    out = {}
    for line in _read(path).splitlines():
        key, value = line.split("=", 1)
        out[key] = float(value)
    return out


def _finite_report(path: str) -> tuple:
    report = _report(path)
    bad = sorted(k for k, v in report.items() if not math.isfinite(v))
    return (os.path.basename(path) + " finite", not bad,
            f"non-finite keys {bad}" if bad else f"{len(report)} values")


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's sampler: exact and stable across Python versions."""
    limit, k, p = math.exp(-lam), 0, rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return k


# ---------------------------------------------------------------------------
# rfgb-imbalanced
# ---------------------------------------------------------------------------

LINKED_SCHEMA = """predicate: target/1 boolean.
predicate: knows/2 boolean.
predicate: flag/1 boolean.
predicate: shade/1 boolean.
"""

LINKED_MODES = """mode: knows(+,-).
mode: flag(+).
mode: shade(+).
"""


def _linked_block(rng: random.Random, prefix: str, n_pos: int, n_neg: int):
    """Three quarters of the positives carry a flagged friend, three percent
    of the negatives do; `shade` is noise."""
    facts, pos, neg = [], [], []
    carriers = set(rng.sample(range(n_pos), (3 * n_pos) // 4))
    for i in range(n_pos + n_neg):
        label = i < n_pos
        e, f = f"{prefix}e{i:05d}", f"{prefix}f{i:05d}"
        facts.append(f"knows({e},{f}).")
        if (i in carriers) if label else (rng.random() < 0.03):
            facts.append(f"flag({f}).")
        if rng.random() < 0.5:
            facts.append(f"shade({e}).")
        (pos if label else neg).append(f"target({e}).")
    return facts, pos, neg


def rfgb_generate(seed: int) -> dict:
    facts, pos, neg = _linked_block(random.Random(seed), "", RFGB_POS, RFGB_NEG)
    hfacts, hpos, hneg = _linked_block(random.Random(f"{seed}:held-out"), "h",
                                       RFGB_HELD_POS, RFGB_HELD_NEG)
    return {"schema.txt": LINKED_SCHEMA, "modes.txt": LINKED_MODES,
            "facts.txt": _lines(facts + hfacts),
            "pos.txt": _lines(pos), "neg.txt": _lines(neg),
            "held_pos.txt": _lines(hpos), "held_neg.txt": _lines(hneg)}


def rfgb_steps(seed: int, inp, out) -> list:
    return [
        Step("train soft-rfgb", "train", (
            "train", "--kind", "soft-rfgb", "--alpha", "2", "--beta", "-8",
            "--schema", inp("schema.txt"), "--facts", inp("facts.txt"),
            "--pos", inp("pos.txt"), "--neg", inp("neg.txt"),
            "--modes", inp("modes.txt"), "--target", "target",
            "--iters", str(RFGB_ITERS), "--leaves", str(RFGB_LEAVES),
            "--seed", str(seed), "--out", out("model.txt"))),
        Step("eval held-out", "eval", (
            "eval", "--model", out("model.txt"), "--schema", inp("schema.txt"),
            "--facts", inp("facts.txt"), "--pos", inp("held_pos.txt"),
            "--neg", inp("held_neg.txt"), "--report", out("eval.txt"))),
    ]


def rfgb_check(inp, out) -> list:
    auc = _report(out("eval.txt"))["auc_roc"]
    return [_finite_report(out("eval.txt")),
            ("held-out auc_roc > 0.7", auc > 0.7, f"auc_roc={auc:.4f}")]


# ---------------------------------------------------------------------------
# rctbn-recovery
# ---------------------------------------------------------------------------

RECOVERY_SCHEMA = """predicate: cvd/2 boolean temporal.
predicate: checkup/2 boolean temporal.
predicate: parentOf/2 boolean.
predicate: elder/1 boolean.
"""

RECOVERY_MODES = """mode: parentOf(-,+).
mode: cvd(+).
mode: checkup(+).
"""

# criterion 6: a 0.1 baseline plus 0.9 while some parent is ill
RECOVERY_SPEC = """var cvd init=[1.0, 0.0]
var checkup init=[0.5, 0.5]
clause cvd cim=[[-0.1, 0.1], [1.5, -1.5]]
clause cvd cim=[[-0.9, 0.9], [0.0, 0.0]] if "parentOf(Y,V0), cvd(Y)"
clause cvd cim=[[-0.8, 0.8], [0.0, 0.0]] if "elder(V0)"
clause checkup cim=[[-1.0, 1.0], [1.0, -1.0]]
clause checkup cim=[[-8.0, 8.0], [8.0, -8.0]] if "parentOf(Y,V0), cvd(Y)"
"""


def rctbn_generate(seed: int) -> dict:
    """One world of each consecutive pair (drawn from the seed) holds an
    elder parent whose own cvd stream is context for the index entity's.
    Pairing keeps the training and held-out splits at half each, so the
    amount of work varies little from seed to seed."""
    rng = random.Random(seed)
    lines = [RECOVERY_SPEC.rstrip("\n")]
    with_parent = {2 * k + rng.randrange(2) for k in range(RCTBN_WORLDS // 2)}
    for i in range(RCTBN_WORLDS):
        ent = f"p{i:03d}"
        lines += [f"world {ent}", f"stream cvd({ent})", f"stream checkup({ent})"]
        if i in with_parent:
            par = f"d{i:03d}"
            lines += [f"stream cvd({par})", f"fact parentOf({par},{ent}).",
                      f"fact elder({par})."]
        lines.append("end")
    return {"schema.txt": RECOVERY_SCHEMA, "modes.txt": RECOVERY_MODES,
            "groundtruth.txt": _lines(lines)}


def _split_trajectories(inp, out) -> int:
    """Cut the sampled file into training and held-out trajectory blocks."""
    blocks = _read(out("traj.txt")).split("traj ")[1:]
    if len(blocks) != RCTBN_WORLDS:
        return 2
    with open(out("train_traj.txt"), "w", encoding="utf-8") as handle:
        handle.write("".join("traj " + b for b in blocks[:RCTBN_TRAIN]))
    with open(out("held_traj.txt"), "w", encoding="utf-8") as handle:
        handle.write("".join("traj " + b for b in blocks[RCTBN_TRAIN:]))
    return 0


def rctbn_steps(seed: int, inp, out) -> list:
    return [
        Step("sample", "sample", (
            "sample", "--spec", inp("groundtruth.txt"), "--schema", inp("schema.txt"),
            "--horizon", RCTBN_HORIZON, "--seed", str(seed),
            "--out", out("traj.txt"), "--out-facts", out("facts.txt"))),
        Step("split trajectories", "other", call=_split_trajectories),
        Step("train rctbn", "train", (
            "train", "--kind", "rctbn", "--schema", inp("schema.txt"),
            "--facts", out("facts.txt"), "--traj", out("train_traj.txt"),
            "--modes", inp("modes.txt"), "--target", "cvd", "--from", "false",
            "--to", "true", "--iters", str(RCTBN_ITERS), "--leaves", "2",
            "--seed", str(seed), "--out", out("model.txt"))),
        Step("eval held-out", "eval", (
            "eval", "--model", out("model.txt"), "--schema", inp("schema.txt"),
            "--facts", out("facts.txt"), "--traj", out("held_traj.txt"),
            "--report", out("eval.txt"))),
    ]


def rctbn_check(inp, out) -> list:
    """The learned intensity for a healthy index entity is higher when its
    parent is ill than when it has no parent."""
    from relboost import logic, rctbn
    schema = logic.parse_schema(_read(inp("schema.txt")))
    model = rctbn.parse_rctbn(_read(out("model.txt")), schema)
    proj = rctbn.projected_schema(schema)
    ent, par = logic.Constant("probe"), logic.Constant("probe_parent")
    target = logic.Atom(proj.get("cvd"), (ent,))

    def rate(atoms):
        seg = rctbn.Segment(target, False, 1.0, logic.FactBase(proj, atoms), False)
        return rctbn.intensity(model, seg)

    ill = rate([logic.Atom(proj.get("parentOf"), (par, ent), True),
                logic.Atom(proj.get("elder"), (par,), True),
                logic.Atom(proj.get("cvd"), (par,), True)])
    none = rate([])
    return [_finite_report(out("eval.txt")),
            ("intensity(parent ill) > intensity(no parent)", ill > none,
             f"{ill:.4f} vs {none:.4f}")]


# ---------------------------------------------------------------------------
# hybrid-counts
# ---------------------------------------------------------------------------

HYBRID_SCHEMA = """predicate: sick/1 boolean.
predicate: visits/1 count.
predicate: weight/1 continuous.
predicate: grade/1 multiclass(3).
predicate: dose/1 continuous.
predicate: level/1 continuous.
"""

HYBRID_MODES = "mode: sick(+).\n"


def hybrid_generate(seed: int) -> dict:
    """Sick entities (40%) visit at rate 6 instead of 2, weigh 4 instead of
    1 and skew their grade upwards.  The mixed-parent target `level` is
    1 + 2 dose for healthy and -1 - dose for sick entities."""
    rng = random.Random(seed)
    sick = [rng.random() < 0.4 for _ in range(HYBRID_ENTITIES)]
    facts = [f"sick(e{i:05d})." for i, s in enumerate(sick) if s]
    files = {"schema.txt": HYBRID_SCHEMA, "modes.txt": HYBRID_MODES}
    draw = {
        "visits": lambda s: str(_poisson(rng, 6.0 if s else 2.0)),
        "weight": lambda s: f"{rng.gauss(4.0 if s else 1.0, 1.0):.6f}",
        "grade": lambda s: str(rng.choices((0, 1, 2), (0.2, 0.3, 0.5) if s
                                           else (0.5, 0.3, 0.2))[0]),
    }
    start = 0
    for name, (n_train, n_held, _iters, _eta) in HYBRID_TARGETS.items():
        rows = [f"{name}(e{i:05d})={draw[name](sick[i])}."
                for i in range(start, start + n_train + n_held)]
        files[f"{name}_train.txt"] = _lines(rows[:n_train])
        files[f"{name}_held.txt"] = _lines(rows[n_train:])
        start += n_train + n_held
    levels = []
    for i in range(MIXED_TRAIN + MIXED_HELD):
        e = f"e{HYBRID_ENTITIES - 1 - i:05d}"
        x = rng.uniform(-2.0, 2.0)
        facts.append(f"dose({e})={x:.6f}.")
        mu = (-1.0 - x) if sick[HYBRID_ENTITIES - 1 - i] else (1.0 + 2.0 * x)
        levels.append(f"level({e})={rng.gauss(mu, 1.0):.6f}.")
    files["facts.txt"] = _lines(facts)
    files["level_train.txt"] = _lines(levels[:MIXED_TRAIN])
    files["level_held.txt"] = _lines(levels[MIXED_TRAIN:])
    return files


def _mixed_setup(inp):
    from relboost import logic
    schema = logic.parse_schema(_read(inp("schema.txt")))
    db = logic.parse_facts(_read(inp("facts.txt")), schema)
    modes = logic.parse_modes(_read(inp("modes.txt")), schema)
    return schema, db, modes


def _train_mixed(inp, out) -> int:
    """hybrid.train_mixed has no command: parse, fit, write the trees."""
    from relboost import hybrid, logic, regtree
    schema, db, modes = _mixed_setup(inp)
    examples = logic.parse_examples(_read(inp("level_train.txt")), schema.get("level"))
    model = hybrid.train_mixed(examples, db, modes, ["dose"], hybrid.HybridConfig(
        iterations=MIXED_ITERS, eta_mu=0.5))
    lines = []
    for key in sorted(model.functions):
        for i, tree in enumerate(model.functions[key]):
            lines += [f"function {key[0]},{key[1]} tree {i}", regtree.serialize_tree(tree)]
    for i, tree in enumerate(model.sigma_trees):
        lines += [f"function sigma tree {i}", regtree.serialize_tree(tree)]
    with open(out("mixed_model.txt"), "w", encoding="utf-8") as handle:
        handle.write("".join(line if line.endswith("\n") else line + "\n"
                             for line in lines))
    out.state["mixed"] = model
    return 0


def hybrid_steps(seed: int, inp, out) -> list:
    steps = []
    for name, (_train, _held, iters, eta) in HYBRID_TARGETS.items():
        argv = ("train", "--kind", "hybrid", "--schema", inp("schema.txt"),
                "--facts", inp("facts.txt"), "--examples", inp(f"{name}_train.txt"),
                "--modes", inp("modes.txt"), "--target", name,
                "--iters", str(iters), "--seed", str(seed),
                "--out", out(f"{name}_model.txt"))
        steps.append(Step(f"train hybrid {name}", "train",
                          argv + (("--eta", eta) if eta else ())))
        steps.append(Step(f"eval {name}", "eval", (
            "eval", "--model", out(f"{name}_model.txt"), "--schema", inp("schema.txt"),
            "--facts", inp("facts.txt"), "--examples", inp(f"{name}_held.txt"),
            "--report", out(f"{name}_eval.txt"))))
    steps.append(Step("train_mixed level", "train", call=_train_mixed))
    return steps


def hybrid_check(inp, out) -> list:
    """Every model's held-out mean log-likelihood beats its iteration-0
    model's (the same model with every tree removed)."""
    from relboost import hybrid, logic, metrics
    schema, db, _modes = _mixed_setup(inp)
    results = []
    for name in HYBRID_TARGETS:
        results.append(_finite_report(out(f"{name}_eval.txt")))
        model = hybrid.parse_hybrid(_read(out(f"{name}_model.txt")), schema)
        empty = hybrid.HybridModel(model.target, model.kind,
                                   {k: [] for k in model.functions}, model.eta,
                                   model.sigma0)
        held = logic.parse_examples(_read(inp(f"{name}_held.txt")), model.target)
        base = metrics.mean_loglik(empty.prob_of_truth(a, v, db) for a, v in held.entries)
        got = _report(out(f"{name}_eval.txt"))["mean_loglik"]
        results.append((f"{name} held-out loglik beats iteration 0", got > base,
                        f"{got:.4f} vs {base:.4f}"))
    held = logic.parse_examples(_read(inp("level_held.txt")), schema.get("level"))
    model = out.state["mixed"]

    def loglik(mu_sigma):
        return sum(hybrid.gaussian_ll(v, *mu_sigma(a)) for a, v in held.entries) / len(held)

    got = loglik(lambda a: model.predict(a, db))
    base = loglik(lambda a: (0.0, model.sigma0))
    results.append(("mixed level held-out loglik beats iteration 0",
                    math.isfinite(got) and got > base, f"{got:.4f} vs {base:.4f}"))
    return results


# ---------------------------------------------------------------------------
# dbn-metrics
# ---------------------------------------------------------------------------


def dbn_generate(seed: int) -> dict:
    """Ternary variables in pairs: the first of a pair repeats its own
    slice-t state (inter self-arc), the second copies the first's slice-t+1
    state (intra arc); each copy holds with probability 0.85.  The planted
    arcs are strong and the rest independent, so every seed's climb takes
    the same number of steps.  The predictions CSV holds scores that rank a
    10% positive class imperfectly."""
    rng = random.Random(seed)
    n = DBN_VARS
    rows = ["vars: " + ", ".join(f"v{j:02d}:3" for j in range(n))]
    for _ in range(DBN_ROWS):
        now = [rng.randrange(3) for _ in range(n)]
        nxt = []
        for j in range(n):
            source = nxt[j - 1] if j % 2 else now[j]
            nxt.append(source if rng.random() < 0.85 else rng.randrange(3))
        rows.append(",".join(str(v) for v in now + nxt))
    preds = ["score,label"]
    for _ in range(METRICS_ROWS):
        label = 1 if rng.random() < 0.1 else 0
        preds.append(f"{rng.betavariate(2 + 2 * label, 3):.6f},{label}")
    return {"data.txt": _lines(rows), "predictions.csv": _lines(preds)}


DBN_KINDS = ("dbn-bic", "dbn-bde", "dbn-mit")


def dbn_steps(seed: int, inp, out) -> list:
    steps = [Step(f"train {kind}", "train", (
        "train", "--kind", kind, "--data", inp("data.txt"), "--mit-alpha", MIT_ALPHA,
        "--seed", str(seed), "--out", out(f"{kind}_model.txt"))) for kind in DBN_KINDS]
    steps.append(Step("metrics", "eval", (
        "metrics", "--csv", inp("predictions.csv"), "--report", out("metrics.txt"))))
    return steps


def dbn_check(inp, out) -> list:
    """Each learned network scores at least the empty network."""
    from relboost import dbn
    data = dbn.parse_dataset(_read(inp("data.txt")))
    scores = {"dbn-bic": dbn.BIC(), "dbn-bde": dbn.BDe(1.0), "dbn-mit": dbn.MIT(float(MIT_ALPHA))}
    empty = dbn.TwoSliceNetwork(data.names, data.arities, set(), set())
    results = [_finite_report(out("metrics.txt"))]
    for kind in DBN_KINDS:
        net = dbn.parse_network(_read(out(f"{kind}_model.txt")))
        got = dbn.score_network(net, data, scores[kind])
        base = dbn.score_network(empty, data, scores[kind])
        results.append((f"{kind} score >= empty network", got >= base and math.isfinite(got),
                        f"{got:.2f} vs {base:.2f}"))
    return results


WORKLOADS = {w.name: w for w in (
    Workload("rfgb-imbalanced",
             "soft-margin rfgb on 40 vs 2000 linked entities: grounding and "
             "candidate scoring on one shared fact base",
             rfgb_generate, rfgb_steps, rfgb_check, ("model.txt",)),
    Workload("rctbn-recovery",
             "sample, segment and boost relational intensities: builds one "
             "fact base per segment instead of querying one",
             rctbn_generate, rctbn_steps, rctbn_check, ("traj.txt", "model.txt")),
    Workload("hybrid-counts",
             "Poisson, Gaussian, multinomial and mixed-parent boosting over "
             "10,000 entities and one mode: per-example loops, not grounding",
             hybrid_generate, hybrid_steps, hybrid_check,
             tuple(f"{name}_model.txt" for name in HYBRID_TARGETS) + ("mixed_model.txt",)),
    Workload("dbn-metrics",
             "DBN hill climbs and AUC metrics in numpy only: the control that "
             "a relational optimisation must not move",
             dbn_generate, dbn_steps, dbn_check,
             tuple(f"{kind}_model.txt" for kind in DBN_KINDS)),
)}
