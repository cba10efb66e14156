"""`relboost eval` and `relboost cv` route every row they score through
every tree of the model before scoring it.  These tests check that each
score equals, bit for bit, the score computed with a fresh routing cache,
that the per-example calls then ground nothing, and that the grounding
calls of an eval do not grow with its held-out set."""

import random

import pytest

from relboost import boost, hybrid, rctbn, regtree
from relboost.cli import main
from relboost.logic import ExampleSet, serialize_examples, serialize_facts
from relboost.regtree import RoutingCache
from tests.conftest import (
    HYBRID_MODES_TEXT,
    HYBRID_SCHEMA_TEXT,
    LINKED_MODES_TEXT,
    LINKED_SCHEMA_TEXT,
    build_hybrid_domain,
    build_linked_domain,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


class _Groundings:
    """Counts the grounding engine's calls from regtree, and checks scoring
    calls against the same calls with a fresh routing cache."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.calls = []         # the number of rows of each call
        self.fresh = False      # inside a call with a fresh cache
        real = regtree.solutions

        def counted(*args):
            self.calls.append(len(args[1]))
            return real(*args)
        monkeypatch.setattr(regtree, "solutions", counted)

    def against_fresh_caches(self, owner, name: str) -> list:
        """Wrap ``owner.name``, a scoring call whose last argument is the
        command's routing cache.  Each call records (its score, the score
        of the same call with a fresh cache, the grounding calls it made
        with the command's cache); the fresh call's groundings are not
        counted, and the calls it makes are not recorded."""
        real = getattr(owner, name)
        records = []

        def wrapped(*args):
            if self.fresh:
                return real(*args)
            *head, _cache = args
            before = len(self.calls)
            got = real(*args)
            made = len(self.calls) - before
            self.fresh = True
            try:
                want = real(*head, RoutingCache())
            finally:
                self.fresh = False
                del self.calls[before + made:]
            records.append((got, want, made))
            return got
        self.monkeypatch.setattr(owner, name, wrapped)
        return records


def _assert_same_scores(records: list, count: int):
    assert len(records) == count
    assert all(got.hex() == fresh.hex() for got, fresh, _ in records)
    assert all(made == 0 for _, _, made in records)


@pytest.fixture()
def linked_files(tmp_path):
    schema, db, modes, examples = build_linked_domain(24, 48, seed=9, feature_rate_pos=0.8,
                                                      feature_rate_neg=0.15)
    target = examples.target
    return {
        "schema": _write(tmp_path / "schema.txt", LINKED_SCHEMA_TEXT),
        "facts": _write(tmp_path / "facts.txt", serialize_facts(db)),
        "modes": _write(tmp_path / "modes.txt", LINKED_MODES_TEXT),
        "pos": _write(tmp_path / "pos.txt", serialize_examples(ExampleSet(
            target, [e for e in examples.entries if e[1] == 1]))),
        "neg": _write(tmp_path / "neg.txt", serialize_examples(ExampleSet(
            target, [e for e in examples.entries if e[1] == 0]))),
        "size": len(examples.entries),
        "dir": tmp_path,
    }


def _rfgb_inputs(files) -> list:
    return ["--schema", files["schema"], "--facts", files["facts"],
            "--pos", files["pos"], "--neg", files["neg"]]


@pytest.mark.parametrize("kind", [["rfgb"], ["soft-rfgb", "--alpha", "1", "--beta", "-2"]],
                         ids=["hard", "soft"])
def test_rfgb_eval_scores_equal_fresh_cache_scores(linked_files, monkeypatch, kind):
    model = str(linked_files["dir"] / "model.txt")
    assert main(["train", "--kind", *kind, *_rfgb_inputs(linked_files),
                 "--modes", linked_files["modes"], "--target", "target",
                 "--iters", "3", "--leaves", "6", "--out", model]) == 0
    assert open(model).read().count("node") > 3
    records = _Groundings(monkeypatch).against_fresh_caches(boost, "predict")
    assert main(["eval", "--model", model, *_rfgb_inputs(linked_files)]) == 0
    _assert_same_scores(records, linked_files["size"])


@pytest.mark.parametrize("target", ["visits", "weight", "grade"])
def test_hybrid_eval_scores_equal_fresh_cache_scores(tmp_path, monkeypatch, target):
    _, db, _, dataset = build_hybrid_domain()
    schema = _write(tmp_path / "schema.txt", HYBRID_SCHEMA_TEXT)
    facts = _write(tmp_path / "facts.txt", serialize_facts(db))
    examples = _write(tmp_path / "examples.txt", serialize_examples(dataset[target]))
    model = str(tmp_path / "model.txt")
    assert main(["train", "--kind", "hybrid", "--schema", schema, "--facts", facts,
                 "--examples", examples, "--modes",
                 _write(tmp_path / "modes.txt", HYBRID_MODES_TEXT),
                 "--target", target, "--iters", "3", "--leaves", "4", "--out", model]) == 0
    assert open(model).read().count("node") > 3
    records = _Groundings(monkeypatch).against_fresh_caches(hybrid.HybridModel,
                                                           "prob_of_truth")
    assert main(["eval", "--model", model, "--schema", schema, "--facts", facts,
                 "--examples", examples]) == 0
    _assert_same_scores(records, len(dataset[target]))


RCTBN_SPEC = """var cvd init=[1.0, 0.0]
clause cvd cim=[[-0.3, 0.3], [0.5, -0.5]]
clause cvd cim=[[-1.2, 1.2], [0.0, 0.0]] if "parentOf(Y,V0), cvd(Y)"
"""


def test_rctbn_eval_scores_equal_fresh_cache_scores(tmp_path, monkeypatch):
    lines = [RCTBN_SPEC]
    for i in range(12):
        lines.append(f"world p{i}\nstream cvd(p{i})\n")
        if i % 2:
            lines.append(f"stream cvd(d{i})\nfact parentOf(d{i},p{i}).\n")
        lines.append("end\n")
    schema = _write(tmp_path / "schema.txt", "predicate: cvd/2 boolean temporal.\n"
                                             "predicate: parentOf/2 boolean.\n")
    traj, facts, model = (str(tmp_path / name) for name in ("traj.txt", "facts.txt",
                                                            "model.txt"))
    assert main(["sample", "--spec", _write(tmp_path / "spec.txt", "".join(lines)),
                 "--schema", schema, "--horizon", "12.0", "--seed", "3", "--out", traj,
                 "--out-facts", facts]) == 0
    assert main(["train", "--kind", "rctbn", "--schema", schema, "--facts", facts,
                 "--traj", traj, "--modes",
                 _write(tmp_path / "modes.txt", "mode: parentOf(-,+).\nmode: cvd(+).\n"),
                 "--target", "cvd", "--from", "false", "--to", "true", "--iters", "3",
                 "--leaves", "3", "--out", model]) == 0
    assert "node" in open(model).read()
    phis = _Groundings(monkeypatch).against_fresh_caches(rctbn.RctbnModel, "phi")
    segments = []
    real_segment = rctbn.segment

    def recorded(*args):
        found = real_segment(*args)
        segments.extend(found)
        return found
    monkeypatch.setattr(rctbn, "segment", recorded)
    assert main(["eval", "--model", model, "--schema", schema, "--facts", facts,
                 "--traj", traj]) == 0
    # eval reads each segment's phi once, for its probability and its loglik
    assert len(segments) >= 12
    _assert_same_scores(phis, len(segments))


def test_cv_scores_equal_fresh_cache_scores(linked_files, monkeypatch):
    records = _Groundings(monkeypatch).against_fresh_caches(boost, "predict")
    assert main(["cv", "--kind", "soft-rfgb", "--alpha", "1", "--beta", "-2",
                 *_rfgb_inputs(linked_files), "--modes", linked_files["modes"],
                 "--target", "target", "--k", "3", "--iters", "2", "--leaves", "6",
                 "--seed", "4"]) == 0
    _assert_same_scores(records, linked_files["size"])


def _linked_block(seed: int, prefix: str, n_pos: int, n_neg: int) -> tuple:
    """(facts, positives, negatives) lines of entities linked to friends
    whose flag says, noisily, whether the entity is positive; the same seed
    gives the same block up to the constants' prefix."""
    rng = random.Random(seed)
    facts, pos, neg = [], [], []
    for i in range(n_pos + n_neg):
        e, f = f"{prefix}e{i:03d}", f"{prefix}f{i:03d}"
        facts.append(f"knows({e},{f}).")
        if rng.random() < (0.8 if i < n_pos else 0.15):
            facts.append(f"flag({f}).")
        if rng.random() < 0.5:
            facts.append(f"shade({e}).")
        (pos if i < n_pos else neg).append(f"target({e}).")
    return facts, pos, neg


def test_eval_groundings_do_not_grow_with_the_held_out_set(tmp_path, monkeypatch):
    train = _linked_block(1, "t", 30, 60)
    once = _linked_block(2, "a", 20, 40)
    twice = _linked_block(2, "b", 20, 40)    # a copy of `once` under other names

    def lines(*parts):
        return "".join(line + "\n" for part in parts for line in part)
    files = {name: _write(tmp_path / f"{name}.txt", text) for name, text in (
        ("schema", LINKED_SCHEMA_TEXT), ("modes", LINKED_MODES_TEXT),
        ("facts", lines(train[0], once[0], twice[0])),
        ("pos", lines(train[1])), ("neg", lines(train[2])),
        ("pos1", lines(once[1])), ("neg1", lines(once[2])),
        ("pos2", lines(once[1], twice[1])), ("neg2", lines(once[2], twice[2])))}
    model = str(tmp_path / "model.txt")
    assert main(["train", "--kind", "rfgb", "--schema", files["schema"],
                 "--facts", files["facts"], "--pos", files["pos"], "--neg", files["neg"],
                 "--modes", files["modes"], "--target", "target", "--iters", "3",
                 "--leaves", "6", "--seed", "1", "--out", model]) == 0
    assert open(model).read().count("node") > 3
    counts = []
    for suffix in ("1", "2"):
        grounded = _Groundings(monkeypatch).calls
        assert main(["eval", "--model", model, "--schema", files["schema"],
                     "--facts", files["facts"], "--pos", files["pos" + suffix],
                     "--neg", files["neg" + suffix]]) == 0
        counts.append((len(grounded), sum(grounded)))
    # as many calls for 120 held-out examples as for 60, each with twice the rows
    (calls1, rows1), (calls2, rows2) = counts
    assert 0 < calls1 == calls2 < 60
    assert rows2 == 2 * rows1
