"""End-to-end command-line tests over temporary dataset bundles."""

import os
import random

import pytest

from relboost.cli import main
from tests.conftest import LINKED_MODES_TEXT, LINKED_SCHEMA_TEXT


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture()
def bundle(tmp_path):
    """A small linked-entities bundle on disk."""
    rng = random.Random(3)
    facts, pos, neg = [], [], []
    for i in range(40):
        e, f = f"e{i:03d}", f"f{i:03d}"
        facts.append(f"knows({e},{f}).")
        if i % 4 == 0:
            facts.append(f"flag({f}).")
            pos.append(f"target({e}).")
        else:
            neg.append(f"target({e}).")
        if rng.random() < 0.5:
            facts.append(f"shade({e}).")
    return {
        "schema": _write(tmp_path / "schema.txt", LINKED_SCHEMA_TEXT),
        "facts": _write(tmp_path / "facts.txt", "\n".join(facts) + "\n"),
        "pos": _write(tmp_path / "pos.txt", "\n".join(pos) + "\n"),
        "neg": _write(tmp_path / "neg.txt", "\n".join(neg) + "\n"),
        "modes": _write(tmp_path / "modes.txt", LINKED_MODES_TEXT),
        "dir": tmp_path,
    }


def _train_args(bundle, out, extra=()):
    return ["train", "--kind", "soft-rfgb", "--schema", bundle["schema"],
            "--facts", bundle["facts"], "--pos", bundle["pos"],
            "--neg", bundle["neg"], "--modes", bundle["modes"],
            "--target", "target", "--out", out, *extra]


class TestTrain:
    def test_soft_rfgb_writes_model_with_requested_trees(self, bundle):
        out = str(bundle["dir"] / "model.txt")
        code = main(_train_args(bundle, out,
                                ["--alpha", "1", "--beta", "-4",
                                 "--iters", "5", "--seed", "7"]))
        assert code == 0
        text = open(out).read()
        assert text.startswith("model rfgb target=target/1 kind=soft:1.0,-4.0")
        assert sum(1 for l in text.splitlines() if l.startswith("tree ")) == 5
        log = open(out + ".log").read()
        assert sum(1 for l in log.splitlines() if l.startswith("iter=")) == 5

    def test_missing_facts_file_is_data_error(self, bundle):
        out = str(bundle["dir"] / "model.txt")
        args = _train_args(bundle, out)
        args[args.index("--facts") + 1] = str(bundle["dir"] / "nope.txt")
        assert main(args) == 2

    @pytest.mark.parametrize("file,lines,message", [
        ("facts", ["bp(e001)=1.5.", "bp(e001)=2.5."], "conflicting values for bp(e001)=2.5"),
        ("pos", ["target(e000)."], "duplicate entry target(e000)"),
    ])
    def test_repeated_fact_or_example_names_its_line(self, bundle, capsys, file, lines,
                                                      message):
        with open(bundle["schema"], "a") as handle:
            handle.write("predicate: bp/1 continuous.\n")
        with open(bundle[file], "a") as handle:
            handle.write("\n".join(lines) + "\n")
        n_lines = len(open(bundle[file]).read().splitlines())
        out = str(bundle["dir"] / "model.txt")
        assert main(_train_args(bundle, out)) == 2
        assert f"data error: line {n_lines}: {message}" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_example_in_both_pos_and_neg_names_the_negatives_line(self, bundle, capsys):
        with open(bundle["neg"], "a") as handle:
            handle.write("target(e000).\n")      # e000 is a positive
        n_lines = len(open(bundle["neg"]).read().splitlines())
        out = str(bundle["dir"] / "model.txt")
        assert main(_train_args(bundle, out)) == 2
        assert f"data error: {bundle['neg']}: line {n_lines}: duplicate entry target(e000)" \
            in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_continuous_fact_is_data_error(self, bundle, capsys, value):
        with open(bundle["schema"], "a") as handle:
            handle.write("predicate: bp/1 continuous.\n")
        with open(bundle["facts"], "a") as handle:
            handle.write(f"bp(e001)=1.5.\nbp(e002)={value}.\n")
        n_lines = len(open(bundle["facts"]).read().splitlines())
        out = str(bundle["dir"] / "model.txt")
        assert main(_train_args(bundle, out)) == 2
        assert f"data error: line {n_lines}: bp expects a finite real value" in \
            capsys.readouterr().err
        assert not os.path.exists(out)

    def test_bad_flag_value_is_config_error(self, bundle):
        out = str(bundle["dir"] / "model.txt")
        assert main(_train_args(bundle, out, ["--iters", "0"])) == 3

    def test_unknown_config_key_is_config_error(self, bundle):
        out = str(bundle["dir"] / "model.txt")
        config = _write(bundle["dir"] / "run.conf", "itres=5\n")
        assert main(_train_args(bundle, out, ["--config", config])) == 3

    def test_non_finite_config_value_is_config_error(self, bundle, capsys):
        config = _write(bundle["dir"] / "run.conf", "alpha=nan\n")
        out = str(bundle["dir"] / "model.txt")
        assert main(_train_args(bundle, out, ["--config", config])) == 3
        assert "--alpha=nan is not a finite number" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_config_file_precedence(self, bundle):
        # file sets 3 iterations, the flag overrides with 2
        config = _write(bundle["dir"] / "run.conf", "iters=3\nseed=9\n")
        out_file = str(bundle["dir"] / "m_file.txt")
        assert main(_train_args(bundle, out_file, ["--config", config])) == 0
        assert sum(1 for l in open(out_file).read().splitlines()
                   if l.startswith("tree ")) == 3
        out_flag = str(bundle["dir"] / "m_flag.txt")
        assert main(_train_args(bundle, out_flag,
                                ["--config", config, "--iters", "2"])) == 0
        assert sum(1 for l in open(out_flag).read().splitlines()
                   if l.startswith("tree ")) == 2

    def test_seed_determinism_byte_identical(self, bundle):
        a = str(bundle["dir"] / "a.txt")
        b = str(bundle["dir"] / "b.txt")
        assert main(_train_args(bundle, a, ["--seed", "7", "--iters", "4"])) == 0
        assert main(_train_args(bundle, b, ["--seed", "7", "--iters", "4"])) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_no_temp_files_left_behind(self, bundle):
        out = str(bundle["dir"] / "model.txt")
        assert main(_train_args(bundle, out, ["--iters", "2"])) == 0
        leftovers = [n for n in os.listdir(bundle["dir"])
                     if n.startswith(".relboost-")]
        assert leftovers == []

    def test_dbn_train(self, tmp_path):
        rng = random.Random(5)
        rows = []
        for _ in range(600):
            a = rng.randrange(2)
            a1 = a if rng.random() < 0.9 else 1 - a
            rows.append(f"{a},{rng.randrange(2)},{a1},{a1 if rng.random() < 0.8 else 1 - a1}")
        data = _write(tmp_path / "slices.csv",
                      "vars: a:2, b:2\n" + "\n".join(rows) + "\n")
        out = str(tmp_path / "net.txt")
        assert main(["train", "--kind", "dbn-bde", "--data", data,
                     "--out", out, "--max-parents", "2"]) == 0
        text = open(out).read()
        assert text.startswith("vars: a:2, b:2")
        assert "inter a=>a" in text


    def test_dbn_state_past_int64_is_data_error(self, tmp_path, capsys):
        data = _write(tmp_path / "slices.csv", "vars: a:2\n0,99999999999999999999\n")
        out = str(tmp_path / "net.txt")
        assert main(["train", "--kind", "dbn-bic", "--data", data, "--out", out]) == 2
        assert "data error: line 2: state out of range for a" in capsys.readouterr().err
        assert not os.path.exists(out)

class TestEvalAndMetrics:
    def test_eval_report_keys(self, bundle, capsys):
        out = str(bundle["dir"] / "model.txt")
        assert main(_train_args(bundle, out, ["--iters", "8"])) == 0
        report = str(bundle["dir"] / "report.txt")
        code = main(["eval", "--model", out, "--schema", bundle["schema"],
                     "--facts", bundle["facts"], "--pos", bundle["pos"],
                     "--neg", bundle["neg"], "--report", report])
        assert code == 0
        keys = {l.split("=")[0] for l in open(report).read().splitlines()}
        assert keys == {"accuracy", "auc_roc", "f_delta", "fnr", "fpr",
                        "negatives", "positives", "precision", "recall",
                        "threshold", "weighted_auc_roc"}

    def test_non_finite_delta_is_config_error(self, bundle, capsys):
        out = str(bundle["dir"] / "model.txt")
        assert main(_train_args(bundle, out, ["--iters", "2"])) == 0
        report = str(bundle["dir"] / "report.txt")
        assert main(["eval", "--model", out, "--schema", bundle["schema"],
                     "--facts", bundle["facts"], "--pos", bundle["pos"],
                     "--neg", bundle["neg"], "--report", report,
                     "--delta", "inf"]) == 3
        assert "--delta=inf is not a finite number" in capsys.readouterr().err
        assert not os.path.exists(report)

    def test_perfect_model_scores_one(self, bundle):
        out = str(bundle["dir"] / "model.txt")
        assert main(_train_args(bundle, out, ["--iters", "60"])) == 0
        report = str(bundle["dir"] / "report.txt")
        assert main(["eval", "--model", out, "--schema", bundle["schema"],
                     "--facts", bundle["facts"], "--pos", bundle["pos"],
                     "--neg", bundle["neg"], "--report", report]) == 0
        values = dict(l.split("=", 1) for l in open(report).read().splitlines())
        assert float(values["accuracy"]) == 1.0
        assert float(values["auc_roc"]) == 1.0

    def test_metrics_cross_checks_library(self, tmp_path):
        from relboost import metrics as M
        rng = random.Random(11)
        pairs = [(round(rng.random(), 6), rng.randint(0, 1)) for _ in range(60)]
        pairs[0] = (pairs[0][0], 1)
        pairs[1] = (pairs[1][0], 0)
        csv_path = _write(tmp_path / "preds.csv", "score,label\n" + "\n".join(
            f"{s},{l}" for s, l in pairs) + "\n")
        report = str(tmp_path / "metrics.txt")
        assert main(["metrics", "--csv", csv_path, "--report", report]) == 0
        values = dict(l.split("=", 1) for l in open(report).read().splitlines())
        ps = M.PredictionSet(pairs)
        assert float(values["auc_roc"]) == M.auc_roc(ps)
        assert float(values["weighted_auc_roc"]) == M.weighted_auc_roc(
            ps, M.WeightConfig(4, 0.8))
        hand = M.confusion_report(ps)
        for key in ("fnr", "fpr", "precision", "recall", "accuracy"):
            assert float(values[key]) == hand[key]

    def test_metrics_rejects_bad_header(self, tmp_path):
        path = _write(tmp_path / "bad.csv", "a,b\n0.5,1\n")
        assert main(["metrics", "--csv", path]) == 2

    @pytest.mark.parametrize("header", [
        "model rfgb target=target/1 psi0=0.0",
        "model rfgb kind=hard psi0=0.0",
        "model rfgb target=target/1 kind=hard",
        "model rfgb target=target/1 kind=hard psi0=nan",
        "model rfgb target=target/1 kind=soft:1.0,inf psi0=0.0",
        "model hybrid target=visits/1 kind=poisson",
        "model hybrid kind=poisson eta=0.5",
        "model hybrid target=visits/1 eta=0.5",
        "model hybrid target=visits/1 kind=poisson eta=inf",
        "model rctbn target=cvd/2 from=false to=true",
        "model rctbn target=cvd/2 from=false phi0=0.0",
        "model rctbn target=cvd/2 from=false to=true phi0=-inf",
    ])
    def test_malformed_model_header_is_line_1_data_error(self, tmp_path, capsys,
                                                          header):
        schema = _write(tmp_path / "schema.txt", LINKED_SCHEMA_TEXT
                        + "predicate: visits/1 count.\n"
                        + "predicate: cvd/2 boolean temporal.\n")
        model = _write(tmp_path / "model.txt", header + "\ntree 0\nleaf 0 value=0.5\n")
        assert main(["eval", "--model", model, "--schema", schema]) == 2
        assert "data error: line 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_metrics_rejects_non_finite_score_with_its_line(self, tmp_path, capsys, value):
        path = _write(tmp_path / "preds.csv", f"score,label\n0.5,0\n{value},1\n0.2,1\n")
        assert main(["metrics", "--csv", path]) == 2
        assert "data error: line 3:" in capsys.readouterr().err

    def test_model_tree_errors_name_the_model_file_line(self, tmp_path, capsys):
        schema = _write(tmp_path / "schema.txt", LINKED_SCHEMA_TEXT)
        model = _write(tmp_path / "model.txt", "\n".join([
            "model rfgb target=target/1 kind=hard psi0=0.0",
            "tree 0", 'node 0 test "flag(V0)" yes=1 no=2', "leaf 1 value=0.5",
            "leaf 2 value=-0.5",
            "tree 1", 'node 0 test "shade(V0)" yes=1 no=2', "leaf 1 value=0.25", "",
            "leaf 2 value=oops"]) + "\n")
        assert main(["eval", "--model", model, "--schema", schema]) == 2
        assert "data error: line 10: leaf value must be a finite number" in \
            capsys.readouterr().err

    def test_non_finite_model_threshold_names_the_model_file_line(self, tmp_path, capsys):
        schema = _write(tmp_path / "schema.txt",
                        LINKED_SCHEMA_TEXT + "predicate: bp/1 continuous.\n")
        model = _write(tmp_path / "model.txt", "\n".join([
            "model rfgb target=target/1 kind=hard psi0=0.0",
            "tree 0", 'node 0 test "bp(V0)>=nan" yes=1 no=2', "leaf 1 value=0.5",
            "leaf 2 value=-0.5"]) + "\n")
        assert main(["eval", "--model", model, "--schema", schema]) == 2
        assert "data error: line 3: bad threshold 'nan'" in capsys.readouterr().err

    def test_deep_tree_model_evaluates(self, bundle):
        # a 3,001-node chain: far deeper than Python's recursion limit
        depth = 1500
        lines = ["model rfgb target=target/1 kind=hard psi0=0.0", "tree 0"]
        for k in range(depth):
            lines.append(f'node {k} test "shade(V0)" yes={k + 1} no={depth + 1 + k}')
        lines += [f"leaf {k} value={0.5 if k == depth else -0.5}"
                  for k in range(depth, 2 * depth + 1)]
        model = _write(bundle["dir"] / "deep.txt", "\n".join(lines) + "\n")
        report = str(bundle["dir"] / "report.txt")
        assert main(["eval", "--model", model, "--schema", bundle["schema"],
                     "--facts", bundle["facts"], "--pos", bundle["pos"],
                     "--neg", bundle["neg"], "--report", report]) == 0
        assert "auc_roc=" in open(report).read()


TRANSITION_SCHEMA = """
predicate: cvd/2 boolean temporal.
predicate: bp/2 multiclass(2) temporal.
"""


class TestTransitionStates:
    @pytest.mark.parametrize("where", ["header", "flag"])
    @pytest.mark.parametrize("target,state", [
        ("cvd", "x"), ("cvd", "1"), ("bp", "x"), ("bp", "7"), ("bp", "-1")])
    def test_bad_transition_state_is_data_error(self, tmp_path, capsys, where,
                                                target, state):
        schema = _write(tmp_path / "schema.txt", TRANSITION_SCHEMA)
        to = {"cvd": "true", "bp": "1"}[target]
        if where == "header":
            model = _write(tmp_path / "model.txt",
                           f"model rctbn target={target}/2 from={state} to={to} "
                           "phi0=0.0\ntree 0\nleaf 0 value=0.5\n")
            assert main(["eval", "--model", model, "--schema", schema]) == 2
            err = capsys.readouterr().err
            assert "data error: line 1:" in err
        else:
            traj = _write(tmp_path / "traj.txt", "traj a\nt=0.0 cvd(a)=false\n"
                          "t=0.0 bp(a)=0\nt=1.0 bp(a)=1\nt=2.0 cvd(a)=true\n"
                          "horizon=3.0\n")
            modes = _write(tmp_path / "modes.txt", "mode: bp(+).\n")
            assert main(["train", "--kind", "rctbn", "--schema", schema,
                         "--traj", traj, "--modes", modes, "--target", target,
                         "--from", state, "--to", to, "--iters", "1",
                         "--out", str(tmp_path / "model.txt")]) == 2
            err = capsys.readouterr().err
            assert "data error:" in err
        assert repr(state) in err or f"class index {state} out of range" in err


    def test_count_event_past_2_53_names_its_trajectory_line(self, tmp_path, capsys):
        schema = _write(tmp_path / "schema.txt",
                        TRANSITION_SCHEMA + "predicate: n/2 count temporal.\n")
        traj = _write(tmp_path / "traj.txt", "traj a\nt=0.0 cvd(a)=false\n"
                      f"t=0.0 n(a)={10 ** 400}\nt=0.0 bp(a)=0\nt=2.0 cvd(a)=true\n"
                      "horizon=3.0\n")
        modes = _write(tmp_path / "modes.txt", "mode: n(+).\n")
        out = tmp_path / "model.txt"
        assert main(["train", "--kind", "rctbn", "--schema", schema, "--traj", traj,
                     "--modes", modes, "--target", "cvd", "--from", "false",
                     "--to", "true", "--iters", "1", "--out", str(out)]) == 2
        assert "data error: line 3: n expects a count of at most 2**53" \
            in capsys.readouterr().err
        assert not out.exists()


SAMPLE_SCHEMA = """
predicate: cvd/2 boolean temporal.
predicate: parentOf/2 boolean.
"""

SAMPLE_SPEC = """
var cvd init=[1.0, 0.0]
clause cvd cim=[[-0.4, 0.4], [0.0, 0.0]]
clause cvd cim=[[-0.8, 0.8], [0.0, 0.0]] if "parentOf(Y,V0), cvd(Y)"
world p1
stream cvd(p1)
stream cvd(d1)
fact parentOf(d1,p1).
end
world p2
stream cvd(p2)
end
"""


class TestSample:
    def test_writes_trajectories_and_facts(self, tmp_path):
        schema = _write(tmp_path / "schema.txt", SAMPLE_SCHEMA)
        spec = _write(tmp_path / "spec.txt", SAMPLE_SPEC)
        out = str(tmp_path / "trj.txt")
        out_facts = str(tmp_path / "facts.txt")
        assert main(["sample", "--spec", spec, "--schema", schema,
                     "--horizon", "5.0", "--seed", "3",
                     "--out", out, "--out-facts", out_facts]) == 0
        text = open(out).read()
        assert text.startswith("traj p1")
        assert "horizon=5.0" in text
        assert "parentOf(d1,p1)." in open(out_facts).read()

    def test_seed_determinism(self, tmp_path):
        schema = _write(tmp_path / "schema.txt", SAMPLE_SCHEMA)
        spec = _write(tmp_path / "spec.txt", SAMPLE_SPEC)
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        for out in (a, b):
            assert main(["sample", "--spec", spec, "--schema", schema,
                         "--horizon", "5.0", "--seed", "4", "--out", out]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_infinite_horizon_is_config_error(self, tmp_path, capsys):
        # all rates zero, so a sampler that accepted the horizon would stop
        schema = _write(tmp_path / "schema.txt", SAMPLE_SCHEMA)
        spec = _write(tmp_path / "spec.txt",
                      "var cvd init=[1.0, 0.0]\n"
                      "clause cvd cim=[[0.0, 0.0], [0.0, 0.0]]\n"
                      "world p1\nstream cvd(p1)\nend\n")
        out = str(tmp_path / "trj.txt")
        assert main(["sample", "--spec", spec, "--schema", schema,
                     "--horizon", "inf", "--out", out]) == 3
        assert "--horizon=inf is not a finite number" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_zero_worlds_empty_file(self, tmp_path):
        schema = _write(tmp_path / "schema.txt", SAMPLE_SCHEMA)
        spec = _write(tmp_path / "spec.txt",
                      "var cvd init=[1.0, 0.0]\n"
                      "clause cvd cim=[[-0.4, 0.4], [0.0, 0.0]]\n")
        out = str(tmp_path / "empty.txt")
        assert main(["sample", "--spec", spec, "--schema", schema,
                     "--horizon", "5.0", "--out", out]) == 0
        assert open(out).read() == ""


class TestHybridAndTemporalPaths:
    def test_hybrid_train_and_eval(self, tmp_path):
        import numpy as np
        rng = np.random.default_rng(44)
        schema = _write(tmp_path / "schema.txt",
                        "predicate: sick/1 boolean.\npredicate: visits/1 count.\n")
        facts, values = [], []
        for i in range(400):
            e = f"e{i:04d}"
            s = rng.random() < 0.5
            if s:
                facts.append(f"sick({e}).")
            values.append(f"visits({e})={int(rng.poisson(5.0 if s else 1.0))}.")
        facts_p = _write(tmp_path / "facts.txt", "\n".join(facts) + "\n")
        ex_p = _write(tmp_path / "values.txt", "\n".join(values) + "\n")
        modes_p = _write(tmp_path / "modes.txt", "mode: sick(+).\n")
        out = str(tmp_path / "model.txt")
        assert main(["train", "--kind", "hybrid", "--schema", schema,
                     "--facts", facts_p, "--examples", ex_p, "--modes", modes_p,
                     "--target", "visits", "--iters", "30", "--eta", "0.3",
                     "--out", out]) == 0
        assert open(out).read().startswith("model hybrid target=visits/1 kind=poisson")
        report = str(tmp_path / "report.txt")
        assert main(["eval", "--model", out, "--schema", schema,
                     "--facts", facts_p, "--examples", ex_p,
                     "--report", report]) == 0
        values_out = dict(l.split("=", 1) for l in open(report).read().splitlines())
        assert set(values_out) == {"mse", "mean_loglik", "examples"}
        assert float(values_out["mean_loglik"]) > -3.0

    @pytest.mark.parametrize("decl,example,message", [
        ("visits/1 count", f"visits(a)={10 ** 400}.",
         "line 3: visits expects a count of at most 2**53"),
        ("visits/1 count", f"visits(a)={10 ** 300}.",
         "line 3: visits expects a count of at most 2**53"),
        ("weight/1 continuous", "weight(a)=1e200.",
         "target weight: values too large for float arithmetic"),
        ("visits/1 count", f"visits(a)={2 ** 53}.", None),
    ], ids=["count-1e400", "count-1e300", "continuous-1e200", "count-2**53"])
    def test_oversized_hybrid_target_is_data_error(self, tmp_path, capsys, decl, example,
                                                   message):
        name = decl.split("/")[0]
        schema = _write(tmp_path / "schema.txt",
                        f"predicate: sick/1 boolean.\npredicate: {decl}.\n")
        facts = _write(tmp_path / "facts.txt", "sick(b).\n")
        examples = _write(tmp_path / "values.txt", f"{name}(b)=1.\n{name}(c)=2.\n{example}\n")
        modes = _write(tmp_path / "modes.txt", "mode: sick(+).\n")
        out = str(tmp_path / "model.txt")
        code = main(["train", "--kind", "hybrid", "--schema", schema, "--facts", facts,
                     "--examples", examples, "--modes", modes, "--target", name,
                     "--iters", "3", "--out", out])
        if message is None:     # 2**53 itself is exact as a float and trains
            assert code == 0 and os.path.exists(out)
            return
        assert code == 2
        assert f"data error: {message}" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_hybrid_train_from_trajectories(self, tmp_path):
        schema = _write(tmp_path / "schema.txt", """
predicate: angio/2 boolean temporal.
predicate: smoke/2 boolean temporal.
""")
        traj = _write(tmp_path / "traj.txt", """
traj p1
t=0.0 angio(p1)=false
t=0.0 smoke(p1)=true
t=1.0 angio(p1)=true
t=2.0 angio(p1)=false
t=3.0 angio(p1)=true
horizon=4.0
traj p2
t=0.0 angio(p2)=false
t=0.0 smoke(p2)=false
horizon=4.0
""")
        modes = _write(tmp_path / "modes.txt", "mode: smoke_ind(+).\n")
        out = str(tmp_path / "model.txt")
        assert main(["train", "--kind", "hybrid", "--schema", schema,
                     "--traj", traj, "--modes", modes, "--target", "angio",
                     "--iters", "10", "--out", out]) == 0
        assert "target=angio_count/1 kind=poisson" in open(out).read()

    def test_rctbn_train_and_eval(self, tmp_path):
        schema_text = ("predicate: cvd/2 boolean temporal.\n"
                       "predicate: parentOf/2 boolean.\n")
        schema = _write(tmp_path / "schema.txt", schema_text)
        spec = _write(tmp_path / "spec.txt", """
var cvd init=[1.0, 0.0]
clause cvd cim=[[-0.3, 0.3], [0.5, -0.5]]
clause cvd cim=[[-1.2, 1.2], [0.0, 0.0]] if "parentOf(Y,V0), cvd(Y)"
world p1
stream cvd(p1)
stream cvd(d1)
fact parentOf(d1,p1).
end
world p2
stream cvd(p2)
end
world p3
stream cvd(p3)
stream cvd(d3)
fact parentOf(d3,p3).
end
""")
        traj = str(tmp_path / "traj.txt")
        facts = str(tmp_path / "facts.txt")
        assert main(["sample", "--spec", spec, "--schema", schema,
                     "--horizon", "12.0", "--seed", "2", "--out", traj,
                     "--out-facts", facts]) == 0
        out = str(tmp_path / "model.txt")
        modes = _write(tmp_path / "modes.txt",
                       "mode: parentOf(-,+).\nmode: cvd(+).\n")
        assert main(["train", "--kind", "rctbn", "--schema", schema,
                     "--facts", facts, "--traj", traj, "--modes", modes,
                     "--target", "cvd", "--from", "false", "--to", "true",
                     "--iters", "5", "--out", out]) == 0
        assert open(out).read().startswith(
            "model rctbn target=cvd/2 from=false to=true")
        report = str(tmp_path / "report.txt")
        assert main(["eval", "--model", out, "--schema", schema,
                     "--facts", facts, "--traj", traj,
                     "--report", report]) == 0
        keys = {l.split("=")[0] for l in open(report).read().splitlines()}
        assert "auc_roc" in keys and "mean_loglik" in keys


class TestCrossValidation:
    @pytest.fixture()
    def wide_bundle(self, tmp_path):
        facts, pos, neg = [], [], []
        rng = random.Random(6)
        for i in range(100):
            e, f = f"e{i:03d}", f"f{i:03d}"
            facts.append(f"knows({e},{f}).")
            if i % 5 == 0:
                facts.append(f"flag({f}).")
                pos.append(f"target({e}).")
            else:
                neg.append(f"target({e}).")
        return {
            "schema": _write(tmp_path / "schema.txt", LINKED_SCHEMA_TEXT),
            "facts": _write(tmp_path / "facts.txt", "\n".join(facts) + "\n"),
            "pos": _write(tmp_path / "pos.txt", "\n".join(pos) + "\n"),
            "neg": _write(tmp_path / "neg.txt", "\n".join(neg) + "\n"),
            "modes": _write(tmp_path / "modes.txt", LINKED_MODES_TEXT),
            "dir": tmp_path,
        }

    def test_five_folds_of_twenty(self, wide_bundle, capsys):
        report = str(wide_bundle["dir"] / "cv.txt")
        code = main(["cv", "--kind", "rfgb", "--schema", wide_bundle["schema"],
                     "--facts", wide_bundle["facts"], "--pos", wide_bundle["pos"],
                     "--neg", wide_bundle["neg"], "--modes", wide_bundle["modes"],
                     "--target", "target", "--k", "5", "--iters", "3",
                     "--seed", "2", "--report", report])
        assert code == 0
        lines = open(report).read().splitlines()
        fold_lines = [l for l in lines if l.startswith("fold=")]
        assert {l.split()[0] for l in fold_lines} == {f"fold={i}" for i in range(5)}
        # stratified dealing keeps each fold at 4 positives and 16 negatives
        pos_counts = {l for l in fold_lines if "positives=" in l}
        assert all(l.endswith("positives=4") for l in pos_counts)
        # the aggregate is the mean of the folds
        acc = [float(l.split("accuracy=")[1]) for l in fold_lines
               if "accuracy=" in l]
        agg = next(float(l.split("accuracy=")[1]) for l in lines
                   if l.startswith("aggregate") and "accuracy=" in l)
        assert agg == pytest.approx(sum(acc) / len(acc), rel=1e-12)

    def test_cv_requires_rfgb_kind(self, wide_bundle):
        assert main(["cv", "--kind", "hybrid", "--schema", wide_bundle["schema"],
                     "--target", "target"]) == 3
