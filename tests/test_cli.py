"""End-to-end command-line tests over temporary dataset bundles."""

import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relboost import boost, cli, hybrid, metrics, rctbn
from relboost.cli import _build_parser, main
from relboost.logic import ParseError, parse_schema, serialize_examples, serialize_facts
from tests.conftest import (
    HYBRID_SCHEMA_TEXT,
    LINKED_MODES_TEXT,
    LINKED_SCHEMA_TEXT,
    build_hybrid_domain,
)


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

    def test_oversized_count_fact_is_data_error_at_its_line(self, bundle, capsys):
        with open(bundle["schema"], "a") as handle:
            handle.write("predicate: visits/1 count.\n")
        with open(bundle["facts"], "a") as handle:
            handle.write("visits(e001)=1.\nvisits(e002)=" + "1" * 5000 + ".\n")
        n_lines = len(open(bundle["facts"]).read().splitlines())
        out = str(bundle["dir"] / "model.txt")
        assert main(_train_args(bundle, out)) == 2
        assert f"data error: line {n_lines}: visits value has 5000 digits" in \
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

    @pytest.mark.parametrize("command", ["train", "cv"])
    @pytest.mark.parametrize("name,value,via", [
        ("alpha", "5", "flag"), ("beta", "-9", "flag"),
        ("alpha", "0.5", "config"), ("beta", "-1", "config"),
    ])
    def test_a_soft_margin_cost_with_the_hard_gradient_is_config_error(
            self, bundle, capsys, command, name, value, via):
        # the hard gradient ignores --alpha and --beta, so a model or report
        # made with them would not be the one asked for
        out = str(bundle["dir"] / "model.txt")
        extra = ["--config", _write(bundle["dir"] / "run.conf", f"{name}={value}\n")] \
            if via == "config" else [f"--{name}", value]
        args = _train_args(bundle, out, ["--iters", "2", *extra])
        args[args.index("--kind") + 1] = "rfgb"
        if command == "cv":     # cv writes no model: it takes --k, not --out
            i = args.index("--out")
            args = ["cv", *args[1:i], *args[i + 2:], "--k", "2"]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert f"config error: --{name}={float(value)} needs --kind soft-rfgb" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_zero_soft_margin_costs_with_the_hard_gradient_are_the_defaults(
            self, bundle, command):
        args = _train_args(bundle, str(bundle["dir"] / "model.txt"),
                           ["--iters", "2", "--alpha", "0", "--beta", "-0"])
        args[args.index("--kind") + 1] = "rfgb"
        if command == "cv":     # cv writes no model: it takes --k, not --out
            i = args.index("--out")
            args = ["cv", *args[1:i], *args[i + 2:], "--k", "2"]
        assert main(args) == 0

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

    def test_dbn_mit_with_an_arity_one_variable(self, tmp_path):
        data = _write(tmp_path / "slices.csv",
                      "vars: a:2, b:1\n0,0,0,0\n1,0,1,0\n0,0,1,0\n1,0,0,0\n")
        out = str(tmp_path / "net.txt")
        assert main(["train", "--kind", "dbn-mit", "--data", data, "--out", out]) == 0
        assert open(out).read().startswith("vars: a:2, b:1")


    def test_dbn_state_past_int64_is_data_error(self, tmp_path, capsys):
        data = _write(tmp_path / "slices.csv", "vars: a:2\n0,99999999999999999999\n")
        out = str(tmp_path / "net.txt")
        assert main(["train", "--kind", "dbn-bic", "--data", data, "--out", out]) == 2
        assert "data error: line 2: state out of range for a" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("kind,header,cells,parents", [
        *((kind, "vars: a:1000000, b:1000000", 10 ** 12, "a@t")
          for kind in ("dbn-bic", "dbn-bde", "dbn-mit")),
        ("dbn-bde", "vars: a:3000, b:3000, c:3000", 9 * 10 ** 6, "a@t"),
    ])
    def test_dbn_family_table_past_the_cell_bound_is_data_error(
            self, tmp_path, capsys, kind, header, cells, parents):
        width = 2 * (header.count(",") + 1)   # 2n states a row
        data = _write(tmp_path / "slices.csv", header + "\n" + ",".join("0" * width) + "\n"
                      + ",".join("1" * width) + "\n")
        out = str(tmp_path / "net.txt")
        assert main(["train", "--kind", kind, "--data", data, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"data error: family of a with parents {parents} has {cells} cells" in err
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

    def test_rfgb_eval_without_facts_reads_an_empty_base(self, bundle):
        out = str(bundle["dir"] / "model.txt")
        assert main(_train_args(bundle, out, ["--iters", "2"])) == 0
        report = str(bundle["dir"] / "report.txt")
        assert main(["eval", "--model", out, "--schema", bundle["schema"],
                     "--pos", bundle["pos"], "--neg", bundle["neg"],
                     "--report", report]) == 0
        # with no facts every example takes the same branches: one score
        assert "auc_roc=0.5\n" in open(report).read()

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
        "model hybrid target=visits/1 kind=gaussian eta=0.5",
        "model hybrid target=visits/1 kind=multinomial:2 eta=0.5",
        "model hybrid target=weight/1 kind=gaussian eta=0.5 sigma0=-3",
        "model hybrid target=weight/1 kind=gaussian eta=0.5 sigma0=0",
        "model hybrid target=target/1 kind=poisson eta=0.5",
        "model rctbn target=cvd/2 from=false to=true",
        "model rctbn target=cvd/2 from=false phi0=0.0",
        "model rctbn target=cvd/2 from=false to=true phi0=-inf",
    ])
    def test_malformed_model_header_is_line_1_data_error(self, tmp_path, capsys,
                                                          header):
        schema = _write(tmp_path / "schema.txt", LINKED_SCHEMA_TEXT
                        + "predicate: visits/1 count.\n"
                        + "predicate: weight/1 continuous.\n"
                        + "predicate: cvd/2 boolean temporal.\n")
        model = _write(tmp_path / "model.txt", header + "\ntree 0\nleaf 0 value=0.5\n")
        assert main(["eval", "--model", model, "--schema", schema]) == 2
        assert "data error: line 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("parse,header,body", [
        (boost.parse_model, "model rfgb target=target/1 kind=hard psi0=0.0", ""),
        (hybrid.parse_hybrid, "model hybrid target=visits/1 kind=poisson eta=0.5 parents=dose",
         "function rate\ntree 0\nleaf 0 value=0.5\nfunction rate*dose\n"),
        (rctbn.parse_rctbn, "model rctbn target=cvd/2 from=false to=true phi0=0.0", ""),
    ], ids=["rfgb", "hybrid", "rctbn"])
    def test_unknown_model_header_field_is_a_line_1_data_error(self, tmp_path, capsys, parse,
                                                                 header, body):
        schema_text = (LINKED_SCHEMA_TEXT + "predicate: visits/1 count.\n"
                       "predicate: dose/1 continuous.\npredicate: cvd/2 boolean temporal.\n")
        body = body or "tree 0\nleaf 0 value=0.5\n"
        parse(f"{header}\n{body}", parse_schema(schema_text))     # well formed without it
        text = f"{header} bogus=1\n{body}"
        with pytest.raises(ParseError, match="^line 1: unknown header field 'bogus'$"):
            parse(text, parse_schema(schema_text))
        model = _write(tmp_path / "model.txt", text)
        assert main(["eval", "--model", model,
                     "--schema", _write(tmp_path / "schema.txt", schema_text)]) == 2
        assert "data error: line 1: unknown header field 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("parent,kind", [("sick", "boolean"), ("grade", "multiclass")])
    def test_a_non_numeric_mixed_model_parent_is_a_line_1_data_error(self, tmp_path, capsys,
                                                                     parent, kind):
        # a boolean or class parent has no value where its fact is absent
        model = _write(tmp_path / "model.txt",
                       f"model hybrid target=visits/1 kind=poisson eta=0.5 parents={parent}\n"
                       f"function rate\ntree 0\nleaf 0 value=0.5\n"
                       f"function rate*{parent}\ntree 0\nleaf 0 value=0.5\n")
        schema = _write(tmp_path / "schema.txt", HYBRID_SCHEMA_TEXT)
        assert main(["eval", "--model", model, "--schema", schema]) == 2
        assert (f"data error: line 1: parent {parent!r} is {kind}, not count or continuous"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_metrics_rejects_non_finite_score_with_its_line(self, tmp_path, capsys, value):
        path = _write(tmp_path / "preds.csv", f"score,label\n0.5,0\n{value},1\n0.2,1\n")
        assert main(["metrics", "--csv", path]) == 2
        assert "data error: line 3:" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["2", "-1"])
    def test_metrics_rejects_a_label_other_than_0_or_1_with_its_line(self, tmp_path, capsys,
                                                                      label):
        path = _write(tmp_path / "preds.csv", f"score,label\n0.5,1\n0.4,{label}\n0.3,0\n")
        assert main(["metrics", "--csv", path]) == 2
        assert "data error: line 3: bad row in predictions CSV: labels must be 0 or 1" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("row,code", [("0.{},1", 0), ("0.{}, 1", 2)],
                             ids=["plain", "spaced"])
    def test_metrics_a_field_past_the_csv_size_limit_is_a_data_error(self, tmp_path, capsys,
                                                                      row, code):
        # a score of 140,000 digits, past `csv.reader`'s field limit of 131,072
        # characters: the plain form reads it, and in any other `csv.reader`
        # refuses the row, an error at its line
        path = _write(tmp_path / "preds.csv",
                      "score,label\n0.9,1\n" + row.format("5" * 140_000) + "\n0.1,0\n")
        assert main(["metrics", "--csv", path]) == code
        if code:
            assert "data error: line 3: bad row in predictions CSV: field larger than " \
                "field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        "0.5,1\n0.25,0\n", "-0.5,1\n.5,0\n5.,1\n-0,0\n", "007.50,1\n1,0\n",
        "1_0,1\n0.5,0\n", " 0.5,1\n", "0.5 ,1\n", "0.5, 1\n", "1e5,1\n0.5,0\n",
        "nan,1\n", "inf,0\n", "9" * 400 + ",1\n0.5,0\n", "0.5,1\n0.4,0", "0.5,1\n0.4", "0.5,1\n\n0.4,0\n",
        "0.5,1\r\n0.4,0\r\n", ",1\n", "-,1\n", "1.2.3,0\n", "1-2,0\n", "0.5,01\n",
        "0.5,1,0\n1\n", "0.5,2\n", "0.5,-1\n", "0.5\n", "",
    ])
    def test_metrics_whole_text_pass_equals_the_csv_reader(self, tmp_path, capsys, body):
        # the columns are compared bit for bit, so "-0" read as 0.0 would fail
        text = "score,label\n" + body
        path = _write(tmp_path / "preds.csv", text)
        fast = cli._plain_columns(text)
        try:
            slow = cli._csv_columns(text)
        except cli.DataError:
            assert fast is None
            assert main(["metrics", "--csv", path]) == 2
            return
        scores, labels = slow
        assert [type(v) for v in scores + labels] == [float] * len(scores) + [int] * len(labels)
        if fast is not None:
            assert fast[0].dtype == np.float64 and fast[1].dtype.kind in "iu"
            assert fast[0].tobytes() == np.array(scores, dtype=np.float64).tobytes()
            assert fast[1].tolist() == labels

    def test_metrics_plain_decimal_csv_takes_the_whole_text_path(self, tmp_path, monkeypatch):
        rng = random.Random(3)
        rows = [f"{rng.uniform(-1, 1):.6f},{rng.randint(0, 1)}" for _ in range(200)]
        path = _write(tmp_path / "preds.csv", "score,label\n" + "\n".join(rows) + "\n")
        report = str(tmp_path / "report.txt")
        assert main(["metrics", "--csv", path, "--report", report]) == 0
        expected = open(report).read()

        def per_row(text):
            raise AssertionError("read row by row")

        monkeypatch.setattr(cli, "_csv_columns", per_row)
        assert main(["metrics", "--csv", path, "--report", report]) == 0
        assert open(report).read() == expected

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

    def test_unbound_negated_variable_names_the_model_file_line(self, bundle, capsys):
        model = _write(bundle["dir"] / "model.txt", "\n".join([
            "model rfgb target=target/1 kind=hard psi0=0.0",
            "tree 0", 'node 0 test "flag(V0)" yes=1 no=2', "leaf 1 value=0.5",
            "leaf 2 value=-0.5",
            "tree 1", 'node 0 test "!flag(V1)" yes=1 no=2', "leaf 1 value=0.25",
            "leaf 2 value=-0.25"]) + "\n")
        assert main(["eval", "--model", model, "--schema", bundle["schema"],
                     "--facts", bundle["facts"], "--pos", bundle["pos"],
                     "--neg", bundle["neg"]]) == 2
        assert ("data error: line 7: unbound variable V1 in negated literal !flag(V1)"
                in capsys.readouterr().err)

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


    @pytest.mark.parametrize("entity", ["John", "a b", "p(1)", "X"])
    def test_a_trajectory_entity_that_is_no_constant_is_a_data_error(self, tmp_path, capsys,
                                                                     entity):
        schema = _write(tmp_path / "schema.txt", TRANSITION_SCHEMA)
        traj = _write(tmp_path / "traj.txt", "traj a\nt=0.0 cvd(a)=false\nt=1.0 cvd(a)=true\n"
                      f"horizon=2.0\n% the second\ntraj {entity}\nt=0.0 cvd(b)=false\n"
                      "horizon=2.0\n")
        modes = _write(tmp_path / "modes.txt", "mode: bp(+).\n")
        out = tmp_path / "model.txt"
        assert main(["train", "--kind", "rctbn", "--schema", schema, "--traj", traj,
                     "--modes", modes, "--target", "cvd", "--from", "false",
                     "--to", "true", "--iters", "1", "--out", str(out)]) == 2
        assert f"data error: line 6: bad entity {entity!r}: must be a constant" \
            in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("line", ["stream cvd(X)", "stream cvd(p1,x)",
                                      "stream parentOf(d1,p1)", "stream cvd(p1)",
                                      "fact cvd(d1)."])
    def test_bad_world_line_is_data_error_at_its_line(self, tmp_path, capsys, line):
        schema = _write(tmp_path / "schema.txt", SAMPLE_SCHEMA)
        spec = _write(tmp_path / "spec.txt", SAMPLE_SPEC.replace(
            "fact parentOf(d1,p1).", f"fact parentOf(d1,p1).\n{line}"))
        out = str(tmp_path / "trj.txt")
        assert main(["sample", "--spec", spec, "--schema", schema,
                     "--horizon", "5.0", "--out", out]) == 2
        assert "data error: line 9: " in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("entity", ["John", "a b", "p(1)", "X"])
    def test_a_world_entity_that_is_no_constant_is_a_data_error(self, tmp_path, capsys,
                                                                entity):
        schema = _write(tmp_path / "schema.txt", SAMPLE_SCHEMA)
        spec = _write(tmp_path / "spec.txt", SAMPLE_SPEC.replace("world p2", f"world {entity}"))
        out = str(tmp_path / "trj.txt")
        assert main(["sample", "--spec", spec, "--schema", schema,
                     "--horizon", "5.0", "--out", out]) == 2
        assert f"data error: line 10: bad entity {entity!r}: must be a constant" \
            in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("body,message", [
        ("!parentOf(Y,V0)", "unbound variable Y in negated literal !parentOf(Y,V0)"),
        ("parentOf(Y,V0", "bad literal 'parentOf(Y,V0'"),
    ])
    def test_bad_clause_body_is_data_error_at_its_line(self, tmp_path, capsys, body, message):
        schema = _write(tmp_path / "schema.txt", SAMPLE_SCHEMA)
        spec = _write(tmp_path / "spec.txt", SAMPLE_SPEC.replace(
            '"parentOf(Y,V0), cvd(Y)"', f'"{body}"'))
        out = str(tmp_path / "trj.txt")
        assert main(["sample", "--spec", spec, "--schema", schema,
                     "--horizon", "5.0", "--out", out]) == 2
        assert f"data error: line 4: {message}" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", '"a"', "[1]", "{}",
                                       "true", pytest.param("1" + "0" * 400, id="10**400")])
    @pytest.mark.parametrize("line", ["var", "clause"])
    def test_a_ground_truth_entry_that_is_no_finite_number_is_a_data_error(
            self, tmp_path, capsys, entry, line):
        # a NaN intensity once kept the sampler running without end, and a
        # NaN initial probability started every stream in its last state
        schema = _write(tmp_path / "schema.txt", SAMPLE_SCHEMA)
        if line == "var":
            old, new = "var cvd init=[1.0, 0.0]", f"var cvd init=[{entry}, 0.0]"
        else:
            old, new = "cim=[[-0.4, 0.4]", f"cim=[[{entry}, 0.4]"
        spec = _write(tmp_path / "spec.txt", SAMPLE_SPEC.replace(old, new))
        out = str(tmp_path / "trj.txt")
        assert main(["sample", "--spec", spec, "--schema", schema,
                     "--horizon", "5.0", "--out", out]) == 2
        what = "cvd init" if line == "var" else "CIM"
        assert f"data error: line {2 if line == 'var' else 3}: {what} entries must be " \
            "finite numbers, not " in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_clause_intensities_summing_past_float_range_are_a_data_error_at_the_clause(
            self, tmp_path, capsys):
        # each clause is finite; the sampler adds the active ones, and two
        # of these sum to -inf
        schema = _write(tmp_path / "schema.txt", SAMPLE_SCHEMA)
        spec = _write(tmp_path / "spec.txt",
                      "var cvd init=[1.0, 0.0]\n"
                      + "clause cvd cim=[[-1e308, 1e308], [0.0, 0.0]]\n" * 3
                      + "world p1\nstream cvd(p1)\nend\n")
        out = str(tmp_path / "trj.txt")
        assert main(["sample", "--spec", spec, "--schema", schema,
                     "--horizon", "5.0", "--out", out]) == 2
        assert "data error: line 3: the intensities of the cvd clauses sum past float range" \
            in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_clause_intensities_summing_past_float_range_are_refused_whatever_the_bodies(
            self, tmp_path, capsys):
        # no context satisfies both bodies, so the sampler never adds the two
        # CIMs; the bound is on the sum of every clause of a head all the same
        schema = _write(tmp_path / "schema.txt", SAMPLE_SCHEMA)
        spec = _write(tmp_path / "spec.txt",
                      "var cvd init=[1.0, 0.0]\n"
                      'clause cvd cim=[[-1e308, 1e308], [0.0, 0.0]] if "parentOf(V0,V0)"\n'
                      'clause cvd cim=[[-1e308, 1e308], [0.0, 0.0]] if "!parentOf(V0,V0)"\n'
                      "world p1\nstream cvd(p1)\nend\n")
        out = str(tmp_path / "trj.txt")
        assert main(["sample", "--spec", spec, "--schema", schema,
                     "--horizon", "5.0", "--out", out]) == 2
        assert "data error: line 3: the intensities of the cvd clauses sum past float range" \
            in capsys.readouterr().err
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

    def test_hybrid_train_and_eval_without_facts(self, tmp_path):
        schema = _write(tmp_path / "schema.txt",
                        "predicate: sick/1 boolean.\npredicate: visits/1 count.\n")
        ex_p = _write(tmp_path / "values.txt", "visits(e0)=1.\nvisits(e1)=3.\nvisits(e2)=0.\n")
        modes_p = _write(tmp_path / "modes.txt", "mode: sick(+).\n")
        out = str(tmp_path / "model.txt")
        assert main(["train", "--kind", "hybrid", "--schema", schema, "--examples", ex_p,
                     "--modes", modes_p, "--target", "visits", "--iters", "3",
                     "--out", out]) == 0
        text = open(out).read()
        assert text.startswith("model hybrid target=visits/1 kind=poisson")
        assert "node" not in text       # no sick/1 facts, so no test splits
        report = str(tmp_path / "report.txt")
        assert main(["eval", "--model", out, "--schema", schema, "--examples", ex_p,
                     "--report", report]) == 0
        assert "examples=3\n" in open(report).read()

    def test_hybrid_header_kind_must_match_the_schema(self, tmp_path, capsys):
        # a trained Poisson model relabelled as a two-class multinomial one
        schema = _write(tmp_path / "schema.txt",
                        "predicate: sick/1 boolean.\npredicate: visits/1 count.\n")
        ex_p = _write(tmp_path / "values.txt", "visits(e0)=1.\nvisits(e1)=3.\nvisits(e2)=0.\n")
        modes_p = _write(tmp_path / "modes.txt", "mode: sick(+).\n")
        out = tmp_path / "model.txt"
        assert main(["train", "--kind", "hybrid", "--schema", schema, "--examples", ex_p,
                     "--modes", modes_p, "--target", "visits", "--iters", "2",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "kind=poisson" in text and "function rate\n" in text
        rate_trees = text.split("function rate\n", 1)[1]
        out.write_text(text.split("\n", 1)[0].replace("kind=poisson", "kind=multinomial:2")
                       + "\nfunction class=0\n" + rate_trees + "function class=1\n" + rate_trees)
        assert main(["eval", "--model", str(out), "--schema", schema,
                     "--examples", ex_p]) == 2
        err = capsys.readouterr().err
        assert "data error: line 1: kind=multinomial:2 does not match the schema" in err
        assert "kind=poisson" in err

    def test_hybrid_header_class_count_must_match_the_schema(self, tmp_path, capsys):
        schema = _write(tmp_path / "schema.txt", "predicate: grade/1 multiclass(3).\n")
        ex_p = _write(tmp_path / "values.txt", "grade(e0)=0.\ngrade(e1)=2.\n")
        model = _write(tmp_path / "model.txt", "model hybrid target=grade/1 kind=multinomial:4 "
                       "eta=1.0\n" + "".join(f"function class={k}\ntree 0\nleaf 0 value=0.0\n"
                                             for k in range(4)))
        assert main(["eval", "--model", model, "--schema", schema, "--examples", ex_p]) == 2
        err = capsys.readouterr().err
        assert "data error: line 1: kind=multinomial:4 does not match the schema" in err
        assert "kind=multinomial:3" in err

    def test_gaussian_eval_of_an_oversized_value_is_data_error(self, tmp_path, capsys):
        schema = _write(tmp_path / "schema.txt", "predicate: weight/1 continuous.\n")
        trees = "".join(f"function {key}\ntree 0\nleaf 0 value=0.0\n" for key in ("mu", "sigma"))
        model = _write(tmp_path / "model.txt",
                       "model hybrid target=weight/1 kind=gaussian eta=1.0 sigma0=1.0\n" + trees)
        held = _write(tmp_path / "held.txt", "weight(a)=2.0.\nweight(b)=1e200.\n")
        report = str(tmp_path / "report.txt")
        assert main(["eval", "--model", model, "--schema", schema, "--examples", held,
                     "--report", report]) == 2
        err = capsys.readouterr().err
        assert "data error: target weight: values too large for float arithmetic" in err
        assert not os.path.exists(report)

    @pytest.mark.parametrize("name", ["visits", "weight", "grade"])
    def test_eval_of_a_saved_mixed_model(self, tmp_path, name):
        # the report equals one computed in-process from the trained model
        _, db, modes, dataset = build_hybrid_domain()
        model = hybrid.train_mixed(dataset[name], db, modes, ["dose", "age"],
                                   hybrid.HybridConfig(iterations=2, eta_poisson=0.2))
        probs = [model.prob_of_truth(atom, value, db) for atom, value in dataset[name].entries]
        want = cli._report_lines({"mse": metrics.mse(probs), "examples": len(probs),
                                  "mean_loglik": metrics.mean_loglik(probs)})
        report = tmp_path / "report.txt"
        assert main(["eval", "--model", _write(tmp_path / "model.txt",
                                                hybrid.serialize_hybrid(model)),
                     "--schema", _write(tmp_path / "schema.txt", HYBRID_SCHEMA_TEXT),
                     "--facts", _write(tmp_path / "facts.txt", serialize_facts(db)),
                     "--examples", _write(tmp_path / "values.txt",
                                          serialize_examples(dataset[name])),
                     "--report", str(report)]) == 0
        assert report.read_text() == want

    def test_eval_of_a_mixed_model_without_a_parent_fact_is_data_error(self, tmp_path,
                                                                       capsys):
        _, db, modes, dataset = build_hybrid_domain()
        model = hybrid.train_mixed(dataset["visits"], db, modes, ["dose"],
                                   hybrid.HybridConfig(iterations=1))
        facts = "".join(line + "\n" for line in serialize_facts(db).splitlines()
                        if not line.startswith("dose(e005)"))
        assert main(["eval", "--model", _write(tmp_path / "model.txt",
                                                hybrid.serialize_hybrid(model)),
                     "--schema", _write(tmp_path / "schema.txt", HYBRID_SCHEMA_TEXT),
                     "--facts", _write(tmp_path / "facts.txt", facts),
                     "--examples", _write(tmp_path / "values.txt",
                                          serialize_examples(dataset["visits"]))]) == 2
        assert "data error: no dose fact for visits(e005)" in capsys.readouterr().err

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

    def test_hybrid_train_from_the_demo_sample(self, tmp_path):
        # the demo's worlds hold a parent's cvd stream beside the index
        # entity's; it is context, aggregated into cvd_ind
        demo = Path(__file__).resolve().parent.parent / "demo"
        schema = str(demo / "schema.txt")
        traj, facts = str(tmp_path / "train.txt"), str(tmp_path / "facts.txt")
        assert main(["sample", "--spec", str(demo / "groundtruth.txt"), "--schema", schema,
                     "--horizon", "8.0", "--seed", "7", "--out", traj,
                     "--out-facts", facts]) == 0
        assert "cvd(d01)" in open(traj).read()
        modes = _write(tmp_path / "modes.txt", "mode: parentOf(-,+).\nmode: cvd_ind(+).\n"
                       "mode: checkup_ind(+).\n")
        out = str(tmp_path / "model.txt")
        assert main(["train", "--kind", "hybrid", "--schema", schema, "--facts", facts,
                     "--traj", traj, "--modes", modes, "--target", "cvd", "--iters", "5",
                     "--out", out]) == 0
        assert open(out).read().startswith("model hybrid target=cvd_count/1 kind=poisson")

    def test_static_fact_on_a_stream_predicate_is_parse_error_at_its_line(
            self, tmp_path, capsys):
        # a temporal predicate's values come only from the trajectories; such
        # a --facts line used to change an rctbn model without any error
        demo = Path(__file__).resolve().parent.parent / "demo"
        schema = str(demo / "schema.txt")
        traj, facts = str(tmp_path / "train.txt"), str(tmp_path / "facts.txt")
        assert main(["sample", "--spec", str(demo / "groundtruth.txt"), "--schema", schema,
                     "--horizon", "8.0", "--seed", "7", "--out", traj,
                     "--out-facts", facts]) == 0
        model = str(tmp_path / "model.txt")
        rctbn_args = ["--schema", schema, "--traj", traj, "--modes", str(demo / "modes.txt"),
                      "--target", "cvd", "--from", "false", "--to", "true", "--iters", "2"]
        assert main(["train", "--kind", "rctbn", "--facts", facts, *rctbn_args,
                     "--out", model]) == 0
        text = open(facts).read()
        bad = _write(tmp_path / "bad_facts.txt", text + "cvd(d01,0.0).\ncvd(d03,0.0).\n")
        lineno = len(text.splitlines()) + 1
        hybrid_modes = _write(tmp_path / "modes.txt", "mode: parentOf(-,+).\n"
                              "mode: checkup_ind(+).\n")
        commands = [
            ["train", "--kind", "rctbn", "--facts", bad, *rctbn_args,
             "--out", str(tmp_path / "rctbn.txt")],
            ["train", "--kind", "hybrid", "--schema", schema, "--facts", bad, "--traj", traj,
             "--modes", hybrid_modes, "--target", "cvd", "--out", str(tmp_path / "hyb.txt")],
            ["eval", "--model", model, "--schema", schema, "--facts", bad, "--traj", traj],
        ]
        capsys.readouterr()
        for argv in commands:
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"relboost: data error: line {lineno}: cvd is a stream predicate; "
                "its values come from the trajectories\n")
        assert not (tmp_path / "rctbn.txt").exists() and not (tmp_path / "hyb.txt").exists()

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


class TestTargetArity:
    @pytest.fixture()
    def files(self, tmp_path):
        lines = ["traj p1", "t=0.0 angio(p1)=false", "t=1.0 angio(p1)=true", "horizon=2.0"]
        return {
            "schema": _write(tmp_path / "schema.txt",
                             LINKED_SCHEMA_TEXT + "predicate: angio/2 boolean temporal.\n"),
            "facts": _write(tmp_path / "facts.txt", "knows(e1,f1).\nflag(f1).\n"),
            "pos": _write(tmp_path / "pos.txt", "target(e1).\n"),
            "neg": _write(tmp_path / "neg.txt", "target(f1).\n"),
            "modes": _write(tmp_path / "modes.txt", LINKED_MODES_TEXT),
            "traj": _write(tmp_path / "traj.txt", "\n".join(lines) + "\n"),
            "out": str(tmp_path / "model.txt"),
        }

    @pytest.mark.parametrize("args,message", [
        (["train", "--kind", "rfgb", "--target", "target/2", "--out", "{out}",
          "--facts", "{facts}", "--pos", "{pos}", "--neg", "{neg}"],
         "target target/2 does not match the schema's target/1"),
        (["cv", "--kind", "soft-rfgb", "--target", "target/0",
          "--facts", "{facts}", "--pos", "{pos}", "--neg", "{neg}"],
         "target target/0 does not match the schema's target/1"),
        (["train", "--kind", "hybrid", "--target", "angio/3", "--out", "{out}",
          "--traj", "{traj}"],
         "target angio/3 does not match the schema's angio/2"),
        (["train", "--kind", "rctbn", "--target", "angio/7", "--out", "{out}",
          "--traj", "{traj}", "--from", "false", "--to", "true"],
         "target angio/7 does not match the schema's angio/2"),
    ], ids=["rfgb", "cv", "hybrid-traj", "rctbn"])
    def test_arity_must_match_the_schema(self, files, capsys, args, message):
        args = [a.format(**files) for a in args]
        assert main(args + ["--schema", files["schema"], "--modes", files["modes"]]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(files["out"])

    def test_matching_arity_trains_as_the_bare_name(self, files):
        base = ["train", "--kind", "rfgb", "--schema", files["schema"], "--modes", files["modes"],
                "--facts", files["facts"], "--pos", files["pos"], "--neg", files["neg"],
                "--iters", "2"]
        texts = []
        for target in ("target", "target/1"):
            assert main(base + ["--target", target, "--out", files["out"]]) == 0
            texts.append(open(files["out"]).read())
        assert texts[0] == texts[1]


# each command's settable values, exactly the options its handler reads:
# train 28, eval 13, sample 7, cv 19, metrics 7
COMMAND_OPTIONS = {
    "train": {"config", "seed", "kind", "schema", "facts", "pos", "neg", "modes", "target",
              "iters", "leaves", "alpha", "beta", "neg-subsample", "examples", "traj", "data",
              "from", "to", "out", "log", "neg-cap", "eta", "bool-agg", "num-agg",
              "max-parents", "ess", "mit-alpha"},
    "eval": {"config", "model", "schema", "facts", "pos", "neg", "examples", "traj", "report",
             "threshold", "gamma", "strips", "delta"},
    "sample": {"config", "seed", "spec", "schema", "horizon", "out", "out-facts"},
    "cv": {"config", "seed", "kind", "schema", "facts", "pos", "neg", "modes", "target",
           "iters", "leaves", "alpha", "beta", "neg-subsample", "k", "gamma", "strips",
           "delta", "report"},
    "metrics": {"config", "csv", "report", "threshold", "gamma", "strips", "delta"},
}

REMOVED_OPTIONS = [("eval", "seed"), ("metrics", "seed")] + [
    ("cv", name) for name in sorted(COMMAND_OPTIONS["train"] - COMMAND_OPTIONS["cv"])]


class TestOptionTables:
    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_each_command_accepts_exactly_its_options(self, command):
        dests = set(vars(_build_parser().parse_args([command]))) - {"command"}
        assert dests == {name.replace("-", "_") for name in COMMAND_OPTIONS[command]}

    @pytest.mark.parametrize("command,name", REMOVED_OPTIONS)
    def test_option_a_command_does_not_read_is_config_error(self, tmp_path, capsys,
                                                            command, name):
        assert main([command, f"--{name}", "1"]) == 3
        config = _write(tmp_path / "run.conf", f"{name}=1\n")
        assert main([command, "--config", config]) == 3
        assert f"run.conf:1: unknown key {name!r}" in capsys.readouterr().err


@pytest.fixture()
def collector_state():
    """Put the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _garbage_after(argv) -> int:
    """Unreachable objects that `main(argv)` leaves, found by one collection
    after running it with the collector off."""
    gc.collect()
    gc.disable()
    assert main(argv) == 0
    return gc.collect()


HYBRID_TARGETS = {
    "count": ("visits", "predicate: visits/1 count.\n", lambda s, r: r.randint(0, 3) + 4 * s),
    "continuous": ("weight", "predicate: weight/1 continuous.\n",
                   lambda s, r: round(r.gauss(2.0 + 3 * s, 0.5), 3)),
    "multiclass": ("grade", "predicate: grade/1 multiclass(3).\n",
                   lambda s, r: r.randint(0, 1) + s),
}


class TestCollectorPolicy:
    """`main` pauses the cyclic collector for one command and puts it back."""

    @staticmethod
    def _training_argv(name, bundle) -> list:
        """A command of case `name` that trains, without its --iters."""
        root = bundle["dir"]
        inputs = ["--schema", bundle["schema"], "--facts", bundle["facts"], "--pos", bundle["pos"],
                  "--neg", bundle["neg"], "--modes", bundle["modes"], "--target", "target"]
        if name in ("rfgb", "soft-rfgb"):
            return ["train", "--kind", name, *inputs, "--out", str(root / "model.txt")]
        if name == "cv":
            return ["cv", "--kind", "rfgb", *inputs, "--k", "2", "--report", str(root / "cv.txt")]
        if name == "rctbn":
            schema = _write(root / "rctbn_schema.txt", SAMPLE_SCHEMA)
            spec = _write(root / "spec.txt", SAMPLE_SPEC)
            traj, static = str(root / "traj.txt"), str(root / "static.txt")
            assert main(["sample", "--spec", spec, "--schema", schema, "--horizon", "12.0",
                         "--seed", "2", "--out", traj, "--out-facts", static]) == 0
            modes = _write(root / "rctbn_modes.txt", "mode: parentOf(-,+).\nmode: cvd(+).\n")
            return ["train", "--kind", "rctbn", "--schema", schema, "--facts", static,
                    "--traj", traj, "--modes", modes, "--target", "cvd", "--from", "false",
                    "--to", "true", "--out", str(root / "rctbn_model.txt")]
        target, decl, value = HYBRID_TARGETS[name.removeprefix("hybrid-")]
        rng = random.Random(5)
        sick = [rng.random() < 0.5 for _ in range(60)]
        return ["train", "--kind", "hybrid",
                "--schema", _write(root / "hybrid_schema.txt",
                                   "predicate: sick/1 boolean.\n" + decl),
                "--facts", _write(root / "sick.txt", "".join(
                    f"sick(e{i:02d}).\n" for i, s in enumerate(sick) if s)),
                "--examples", _write(root / "values.txt", "".join(
                    f"{target}(e{i:02d})={value(s, rng)}.\n" for i, s in enumerate(sick))),
                "--modes", _write(root / "sick_modes.txt", "mode: sick(+).\n"),
                "--target", target, "--out", str(root / "hybrid_model.txt")]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("code", [0, 2, 3, 4])
    def test_main_puts_the_collector_back_on_every_exit(self, tmp_path, monkeypatch, capsys,
                                                        collector_state, enabled, code):
        body = "a,b\n0.5,1\n" if code == 2 else "score,label\n0.9,1\n0.2,0\n"
        argv = ["metrics", "--csv", _write(tmp_path / "preds.csv", body),
                "--report", str(tmp_path / "report.txt")]
        if code == 3:
            argv += ["--no-such-option", "1"]
        if code == 4:
            def broken(_opts):
                raise RuntimeError("handler failed")
            monkeypatch.setitem(cli._COMMANDS, "metrics", (broken, cli._COMMANDS["metrics"][1]))
        (gc.enable if enabled else gc.disable)()
        assert main(argv) == code
        assert gc.isenabled() is enabled
        if code == 4:
            assert "relboost: internal error: handler failed" in capsys.readouterr().err

    def test_no_collection_runs_during_a_command(self, bundle, collector_state):
        collections = []

        def record(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.enable()
        gc.collect()
        gc.callbacks.append(record)
        try:
            code = main(_train_args(bundle, str(bundle["dir"] / "model.txt"), ["--iters", "8"]))
        finally:
            gc.callbacks.remove(record)
        assert code == 0
        assert collections == []

    @pytest.mark.parametrize("name", ["rfgb", "soft-rfgb", "hybrid-count", "hybrid-continuous",
                                      "hybrid-multiclass", "rctbn", "cv"])
    def test_cyclic_garbage_does_not_grow_with_iterations(self, bundle, collector_state, name):
        argv = self._training_argv(name, bundle)
        _garbage_after(argv + ["--iters", "2"])   # first calls may fill caches, import lazily
        assert (_garbage_after(argv + ["--iters", "6"])
                == _garbage_after(argv + ["--iters", "2"]))


def _run_process(args, cwd):
    """Exit code and standard error of `python <args>` run as its own process,
    importing relboost from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stderr


# what the `relboost` console script (entry point relboost.cli:main) runs
CONSOLE_SCRIPT = ["-c", "import sys; from relboost.cli import main; sys.exit(main())"]


class TestProcessEntryPoint:
    def test_module_metrics_matches_the_in_process_report(self, tmp_path):
        rng = random.Random(12)
        body = "score,label\n" + "".join(f"{rng.random():.5f},{i % 3 == 0:d}\n"
                                          for i in range(50))
        csv_path = _write(tmp_path / "preds.csv", body)
        inproc, child = tmp_path / "inproc.txt", tmp_path / "child.txt"
        assert main(["metrics", "--csv", csv_path, "--report", str(inproc)]) == 0
        code, err = _run_process(["-m", "relboost.cli", "metrics", "--csv", csv_path,
                                  "--report", str(child)], tmp_path)
        assert (code, err) == (0, "")
        assert child.read_bytes() == inproc.read_bytes()

    def test_console_script_eval_matches_the_in_process_report(self, bundle):
        root = bundle["dir"]
        model = str(root / "model.txt")
        assert main(_train_args(bundle, model, ["--iters", "3"])) == 0
        data = ["--schema", bundle["schema"], "--facts", bundle["facts"],
                "--pos", bundle["pos"], "--neg", bundle["neg"]]
        inproc, child = root / "inproc.txt", root / "child.txt"
        assert main(["eval", "--model", model, *data, "--report", str(inproc)]) == 0
        code, err = _run_process([*CONSOLE_SCRIPT, "eval", "--model", model, *data,
                                  "--report", str(child)], root)
        assert (code, err) == (0, "")
        assert child.read_bytes() == inproc.read_bytes()

    @pytest.mark.parametrize("entry", [["-m", "relboost.cli"], CONSOLE_SCRIPT])
    def test_malformed_csv_exits_2_and_unknown_option_exits_3(self, tmp_path, entry):
        bad = _write(tmp_path / "bad.csv", "score,label\n0.5,1\n0.5\n")
        code, err = _run_process([*entry, "metrics", "--csv", bad], tmp_path)
        assert code == 2 and "relboost: data error:" in err
        code, err = _run_process([*entry, "metrics", "--csv", bad, "--no-such-option", "1"],
                                 tmp_path)
        assert code == 3 and "relboost: config error:" in err
