"""Two-slice structure scoring and search tests with brute-force oracles."""

import builtins
import itertools
import math
import random

import numpy as np
import pytest

from relboost import dbn
from relboost.dbn import (
    BDe,
    BIC,
    MIT,
    DiscreteDataset,
    TwoSliceNetwork,
    _arc_moves,
    _closes_cycle,
    _meets_grey,
    _read_vars,
    bde_family_score,
    bic_penalty,
    chi2_quantile,
    family_counts,
    family_loglik,
    family_score,
    hill_climb,
    mit_family_score,
    mutual_information,
    parse_dataset,
    parse_network,
    score_network,
    serialize_dataset,
    serialize_network,
)
from relboost.logic import ParseError
from tests.conftest import compensated_sum
from tests.reader_reference import _parse_rows


def _dataset(rows, names=("a", "b", "c"), arities=(2, 2, 2)):
    return DiscreteDataset(list(names), list(arities), np.array(rows))


def _random_dataset(rng, n_samples=200, arities=(2, 3, 2)):
    rows = [[rng.randrange(r) for r in list(arities) + list(arities)]
            for _ in range(n_samples)]
    return _dataset(rows, names=("a", "b", "c"), arities=arities)


class TestFamilyLoglik:
    def test_deterministic_constant_is_zero(self):
        rows = [[0, 0, 0, 1, 0, 0]] * 50
        data = _dataset(rows)
        assert family_loglik(data, 0, ()) == pytest.approx(0.0)

    def test_fair_coin_reference(self):
        rows = [[0, 0, 0, 1, 0, 0]] * 50 + [[0, 0, 0, 0, 0, 0]] * 50
        data = _dataset(rows)
        assert family_loglik(data, 0, ()) == pytest.approx(100 * math.log(0.5))
        assert family_loglik(data, 0, ()) == pytest.approx(-69.3147, abs=1e-3)

    def test_matches_per_sample_sum(self):
        rng = random.Random(5)
        data = _random_dataset(rng)
        for i in range(3):
            for parents in ((), (("t", 0),), (("t", 1), ("t1", 0))):
                if any(kind == "t1" and j == i for kind, j in parents):
                    continue
                counts = family_counts(data, i, parents)
                # oracle: per-sample log of the MLE conditional probability
                probs = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
                total = 0.0
                for row in data.rows:
                    child = row[data.n_vars + i]
                    config = 0
                    for kind, j in parents:
                        v = row[j] if kind == "t" else row[data.n_vars + j]
                        config = config * data.arities[j] + v
                    total += math.log(probs[config, child])
                assert family_loglik(data, i, parents) == pytest.approx(
                    total, rel=1e-9)


class TestBicPenalty:
    def test_single_state_child_free(self):
        assert bic_penalty(4, 1, 1000) == 0.0

    def test_reference(self):
        assert bic_penalty(3, 2, 100) == pytest.approx(1.5 * math.log(100))
        assert bic_penalty(3, 2, 100) == pytest.approx(6.9078, abs=1e-4)

    def test_natural_log_base(self):
        assert bic_penalty(1, 2, math.e ** 2) == pytest.approx(1.0, abs=1e-12)


class TestBde:
    def test_zero_counts_score_zero(self):
        assert bde_family_score(np.zeros((3, 2)), ess=1.0) == pytest.approx(0.0)

    def test_single_binary_sample(self):
        counts = np.array([[1, 0]])
        assert bde_family_score(counts, ess=1.0) == pytest.approx(math.log(0.5))

    def test_matches_sequential_predictive_product(self):
        # chain rule oracle: feed the samples one at a time and multiply
        # the Dirichlet posterior predictive probabilities
        rng = random.Random(7)
        for _ in range(20):
            q, r = rng.choice([(1, 2), (2, 2), (2, 3), (4, 2)])
            ess = rng.choice([0.5, 1.0, 4.0])
            samples = [(rng.randrange(q), rng.randrange(r))
                       for _ in range(rng.randint(0, 40))]
            counts = np.zeros((q, r))
            log_prob = 0.0
            a_ijk = ess / (q * r)
            for j, k in samples:
                log_prob += math.log(
                    (a_ijk + counts[j, k]) / (a_ijk * r + counts[j].sum()))
                counts[j, k] += 1
            assert bde_family_score(counts, ess) == pytest.approx(
                log_prob, rel=1e-9, abs=1e-9)


class TestMit:
    def test_exactly_independent_counts_nonpositive(self):
        rows = []
        for a in (0, 1):
            for b in (0, 1):
                rows.extend([[a, b, 0, a, b, 0]] * 25)
        data = _dataset(rows)
        for alpha in (0.5, 0.9, 0.95, 0.999):
            # child a at t+1 vs parent b at t: counts are exactly balanced
            score = mit_family_score(data, 0, (("t", 1),), alpha)
            assert score <= 0.0

    def test_perfectly_correlated_pair(self):
        rows = [[0, 0, 0, 0, 0, 0]] * 500 + [[1, 0, 0, 1, 0, 0]] * 500
        data = _dataset(rows)
        got = mit_family_score(data, 0, (("t", 0),), alpha=0.95)
        want = 2.0 * 1000 * math.log(2.0) - chi2_quantile(0.95, 1)
        assert got == pytest.approx(want, rel=1e-9)

    def test_mutual_information_brute_force(self):
        rng = random.Random(8)
        data = _random_dataset(rng)
        counts = family_counts(data, 0, (("t", 1),)).astype(float)
        n = counts.sum()
        want = 0.0
        for j in range(counts.shape[0]):
            for k in range(counts.shape[1]):
                p = counts[j, k] / n
                if p > 0:
                    want += p * math.log(
                        p / ((counts[j].sum() / n) * (counts[:, k].sum() / n)))
        assert mutual_information(counts) == pytest.approx(want, rel=1e-12)

    def test_empty_parent_set_scores_zero(self):
        rng = random.Random(9)
        data = _random_dataset(rng)
        assert mit_family_score(data, 0, (), 0.95) == 0.0

    def test_arity_one_variable_climbs_as_bic_does(self):
        # b has one state, so every family with it has a df-0 term: it adds
        # no chi-square quantile, and chi2_quantile(alpha, 0) is never asked
        data = parse_dataset("vars: a:2, b:1\n0,0,0,0\n1,0,1,0\n0,0,1,0\n1,0,0,0\n")
        assert mit_family_score(data, 0, (("t", 1),), 0.95) == 0.0
        mit, bic = hill_climb(data, MIT(0.95)), hill_climb(data, BIC())
        assert (mit.intra, mit.inter) == (bic.intra, bic.inter)

    def test_df_schedule_arity_descending(self):
        # child binary with parents of arity 3 then 2: df 2*1... the wider
        # parent comes first, so dfs are (r_i-1)(3-1)=2 and (r_i-1)(2-1)*3=3
        from relboost.dbn import _mit_df_schedule
        rng = random.Random(10)
        data = _random_dataset(rng, arities=(2, 3, 2))
        dfs = _mit_df_schedule(data, 0, (("t", 1), ("t", 2)))
        assert dfs == [2, 3]


class TestChi2Quantile:
    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        worst = 0.0
        for df in list(range(1, 31)) + [50, 100]:
            for alpha in (0.9, 0.95, 0.99):
                want = scipy_stats.chi2.ppf(alpha, df)
                got = chi2_quantile(alpha, df)
                worst = max(worst, abs(got - want) / want)
        # documented bound for the refined approximation
        assert worst < 1e-3

    def test_bad_df(self):
        for _ in range(2):   # a failed call is not memoised
            with pytest.raises(ValueError):
                chi2_quantile(0.95, 0)

    def test_memoised_quantiles_equal_the_computed_ones(self):
        for df in range(1, 40):
            for alpha in (0.5, 0.9, 0.95, 0.99):
                want = chi2_quantile.__wrapped__(alpha, df)
                assert chi2_quantile(alpha, df) == want
                assert chi2_quantile(alpha, df) == want   # the memoised value


def _planted_dataset(rng, n):
    """a keeps 90 percent of its previous value; b copies a within the
    slice 85 percent of the time; c is noise."""
    rows = []
    for _ in range(n):
        a_t, b_t, c_t = rng.randrange(2), rng.randrange(2), rng.randrange(2)
        a1 = a_t if rng.random() < 0.9 else 1 - a_t
        b1 = a1 if rng.random() < 0.85 else 1 - a1
        c1 = rng.randrange(2)
        rows.append([a_t, b_t, c_t, a1, b1, c1])
    return _dataset(rows)


def _exhaustive_best(data, kind, max_parents):
    n = data.n_vars
    arcs_intra = [(i, j) for i in range(n) for j in range(n) if i != j]
    arcs_inter = [(i, j) for i in range(n) for j in range(n)]
    best = None
    for r_i in range(len(arcs_intra) + 1):
        for intra in itertools.combinations(arcs_intra, r_i):
            try:
                TwoSliceNetwork(data.names, data.arities, set(intra), set())
            except ValueError:
                continue
            for r_e in range(len(arcs_inter) + 1):
                for inter in itertools.combinations(arcs_inter, r_e):
                    net = TwoSliceNetwork(data.names, data.arities,
                                          set(intra), set(inter))
                    if any(len(net.parents(i)) > max_parents for i in range(n)):
                        continue
                    s = score_network(net, data, kind)
                    if best is None or s > best[0]:
                        best = (s, net)
    return best


class TestScoreNetwork:
    def test_empty_network_bic_formula(self):
        rng = random.Random(11)
        data = _random_dataset(rng)
        net = TwoSliceNetwork(data.names, data.arities, set(), set())
        want = sum(family_loglik(data, i, ())
                   - bic_penalty(1, data.arities[i], data.n_samples)
                   for i in range(3))
        assert score_network(net, data, BIC()) == pytest.approx(want, rel=1e-12)

    def test_redundant_parent_never_helps_bic(self):
        rng = random.Random(12)
        # independent noise: any arc raises the penalty more than the fit
        data = _random_dataset(rng, n_samples=5000, arities=(2, 2, 2))
        empty = TwoSliceNetwork(data.names, data.arities, set(), set())
        base = score_network(empty, data, BIC())
        for arc in ((0, 1), (1, 2), (2, 0)):
            net = TwoSliceNetwork(data.names, data.arities, {arc}, set())
            assert score_network(net, data, BIC()) < base
        for arc in ((0, 0), (0, 1)):
            net = TwoSliceNetwork(data.names, data.arities, set(), {arc})
            assert score_network(net, data, BIC()) < base

    def test_decomposability_exact(self):
        rng = random.Random(13)
        data = _random_dataset(rng)
        a = TwoSliceNetwork(data.names, data.arities, {(0, 1)}, {(2, 2)})
        b = TwoSliceNetwork(data.names, data.arities, {(0, 1)}, {(2, 2), (0, 1)})
        for kind in (BIC(), BDe(1.0), MIT(0.95)):
            diff = score_network(b, data, kind) - score_network(a, data, kind)
            family_diff = (family_score(data, 1, b.parents(1), kind)
                           - family_score(data, 1, a.parents(1), kind))
            # only one family term changed; the rest cancel up to rounding
            assert diff == pytest.approx(family_diff, rel=1e-12, abs=1e-9)


class TestHillClimb:
    def test_recovers_planted_structure_bde(self):
        rng = random.Random(99)
        data = _planted_dataset(rng, 5000)
        net = hill_climb(data, BDe(1.0), max_parents=2)
        assert (0, 1) in net.intra
        assert (0, 0) in net.inter

    def test_pure_noise_bic_empty(self):
        rng = random.Random(100)
        data = _random_dataset(rng, n_samples=3000, arities=(2, 2, 2))
        net = hill_climb(data, BIC(), max_parents=2)
        assert net.intra == set() and net.inter == set()

    def test_matches_exhaustive_optimum(self):
        rng = random.Random(101)
        data = _planted_dataset(rng, 1500)
        for kind in (BIC(), BDe(1.0)):
            net = hill_climb(data, kind, max_parents=2)
            best_score, _ = _exhaustive_best(data, kind, 2)
            assert score_network(net, data, kind) == pytest.approx(
                best_score, abs=1e-9)

    def test_self_links_recovered_on_autocorrelated_data(self):
        rng = random.Random(102)
        rows = []
        for _ in range(4000):
            prev = [rng.randrange(2) for _ in range(3)]
            nxt = [p if rng.random() < 0.85 else 1 - p for p in prev]
            rows.append(prev + nxt)
        data = _dataset(rows)
        for kind in (BIC(), BDe(1.0), MIT(0.95)):
            net = hill_climb(data, kind, max_parents=2)
            for i in range(3):
                assert (i, i) in net.inter

    def test_deterministic(self):
        rng = random.Random(103)
        data = _planted_dataset(rng, 800)
        a = hill_climb(data, BDe(1.0), max_parents=2)
        b = hill_climb(data, BDe(1.0), max_parents=2)
        assert serialize_network(a) == serialize_network(b)

    def test_parent_cap_respected(self):
        rng = random.Random(104)
        data = _planted_dataset(rng, 2000)
        net = hill_climb(data, BDe(1.0), max_parents=1)
        for i in range(3):
            assert len(net.parents(i)) <= 1


class TestIO:
    def test_dataset_roundtrip(self):
        rng = random.Random(20)
        data = _random_dataset(rng, n_samples=25)
        text = serialize_dataset(data)
        again = parse_dataset(text)
        assert serialize_dataset(again) == text

    def test_dataset_state_range_checked(self):
        with pytest.raises(Exception, match="out of range"):
            parse_dataset("vars: a:2\n0,2\n")

    def test_range_error_names_the_first_declared_variable(self):
        # b is out of range in slice t on the first row, a in slice t+1 on
        # the second: the dataset names a, the file reader the first bad line
        rows = [[0, 5, 0, 0, 0, 0], [0, 0, 0, 7, 0, 0]]
        with pytest.raises(ValueError, match="state out of range for a$"):
            _dataset(rows)
        with pytest.raises(ParseError, match="line 2: state out of range for b$"):
            parse_dataset("vars: a:2, b:2, c:2\n0,5,0,0,0,0\n0,0,0,7,0,0\n")

    def test_dataset_width_checked(self):
        with pytest.raises(Exception, match="expected 2 values"):
            parse_dataset("vars: a:2\n0,1,1\n")

    @pytest.mark.parametrize("parse,text,message", [
        ("network", "vars: a:2, b:2\nintra a->c", "line 2: .*undeclared variable 'c'"),
        ("network", "vars: a:2\n\n% arcs\ninter z=>a\n", "line 4: .*undeclared variable 'z'"),
        ("network", "vars: a:2, b", "line 1: bad variable declaration 'b'"),
        ("dataset", "vars: a:2, b", "line 1: bad variable declaration 'b'"),
        ("network", "vars: a:2, a:3", "line 1: variable 'a' declared twice"),
        ("dataset", "% data\nvars: a:2\n\n0,1\n% note\n0,x\n", "line 6: states must be"),
        ("dataset", "vars: a:2\n0,1\n\n\n1,2\n", "line 5: state out of range for a"),
        ("dataset", "\nvars: a:2\n1,1\n0\n", "line 4: expected 2 values"),
        ("dataset", "vars: a:2\n0,99999999999999999999\n", "line 2: state out of range for a"),
    ])
    def test_parse_errors_name_the_file_line(self, parse, text, message):
        with pytest.raises(ParseError, match=message):
            {"network": parse_network, "dataset": parse_dataset}[parse](text)

    @pytest.mark.parametrize("digits", [50, 5000])
    @pytest.mark.parametrize("digit", ["1", "1_", "\u0661"])   # \u0661: Arabic-Indic one
    def test_an_oversized_state_is_out_of_range_at_its_line(self, digits, digit):
        # 5,000 digits is past int()'s default limit of 4,300
        state = (digit * digits).rstrip("_")
        with pytest.raises(ParseError, match="^line 2: state out of range for a$"):
            parse_dataset("vars: a:2\n0," + state + "\n")
        with pytest.raises(ParseError, match="^line 3: state out of range for b$"):
            parse_dataset("vars: a:2, b:2\n0,1,0,1\n0,0,1,-" + state + "\n")
        with pytest.raises(ParseError, match="^line 2: states must be integers$"):
            parse_dataset("vars: a:2\n0," + state + "_\n")

    @pytest.mark.parametrize("parse,text,line", [
        (parse_dataset, "% data\nvars: a:{}\n0,0\n", 2),
        (parse_network, "vars: a:2, b:{}\n", 1),
    ], ids=["dataset", "network"])
    def test_oversized_arity_names_its_line(self, parse, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: arity has 5000 digits"):
            parse(text.format("1" * 5000))

    def test_network_roundtrip(self):
        net = TwoSliceNetwork(["a", "b", "c"], [2, 3, 2],
                              {(0, 1), (1, 2)}, {(2, 2), (0, 0)})
        text = serialize_network(net)
        again = parse_network(text)
        assert serialize_network(again) == text

    @staticmethod
    def _chain_text(n, closed):
        names = [f"v{k}" for k in range(n)]
        arcs = [f"intra {a}->{b}" for a, b in zip(names, names[1:])]
        if closed:
            arcs.append(f"intra {names[-1]}->{names[0]}")
        return "vars: " + ", ".join(f"{v}:2" for v in names) + "\n" + "\n".join(arcs) + "\n"

    def test_long_intra_chain_parses(self):
        net = parse_network(self._chain_text(3000, closed=False))
        assert len(net.intra) == 2999 and net.parents(2999) == (("t1", 2998),)

    def test_long_intra_cycle_is_a_parse_error(self):
        with pytest.raises(ParseError, match="cycle"):
            parse_network(self._chain_text(3000, closed=True))

    def test_intra_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            TwoSliceNetwork(["a", "b"], [2, 2], {(0, 1), (1, 0)}, set())


def _per_line(text):
    """The line-by-line reader alone: the reference for the bulk path."""
    return _parse_rows(*_read_vars(text, "dataset"))


def _outcome(parse, text):
    try:
        data = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", data.names, data.arities, data.rows.dtype, data.rows.tolist())


# one field replaced: signs, padding, underscores, leading zeros, a non-ASCII
# digit, an empty field and a state past int64
_FIELD_MUTATIONS = ("+1", " 1 ", "1_0", "01", "-0", "\u0661", "", "99999999999999999999")


def _dataset_corpus(seed, n_datasets=12):
    """(what, text) pairs: seeded valid datasets and mutations of each."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(n_datasets):
        arities = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        header = "vars: " + ", ".join(f"v{j}:{r}" for j, r in enumerate(arities))
        rows = [[str(rng.randrange(r)) for r in arities * 2] for _ in range(rng.randint(1, 6))]
        lines = [",".join(row) for row in rows]
        i, j = rng.randrange(len(rows)), rng.randrange(2 * len(arities))

        def text(body, end="\n"):
            return end.join([header] + body) + end

        def with_line(line):
            return text(lines[:i] + [line] + lines[i + 1:])

        corpus.append(("valid", text(lines)))
        for field in _FIELD_MUTATIONS + (str(arities[j % len(arities)]),):  # last: out of range
            row = list(rows[i])
            row[j] = field
            corpus.append((f"field {field!r}", with_line(",".join(row))))
        corpus += [
            ("trailing comma", with_line(lines[i] + ",")),
            ("too few fields", with_line(",".join(rows[i][:-1]))),
            ("too many fields", with_line(lines[i] + ",0")),
            ("CRLF", text(lines, "\r\n")),
            ("blank and comment lines", text([x for line in lines for x in (line, "", "% c")])),
            ("header only", text([])),
            ("one one-digit row", text(lines[:1])),
            ("no final newline", text(lines)[:-1]),
            ("last row one field short", text(lines[:-1] + [",".join(rows[-1][:-1])])),
            ("header line broken by a form feed", text(lines).replace("\n", "\f", 1)),
        ]
        # a variable of arity 12, its states two digits on every row
        wide = [row[:len(arities)] + [str(rng.randrange(10, 12))] + row[len(arities):]
                + [str(rng.randrange(12))] for row in rows]
        corpus.append(("two-digit states",
                       header + ", w:12\n" + "".join(",".join(row) + "\n" for row in wide)))
    return corpus


def _dataset_line_mutations(seed):
    """(what, text) pairs: seeded valid datasets, each with one row mutated
    by a `%` at each position, spaces around each field and each of the
    field texts below in each field; and each with its rows joined by the
    separators \\x1c, \\f and U+2028."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(3):
        arities = [rng.randint(2, 4) for _ in range(rng.randint(1, 3))]
        header = "vars: " + ", ".join(f"v{j}:{r}" for j, r in enumerate(arities))
        lines = [",".join(str(rng.randrange(r)) for r in arities * 2)
                 for _ in range(rng.randint(2, 4))]
        i = rng.randrange(len(lines))
        fields = lines[i].split(",")
        mutated = [lines[i][:k] + "%" + lines[i][k:] for k in range(len(lines[i]) + 1)]
        for j in range(len(fields)):
            for text in (" ", "\t", "1.", ".5", "1_0", "+1", "inf", "\u0663", "1 1"):
                spaced = f" {fields[j]} " if text in (" ", "\t") else text
                mutated.append(",".join(fields[:j] + [spaced] + fields[j + 1:]))
        corpus += [("mutated row", "\n".join([header] + lines[:i] + [m] + lines[i + 1:]) + "\n")
                   for m in mutated]
        corpus += [(f"rows joined by {sep!r}", header + "\n" + sep.join(lines) + sep)
                   for sep in ("\x1c", "\f", "\u2028")]
    return corpus


class TestBulkParse:
    @pytest.mark.parametrize("seed", range(4))
    def test_bulk_and_per_line_paths_agree(self, seed):
        outcomes = set()
        for what, text in _dataset_corpus(seed):
            got = _outcome(parse_dataset, text)
            assert got == _outcome(_per_line, text), (what, text)
            outcomes.add(got[0])
        assert outcomes == {"ok", "error"}

    @pytest.mark.parametrize("seed", range(3))
    def test_line_mutations_read_as_the_per_line_reader(self, seed):
        outcomes = set()
        for what, text in _dataset_line_mutations(seed):
            got = _outcome(parse_dataset, text)
            assert got == _outcome(_per_line, text), (what, text)
            outcomes.add(got[0] if got[0] == "ok" else got[1].split(": ", 1)[1])
        assert {"ok", "states must be integers"} <= outcomes, outcomes

    def test_decimal_bodies_skip_the_per_line_reader(self, monkeypatch):
        data = _random_dataset(random.Random(21), n_samples=40)
        text = serialize_dataset(data)
        texts = [text, text.replace("\n", "\r\n"), text.replace("\n", "\n\n% c\n")]

        def fail(*args):
            raise AssertionError("a decimal body was read field by field")

        monkeypatch.setattr(dbn, "_field", fail)
        for t in texts:
            again = parse_dataset(t)
            assert again.rows.dtype == np.int64 and (again.rows == data.rows).all()

    def test_one_digit_bodies_skip_loadtxt(self, monkeypatch):
        data = _random_dataset(random.Random(22), n_samples=40)
        texts = [serialize_dataset(data), serialize_dataset(
            DiscreteDataset(data.names, data.arities, data.rows[:1]))]

        def fail(*args, **kwargs):
            raise AssertionError("a one-digit body was not decoded from its bytes")

        decoded = []

        def one_digit_states(body, n):
            decoded.append(dbn_one_digit_states(body, n))
            return decoded[-1]

        dbn_one_digit_states = dbn._one_digit_states
        monkeypatch.setattr(np, "loadtxt", fail)
        monkeypatch.setattr(dbn, "_field", fail)
        monkeypatch.setattr(dbn, "_one_digit_states", one_digit_states)
        for t in texts:
            again = parse_dataset(t)
            assert serialize_dataset(again) == t and again.rows.dtype == np.int64
        assert len(decoded) == len(texts) and all(s is not None for s in decoded)


def _reference_family_counts(data, i, parents):
    """`family_counts` as first written: the parent code built from the
    first parent inward, then the child state appended."""
    r = data.arities[i]
    child = data.column(("t1", i))
    q = math.prod(data.arities[j] for _, j in parents)
    config = np.zeros(data.n_samples, dtype=np.int64)
    for ref in parents:
        config = config * data.arities[ref[1]] + data.column(ref)
    return np.bincount(config * r + child, minlength=q * r).reshape(q, r)


def _reference_bde(counts, ess):
    """`bde_family_score` as first written: numpy scalars, indexed per cell."""
    counts = np.asarray(counts, dtype=float)
    q, r = counts.shape
    a_ijk = ess / (q * r)
    a_ij = ess / q
    total = 0.0
    for j in range(q):
        d_ij = counts[j].sum()
        total += math.lgamma(a_ij) - math.lgamma(a_ij + d_ij)
        for k in range(r):
            total += math.lgamma(a_ijk + counts[j, k]) - math.lgamma(a_ijk)
    return total


def _score_or_error(data, i, parents, kind):
    try:
        return family_score(data, i, parents, kind)
    except ValueError as exc:   # MIT with an arity-1 child or parent: df 0
        return str(exc)


class TestBitIdenticalScores:
    """Family scores equal, bit for bit, those of the reference loops."""

    @pytest.mark.parametrize("seed", range(4))
    def test_family_scores_equal_the_reference_loops(self, seed, monkeypatch):
        rng = random.Random(seed)
        names = ("a", "b", "c", "d")
        arities = [rng.randint(1, 4) for _ in names]
        data = _dataset([[rng.randrange(r) for r in arities * 2] for _ in range(300)],
                        names=names, arities=arities)
        refs = [(side, j) for side in ("t", "t1") for j in range(len(names))]
        families = [(i, tuple(sorted(rng.sample([r for r in refs if r != ("t1", i)], k))))
                    for i in range(len(names)) for k in range(4) for _ in range(3)]
        kinds = (BIC(), BDe(1.0), BDe(3.5), MIT(0.95), MIT(0.99))
        got = {(i, parents, kind): _score_or_error(data, i, parents, kind)
               for i, parents in families for kind in kinds}
        for i, parents in families:
            counts = family_counts(data, i, parents)
            want = _reference_family_counts(data, i, parents)
            assert counts.dtype == want.dtype and np.array_equal(counts, want)
            assert bde_family_score(counts, 2.0) == _reference_bde(counts, 2.0)

        monkeypatch.setattr(dbn, "family_counts", _reference_family_counts)
        monkeypatch.setattr(dbn, "_bde_scores",
                            lambda stack, ess: [_reference_bde(table, ess) for table in stack])
        monkeypatch.setattr(dbn, "chi2_quantile", chi2_quantile.__wrapped__)
        for (i, parents, kind), score in got.items():
            assert score == _score_or_error(data, i, parents, kind), (i, parents, kind)


def _one_table_loglik(counts):
    """`family_loglik`'s formula as first written, over one table."""
    counts = counts.astype(float)
    row = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.divide(counts, row, out=np.ones_like(counts), where=row > 0)
    return float(dbn._xlogy(counts, ratio).sum())


def _one_table_mutual_information(counts):
    """`mutual_information` as first written, over one table."""
    counts = counts.astype(float)
    n = counts.sum()
    if n == 0:
        return 0.0
    pj = counts.sum(axis=1, keepdims=True) / n
    pk = counts.sum(axis=0, keepdims=True) / n
    p = counts / n
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.divide(p, pj * pk, out=np.ones_like(p), where=p > 0)
    return float(dbn._xlogy(p, ratio).sum())


def _one_table_score(data, i, parents, kind):
    """`family_score` as first written, over one family's counts table: the
    BIC penalty's q from the parents' arities, the BDe cell loop of
    `_reference_bde` and no MIT term for a parentless family."""
    counts = family_counts(data, i, parents)
    if isinstance(kind, BIC):
        q = math.prod(data.arities[j] for _, j in parents)
        return _one_table_loglik(counts) - bic_penalty(q, data.arities[i], data.n_samples)
    if isinstance(kind, BDe):
        return _reference_bde(counts, kind.ess)
    if not parents:
        return 0.0
    score = 2.0 * data.n_samples * _one_table_mutual_information(counts)
    for df in dbn._mit_df_schedule(data, i, parents):
        if df:
            score -= chi2_quantile(kind.alpha, df)
    return score


def _hexes(scores):
    return [score.hex() for score in scores]


class TestStackedScores:
    """A stack of counts tables scores each table to the bits it gets alone."""

    KINDS = (BIC(), BDe(1.0), BDe(3.5), MIT(0.95))

    def test_stack_scores_equal_family_scores(self):
        rng = random.Random(31)
        names, arities = ("a", "b", "c", "d", "e"), (2, 3, 5, 1, 4)
        data = _dataset([[rng.randrange(r) for r in arities * 2] for _ in range(60)],
                        names=names, arities=arities)
        refs = [(side, j) for side in ("t", "t1") for j in range(len(names))]
        stacks: dict = {}     # (child, table shape) -> [parents]
        for i in range(len(names)):
            others = [ref for ref in refs if ref != ("t1", i)]
            for k in range(4):
                for parents in itertools.combinations(others, k):
                    shape = family_counts(data, i, parents).shape
                    stacks.setdefault((i, shape), []).append(parents)
        for (i, _), families in stacks.items():
            stack = np.stack([family_counts(data, i, parents) for parents in families])
            for kind in self.KINDS:
                want = [family_score(data, i, parents, kind) for parents in families]
                assert _hexes(dbn._family_scores(data, i, families, stack, kind)) == \
                    _hexes(want), (i, families, kind)
                assert _hexes(want) == _hexes(_one_table_score(data, i, parents, kind)
                                              for parents in families), (i, families, kind)
        cells = {q * r for _, (q, r) in stacks}
        assert min(cells) <= 2 and max(cells) > 128     # past numpy's pairwise block
        assert 1 in map(len, stacks.values())
        assert any((family_counts(data, i, parents).sum(axis=1) == 0).any()
                   for (i, _), families in stacks.items() for parents in families)

    def test_a_batch_of_mixed_shapes_scores_as_family_score(self):
        data = _random_dataset(random.Random(32), n_samples=90, arities=(2, 3, 4))

        def bits(ref):
            return dbn._state_bitsets(data, ref)

        refs = [(side, j) for side in ("t", "t1") for j in range(3)]
        for i, parents in ((0, ()), (1, (("t", 2),)), (2, (("t", 0), ("t1", 1)))):
            adds = [ref for ref in refs if ref != ("t1", i) and ref not in parents]
            tables = dbn._add_counts(data, i, parents, adds, bits)
            assert len({table.shape for table in tables.values()}) > 1
            for kind in self.KINDS:
                scores = dbn._score_tables(data, i, tables, kind)
                assert scores.keys() == tables.keys()
                assert {key: score.hex() for key, score in scores.items()} == {
                    key: family_score(data, *key, kind).hex() for key in tables} == {
                    key: _one_table_score(data, *key, kind).hex() for key in tables}

    @pytest.mark.parametrize("q,r", [(1, 2), (3, 3), (16, 9), (50, 3), (129, 1),
                                     (1024, 9)])   # past numpy's 8192-element buffer
    def test_zero_rows_and_an_all_zero_table(self, q, r):
        counts = np.random.default_rng(q * r).integers(0, 4, size=(4, q, r))
        counts[1] = 0
        counts[2, 0] = 0
        mis = dbn._mutual_informations(counts)
        assert mis[1] == 0.0
        assert _hexes(mis) == _hexes(map(_one_table_mutual_information, counts))
        assert _hexes(dbn._logliks(counts)) == _hexes(map(_one_table_loglik, counts))
        assert _hexes(dbn._bde_scores(counts, 2.0)) == \
            _hexes(_reference_bde(table, 2.0) for table in counts)
        for score in (dbn._logliks, dbn._mutual_informations,
                      lambda stack: dbn._bde_scores(stack, 2.0)):
            assert _hexes(score(counts)) == _hexes(score(table[None])[0] for table in counts)


def test_popcount_tables_equal_family_counts_past_two_to_the_sixteen_rows():
    """70,001 rows: past 2^16, so a cell can pass a uint16, and not a whole
    number of 64-bit words.  Variable a is in state 0 about 99% of the time,
    so the cell of a@t and a@t+1 both 0 counts past 65,535."""
    rng = np.random.default_rng(36)
    n, arities = 70_001, (2, 3, 4)
    skewed = (rng.random((n, 2)) < 0.01).astype(np.int64)
    rows = np.column_stack([skewed[:, 0], rng.integers(0, 3, n), rng.integers(0, 4, n),
                            skewed[:, 1], rng.integers(0, 3, n), rng.integers(0, 4, n)])
    data = _dataset(rows, arities=arities)

    def bits(ref):
        return dbn._state_bitsets(data, ref)

    refs = [(side, j) for side in ("t", "t1") for j in range(3)]
    biggest = 0
    for i, parents in ((0, ()), (1, (("t", 0),)), (2, (("t", 0), ("t1", 1))),
                       (0, (("t", 1),))):
        adds = [ref for ref in refs if ref != ("t1", i) and ref not in parents]
        tables = dbn._add_counts(data, i, parents, adds, bits)
        assert len(tables) == len(adds)
        for (child, family), got in tables.items():
            want = family_counts(data, child, family)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want), (child, family)
            assert got.sum() == n
            biggest = max(biggest, int(got.max()))
    assert biggest > 2 ** 16


def test_family_counts_refuses_a_table_past_the_cell_bound(monkeypatch):
    data = _random_dataset(random.Random(23), arities=(2, 3, 2))
    monkeypatch.setattr(dbn, "_MAX_CELLS", 12)
    assert family_counts(data, 1, (("t", 0), ("t1", 2))).shape == (4, 3)
    with pytest.raises(ValueError, match=r"^family of b with parents a@t, b@t, c@t\+1 "
                                         r"has 36 cells, past the limit of 12$"):
        family_counts(data, 1, (("t", 0), ("t", 1), ("t1", 2)))


def _acyclic(n, arcs):
    """Peel nodes without parents until none are left (or none can be)."""
    left = set(range(n))
    while left:
        roots = {u for u in left if not any((a, u) in arcs for a in left)}
        if not roots:
            return False
        left -= roots
    return True


def _moved_arcs(net, move):
    """(intra, inter) arc sets of `net` after `move`."""
    name, i, j = move
    intra, inter = set(net.intra), set(net.inter)
    arcs = inter if name.endswith("inter") else intra
    if name.startswith("add"):
        arcs.add((i, j))
    else:
        arcs.discard((i, j))
    if name == "rev-intra":
        arcs.add((j, i))
    return intra, inter


def _old_route(net, data, kind, max_parents):
    """{move: (delta, changes)} by the copy-and-rescore route: apply each
    single-arc move to a copy of `net`, drop cycles and cap violations,
    and add the family-score differences of the changed families."""
    n = data.n_vars
    moves = []
    for i in range(n):
        for j in range(n):
            moves.append(("del-inter" if (i, j) in net.inter else "add-inter", i, j))
            if i != j and (i, j) in net.intra:
                moves += [("del-intra", i, j), ("rev-intra", i, j)]
            elif i != j:
                moves.append(("add-intra", i, j))
    out = {}
    for move in moves:
        intra, inter = _moved_arcs(net, move)
        if not _acyclic(n, intra):
            continue
        new = TwoSliceNetwork(net.names, net.arities, intra, inter)
        if any(len(new.parents(f)) > max_parents for f in range(n)):
            continue
        delta, changes = 0.0, []
        for f in range(n):
            if new.parents(f) != net.parents(f):
                delta += (family_score(data, f, new.parents(f), kind)
                          - family_score(data, f, net.parents(f), kind))
                changes.append((f, new.parents(f)))
        out[move] = (delta, changes)
    return out


def _new_route(net, data, kind, max_parents):
    """The same map from the climb's move records (`_arc_moves`) that
    `_closes_cycle` passes, uncached."""
    def fam(f, parents):
        return family_score(data, f, parents, kind)

    n = data.n_vars
    parents = [net.parents(f) for f in range(n)]
    children = [[b for b in range(n) if ("t1", a) in parents[b]] for a in range(n)]
    return {move: (delta, changes)
            for i in range(n) for j in range(n) for arc in ("inter", "intra")
            if arc == "inter" or i != j
            for delta, move, changes in _arc_moves(parents, arc, i, j, max_parents, fam)
            if not _closes_cycle(children, move)}


class TestDeltaMoves:
    """The climb's move records against the copy-and-rescore route they replace."""

    def test_every_network_of_seeded_climbs(self):
        from tests.test_model_bytes import _dbn_planted_text
        data = parse_dataset(_dbn_planted_text(2, 600))
        seen_moves = set()
        for max_parents in (1, 2, 3):
            for kind in (BIC(), BDe(1.0), MIT(0.99)):
                steps = []
                final = hill_climb(data, kind, max_parents,
                                   on_step=lambda s, move, sc: steps.append(move))
                net = TwoSliceNetwork(data.names, data.arities, set(), set())
                for move in steps + [None]:
                    old = _old_route(net, data, kind, max_parents)
                    assert _new_route(net, data, kind, max_parents) == old
                    seen_moves |= {m[0] for m in old}
                    if move is not None:
                        net = TwoSliceNetwork(data.names, data.arities,
                                              *_moved_arcs(net, move))
                assert serialize_network(net) == serialize_network(final)
        assert seen_moves == {"add-inter", "del-inter", "add-intra",
                              "del-intra", "rev-intra"}

    def test_the_climb_holds_no_stale_record(self, monkeypatch):
        """At each step, the record the climb holds for every arc equals
        one built afresh from the network it ranked; so does the last."""
        arc_moves = dbn._arc_moves
        held = {}

        def recording(parents, arc, i, j, max_parents, fam):
            held[arc, i, j] = arc_moves(parents, arc, i, j, max_parents, fam)
            return held[arc, i, j]

        monkeypatch.setattr(dbn, "_arc_moves", recording)
        from tests.test_model_bytes import _dbn_planted_text
        rng = random.Random(26)
        datasets = [parse_dataset(_dbn_planted_text(2, 600))]
        datasets += [_climb_dataset(rng) for _ in range(8)]
        for data in datasets:
            n = data.n_vars
            for max_parents in (1, 2, 3):
                for kind in (BIC(), BDe(1.0), MIT(0.99)):
                    net = TwoSliceNetwork(data.names, data.arities, set(), set())

                    def fresh():
                        parents = [net.parents(f) for f in range(n)]
                        assert len(held) == n * (2 * n - 1)
                        return {slot: arc_moves(parents, *slot, max_parents, lambda f, p:
                                                family_score(data, f, p, kind))
                                for slot in held}

                    def on_step(step, move, score):
                        nonlocal net
                        assert held == fresh()
                        net = TwoSliceNetwork(data.names, data.arities, *_moved_arcs(net, move))

                    held.clear()
                    hill_climb(data, kind, max_parents, on_step=on_step)
                    assert held == fresh()

    def test_reversal_closing_a_cycle_is_rejected(self):
        rng = random.Random(14)
        data = _random_dataset(rng, arities=(2, 3, 2))
        # 0->1->2 and 0->2: reversing 0->2 closes 2->0->1->2
        net = TwoSliceNetwork(data.names, data.arities,
                              {(0, 1), (1, 2), (0, 2)}, {(1, 1)})
        new = _new_route(net, data, BDe(1.0), 3)
        assert new == _old_route(net, data, BDe(1.0), 3)
        assert ("rev-intra", 0, 2) not in new
        assert ("rev-intra", 0, 1) in new and ("rev-intra", 1, 2) in new
        assert ("del-intra", 0, 2) in new
        assert ("add-intra", 2, 0) not in new and ("add-intra", 1, 0) not in new


def _reference_delta_moves(parents, max_parents, fam):
    """The climb's move list as first written: every move's legality, its
    intra acyclicity walk included, tested before it is scored."""
    n = len(parents)
    children = [[b for b in range(n) if ("t1", a) in parents[b]] for a in range(n)]
    for i in range(n):
        for j in range(n):
            for arc, ref in (("inter", ("t", i)), ("intra", ("t1", i))):
                if arc == "intra" and i == j:
                    continue
                if ref not in parents[j]:
                    gain = (j, tuple(sorted(parents[j] + (ref,))))
                    moves = [(("add-" + arc, i, j), [gain], [j] if arc == "intra" else [], i)]
                else:
                    drop = (j, tuple(r for r in parents[j] if r != ref))
                    moves = [(("del-" + arc, i, j), [drop], [], None)]
                    if arc == "intra":
                        gain = (i, tuple(sorted(parents[i] + (("t1", j),))))
                        moves.append((("rev-intra", i, j), sorted([drop, gain]),
                                      [c for c in children[i] if c != j], j))
                for move, changes, starts, tail in moves:
                    if any(len(p) > max_parents for _, p in changes) or starts and _meets_grey(
                            children, starts, [int(u == tail) for u in range(n)]):
                        continue
                    delta = 0.0
                    for f, p in changes:
                        delta += fam(f, p) - fam(f, parents[f])
                    yield delta, move, changes


def _reference_hill_climb(data, kind, max_parents=3, on_step=None):
    """`hill_climb` as first written: every move rescored and checked on
    every step, each family counted by `family_counts`."""
    cache = {}

    def fam(i, parents):
        key = (i, parents)
        if key not in cache:
            cache[key] = family_score(data, i, parents, kind)
        return cache[key]

    parents = [()] * data.n_vars
    score = 0.0     # family scores add left to right from 0.0
    for i in range(data.n_vars):
        score += fam(i, parents[i])
    step = 0
    while True:
        best = None
        for delta, move, changes in _reference_delta_moves(parents, max_parents, fam):
            if delta > dbn._EPS and (best is None or (-delta, move) < (-best[0], best[1])):
                best = (delta, move, changes)
        if best is None:
            break
        delta, move, changes = best
        for f, p in changes:
            parents[f] = p
        score += delta
        step += 1
        if on_step is not None:
            on_step(step, move, score)
    arcs = {side: {(a, b) for b, refs in enumerate(parents) for s, a in refs if s == side}
            for side in ("t", "t1")}
    return TwoSliceNetwork(data.names, data.arities, arcs["t1"], arcs["t"])


_CLIMB_ARITIES = (1, 2, 3, 4, 5, 8, 12)
_CLIMB_KINDS = (BIC(), BDe(1.0), BDe(3.0), MIT(0.95), MIT(0.9999))


def _climb_dataset(rng):
    """2-6 variables of mixed arities, 50-1024 samples; each slice t+1
    column is the sum (mod its arity) of one or two slice t columns or
    earlier slice t+1 columns with its own probability, which may be 0."""
    n = rng.randint(2, 6)
    arities = [rng.choice(_CLIMB_ARITIES) for _ in range(n)]
    sources = [rng.sample([("t", a) for a in range(n)] + [("t1", a) for a in range(j)],
                          rng.randint(1, 2)) for j in range(n)]
    keep = [rng.choice((0.0, 0.6, 0.8, 0.95)) for _ in range(n)]
    rows = []
    for _ in range(rng.choice((50, 300, 1000, 1024))):
        now = [rng.randrange(r) for r in arities]
        nxt = []
        for j, r in enumerate(arities):
            copied = sum((now if side == "t" else nxt)[a] for side, a in sources[j]) % r
            nxt.append(copied if rng.random() < keep[j] else rng.randrange(r))
        rows.append(now + nxt)
    return DiscreteDataset([f"v{j}" for j in range(n)], arities, np.array(rows))


def _climb_record(climb, data, kind, max_parents):
    steps = []
    net = climb(data, kind, max_parents,
                on_step=lambda step, move, score: steps.append((step, move, repr(score))))
    return serialize_network(net), steps


class TestClimbMatchesReference:
    """The bitset-counted, lazily checked climb against the climb it replaced."""

    def test_networks_and_steps_equal_the_reference_climb(self, monkeypatch):
        routes = {"popcount": 0, "bincount": 0}
        add_counts, counts = dbn._add_counts, dbn.family_counts

        def checked_add_counts(data, i, parents, refs, bitsets):
            tables = add_counts(data, i, parents, refs, bitsets)
            assert len(tables) == len(refs)
            for (child, family), got in tables.items():
                want = counts(data, child, family)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.flags.c_contiguous and np.array_equal(got, want)
                assert got.size <= dbn._POPCOUNT_CELLS
            routes["popcount"] += len(tables)
            return tables

        def counted_family_counts(data, i, parents):
            routes["bincount"] += 1
            return counts(data, i, parents)

        rng = random.Random(25)
        moves, whole_words = set(), set()
        for _ in range(48):
            data = _climb_dataset(rng)
            whole_words.add(data.n_samples % 64 == 0)
            for kind in _CLIMB_KINDS:
                for max_parents in (1, 2, 3):
                    want = _climb_record(_reference_hill_climb, data, kind, max_parents)
                    with monkeypatch.context() as patch:
                        patch.setattr(dbn, "_add_counts", checked_add_counts)
                        patch.setattr(dbn, "family_counts", counted_family_counts)
                        got = _climb_record(hill_climb, data, kind, max_parents)
                    assert got == want, (data.arities, data.n_samples, kind, max_parents)
                    moves |= {move[0] for _, move, _ in got[1]}
        assert routes["popcount"] and routes["bincount"]
        assert whole_words == {True, False}
        assert moves == {"add-inter", "del-inter", "add-intra", "del-intra", "rev-intra"}

    def test_networks_and_steps_equal_the_reference_climb_under_a_compensated_sum(
            self, monkeypatch):
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        self.test_networks_and_steps_equal_the_reference_climb(monkeypatch)
