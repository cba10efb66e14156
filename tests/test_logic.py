"""Parsing, matching, and grounding-engine tests."""

import collections
import dataclasses
import pickle
import random

import pytest

from relboost import logic
from relboost.logic import (
    Atom,
    Cmp,
    Constant,
    ExampleSet,
    FactBase,
    Literal,
    ModeDeclaration,
    ParseError,
    PredicateSignature,
    Schema,
    Variable,
    compile_body,
    parse_examples,
    parse_facts,
    parse_literal,
    parse_literal_list,
    parse_modes,
    parse_schema,
    satisfies,
    serialize_examples,
    serialize_facts,
    serialize_modes,
    serialize_schema,
    solutions,
)
from relboost.regtree import TreeConfig, fit_tree
from tests.conftest import build_linked_domain
from tests.grounding_reference import substitute
from tests.reader_reference import _parse_example_lines, _parse_fact_lines
from tests import reader_reference


def groundings(body, subst: dict, db) -> list:
    """`solutions` of `body` for one row with the one binding `subst`, as
    substitution dicts over the grown layout."""
    plan = compile_body(tuple(body), tuple(subst))
    [row] = solutions(plan, [[tuple(subst.values())]], db)
    return [dict(zip(plan.grown, t)) for t in row]


def match(atom, subst: dict, db) -> list:
    """`groundings` of the one-literal body `atom`."""
    return groundings([Literal(atom)], subst, db)


class TestParseFacts:
    def test_single_boolean_fact(self, family_schema):
        db = parse_facts("familyMember(ann,mary).", family_schema)
        assert len(db) == 1
        fact = db.facts()[0]
        assert fact.pred.name == "familyMember"
        assert fact.value is True

    def test_empty_stream(self, family_schema):
        assert len(parse_facts("", family_schema)) == 0

    def test_continuous_fact_roundtrip(self):
        schema = parse_schema("predicate: bp/2 continuous temporal.")
        db = parse_facts("bp(john,1.5)=140.0.", schema)
        assert db.facts()[0].value == 140.0
        text = serialize_facts(db)
        assert serialize_facts(parse_facts(text, schema)) == text

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_continuous_fact_rejected_at_its_line(self, value):
        schema = parse_schema("predicate: bp/1 continuous.")
        with pytest.raises(ParseError, match="finite real value") as err:
            parse_facts(f"bp(a)=1.0.\nbp(b)={value}.", schema)
        assert err.value.line == 2

    def test_syntax_error_carries_line(self, family_schema):
        with pytest.raises(ParseError) as err:
            parse_facts("familyMember(ann,mary).\nbroken(", family_schema)
        assert err.value.line == 2

    def test_unknown_predicate(self, family_schema):
        with pytest.raises(ParseError, match="unknown predicate"):
            parse_facts("nope(a).", family_schema)

    def test_arity_mismatch(self, family_schema):
        with pytest.raises(ParseError, match="expects 2 arguments"):
            parse_facts("familyMember(ann).", family_schema)

    def test_value_kind_mismatch(self):
        schema = parse_schema("predicate: age/1 count.")
        with pytest.raises(ParseError, match="integer"):
            parse_facts("age(ann)=x.", schema)
        with pytest.raises(ParseError, match="=value"):
            parse_facts("age(ann).", schema)

    def test_conflicting_payloads_rejected(self):
        schema = parse_schema("predicate: age/1 count.")
        with pytest.raises(ParseError, match="conflicting"):
            parse_facts("age(ann)=3.\nage(ann)=4.", schema)

    def test_conflicting_payload_names_its_line(self):
        # without and with the final newline, every line in the common form;
        # after a comment line, which the tokenising pass re-reads
        for kind in ("continuous", "count"):
            schema = parse_schema(f"predicate: age/1 {kind}.")
            lines = "age(a)=1.\nage(b)=2.\nage(a)=3."
            for text, line in ((lines, 3), (lines + "\n", 3), ("% ages\n" + lines, 4)):
                assert _common_form(text) == (line == 3)
                with pytest.raises(ParseError, match="conflicting values for age") as err:
                    parse_facts(text, schema)
                assert err.value.line == line

    def test_comments_and_whitespace(self, family_schema):
        db = parse_facts("  % header\n familyMember( ann , mary ). % tail\n",
                         family_schema)
        assert len(db) == 1


SORT_SCHEMA = """predicate: on/0 boolean.
predicate: rel/2 boolean.
predicate: link/3 boolean.
predicate: size/1 count.
predicate: colour/2 multiclass(3).
predicate: bp/1 continuous.
"""


class TestFactBaseBuild:
    def test_canonical_order_is_symbol_tuple_order(self):
        schema = parse_schema(SORT_SCHEMA)
        rng = random.Random(2026)
        consts = ["a", "b", "ab", "b_1", "9", "10", "-1", "-10", "2.5"]
        cases = []
        for _ in range(40):
            facts: dict = {}        # (name, args) -> line, one payload per key
            for _ in range(rng.randint(0, 80)):
                sig = rng.choice(list(schema))
                args = tuple(rng.choice(consts) for _ in range(sig.arity))
                value = {"count": lambda: f"={rng.randint(0, 12)}",
                         "multiclass": lambda: f"={rng.randint(0, 2)}",
                         "continuous": lambda: f"={rng.uniform(-5, 5):.3f}",
                         "boolean": lambda: ""}[sig.kind]()
                head = f"{sig.name}({','.join(args)})" if args else sig.name
                facts.setdefault((sig.name, args), f"{head}{value}.")
            lines = list(facts.values())
            rng.shuffle(lines)
            cases.append(("".join(line + "\n" for line in lines), facts))
        assert all(_common_form(text) for text, _ in cases)
        for text, facts in cases:
            db = parse_facts(text, schema)
            # by predicate name, then by the tuple of argument symbols
            want = "".join(serialize_facts(parse_facts(facts[key] + "\n", schema))
                           for key in sorted(facts))
            assert serialize_facts(db) == want
            assert serialize_facts(FactBase(schema, db.facts()[::-1])) == want
            assert serialize_facts(FactBase(schema, db.facts()[1::2],
                                            base=FactBase(schema, db.facts()[::2]))) == want

    @pytest.mark.parametrize("atom,message", [
        (Atom(PredicateSignature("other", 1), (Constant("a"),)), "unknown predicate other"),
        (Atom(PredicateSignature("rel", 2), (Constant("a"), Variable("X"))), "not ground"),
        (Atom(PredicateSignature("size", 1, "count"), (Constant("a"),), -1),
         "non-negative count"),
        (Atom(PredicateSignature("colour", 2, "multiclass", 3),
              (Constant("a"), Constant("b")), 3), "out of range"),
        (Atom(PredicateSignature("bp", 1, "continuous"), (Constant("a"),), float("nan")),
         "finite real value"),
        (Atom(PredicateSignature("rel", 2), (Constant("a"), Constant("b")), 1),
         "only stores true facts"),
    ])
    def test_a_direct_build_checks_every_fact(self, atom, message):
        schema = parse_schema(SORT_SCHEMA)
        with pytest.raises(ParseError, match=message):
            FactBase(schema, [Atom(schema.get("on"), (), True), atom])


class TestOneConstantRepresentation:
    """A constant is its symbol: parsed atoms, hand-built atoms, fact-base
    columns and grounding bindings hold the same `str` tuples."""

    SCHEMA = "predicate: rel/2 boolean.\npredicate: size/2 count.\npredicate: link/2 boolean.\n"

    def _read(self):
        schema = parse_schema(self.SCHEMA)
        db = parse_facts("rel(a,b).\nsize(a,b)=3.\nrel(b,c).\n", schema)
        examples = parse_examples("link(a,b).\n", schema.get("link"), label=1)
        return schema, db, examples.entries[0][0]

    def test_example_args_are_the_fact_base_column_tuple(self):
        _, db, atom = self._read()
        column = db._columns["rel"][0][0]
        assert atom.args == column == ("a", "b") == (Constant("a"), Constant("b"))
        assert hash(atom.args) == hash(column) == hash(("a", "b"))
        assert all(type(c) is str for c in atom.args + column)

    def test_lookup_facts_and_observed_constants_speak_str(self):
        schema, db, atom = self._read()
        assert db.lookup("size", atom.args) == 3
        assert db.lookup("size", ["a", "b"]) == 3 and db.lookup("size", ("b", "a")) is None
        rel, size = schema.get("rel"), schema.get("size")
        assert db.facts() == [Atom(rel, ("a", "b"), True), Atom(rel, ("b", "c"), True),
                              Atom(size, ("a", "b"), 3)]
        assert all(type(c) is str for fact in db.facts() for c in fact.args)
        assert db.observed_constants("rel", 1) == ["b", "c"]
        assert all(type(c) is str for c in db.observed_constants("rel", 0))

    def test_an_example_binds_a_body_by_its_own_args(self):
        schema, db, atom = self._read()
        x, y, z = Variable("X"), Variable("Y"), Variable("Z")
        body = parse_literal_list("rel(X,Y), rel(Y,Z)", schema)
        [[row]] = solutions(compile_body(body, (x, y)), [[atom.args]], db)
        assert row == ("a", "b", "c") and row[:2] == atom.args
        assert satisfies(body, {x: atom.args[0], y: atom.args[1]}, db)


class TestParseExamples:
    def test_positive_file(self, family_schema):
        target = family_schema.get("diabetes")
        examples = parse_examples("diabetes(ann,t2).", target, label=1)
        assert examples.entries[0][1] == 1

    def test_negative_file(self, family_schema):
        target = family_schema.get("diabetes")
        examples = parse_examples("diabetes(mary,t0).", target, label=0)
        assert examples.entries[0][1] == 0

    def test_count_values(self):
        schema = parse_schema("predicate: angio/1 count.")
        examples = parse_examples("angio(p7)=3.", schema.get("angio"))
        atom, value = examples.entries[0]
        assert value == 3
        text = serialize_examples(examples)
        again = parse_examples(text, schema.get("angio"))
        assert serialize_examples(again) == text

    def test_duplicate_entry_rejected(self, family_schema):
        target = family_schema.get("diabetes")
        with pytest.raises(ParseError, match="duplicate"):
            parse_examples("diabetes(ann,t2).\ndiabetes(ann,t2).", target, label=1)

    def test_duplicate_entry_names_its_line(self):
        schema = parse_schema("predicate: t/1 boolean.\npredicate: n/1 count.")
        with pytest.raises(ParseError, match="duplicate entry t") as err:
            parse_examples("t(a).\nt(b).\nt(a).", schema.get("t"), 1)
        assert err.value.line == 3
        with pytest.raises(ParseError, match="duplicate entry n") as err:
            parse_examples("n(a)=1.\n% note\nn(a)=2.", schema.get("n"))
        assert err.value.line == 3
        positives = parse_examples("t(a).", schema.get("t"), 1)
        with pytest.raises(ParseError, match="duplicate entry t") as err:
            parse_examples("t(b).\nt(a).", schema.get("t"), 0, earlier=positives)
        assert err.value.line == 2

    def test_count_above_2_53_names_its_line(self):
        schema = parse_schema("predicate: n/1 count.")
        examples = parse_examples(f"n(a)={2 ** 53}.", schema.get("n"))
        assert examples.entries[0][1] == 2 ** 53
        with pytest.raises(ParseError, match=r"n expects a count of at most 2\*\*53") as err:
            parse_examples(f"n(a)=1.\nn(b)={2 ** 53 + 1}.", schema.get("n"))
        assert err.value.line == 2

    @pytest.mark.parametrize("read", [
        parse_facts,
        lambda text, schema: parse_examples(text, schema.get("n")),
    ], ids=["facts", "examples"])
    @pytest.mark.parametrize("end", ["\n", " % note"], ids=["common-form", "per-line"])
    def test_an_oversized_integer_names_its_line(self, read, end):
        # past int()'s limit of 4,300 digits, on a line in the common form
        # and on one the tokenising pass re-reads for its comment
        schema = parse_schema("predicate: n/1 count.")
        with pytest.raises(ParseError, match="^line 2: n value has 5000 digits") as err:
            read("n(a)=1.\nn(b)=" + "1" * 5000 + "." + end, schema)
        assert err.value.line == 2

    def test_non_ground_rejected(self, family_schema):
        target = family_schema.get("diabetes")
        with pytest.raises(ParseError, match="non-ground"):
            parse_examples("diabetes(X,t2).", target, label=1)


class TestMatch:
    def test_family_member_of_mary(self, family_schema, family_db):
        atom = Atom(family_schema.get("familyMember"),
                    (Variable("Y"), Constant("mary")))
        subs = list(match(atom, {}, family_db))
        found = sorted(s[Variable("Y")] for s in subs)
        assert found == ["ann", "bob", "eve", "tom"]

    def test_empty_db(self, family_schema):
        empty = FactBase(family_schema, [])
        atom = Atom(family_schema.get("familyMember"),
                    (Variable("Y"), Constant("mary")))
        assert list(match(atom, {}, empty)) == []

    def test_ground_atom_identity(self, family_schema, family_db):
        atom = Atom(family_schema.get("familyMember"),
                    (Constant("ann"), Constant("mary")))
        subs = list(match(atom, {}, family_db))
        assert subs == [{}]

    def test_deterministic_sorted_order(self, family_schema, family_db):
        atom = Atom(family_schema.get("familyMember"),
                    (Variable("Y"), Variable("Z")))
        first = [tuple(sorted((v.name, c) for v, c in s.items()))
                 for s in match(atom, {}, family_db)]
        second = [tuple(sorted((v.name, c) for v, c in s.items()))
                  for s in match(atom, {}, family_db)]
        assert first == second
        ys = [s[Variable("Y")] for s in match(atom, {}, family_db)]
        assert ys == sorted(ys)

    def test_repeated_variable_must_unify(self, family_schema):
        db = parse_facts("familyMember(ann,ann).\nfamilyMember(ann,mary).",
                         family_schema)
        atom = Atom(family_schema.get("familyMember"),
                    (Variable("Y"), Variable("Y")))
        subs = list(match(atom, {}, db))
        assert len(subs) == 1
        assert subs[0][Variable("Y")] == "ann"


class TestSatisfies:
    def test_empty_body_vacuous(self, family_db):
        assert satisfies([], {}, family_db) is True

    def test_family_diabetes_chain(self, family_schema, family_db):
        body = parse_literal_list("familyMember(Y,mary), diabetes(Y,T)",
                                  family_schema)
        assert satisfies(body, {}, family_db) is True
        sols = groundings(body, {}, family_db)
        assert ({str(s[Variable("Y")]), str(s[Variable("T")])} == {"ann", "t2"}
                for s in sols)

    def test_no_facts_predicate(self, family_schema):
        db = parse_facts("familyMember(ann,mary).", family_schema)
        body = parse_literal_list("diabetes(Y,T)", family_schema)
        assert satisfies(body, {}, db) is False

    def test_unbound_negated_variable_raises(self, family_schema, family_db):
        body = parse_literal_list("!diabetes(Y,T)", family_schema)
        with pytest.raises(ValueError, match="unbound"):
            satisfies(body, {}, family_db)

    def test_negation_as_failure(self, family_schema, family_db):
        body = parse_literal_list("familyMember(Y,mary), !diabetes(Y,t2)",
                                  family_schema)
        names = sorted(s[Variable("Y")]
                       for s in groundings(body, {}, family_db))
        assert names == ["bob", "eve", "tom"]



# ---------------------------------------------------------------------------
# the one reader of facts and examples against the frozen per-line reader
# ---------------------------------------------------------------------------

COMMON_SCHEMA = """
predicate: rel/2 boolean.
predicate: attr/1 boolean.
predicate: flag/0 boolean.
predicate: colour/1 multiclass(3).
predicate: size/1 count.
predicate: bp/1 continuous.
"""

# lines that the whole-text pass must leave to the per-line reader, or read
# as that reader does
EDGE_LINES = [
    "bp(a)=-1.5.", "bp(a)=.5.", "bp(a)=5..", "bp(a)=1e5.", "bp(a)=1E-5.", "bp(a)=1e999.",
    "bp(a)=nan.", "bp(a)=inf.", "bp(a)=-inf.", "bp(a)=1_0.", "bp(a)=+1.", "bp(a)=².",
    "size(a)=².", "rel(a²,b).", "size(a)=-1.", "size(a)=1.0.", "size(a)=007.",
    f"size(a)={2 ** 53}.", f"size(a)={2 ** 53 + 1}.", "colour(a)=2.", "colour(a)=3.",
    "colour(a)=02.", "rel( a , b ).", "rel(a, b).", "rel(X,b).", "rel(a,Y).", "nope(a).",
    "rel(a).", "attr(a,b).", "attr().", "flag.", "flag().", "flag(a).", "attr(a)=1.",
    "bp(a).", "rel(-1,2.5).", "rel(1.,a).", "attr(a) .", "attr(a). % note", "% note",
    "", "attr(a)..", "attr(a).attr(b).", "size(a)=1.", "size(a)=2.", "attr(a).",
]


def _fact_outcome(read, text, schema):
    try:
        return serialize_facts(read(text, schema))
    except ParseError as exc:
        return str(exc), exc.line


def _example_outcome(read, text, target, label, earlier):
    try:
        examples = read(text, target, label, earlier)
    except ParseError as exc:
        return str(exc), exc.line
    return examples.entries, serialize_examples(examples)


class _Reread(Exception):
    pass


def _no_reread(*args):
    """A stand-in for `logic._content_lines`, which re-reads each line that
    the common-form pattern leaves: no line may be re-read."""
    raise _Reread()


def _common_form(text) -> bool:
    """Whether the tokenising pass reads every line of `text` with the
    common-form pattern, re-reading none."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logic, "_content_lines", _no_reread)
        try:
            logic._rows(text)
        except _Reread:
            return False
    return True


def _random_common_text(rng, names):
    """Lines of the given predicates, mostly valid and in the common form,
    some replaced by an edge line; joined by newlines, CRLF or U+2028, with
    a final newline or not."""
    consts = ["a", "b", "c7", "-1", "0", "2.5"] + [f"e{i}" for i in range(10)]
    lines = []
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.05:
            lines.append(rng.choice(EDGE_LINES))
            continue
        name = rng.choice(names)
        args = {"rel": 2, "flag": 0}.get(name, 1)
        head = name + (f"({','.join(rng.choice(consts) for _ in range(args))})"
                       if args or rng.random() < 0.5 else "")
        value = {"colour": lambda: str(rng.randrange(3)),
                 "size": lambda: str(rng.randrange(6)),
                 "bp": lambda: repr(rng.choice([-1.0, 1.0]) * rng.uniform(0, 1e3)),
                 }.get(name, lambda: None)()
        lines.append(head + (f"={value}" if value is not None else "") + ".")
    sep = rng.choice(["\n"] * 8 + ["\r\n", "\u2028"])
    end = sep if lines and rng.random() < 0.9 else ""
    return sep.join(lines) + end


# value texts outside the common form: `float` reads each but `inf` as a
# finite number, `int` none of them
MUTATED_VALUES = ["1.", ".5", "1_0", "+1", "inf", "\u0663"]


def _line_mutations(line: str) -> list:
    """Mutations of one common-form fact line: a space before and after
    each token, a `%` at each position, a variable in each argument slot,
    one argument fewer and one more, each of `MUTATED_VALUES` as its value,
    and a variable with each of the last two: a line with two errors."""
    head, _, value = line[:-1].partition("=")
    name, _, args = head.partition("(")
    args = args[:-1].split(",") if args else []

    def build(args, value):
        head = name + (f"({','.join(args)})" if args else "")
        return head + (f"={value}" if value else "") + "."

    out = [line[:i] + " " + line[i:] for i, ch in enumerate(line)
           if ch in "(),=." or line[i - 1:i] in ("(", ",", "=")]
    out += [line[:i] + "%" + line[i:] for i in range(len(line) + 1)]
    out += [build(args[:j] + ["X"] + args[j + 1:], value) for j in range(len(args))]
    out += [build(args[:-1], value), build(args + ["z"], value)]
    out += [build(args, v) for v in MUTATED_VALUES]
    out += [build(["X"] + args[1:-1], value), build(["X"] + args[1:] + ["z"], value)]
    return out + [build(["X"] + args[1:], v) for v in MUTATED_VALUES]


def _mutated_texts(lines: list) -> list:
    """Texts of `lines` with each mutation of each line in turn; the lines
    joined by the separators \\x1c, \\f and U+2028; and, after a comment
    line, a second value for each valued line."""
    texts = ["".join(line + "\n" for line in lines[:k] + [mutated] + lines[k + 1:])
             for k, line in enumerate(lines) for mutated in _line_mutations(line)]
    texts += [sep.join(lines) + sep for sep in ("\x1c", "\f", "\u2028")]
    for line in lines:
        head, _, value = line[:-1].partition("=")
        if value:
            other = "2" if value in ("1", "1.0") else "1"
            texts.append("".join(x + "\n" for x in lines) + f"% more\n{head}={other}.\n")
    return texts


class TestCommonFormReader:
    def test_facts_equal_the_per_line_reader(self):
        schema = parse_schema(COMMON_SCHEMA)
        names = [sig.name for sig in schema]
        rng = random.Random(2024)
        texts = [line + "\n" for line in EDGE_LINES] + [
            "rel(a,b).\nrel(a,b).\n", "size(a)=1.\nsize(b)=2.\nsize(a)=3.\n",
            "rel(a,b).\r\nattr(a).\r\n", "rel(a,b).\nattr(a).", "rel(a,b).\n\nattr(a).\n",
            "% c\nrel(a,b).\n", "attr(a).\u2028attr(b).\n", "", "\n"]
        texts += [_random_common_text(rng, names) for _ in range(400)]
        common = 0
        for text in texts:
            common += _common_form(text)
            assert (_fact_outcome(parse_facts, text, schema)
                    == _fact_outcome(_parse_fact_lines, text, schema)), text
        assert len(texts) // 3 < common < len(texts) - 40

    def test_examples_equal_the_per_line_reader(self):
        schema = parse_schema(COMMON_SCHEMA + "predicate: t/1 boolean.\n")
        rng = random.Random(2025)
        cases = []
        for name, label in (("attr", 1), ("attr", 0), ("attr", None), ("t", 1),
                            ("colour", None), ("size", None), ("bp", None),
                            ("size", 1), ("bp", 0)):
            texts = [line + "\n" for line in EDGE_LINES]
            texts += [_random_common_text(rng, [name]) for _ in range(60)]
            cases += [(text, schema.get(name), label, None) for text in texts]
        positives = parse_examples("attr(a).\nattr(b).\n", schema.get("attr"), 1)
        sizes = parse_examples("size(a)=1.\n", schema.get("size"))
        cases += [
            ("attr(c).\nattr(b).\n", schema.get("attr"), 0, positives),
            ("attr(c).\nattr(d).\n", schema.get("attr"), 0, positives),
            ("attr(c).\nattr(c).\n", schema.get("attr"), 0, positives),
            ("size(b)=2.\nsize(a)=2.\n", schema.get("size"), None, sizes),
            ("size(a)=1.\nsize(a)=1.\n", schema.get("size"), None, None),
            ("size(a)=1.\n% c\nsize(a)=2.\n", schema.get("size"), None, None),
            ("attr(a)=1.\n", schema.get("attr"), 1, None),
            ("colour(a)=2.\ncolour(b)=0.\n", schema.get("colour"), None, None),
        ]
        common = 0
        for text, target, label, earlier in cases:
            common += _common_form(text)
            args = (text, target, label, earlier)
            assert (_example_outcome(parse_examples, *args)
                    == _example_outcome(_parse_example_lines, *args)), text
        assert len(cases) // 4 < common < len(cases) - 40

    def test_line_mutations_read_as_the_per_line_reader(self):
        schema = parse_schema(COMMON_SCHEMA)
        bases = [["rel(a,b).", "size(c7)=3.", "bp(-1)=2.5."],
                 ["flag.", "colour(e1)=2.", "attr(0)."],
                 ["bp(a)=-1e-05.", "size(b)=9007199254740992.", "rel(2.5,e9)."]]
        outcomes = collections.Counter()
        for text in (text for lines in bases for text in _mutated_texts(lines)):
            got = _fact_outcome(parse_facts, text, schema)
            assert got == _fact_outcome(_parse_fact_lines, text, schema), text
            outcomes[got[0].split(":")[1].split()[0] if isinstance(got, tuple) else "ok"] += 1
        # every kind of error occurs, and some texts read
        assert {"ok", "syntax", "bad", "non-ground", "conflicting", "rel", "size", "bp",
                "boolean"} <= set(outcomes), outcomes

    def test_example_line_mutations_read_as_the_per_line_reader(self):
        schema = parse_schema(COMMON_SCHEMA)
        positives = parse_examples("attr(a).\n", schema.get("attr"), 1)
        cases = [(["attr(b).", "attr(c7).", "attr(-1)."], "attr", 1, None),
                 (["attr(b).", "attr(a)."], "attr", 0, positives),
                 (["size(a)=1.", "size(b)=20."], "size", None, None),
                 (["bp(a)=1.5.", "bp(b)=-2e3."], "bp", None, None),
                 (["colour(x)=2.", "colour(y)=0."], "colour", None, None),
                 (["rel(a,b).", "rel(b,a)."], "rel", None, None)]
        count = 0
        for lines, name, label, earlier in cases:
            for text in _mutated_texts(lines):
                args = (text, schema.get(name), label, earlier)
                assert (_example_outcome(parse_examples, *args)
                        == _example_outcome(_parse_example_lines, *args)), text
                count += 1
        assert count > 300

    def test_one_line_reads_as_the_per_line_atom_reader(self):
        # a world `fact` line of a ground-truth spec, read by `_parse_ground_atom`
        schema = parse_schema(COMMON_SCHEMA)
        lines = EDGE_LINES + [m for line in ("rel(a,b).", "size(c7)=3.", "bp(-1)=2.5.", "flag.")
                              for m in _line_mutations(line)]
        count = 0
        for line in (line.split("%")[0].strip() for line in lines):
            if not line:
                continue
            outcomes = []
            for read in (logic._parse_ground_atom, reader_reference._parse_ground_atom):
                try:
                    outcomes.append(read(line, schema, 7))
                except ParseError as exc:
                    outcomes.append((str(exc), exc.line))
            assert outcomes[0] == outcomes[1], line
            count += 1
        assert count > 150

    def test_serialized_files_take_the_whole_text_path(self, monkeypatch):
        # the common-form pattern reads every line: none is re-read
        schema = parse_schema(COMMON_SCHEMA)
        rng = random.Random(5)
        lines = [f"rel(e{i},-{i}).\nattr(e{i}).\ncolour(e{i})={i % 3}.\n"
                 f"size(e{i})={rng.randrange(2 ** 53)}.\nbp(e{i})={rng.gauss(0, 1e3)!r}.\n"
                 for i in range(50)]
        db = parse_facts("flag.\nbp(x)=-1e-05.\nbp(y)=-1.5e+20.\n" + "".join(lines), schema)
        assert any(f.value < 0 for f in db.facts() if f.pred.name == "bp")
        examples = {name: ExampleSet(schema.get(name), [
            (Atom(f.pred, f.args, None if name != "attr" else True),
             f.value if name != "attr" else 1)
            for f in db.facts() if f.pred.name == name]) for name in ("attr", "size", "bp")}

        monkeypatch.setattr(logic, "_content_lines", _no_reread)
        text = serialize_facts(db)
        assert serialize_facts(parse_facts(text, schema)) == text
        for name, label in (("attr", 1), ("size", None), ("bp", None)):
            text = serialize_examples(examples[name])
            assert serialize_examples(parse_examples(text, schema.get(name), label)) == text

    def test_terms_and_atoms_are_slotted_frozen_and_hash_by_value(self):
        sig = PredicateSignature("size", 1, "count")
        constant, variable = Constant("a"), Variable("X")
        atom = Atom(sig, (constant,), 3)
        for obj, name in ((variable, "name"), (atom, "value")):
            assert not hasattr(obj, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
        # a constant is its symbol: an immutable str, with no state of its own
        assert type(constant) is str and not hasattr(constant, "__dict__")
        with pytest.raises(AttributeError):
            setattr(constant, "symbol", None)
        assert constant == Constant("a") == "a" and constant != Variable("a")
        assert hash(constant) == hash(Constant("a")) == hash("a")
        assert isinstance(constant, Constant) and not isinstance(variable, Constant)
        assert hash(variable) == hash(("X",))
        assert atom == Atom(sig, (Constant("a"),), 3) != Atom(sig, (constant,), 4)
        assert hash(atom) == hash((sig, (constant,), 3))

READER_SCHEMA = """
predicate: rel/2 boolean.
predicate: link/3 boolean.
predicate: attr/1 boolean.
predicate: flag/0 boolean.
predicate: colour/2 multiclass(3).
predicate: size/1 count.
predicate: bp/2 continuous.
"""
# shared prefixes, mixed case and numerals: `,` must sort below all of them
READER_SYMBOLS = ["a", "a_b", "a0", "aB", "a_B", "ab", "a_b0", "aZ9", "b", "bA",
                  "-1", "-1.5", "-10", "0.5", "10", "2", "1.25", "-0.25"]


def _payload_text(rng, sig) -> str:
    """A valid `=value` text for `sig`, or none for a boolean predicate;
    counts are small, with an occasional one up to 2**53."""
    big = rng.random() < 0.1
    return {"boolean": lambda: "",
            "multiclass": lambda: f"={rng.randrange(sig.classes)}",
            "count": lambda: f"={rng.randrange(2 ** 53 + 1) if big else rng.randrange(9)}",
            "continuous": lambda: f"={rng.choice([-1.0, 1.0]) * rng.uniform(0, 1e4)!r}",
            }[sig.kind]()


def _random_lines(rng, sigs, n) -> dict:
    """(name, symbols) -> common-form line, one line per key, `n` draws."""
    lines: dict = {}
    for _ in range(n):
        sig = rng.choice(sigs)
        args = tuple(rng.choice(READER_SYMBOLS) for _ in range(sig.arity))
        head = f"{sig.name}({','.join(args)})" if args else sig.name
        lines.setdefault((sig.name, args), head + _payload_text(rng, sig) + ".")
    return lines


class TestWholeTextReaderAgainstPerLineReader:
    def test_fact_files_read_alike(self):
        schema = parse_schema(READER_SCHEMA)
        sigs = list(schema)
        rng = random.Random(2027)
        conflicts = 0
        for _ in range(80):
            lines = _random_lines(rng, sigs, rng.randint(1, 120))
            order = list(lines.values())
            rng.shuffle(order)
            text = "".join(line + "\n" for line in order)
            assert _common_form(text)
            fast, slow = parse_facts(text, schema), _parse_fact_lines(text, schema)
            assert fast.facts() == slow.facts() and len(fast) == len(slow) == len(lines)
            for sig in sigs:
                for pos in range(sig.arity):
                    assert fast.observed_constants(sig.name, pos) == \
                        slow.observed_constants(sig.name, pos)
                assert fast.observed_values(sig.name) == slow.observed_values(sig.name)
            for name, args in list(lines) + list(_random_lines(rng, sigs, 20)):
                args = tuple(map(Constant, args))
                assert fast.lookup(name, args) == slow.lookup(name, args)
            # an identical repeated line is the same fact
            again = order[:]
            again.insert(rng.randint(0, len(order)), rng.choice(order))
            text = "".join(line + "\n" for line in again)
            assert _common_form(text)
            assert parse_facts(text, schema).facts() == fast.facts()
            # a second value for a fact is an error at the later of its lines
            valued = [i for i, line in enumerate(order) if "=" in line]
            if not valued:
                continue
            i = rng.choice(valued)
            head = order[i].split("=")[0]
            other = next(f"{head}={v}." for v in "01" if f"{head}={v}." != order[i])
            j = rng.randint(0, len(order))
            clash = order[:j] + [other] + order[j:]
            with pytest.raises(ParseError, match="conflicting values for") as err:
                parse_facts("".join(line + "\n" for line in clash), schema)
            assert err.value.line == max(j, i + (j <= i)) + 1
            conflicts += 1
        assert conflicts >= 40

    def test_example_files_keep_file_order(self):
        schema = parse_schema(READER_SCHEMA)
        rng = random.Random(2028)
        for name, label in (("attr", 1), ("rel", 0), ("size", None), ("bp", None),
                            ("colour", None), ("link", 1)):
            target = schema.get(name)
            for _ in range(15):
                order = list(_random_lines(rng, [target], rng.randint(1, 60)).values())
                rng.shuffle(order)
                text = "".join(line + "\n" for line in order)
                assert _common_form(text)
                fast = parse_examples(text, target, label)
                slow = _parse_example_lines(text, target, label, None)
                assert fast.entries == slow.entries
                assert [str(atom) for atom, _ in fast.entries] == \
                    [line.split("=")[0].rstrip(".") for line in order]


    def test_mutated_files_read_alike(self):
        schema = parse_schema(READER_SCHEMA)
        rng = random.Random(2030)
        for _ in range(6):
            lines = list(_random_lines(rng, list(schema), 5).values())
            for text in _mutated_texts(lines):
                assert (_fact_outcome(parse_facts, text, schema)
                        == _fact_outcome(_parse_fact_lines, text, schema)), text
            for name, label in (("attr", 1), ("size", None), ("link", 0)):
                target = schema.get(name)
                own = [line for line in _random_lines(rng, [target], 4).values()]
                for text in _mutated_texts(own):
                    assert (_example_outcome(parse_examples, text, target, label, None)
                            == _example_outcome(_parse_example_lines, text, target, label,
                                                None)), text

def _random_factbase(rng):
    schema = parse_schema("""
predicate: rel/2 boolean.
predicate: attr/1 boolean.
predicate: size/1 count.
""")
    consts = [f"c{i}" for i in range(rng.randint(2, 12))]
    lines = {}
    for _ in range(rng.randint(0, 500)):
        if rng.random() < 0.5:
            key = f"rel({rng.choice(consts)},{rng.choice(consts)})"
            lines.setdefault(key, f"{key}.")
        elif rng.random() < 0.5:
            key = f"attr({rng.choice(consts)})"
            lines.setdefault(key, f"{key}.")
        else:
            key = f"size({rng.choice(consts)})"
            lines.setdefault(key, f"{key}={rng.randint(0, 5)}.")
    text = "\n".join(lines[k] for k in sorted(lines))
    return schema, parse_facts(text, schema), consts


def _linear_scan(atom, subst, db):
    """Reference matcher: no index, same semantics."""
    out = []
    bound = substitute(atom, subst)
    for fact in [f for f in db.facts() if f.pred.name == atom.pred.name]:
        extra = {}
        ok = True
        for pattern, actual in zip(bound.args, fact.args):
            if isinstance(pattern, Constant):
                if pattern != actual:
                    ok = False
                    break
            elif pattern in extra:
                if extra[pattern] != actual:
                    ok = False
                    break
            else:
                extra[pattern] = actual
        if not ok:
            continue
        if isinstance(bound.value, Cmp):
            if not float(fact.value) >= bound.value.threshold:
                continue
        elif bound.value is not None and bound.value is not True:
            if fact.value != bound.value:
                continue
        merged = dict(subst)
        merged.update(extra)
        out.append(merged)
    return out


def _random_colour_factbase(rng):
    """Multiclass facts, drawn apart from `_random_factbase`'s stream."""
    schema = parse_schema("""
predicate: colour/2 multiclass(3).
predicate: rel/2 boolean.
""")
    consts = [f"c{i}" for i in range(rng.randint(2, 8))]
    lines = {}
    for _ in range(rng.randint(0, 200)):
        pair = f"{rng.choice(consts)},{rng.choice(consts)}"
        if rng.random() < 0.5:
            lines.setdefault(f"colour({pair})", f"colour({pair})={rng.randint(0, 2)}.")
        else:
            lines.setdefault(f"rel({pair})", f"rel({pair}).")
    text = "\n".join(lines[k] for k in sorted(lines))
    return schema, parse_facts(text, schema), consts


def _random_query(rng, pred, consts, value=None):
    """An atom over X/Y/Z and constants, with a seed binding 0-2 of X/Y/Z."""
    args = tuple(
        Variable(rng.choice("XYZ")) if rng.random() < 0.5
        else Constant(rng.choice(consts))
        for _ in range(pred.arity))
    subst = {Variable(v): Constant(rng.choice(consts))
             for v in rng.sample("XYZ", rng.randint(0, 2))}
    return Atom(pred, args, value), subst


def _assert_match_is_linear_scan(atom, subst, db):
    want = _linear_scan(atom, subst, db)
    for _ in range(2):      # a repeated query answers the same, in order
        assert list(match(atom, subst, db)) == want


class TestEngineProperties:
    def test_index_equals_linear_scan(self):
        rng = random.Random(123)
        for trial in range(25):
            schema, db, consts = _random_factbase(rng)
            for pred_name in ("rel", "attr", "size"):
                pred = schema.get(pred_name)
                for _ in range(8):
                    value = Cmp(float(rng.randint(0, 5))) \
                        if pred_name == "size" and rng.random() < 0.5 else None
                    _assert_match_is_linear_scan(
                        *_random_query(rng, pred, consts, value), db)
            rel = schema.get("rel")
            for subst in ({}, {Variable("X"): Constant(rng.choice(consts))}):
                _assert_match_is_linear_scan(
                    Atom(rel, (Variable("X"), Variable("X"))), subst, db)

    def test_multiclass_index_equals_linear_scan(self):
        rng = random.Random(456)
        for trial in range(25):
            schema, db, consts = _random_colour_factbase(rng)
            colour = schema.get("colour")
            for _ in range(12):
                _assert_match_is_linear_scan(
                    *_random_query(rng, colour, consts, rng.randint(0, 2)), db)
            for k in range(3):
                _assert_match_is_linear_scan(
                    Atom(colour, (Variable("X"), Variable("X")), k), {}, db)

    def test_parse_serialize_fixpoint_random(self):
        rng = random.Random(321)
        for _ in range(20):
            schema, db, _ = _random_factbase(rng)
            once = serialize_facts(db)
            twice = serialize_facts(parse_facts(once, schema))
            assert once == twice

    def test_satisfies_equals_nonempty_solutions(self):
        rng = random.Random(777)
        for _ in range(40):
            schema, db, consts = _random_factbase(rng)
            body = []
            for _ in range(rng.randint(1, 3)):
                pred = schema.get(rng.choice(["rel", "attr", "size"]))
                args = tuple(
                    Variable(rng.choice("XY")) if rng.random() < 0.6
                    else Constant(rng.choice(consts))
                    for _ in range(pred.arity))
                body.append(Literal(Atom(pred, args)))
            assert satisfies(body, {}, db) == bool(groundings(body, {}, db))


EXTENSION_SCHEMA = """
predicate: rel/2 boolean.
predicate: attr/1 boolean.
predicate: size/1 count.
predicate: colour/2 multiclass(3).
predicate: flag/1 boolean.
"""


def _random_atom(rng, schema, consts):
    """One ground atom of a random predicate; `flag` never appears in a base."""
    name = rng.choice(["rel", "attr", "size", "colour", "flag"])
    pred = schema.get(name)
    args = tuple(Constant(rng.choice(consts)) for _ in range(pred.arity))
    value = rng.randint(0, 5) if name == "size" else \
        rng.randint(0, 2) if name == "colour" else True
    return Atom(pred, args, value)


def _random_extension(rng):
    """(schema, base, delta, consts).  The base holds no `flag` facts, and
    in half the draws no `colour` facts either.  The delta mixes fresh
    atoms, same-value duplicates of base facts and repeats within itself,
    none conflicting."""
    schema = parse_schema(EXTENSION_SCHEMA)
    consts = [f"c{i}" for i in range(rng.randint(2, 8))]
    first: dict = {}        # the first atom drawn for each key
    for _ in range(rng.randint(0, 120)):
        atom = _random_atom(rng, schema, consts)
        first.setdefault((atom.pred.name, atom.args), atom)
    skip = {"flag"} if rng.random() < 0.5 else {"flag", "colour"}
    base = FactBase(schema, [a for a in first.values() if a.pred.name not in skip])
    delta, seen = [], {}
    for _ in range(rng.randint(0, 12)):
        if base.facts() and rng.random() < 0.2:
            atom = rng.choice(base.facts())         # same-value duplicate
        elif delta and rng.random() < 0.1:
            atom = rng.choice(delta)                # repeat within the delta
        else:
            atom = _random_atom(rng, schema, consts)
        key = (atom.pred.name, atom.args)
        known = base.lookup(*key) if key not in seen else seen[key]
        if known is None or known == atom.value:
            seen[key] = atom.value
            delta.append(atom)
    return schema, base, delta, consts


class TestExtendedBase:
    """`FactBase(schema, delta, base=b)` answers every query as the base
    built from scratch over `b.facts() + delta` does."""

    def test_extension_equals_base_built_from_scratch(self):
        rng = random.Random(2024)
        merged = 0
        for trial in range(60):
            schema, base, delta, consts = _random_extension(rng)
            before = serialize_facts(base)
            ext = FactBase(schema, delta, base=base)
            ref = FactBase(schema, base.facts() + delta)
            assert ext.facts() == ref.facts() and len(ext) == len(ref)
            assert serialize_facts(base) == before      # the base is not written
            touched = {a.pred.name for a in delta}
            merged += len(touched & {a.pred.name for a in base.facts()})
            for sig in schema:
                name = sig.name
                for pos in range(sig.arity):
                    assert ext.observed_constants(name, pos) == \
                        ref.observed_constants(name, pos)
                if sig.kind != "boolean":
                    assert ext.observed_values(name) == ref.observed_values(name)
                for _ in range(6):
                    atom = _random_atom(rng, schema, consts)
                    assert ext.lookup(atom.pred.name, atom.args) == \
                        ref.lookup(atom.pred.name, atom.args)
                for _ in range(6):
                    value = {"size": Cmp(float(rng.randint(0, 5))),
                             "colour": rng.randint(0, 2)}.get(name)
                    atom, subst = _random_query(rng, sig, consts, value)
                    assert list(match(atom, subst, ext)) == list(match(atom, subst, ref))
                if sig.arity == 2:
                    for subst in ({}, {Variable("X"): Constant(rng.choice(consts))}):
                        atom = Atom(sig, (Variable("X"), Variable("X")))
                        assert list(match(atom, subst, ext)) == list(match(atom, subst, ref))
                if name not in touched and name in base._columns:
                    # untouched predicates share the base's columns and postings
                    assert ext._columns[name] is base._columns[name]
                    assert all(ext._index[(name, pos)] is base._index[(name, pos)]
                               for pos in range(sig.arity))
        assert merged >= 20     # the merge path ran on many trials

    def test_lookup_at_column_boundaries(self):
        schema = parse_schema(EXTENSION_SCHEMA + "predicate: on/0 boolean.\n"
                              "predicate: off/0 boolean.\n")
        base = parse_facts("on.\nsize(b)=2.\nsize(d)=0.\ncolour(b,c)=1.\ncolour(c,a)=2.",
                           schema)
        probes = [("on", (), True), ("off", (), None),      # arity 0, present and absent
                  ("flag", ("b",), None), ("rel", ("b", "c"), None),    # no column
                  ("size", ("a",), None), ("size", ("b",), 2), ("size", ("c",), None),
                  ("size", ("d",), 0), ("size", ("e",), None),
                  ("colour", ("a", "z"), None), ("colour", ("b", "c"), 1),
                  ("colour", ("c", "a"), 2), ("colour", ("c", "b"), None),
                  ("colour", ("d", "a"), None)]
        for name, args, want in probes:
            assert base.lookup(name, tuple(map(Constant, args))) == want, (name, args)
        size, on = schema.get("size"), schema.get("on")
        # repeats of base facts, of a zero payload too, and of a new fact are kept once
        delta = [Atom(size, (Constant("d"),), 0), Atom(on, (), True),
                 Atom(size, (Constant("a"),), 5), Atom(size, (Constant("a"),), 5)]
        ext = FactBase(schema, delta, base=base)
        assert (len(base), len(ext)) == (5, 6)
        assert len(ext) == len(ext.facts()) == len(FactBase(schema, base.facts() + delta))
        assert ext.lookup("size", (Constant("a"),)) == 5
        assert base.lookup("size", (Constant("a"),)) is None
        for name, args, want in probes:
            if (name, args) != ("size", ("a",)):
                assert ext.lookup(name, tuple(map(Constant, args))) == want, (name, args)

    def test_conflicting_delta_raises_as_from_scratch(self):
        schema = parse_schema(EXTENSION_SCHEMA)
        base = parse_facts("size(a)=2.\ncolour(a,b)=1.\nrel(a,b).", schema)
        size, colour = schema.get("size"), schema.get("colour")
        for delta in ([Atom(size, (Constant("b"),), 1), Atom(size, (Constant("a"),), 3)],
                      [Atom(colour, (Constant("a"), Constant("a")), 0),
                       Atom(colour, (Constant("a"), Constant("a")), 2)]):
            with pytest.raises(ParseError) as ext:
                FactBase(schema, delta, base=base)
            with pytest.raises(ParseError) as ref:
                FactBase(schema, base.facts() + delta)
            assert (str(ext.value), ext.value.line) == (str(ref.value), ref.value.line)
            assert "conflicting values" in str(ext.value)


class TestQueriesLeaveFactBaseUnchanged:
    def test_pickled_base_is_equal_after_queries_and_a_fit(self):
        schema, db, modes, examples = build_linked_domain(6, 12, seed=2)
        before = pickle.dumps(db)
        body = parse_literal_list("knows(X,Y), flag(Y)", schema)
        assert groundings(body, {}, db)
        assert satisfies(parse_literal_list("shade(X)", schema), {}, db)
        fit_tree([(atom, db) for atom, _ in examples.entries],
                 [1.0 if label else -1.0 for _, label in examples.entries], modes,
                 TreeConfig(max_leaves=4))
        assert pickle.dumps(db) == before


class TestSchemaAndModes:
    def test_schema_roundtrip(self):
        text = ("predicate: bp/2 continuous temporal.\n"
                "predicate: color/1 multiclass(3).\n"
                "predicate: rel/2 boolean.\n")
        schema = parse_schema(text)
        assert serialize_schema(parse_schema(serialize_schema(schema))) \
            == serialize_schema(schema)
        assert schema.get("color").classes == 3
        assert schema.get("bp").temporal

    def test_modes_roundtrip(self, family_schema):
        modes = parse_modes("mode: familyMember(+,-).", family_schema)
        assert modes[0].arg_modes == ("+", "-")
        text = serialize_modes(modes)
        assert serialize_modes(parse_modes(text, family_schema)) == text

    def test_bad_mode_flag(self, family_schema):
        with pytest.raises(ParseError):
            parse_modes("mode: familyMember(+,?).", family_schema)

    def test_mode_arity_check(self, family_schema):
        with pytest.raises(ParseError):
            parse_modes("mode: familyMember(+).", family_schema)


class TestLiterals:
    def test_literal_text_roundtrip(self):
        schema = parse_schema("""
predicate: bp/1 continuous.
predicate: color/1 multiclass(4).
predicate: rel/2 boolean.
""")
        for text in ("rel(V0,V1)", "!rel(V0,mary)", "color(V0)=2", "bp(V0)>=140.0"):
            lit = parse_literal(text, schema)
            assert str(lit) == text

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_threshold_rejected(self, token):
        schema = parse_schema("predicate: bp/1 continuous.")
        with pytest.raises(ParseError, match="finite number"):
            parse_literal_list(f"bp(V0)>={token}", schema)

    def test_oversized_class_index_is_parse_error(self):
        schema = parse_schema("predicate: color/1 multiclass(4).")
        with pytest.raises(ParseError, match="^class index has 5000 digits"):
            parse_literal_list("color(V0)=" + "1" * 5000, schema)

    @pytest.mark.parametrize("text", ["familyMember(X)", "familyMember(X,Y,Z)",
                                      "!familyMember"])
    def test_wrong_argument_count_is_parse_error(self, family_schema, text):
        with pytest.raises(ParseError, match="familyMember expects 2 arguments"):
            parse_literal(text, family_schema)

    def test_threshold_on_boolean_rejected(self, family_schema):
        with pytest.raises(ParseError):
            parse_literal("familyMember(X,Y)>=1.0", family_schema)

    def test_class_test_on_boolean_rejected(self, family_schema):
        with pytest.raises(ParseError):
            parse_literal("familyMember(X,Y)=1", family_schema)
