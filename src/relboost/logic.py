"""First-order representation, dataset parsing, and the grounding engine.

Predicates are declared in a :class:`Schema`; ground facts live in an
indexed :class:`FactBase` as columns of argument tuples.  A constant is
its symbol, a `str`, so an atom's arguments, a fact base's columns and
a grounding's bindings are the same tuples.  Clause bodies are grounded
against a fact base by a small deterministic engine with
negation-as-failure: `compile_body` turns a body into a :class:`Plan`
over a layout of bound variables, and `solutions` extends the binding
tuples of many rows by it in one call.

Textual formats are UTF-8 and line oriented.  A ``%`` starts a comment and
whitespace outside identifiers is insignificant::

    parentOf(ann,mary).        % boolean fact, implicitly true
    bp(john,1.5)=140.0.        % valued fact (multiclass/count/continuous)
    mode: parentOf(-,+).       % mode declaration
    predicate: bp/2 continuous temporal.   % schema declaration

Variables are uppercase-initial identifiers, constants are lowercase-initial
identifiers or numeric literals.  A FactBase's facts and indexes are fixed
when it is built, and queries never write to it.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
import operator
import re
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Iterator, Optional, Union

VALUE_KINDS = ("boolean", "multiclass", "count", "continuous")


class ParseError(Exception):
    """Raised for malformed input text; carries a 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# terms and signatures
# ---------------------------------------------------------------------------

_CONSTANT = r"(?:[a-z][A-Za-z0-9_]*|-?[0-9]+(?:\.[0-9]+)?)"
_VARIABLE_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
_CONSTANT_RE = re.compile(_CONSTANT + r"\Z")


# a constant term is its symbol: `isinstance(term, Constant)` tells it from a Variable
Constant = str


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


Term = Union[Constant, Variable]


def parse_int(token: str, what: str, line: Optional[int] = None) -> int:
    """`token`, digits a pattern has matched, as an int; past int()'s digit
    limit (4,300 by default) a ParseError naming `what`, not a ValueError."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} has {len(token)} digits, too many to read", line) from None


def parse_term(token: str, line: Optional[int] = None) -> Term:
    if _VARIABLE_RE.match(token):
        return Variable(token)
    if _CONSTANT_RE.match(token):
        return token
    raise ParseError(f"bad term {token!r}", line)


@dataclass(frozen=True)
class PredicateSignature:
    """Declared predicate: name, arity, value kind, and temporal flag.

    For ``temporal`` predicates the last argument position is a (numeric)
    time stamp.  ``classes`` is the number of classes K for multiclass
    predicates and None otherwise.
    """

    name: str
    arity: int
    kind: str = "boolean"
    classes: Optional[int] = None
    temporal: bool = False

    def __post_init__(self):
        if self.kind not in VALUE_KINDS:
            raise ValueError(f"unknown value kind {self.kind!r}")
        if self.kind == "multiclass" and (self.classes is None or self.classes < 2):
            raise ValueError("multiclass predicates need K >= 2")
        if self.kind != "multiclass" and self.classes is not None:
            raise ValueError("classes only meaningful for multiclass")
        if self.arity < 0 or (self.temporal and self.arity < 1):
            raise ValueError("temporal predicates need arity >= 1")

    def dropped_time(self) -> "PredicateSignature":
        """The atemporal projection (last argument removed)."""
        if not self.temporal:
            return self
        return PredicateSignature(self.name, self.arity - 1, self.kind, self.classes, False)


@dataclass(frozen=True)
class Cmp:
    """Numeric threshold constraint on a queried atom's value: value >= threshold."""

    threshold: float


# Atom values: None (existence / boolean truth), bool, int (class index or
# count), float (continuous), or a Cmp constraint in query atoms.
AtomValue = Union[None, bool, int, float, Cmp]


@dataclass(frozen=True, slots=True)
class Atom:
    """A (possibly non-ground) atom with an optional value constraint."""

    pred: PredicateSignature
    args: tuple
    value: AtomValue = None

    def __post_init__(self):
        if len(self.args) != self.pred.arity:
            raise ValueError(
                f"{self.pred.name}/{self.pred.arity} got {len(self.args)} arguments")

    def is_ground(self) -> bool:
        return all(isinstance(a, Constant) for a in self.args)

    def variables(self) -> list:
        return [a for a in self.args if isinstance(a, Variable)]

    def __str__(self) -> str:
        inner = ",".join(str(a) for a in self.args)
        head = f"{self.pred.name}({inner})" if self.args else self.pred.name
        if self.value is None or self.value is True:
            return head
        if isinstance(self.value, Cmp):
            return f"{head}>={self.value.threshold!r}"
        if self.value is False:
            return f"{head}=false"
        return f"{head}={self.value!r}"


def _check_payload(pred: PredicateSignature, value, line=None):
    """Validate a fact or event payload against the predicate's value kind."""
    if pred.kind == "boolean":
        if value is not True:
            raise ParseError(f"boolean predicate {pred.name} only stores true facts", line)
    elif pred.kind == "multiclass":
        if not isinstance(value, int) or isinstance(value, bool) or not (0 <= value < pred.classes):
            raise ParseError(f"class index {value!r} out of range for {pred.name}", line)
    elif pred.kind == "count":
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ParseError(f"{pred.name} expects a non-negative count", line)
        if value > 2 ** 53:     # past 2**53 a count is no longer exact as a float
            raise ParseError(f"{pred.name} expects a count of at most 2**53", line)
    else:  # continuous
        if not isinstance(value, float) or not math.isfinite(value):
            raise ParseError(f"{pred.name} expects a finite real value", line)


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


class Schema:
    """Set of predicate signatures; names are unique."""

    def __init__(self, signatures: Iterable[PredicateSignature] = ()):
        self._by_name: dict = {}
        for sig in signatures:
            self.add(sig)

    def add(self, sig: PredicateSignature):
        if sig.name in self._by_name and self._by_name[sig.name] != sig:
            raise ValueError(f"conflicting declarations for predicate {sig.name}")
        self._by_name[sig.name] = sig

    def get(self, name: str) -> PredicateSignature:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[PredicateSignature]:
        return iter(sorted(self._by_name.values(), key=lambda s: s.name))

    def merged_with(self, other: "Schema") -> "Schema":
        out = Schema(self)
        for sig in other:
            out.add(sig)
        return out


_SCHEMA_LINE_RE = re.compile(
    r"predicate:\s*([a-z][A-Za-z0-9_]*)\s*/\s*([0-9]+)\s+"
    r"(boolean|multiclass\(([0-9]+)\)|count|continuous)(\s+temporal)?\s*\.\Z")


def parse_schema(text: str) -> Schema:
    """Parse schema declarations, one ``predicate:`` line per predicate."""
    schema = Schema()
    for lineno, raw in _content_lines(text):
        m = _SCHEMA_LINE_RE.match(raw)
        if not m:
            raise ParseError(f"bad schema line {raw!r}", lineno)
        name, arity, kindtok, classes, temporal = m.groups()
        kind = "multiclass" if kindtok.startswith("multiclass") else kindtok
        try:
            schema.add(PredicateSignature(
                name, int(arity), kind,
                int(classes) if classes else None,
                bool(temporal)))
        except ValueError as exc:
            raise ParseError(str(exc), lineno)
    return schema


def serialize_schema(schema: Schema) -> str:
    lines = []
    for sig in schema:
        kind = f"multiclass({sig.classes})" if sig.kind == "multiclass" else sig.kind
        suffix = " temporal" if sig.temporal else ""
        lines.append(f"predicate: {sig.name}/{sig.arity} {kind}{suffix}.")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# fact base
# ---------------------------------------------------------------------------


class FactBase:
    """Indexed set of ground facts, kept per predicate as columns.

    A predicate's facts are two parallel lists in canonical order, the
    order of the argument tuples: the facts' `args` and their payloads.
    `lookup` bisects the tuples; a posting per (predicate, position) maps
    each constant to the ordinals of the facts carrying it there, so
    queries return exactly what a linear scan would.  At most one fact per
    (predicate, argument tuple); re-adding with a different payload is an
    error.  The facts are fixed at construction and queries only read
    them.  `facts()` rebuilds `Atom`s around the stored tuples.

    With `base`, the result holds `base`'s facts plus `facts`.  Only the
    predicates that `facts` touch are re-sorted and re-indexed; the others
    share `base`'s columns and postings; nothing is copied per fact.

    Each of `facts` is checked against `schema`: a known predicate,
    constant arguments and a payload of its value kind.  The fact readers
    pass ``_columns`` instead, name -> (symbol tuples, payloads) in
    canonical order, which they have checked already.
    """

    def __init__(self, schema: Schema, facts: Iterable[Atom] = (),
                 base: Optional[FactBase] = None, *, _columns: Optional[dict] = None):
        self.schema = schema
        # name -> (symbol tuples, payloads), the only store of the facts;
        # (name, pos) -> {symbol: [fact ordinal]}, their only index
        shared = (base._columns, base._index) if base is not None else ({}, {})
        self._columns, self._index = map(dict, shared)
        for name, (symbols, payloads) in (_columns or self._staged(facts)).items():
            if name in self._columns:
                known, values = self._columns[name]
                # no two facts of a predicate share a symbol tuple: no payloads are compared
                pairs = sorted(zip(known + symbols, values + payloads))
                symbols, payloads = map(list, zip(*pairs))
            self._columns[name] = (symbols, payloads)
            for pos, column in enumerate(zip(*symbols)):
                posting: dict = {}
                for ordinal, symbol in enumerate(column):
                    posting.setdefault(symbol, []).append(ordinal)
                self._index[(name, pos)] = posting

    def _staged(self, facts: Iterable[Atom]) -> dict:
        """name -> (symbol tuples, payloads) of the facts of `facts` not yet
        in the base, in canonical order, each checked as it is taken."""
        added: dict = {}        # name -> {symbol tuple: payload}
        for fact in facts:
            name = fact.pred.name
            if name not in self.schema:
                raise ParseError(f"unknown predicate {name}")
            if not fact.is_ground():
                raise ParseError(f"fact {fact} is not ground")
            _check_payload(fact.pred, fact.value)
            symbols = tuple(fact.args)
            staged = added.setdefault(name, {})
            known = staged[symbols] if symbols in staged else self.lookup(name, symbols)
            if known is None:
                staged[symbols] = fact.value
            elif known != fact.value:
                raise ParseError(f"conflicting values for {fact}")
        return {name: tuple(map(list, zip(*sorted(s.items())))) for name, s in added.items() if s}

    def __len__(self) -> int:
        return sum(len(payloads) for _, payloads in self._columns.values())

    def facts(self) -> list:
        """Every fact as an `Atom`, by predicate name, then in canonical order."""
        out = []
        for name in sorted(self._columns):
            pred = self.schema.get(name)
            symbols, payloads = self._columns[name]
            out.extend(Atom(pred, t, value) for t, value in zip(symbols, payloads))
        return out

    def lookup(self, name: str, args: tuple):
        """Payload of the fact with these ground args, or None if absent."""
        symbols, payloads = self._columns.get(name, ((), ()))
        i = bisect.bisect_left(symbols, key := tuple(args))
        return payloads[i] if i < len(symbols) and symbols[i] == key else None

    def observed_constants(self, name: str, pos: int) -> list:
        """Distinct constants seen at one argument position, sorted."""
        return sorted(self._index.get((name, pos), {}))

    def observed_values(self, name: str) -> list:
        """Distinct numeric payloads of a predicate's facts, sorted."""
        return sorted(set(self._columns.get(name, ((), ()))[1]))


@dataclass(frozen=True)
class Literal:
    """A body literal: an atom, possibly negated (negation-as-failure)."""

    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return ("!" if self.negated else "") + str(self.atom)


# ---------------------------------------------------------------------------
# grounding: clause bodies over positional binding tuples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Step:
    """One literal of a plan, by argument position.

    `bound` pairs each argument bound by the tuple with its slot, `consts`
    each constant argument with its position; `fresh` lists the positions of
    the literal's new variables in first-appearance order, and `repeats`
    pairs each later occurrence of a new variable with its first position.
    A tuple probes the shortest posting of its bound and constant
    arguments; `verify` is set when there are several, so that a probed
    fact must still be checked against the others.
    """

    name: str
    negated: bool
    value: AtomValue
    bound: tuple
    consts: tuple
    fresh: tuple
    repeats: tuple
    verify: bool


@dataclass(frozen=True)
class Plan:
    """A clause body compiled against a layout of bound variables.

    A binding is a tuple of constants, one per variable of the layout, in
    order.  Grounding the body extends it to a tuple over `grown`: the
    layout followed by the body's new variables in first-appearance order.
    The plan depends on no fact base, so it is compiled once and grounded
    on any.
    """

    grown: tuple
    steps: tuple


def compile_body(body, layout) -> Plan:
    """Compile the literals `body` against the variables `layout`.

    A variable of the layout or of an earlier literal is a bound slot, any
    other a fresh one.  A negated literal must be fully bound, or it is a
    ValueError.
    """
    slots = {v: i for i, v in enumerate(layout)}
    grown = list(layout)
    steps = []
    for lit in body:
        bound, consts, repeats, first = [], [], [], {}
        for pos, arg in enumerate(lit.atom.args):
            if isinstance(arg, Constant):
                consts.append((pos, arg))
            elif arg in slots:
                bound.append((pos, slots[arg]))
            elif arg in first:
                repeats.append((pos, first[arg]))
            else:
                first[arg] = pos
        if lit.negated and first:
            raise ValueError(f"unbound variable {next(iter(first))} in negated literal {lit}")
        for v in first:
            slots[v] = len(grown)
            grown.append(v)
        steps.append(_Step(lit.atom.pred.name, lit.negated, lit.atom.value,
                           tuple(bound), tuple(consts), tuple(first.values()), tuple(repeats),
                           len(bound) + len(consts) > 1))
    return Plan(tuple(grown), tuple(steps))


def _extend(step: _Step, db: FactBase, tuples: list, owners: list) -> tuple:
    """Ground one literal on `db` over `tuples`, the i-th owned by row
    ``owners[i]``: (extended tuples, their owners), each tuple's extensions
    in canonical fact order.  A negated literal, or one without new
    variables, keeps the tuples it fails, or passes, as they are.  The
    postings of the constant and bound arguments are looked up once."""
    if step.name not in db.schema:
        raise ParseError(f"unknown predicate {step.name}")
    facts, payloads = db._columns.get(step.name, ((), ()))
    if not facts:       # no fact matches: only a negated literal keeps tuples
        return (tuples, owners) if step.negated else ([], [])
    keys = tuple((db._index[(step.name, pos)], slot) for pos, slot in step.bound)
    fixed = None        # the shortest posting of a constant argument
    for pos, symbol in step.consts:
        posting = db._index[(step.name, pos)].get(symbol, ())
        if fixed is None or len(posting) < len(fixed):
            fixed = posting
    negated, fresh, repeats = step.negated, step.fresh, step.repeats
    checks, const_checks = (step.bound, step.consts) if step.verify else ((), ())
    check = bool(checks or const_checks or repeats)
    value = step.value
    threshold = value.threshold if isinstance(value, Cmp) else None
    equal = not (value is None or value is True or threshold is not None)
    one = fresh[0] if len(fresh) == 1 else None
    extends = bool(fresh)
    out, out_owners = [], []
    for t, owner in zip(tuples, owners):
        candidates = fixed
        for posting, slot in keys:
            ordinals = posting.get(t[slot])
            if ordinals is None:
                candidates = ()
                break
            if candidates is None or len(ordinals) < len(candidates):
                candidates = ordinals
        if candidates is None:
            candidates = range(len(facts))
        found = False
        for i in candidates:
            if threshold is not None:
                if not float(payloads[i]) >= threshold:
                    continue
            elif equal and payloads[i] != value:
                continue
            args = facts[i]
            if check:
                if (any(args[pos] != t[slot] for pos, slot in checks)
                        or any(args[pos] != symbol for pos, symbol in const_checks)
                        or any(args[pos] != args[first] for pos, first in repeats)):
                    continue
            if not extends:
                found = True
                break
            out.append(t + (args[one],) if one is not None
                       else t + tuple(args[pos] for pos in fresh))
            out_owners.append(owner)
        if found != negated:
            out.append(t)
            out_owners.append(owner)
    return out, out_owners


def solutions(plan: Plan, groups: list, db: FactBase) -> list:
    """Ground a body for a group of rows on one fact base at once.

    `plan` is ``compile_body(body, layout)``, and ``groups[r]`` is row r's
    list of distinct binding tuples over `layout`, each a tuple of symbols.
    Returns, for each row, the symbol tuples over ``plan.grown`` that
    extend one of its bindings to a full grounding: the bindings in their
    order, each one's groundings in canonical fact order (symbol-tuple
    order), which is the order of a depth-first search.  Distinct bindings
    extend to distinct tuples, because a fact base holds each fact once.
    Each literal's postings are looked up on `db` once per call, and the
    literal is grounded over every row's tuples together.
    Positive literals bind new variables; negated literals keep the tuples
    under which no fact matches (stratified negation-as-failure).
    """
    tuples = [t for group in groups for t in group]
    owners = [r for r, group in enumerate(groups) for _ in group]
    for step in plan.steps:
        if not tuples:
            break
        tuples, owners = _extend(step, db, tuples, owners)
    out = [[] for _ in groups]
    for t, owner in zip(tuples, owners):
        out[owner].append(t)
    return out


def satisfies(body: Iterable, seed: dict, db: FactBase) -> bool:
    """True iff at least one full grounding of the body exists in `db`,
    with the variables of `seed` bound to its constants.

    Free variables are existentially quantified; the empty body is
    vacuously true.
    """
    plan = compile_body(tuple(body), tuple(seed))
    return bool(solutions(plan, [[tuple(seed.values())]], db)[0])


# ---------------------------------------------------------------------------
# example sets
# ---------------------------------------------------------------------------


@dataclass
class ExampleSet:
    """Ground target atoms with labels (boolean targets) or values.

    Every entry's atom is a ground atom of `target`, and no two entries
    share arguments.  The example readers, which have checked every entry
    at its line, pass ``_vouched=True`` to skip these checks.
    """

    target: PredicateSignature
    entries: list = field(default_factory=list)
    _vouched: InitVar[bool] = False

    def __post_init__(self, _vouched: bool):
        if _vouched:
            return
        seen = set()
        for atom, _ in self.entries:
            if atom.pred is not self.target and atom.pred != self.target:
                raise ValueError(f"{atom} does not match target {self.target.name}")
            if not atom.is_ground():
                raise ValueError(f"example {atom} is not ground")
            if atom.args in seen:
                raise ValueError(f"duplicate entry {atom}")
            seen.add(atom.args)

    def __len__(self) -> int:
        return len(self.entries)

    def merged_with(self, other: "ExampleSet") -> "ExampleSet":
        # each set is valid, so only an atom of both is an error
        if other.target != self.target:
            raise ValueError("example sets have different targets")
        seen = {atom.args for atom, _ in self.entries}
        for atom, _ in other.entries:
            if atom.args in seen:
                raise ValueError(f"duplicate entry {atom}")
        return ExampleSet(self.target, list(self.entries) + list(other.entries), True)


# ---------------------------------------------------------------------------
# mode declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeDeclaration:
    """Per-argument candidate-generation modes.

    '+' binds to an existing variable, '-' may introduce a fresh variable,
    '#' enumerates constants observed in the data.
    """

    pred: PredicateSignature
    arg_modes: tuple

    def __post_init__(self):
        if len(self.arg_modes) != self.pred.arity:
            raise ValueError(f"mode for {self.pred.name} has wrong length")
        for m in self.arg_modes:
            if m not in ("+", "-", "#"):
                raise ValueError(f"bad mode flag {m!r}")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _content_lines(text: str):
    """(lineno, stripped content) pairs with comments and blanks removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("%", 1)[0].strip():
            yield lineno, line


_FACT_RE = re.compile(
    r"([a-z][A-Za-z0-9_]*)\s*(?:\(\s*([^()]*?)\s*\))?\s*(?:=\s*(\S+?))?\s*\.\Z")


def _parse_ground_atom(line: str, schema: Schema, lineno: int) -> Atom:
    """The ground atom of one content line, read and checked as
    `parse_facts` reads a line; an error is raised at `lineno`."""
    rows, _, faults = _rows(line)
    for name, argtext, valuetext in rows:
        payloads, fault = _column(schema, name, [argtext], [valuetext])
        if fault is None and not faults:
            return _atom(schema.get(name), argtext, payloads[0])
        faults += [fault] if fault else []
    raise ParseError(min(faults, key=lambda fault: fault[1])[2], lineno)


# a line in the common form of `parse_facts`: name, argument text, value text
_COMMON_RE = re.compile(
    rf"^([a-z][A-Za-z0-9_]*)(?:\(({_CONSTANT}(?:,{_CONSTANT})*)?\))?"
    r"(?:=(-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?))?\.\n", re.M)

# the ranks of a line's checks, in order: of two errors at a line, the lower is raised
_SYNTAX, _LABELLED, _UNKNOWN, _TERM, _ARITY, _GROUND, _PAYLOAD, _TARGET, _REPEAT = range(9)


def _rows(text: str) -> tuple:
    """(rows, lines, faults): the (name, argument text, value text) of each
    fact line, a text empty when absent; row k's line number ``lines[k]``,
    as `str.splitlines` counts; and the (line, rank, message) of each line
    that is no fact or has a bad term or a variable.  One `findall` reads
    a text in the common form.  If it leaves a line (spaces, ``%`` comments,
    blank lines, any other form), the text is read line by line and
    `_FACT_RE` reads each line the common form does not cover; only such a
    line's terms need checking here, as the common form admits constants."""
    text = text if text.endswith("\n") else text + "\n"
    found = _COMMON_RE.findall(text)
    if len(found) == text.count("\n"):     # each match is a whole line
        return found, range(1, len(found) + 1), []
    rows, lines, faults = [], [], []
    for lineno, line in _content_lines(text):
        m = _COMMON_RE.match(line + "\n") or _FACT_RE.match(line)
        if m is None:
            faults.append((lineno, _SYNTAX, f"syntax error in {line!r}"))
            continue
        name, argtext, valuetext = m.groups("")
        terms = [t.strip() for t in argtext.split(",")] if argtext else []
        bad = [t for t in terms if not (_CONSTANT_RE.match(t) or _VARIABLE_RE.match(t))]
        if bad or not all(map(_CONSTANT_RE.match, terms)):
            faults.append((lineno, _TERM, f"bad term {bad[0]!r}") if bad
                          else (lineno, _GROUND, f"non-ground atom in {line!r}"))
        rows.append((name, ",".join(terms), valuetext))
        lines.append(lineno)
    return rows, lines, faults


def _column(schema: Schema, name: str, argtexts: list, valuetexts: list,
            seen: Optional[set] = None) -> tuple:
    """(payloads, fault) of rows of predicate `name` from their argument and
    value texts: the payloads in row order, and the (row, rank, message) of
    the first bad row, or None.  In an example file a row repeating an
    earlier one, or one of `seen`, is a duplicate.  The checks run in rank
    order; each screens every row in bulk, and looks for its first bad row
    only if the screen fails.  One that needs the earlier ones reads only
    the rows before the first bad row so far."""
    if name not in schema:
        return [], (0, _UNKNOWN, f"unknown predicate {name!r}")
    pred = schema.get(name)
    n, kind, arity = len(argtexts), pred.kind, pred.arity
    fault = [n, None]       # the first bad row, and its (row, rank, message)

    def fail(k, message, rank=_PAYLOAD):
        if k < fault[0]:
            fault[:] = k, (k, rank, message(k))

    def check(screen, good, values, message, rank=_PAYLOAD):
        if not screen:
            fail(next((k for k in range(fault[0]) if not good(values[k])), n), message, rank)

    check(not any(argtexts) if arity == 0 else "" not in argtexts
          and set(map(str.count, argtexts, itertools.repeat(","))) == {arity - 1},
          lambda a: len(a.split(",")) == arity if a else not arity, argtexts,
          lambda k: f"{name} expects {arity} arguments, got "
                    f"{len(argtexts[k].split(',')) if argtexts[k] else 0}", _ARITY)
    if kind == "boolean":
        check(not any(valuetexts), operator.not_, valuetexts,
              lambda k: f"boolean predicate {name} takes no =value")
        payloads = [True] * n
    else:
        check("" not in valuetexts, bool, valuetexts,
              lambda k: f"{name} facts need an =value payload")
        if kind != "continuous":    # ASCII digits only: `str.isdigit` alone takes others
            digits = "".join(valuetexts)
            check(digits.isascii() and digits.isdigit(), lambda v: v.isascii() and v.isdigit(),
                  valuetexts, lambda k: f"{name} expects an integer value")
        payloads = []
        try:    # `extend` keeps the payloads read before the first it cannot read
            payloads.extend(map(float if kind == "continuous" else int, valuetexts[:fault[0]]))
        except ValueError:
            fail(len(payloads), lambda k: f"{name} expects a real value" if kind == "continuous"
                 else f"{name} value has {len(valuetexts[k])} digits, too many to read")
        if kind == "continuous":
            check(math.isfinite(sum(payloads)), math.isfinite, payloads,
                  lambda k: f"{name} expects a finite real value")
        else:   # past 2**53 a count is no longer exact as a float
            limit = pred.classes if kind == "multiclass" else 2 ** 53 + 1
            check(max(payloads, default=0) < limit, limit.__gt__, payloads,
                  lambda k: f"class index {payloads[k]!r} out of range for {name}"
                  if kind == "multiclass" else f"{name} expects a count of at most 2**53")
    if seen is not None:    # the first time a row's arguments are seen (`add` gives None)
        check(len(set(argtexts)) == n and seen.isdisjoint(argtexts),
              lambda a: a not in seen and not seen.add(a), argtexts,
              lambda k: f"duplicate entry {_atom(pred, argtexts[k])}", _REPEAT)
    return payloads, fault[1]


def _symbols(argtexts, arity: int) -> list:
    """The symbol tuples of argument texts, equal symbols one string."""
    if not (arity and argtexts):
        return [()] * len(argtexts)
    flat, interned = ",".join(argtexts).split(","), {}
    flat = map(interned.setdefault, flat, flat)
    return list(zip(*[flat] * arity))      # consecutive runs of `arity` symbols


def _atom(pred: PredicateSignature, argtext: str, value: AtomValue = None) -> Atom:
    return Atom(pred, tuple(argtext.split(",")) if argtext else (), value)


def _raise_first(faults: list) -> None:
    """Raise the fault at the lowest (line, rank), if there is one."""
    if faults:
        lineno, _, message = min(faults, key=lambda fault: fault[:2])
        raise ParseError(message, lineno)


def parse_facts(text: str, schema: Schema) -> FactBase:
    """Parse a facts stream into a FactBase.

    One tokenising pass (`_rows`) reads the lines, and each predicate's
    rows are checked in bulk (`_column`).  The first bad line is raised at
    its line; a second value for a fact, at its later line, once every line
    is good.  Parsing then serializing then parsing again is a fixpoint.
    """
    rows, lines, faults = _rows(text)
    groups = collections.defaultdict(list)      # name -> its rows
    for row in rows:
        groups[row[0]].append(row)

    def line(name, k):      # of the k-th row of `name`
        return lines[[i for i, row in enumerate(rows) if row[0] == name][k]]

    columns, conflicts = {}, []
    for name, group in groups.items():
        argtexts = list(map(operator.itemgetter(1), group))
        payloads, fault = _column(schema, name, argtexts, list(map(operator.itemgetter(2), group)))
        if fault is not None:
            faults.append((line(name, fault[0]), *fault[1:]))
            continue
        pred = schema.get(name)
        # each fact's first value; a boolean fact's is true
        first = dict.fromkeys(argtexts, True) if pred.kind == "boolean" \
            else dict(zip(reversed(argtexts), reversed(payloads)))
        if len(first) < len(argtexts):
            conflicts += [(line(name, k), _REPEAT, f"conflicting values for "
                           f"{_atom(pred, a, payloads[k])}")
                          for k, a in enumerate(argtexts) if payloads[k] != first[a]][:1]
        # `,` sorts below every symbol character: sorting argument texts sorts symbol tuples
        keys = sorted(first)
        columns[name] = (_symbols(keys, pred.arity), [True] * len(keys)
                         if pred.kind == "boolean" else list(map(first.__getitem__, keys)))
    _raise_first(faults)
    _raise_first(conflicts)
    return FactBase(schema, _columns=columns)


def serialize_facts(db: FactBase) -> str:
    lines = [f"{fact}." for fact in db.facts()]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_examples(text: str, target: PredicateSignature,
                   label: Optional[int] = None,
                   earlier: Optional[ExampleSet] = None) -> ExampleSet:
    """Parse ground target atoms into an ExampleSet, in file order.

    For boolean targets pass ``label`` (1 for a positives file, 0 for a
    negatives file).  Hybrid targets carry their payload inline as
    ``atom=value.`` and ``label`` must be None.  An atom already in
    ``earlier``, a set read from another file, is a duplicate at its line.
    The text is read and checked as `parse_facts` reads one.
    """
    rows, lines, faults = _rows(text)
    names, argtexts, valuetexts = (list(map(operator.itemgetter(i), rows)) for i in range(3))
    if names.count(target.name) < len(names):
        k = next(k for k, name in enumerate(names) if name != target.name)
        faults.append((lines[k], _UNKNOWN, f"unknown predicate {names[k]!r}"))
    if label is not None and any(valuetexts):
        k = next(k for k, value in enumerate(valuetexts) if value)
        faults.append((lines[k], _LABELLED, "labelled example files carry no =value"))
    if label is None and target.kind == "boolean" and rows:
        faults.append((lines[0], _TARGET, "boolean targets need pos/neg files"))
    seen = {",".join(atom.args) for atom, _ in earlier.entries} if earlier else set()
    payloads, fault = _column(Schema([target]), target.name, argtexts, valuetexts, seen)
    if fault is not None:
        faults.append((lines[fault[0]], *fault[1:]))
    _raise_first(faults)
    args = _symbols(argtexts, target.arity)
    truth, values = (None, payloads) if label is None else (True, itertools.repeat(label))
    return ExampleSet(target, [(Atom(target, a, truth), v) for a, v in zip(args, values)], True)


def serialize_examples(examples: ExampleSet) -> str:
    lines = []
    for atom, value in examples.entries:
        if examples.target.kind == "boolean":
            lines.append(f"{atom}.")
        else:
            lines.append(f"{Atom(atom.pred, atom.args, value)}.")
    return "\n".join(lines) + ("\n" if lines else "")


_QUERY_RE = re.compile(
    r"(!?)\s*([a-z][A-Za-z0-9_]*)\s*(?:\(\s*([^()]*?)\s*\))?\s*(?:(>=|=)\s*(\S+))?\Z")


def parse_literal(text: str, schema: Schema) -> Literal:
    """Parse one clause literal.

    Grammar: ``[!]name(term,...)[=<class>|>=<threshold>]``.  Boolean
    predicates take neither form (negation covers falsity), multiclass
    predicates use ``=k``, count and continuous predicates use ``>=v``.
    """
    m = _QUERY_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad literal {text!r}")
    neg, name, argtext, op, valuetext = m.groups()
    if name not in schema:
        raise ParseError(f"unknown predicate {name!r}")
    pred = schema.get(name)
    args = tuple(parse_term(t.strip()) for t in argtext.split(",")) if argtext else ()
    if len(args) != pred.arity:
        raise ParseError(f"{name} expects {pred.arity} arguments, got {len(args)}")
    value: AtomValue = None
    if op == "=":
        if pred.kind != "multiclass":
            raise ParseError(f"'=' tests need a multiclass predicate, got {name}")
        if not re.match(r"[0-9]+\Z", valuetext):
            raise ParseError(f"bad class index {valuetext!r}")
        value = parse_int(valuetext, "class index")
        _check_payload(pred, value)
    elif op == ">=":
        if pred.kind not in ("count", "continuous"):
            raise ParseError(f"'>=' tests need a numeric predicate, got {name}")
        try:
            threshold = float(valuetext)
        except ValueError:
            threshold = math.nan
        if not math.isfinite(threshold):
            raise ParseError(f"bad threshold {valuetext!r}: must be a finite number")
        value = Cmp(threshold)
    return Literal(Atom(pred, args, value), negated=bool(neg))


def split_top_level(text: str, sep: str = ",") -> list:
    """Split on separators outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p for p in (s.strip() for s in parts) if p]


def parse_literal_list(text: str, schema: Schema) -> list:
    """Parse a comma-separated conjunction of literals; '' is the empty body."""
    return [parse_literal(part, schema) for part in split_top_level(text)]



_MODE_RE = re.compile(r"mode:\s*([a-z][A-Za-z0-9_]*)\s*\(\s*([-+#,\s]*)\)\s*\.\Z")


def parse_modes(text: str, schema: Schema) -> list:
    modes = []
    for lineno, line in _content_lines(text):
        m = _MODE_RE.match(line)
        if not m:
            raise ParseError(f"bad mode line {line!r}", lineno)
        name, flags = m.groups()
        if name not in schema:
            raise ParseError(f"unknown predicate {name!r}", lineno)
        arg_modes = tuple(f.strip() for f in flags.split(",")) if flags.strip() else ()
        try:
            modes.append(ModeDeclaration(schema.get(name), arg_modes))
        except ValueError as exc:
            raise ParseError(str(exc), lineno)
    return modes


def serialize_modes(modes: Iterable[ModeDeclaration]) -> str:
    lines = [f"mode: {m.pred.name}({','.join(m.arg_modes)})." for m in modes]
    return "\n".join(lines) + ("\n" if lines else "")
