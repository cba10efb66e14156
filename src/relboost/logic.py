"""First-order representation, dataset parsing, and the grounding engine.

Predicates are declared in a :class:`Schema`; ground facts live in an
indexed :class:`FactBase` as columns of symbol tuples.  Clause bodies
are grounded against it by a small deterministic engine with
negation-as-failure: `compile_body` turns a body into a :class:`Plan`
over a layout of bound variables, and `solutions` extends the symbol
binding tuples of many rows by it in one call.

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

import collections
import itertools
import math
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


@dataclass(frozen=True, slots=True)
class Constant:
    """A constant symbol; equality is symbol equality."""

    symbol: str

    def __str__(self) -> str:
        return self.symbol


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
        return Constant(token)
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
    order of the symbol tuples: tuples of argument symbols (`Constant`
    symbols) and their payloads.  A posting per (predicate, position) maps
    each symbol to the ordinals of the facts carrying it there, so queries
    return exactly what a linear scan would.  At most one fact per
    (predicate, argument tuple); re-adding with a different payload is an
    error, naming the fact's source line when `lines` gives one per fact.
    The facts are fixed at construction and queries only read them.
    `Atom`s and `Constant`s are made only at the edges: `facts()`,
    `observed_constants` and `lookup`'s arguments.

    With `base`, the result holds `base`'s facts plus `facts`.  Only the
    predicates that `facts` touch are re-sorted and re-indexed; the others
    share `base`'s columns and postings.

    Each of `facts` is checked against `schema`: a known predicate,
    constant arguments and a payload of its value kind.  The fact readers
    pass ``_columns`` instead, name -> (symbol tuples, payloads) in
    canonical order, which they have checked already.
    """

    def __init__(self, schema: Schema, facts: Iterable[Atom] = (),
                 lines: Optional[list] = None, base: Optional[FactBase] = None,
                 *, _columns: Optional[dict] = None):
        self.schema = schema
        # name -> (symbol tuples, payloads); (name, pos) -> {symbol: [fact
        # ordinal]}; (name, symbol tuple) -> payload
        shared = (base._columns, base._index, base._keys) if base is not None else ({}, {}, {})
        self._columns, self._index, self._keys = map(dict, shared)
        ordered = _columns is not None      # the readers' columns come sorted
        for name, (symbols, payloads) in (_columns or self._staged(facts, lines)).items():
            if ordered:
                self._keys.update(zip(zip(itertools.repeat(name), symbols), payloads))
            if name in self._columns or not ordered:
                known, values = self._columns.get(name, ([], []))
                # no two facts of a predicate share a symbol tuple: no payloads are compared
                pairs = sorted(zip(known + symbols, values + payloads))
                symbols, payloads = map(list, zip(*pairs))
            self._columns[name] = (symbols, payloads)
            for pos, column in enumerate(zip(*symbols)):
                posting: dict = {}
                for ordinal, symbol in enumerate(column):
                    posting.setdefault(symbol, []).append(ordinal)
                self._index[(name, pos)] = posting

    def _staged(self, facts: Iterable[Atom], lines: Optional[list]) -> dict:
        """name -> (symbol tuples, payloads) of the facts of `facts` not yet
        in the base, each checked as it is taken; their keys join `_keys`."""
        keys, staged = self._keys, collections.defaultdict(lambda: ([], []))
        for k, fact in enumerate(facts):
            name = fact.pred.name
            if name not in self.schema:
                raise ParseError(f"unknown predicate {name}")
            if not fact.is_ground():
                raise ParseError(f"fact {fact} is not ground")
            _check_payload(fact.pred, fact.value)
            symbols = tuple([a.symbol for a in fact.args])
            size = len(keys)
            if keys.setdefault((name, symbols), fact.value) != fact.value:
                raise ParseError(f"conflicting values for {fact}", lines[k] if lines else None)
            if len(keys) > size:      # a new fact, not a repeat of a known one
                staged[name][0].append(symbols)
                staged[name][1].append(fact.value)
        return staged

    def __len__(self) -> int:
        return len(self._keys)

    def facts(self) -> list:
        """Every fact as an `Atom`, by predicate name, then in canonical order."""
        out = []
        for name in sorted(self._columns):
            pred = self.schema.get(name)
            symbols, payloads = self._columns[name]
            out.extend(Atom(pred, tuple(map(Constant, t)), value)
                       for t, value in zip(symbols, payloads))
        return out

    def lookup(self, name: str, args: tuple):
        """Payload of the fact with these ground args, or None if absent."""
        return self._keys.get((name, tuple([a.symbol for a in args])))

    def observed_constants(self, name: str, pos: int) -> list:
        """Distinct constants seen at one argument position, sorted."""
        posting = self._index.get((name, pos), {})
        return [Constant(sym) for sym in sorted(posting)]

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
    each constant argument with its symbol; `fresh` lists the positions of
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

    A binding is a tuple of symbols (`Constant.symbol` strings), one per
    variable of the layout, in order.  Grounding the body extends it to a
    tuple over `grown`: the layout followed by the body's new variables in
    first-appearance order.  The plan depends on no fact base, so it is
    compiled once and grounded on any.
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
                consts.append((pos, arg.symbol))
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
    return bool(solutions(plan, [[tuple([c.symbol for c in seed.values()])]], db)[0])


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
        cut = raw.find("%")
        if cut >= 0:
            raw = raw[:cut]
        raw = raw.strip()
        if raw:
            yield lineno, raw


_FACT_RE = re.compile(
    r"([a-z][A-Za-z0-9_]*)\s*(?:\(\s*([^()]*?)\s*\))?\s*(?:=\s*(\S+?))?\s*\.\Z")


def _parse_ground_atom(line: str, schema: Schema, lineno: int) -> Atom:
    m = _FACT_RE.match(line)
    if not m:
        raise ParseError(f"syntax error in {line!r}", lineno)
    name, argtext, valuetext = m.groups()
    if name not in schema:
        raise ParseError(f"unknown predicate {name!r}", lineno)
    pred = schema.get(name)
    args = tuple(parse_term(t.strip(), lineno)
                 for t in argtext.split(",")) if argtext else ()
    if len(args) != pred.arity:
        raise ParseError(
            f"{name} expects {pred.arity} arguments, got {len(args)}", lineno)
    for a in args:
        if isinstance(a, Variable):
            raise ParseError(f"non-ground atom in {line!r}", lineno)
    value = _parse_payload(pred, valuetext, lineno)
    return Atom(pred, args, value)


def _parse_payload(pred: PredicateSignature, valuetext, lineno) -> AtomValue:
    if valuetext is None:
        if pred.kind != "boolean":
            raise ParseError(f"{pred.name} facts need an =value payload", lineno)
        return True
    if pred.kind == "boolean":
        raise ParseError(f"boolean predicate {pred.name} takes no =value", lineno)
    if pred.kind in ("multiclass", "count"):
        if not re.match(r"[0-9]+\Z", valuetext):
            raise ParseError(f"{pred.name} expects an integer value", lineno)
        value: AtomValue = parse_int(valuetext, f"{pred.name} value", lineno)
    else:
        try:
            value = float(valuetext)
        except ValueError:
            raise ParseError(f"{pred.name} expects a real value", lineno)
    _check_payload(pred, value, lineno)
    return value


# one line of the common form of `parse_facts`
_COMMON_LINE_RE = re.compile(
    rf"^([a-z][A-Za-z0-9_]*)(?:\(({_CONSTANT}(?:,{_CONSTANT})*)?\))?"
    r"(?:=(-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?))?\.\n", re.M)


def _common_rows(text: str) -> Optional[list]:
    """The (name, argument text, value text) of each line of `text`, line k
    giving row k, if `text` is in the common form of `parse_facts`; None
    otherwise.

    One `findall` reads the whole text.  A match starts at a line start and
    ends at that line's newline, so as many matches as lines cover the text.
    """
    if not text.endswith("\n"):
        return None
    rows = _COMMON_LINE_RE.findall(text)
    return rows if len(rows) == text.count("\n") else None


def _column(pred: PredicateSignature, argtexts, valuetexts) -> Optional[tuple]:
    """(symbol tuples, payloads) of common-form lines of `pred`, given their
    argument and value texts, if each line is a valid fact of `pred`; None
    otherwise.  Arity, kind, range and finiteness are checked in bulk.
    Symbols are interned for the call: equal symbols are one string."""
    n, arity, kind = len(argtexts), pred.arity, pred.kind
    if arity == 0 and not any(argtexts):
        symbols = [()] * n
    elif arity and "" not in argtexts and \
            set(map(str.count, argtexts, itertools.repeat(","))) == {arity - 1}:
        flat, interned = ",".join(argtexts).split(","), {}
        flat = map(interned.setdefault, flat, flat)
        symbols = list(zip(*[flat] * arity))     # consecutive runs of `arity` symbols
    else:
        return None
    if kind == "boolean":
        return None if any(valuetexts) else (symbols, [True] * n)
    if "" in valuetexts:
        return None
    if kind == "continuous":
        payloads = list(map(float, valuetexts))
        return (symbols, payloads) if math.isfinite(sum(payloads)) else None
    if not all(map(str.isdigit, valuetexts)):   # ASCII digits: the pattern admits no others
        return None
    try:
        payloads = list(map(int, valuetexts))
    except ValueError:      # past int()'s digit limit: the per-line reader names the line
        return None
    limit = pred.classes if kind == "multiclass" else 2 ** 53 + 1
    return (symbols, payloads) if max(payloads) < limit else None


def _fact_columns(rows: list, schema: Schema) -> Optional[dict]:
    """The `FactBase` columns of common-form `rows` if each is a valid fact
    of `schema` and no fact has two values; None otherwise."""
    groups: dict = collections.defaultdict(dict)
    for name, argtext, valuetext in rows:
        groups[name][argtext] = valuetext
    # an identical repeated line is one fact; a fact with two values is not
    size = sum(map(len, groups.values()))
    if size != len(rows) and size != len(set(rows)):
        return None
    columns = {}
    for name, values in groups.items():
        # `,` sorts below every symbol character, so sorting the argument
        # texts sorts the symbol tuples
        argtexts = sorted(values)
        if name not in schema or (column := _column(
                schema.get(name), argtexts, list(map(values.__getitem__, argtexts)))) is None:
            return None
        columns[name] = column
    return columns


def parse_facts(text: str, schema: Schema) -> FactBase:
    """Parse a facts stream into a FactBase.

    Text in the common form, the form `serialize_facts` writes, is read in
    one whole-text pass: one ``name(c1,...,ck).`` or ``name(c1,...,ck)=value.``
    a line, each line ending in a newline, with no blank lines, ``%``
    comments or spaces.  The pass groups the lines by predicate, drops
    repeated lines and checks each predicate's lines in bulk.  Any other
    text, or one with a line that pass cannot vouch for (an unknown
    predicate, a wrong arity, a value out of its kind's range, a second
    value for a fact), goes to the per-line reader, which raises every
    error at its line.  Parsing then serializing then parsing again is a
    fixpoint.
    """
    rows = _common_rows(text)
    columns = None if rows is None else _fact_columns(rows, schema)
    if columns is None:
        return _parse_fact_lines(text, schema)
    return FactBase(schema, _columns=columns)


def _parse_fact_lines(text: str, schema: Schema) -> FactBase:
    atoms, linenos = [], []
    for lineno, line in _content_lines(text):
        atoms.append(_parse_ground_atom(line, schema, lineno))
        linenos.append(lineno)
    return FactBase(schema, atoms, linenos)


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

    Text in the common form of `parse_facts`, the form `serialize_examples`
    writes, is read in the same whole-text pass: one ``name(c1,...,ck).``
    a line for a labelled file, one ``name(c1,...,ck)=value.`` for a hybrid
    one.  Any other text, or one with a duplicate, goes to the per-line
    reader, which raises every error at its line.
    """
    rows = _common_rows(text)
    entries = None if rows is None else _example_entries(rows, target, label, earlier)
    if entries is None:
        return _parse_example_lines(text, target, label, earlier)
    return ExampleSet(target, entries, True)


def _example_entries(rows: list, target: PredicateSignature, label: Optional[int],
                     earlier: Optional[ExampleSet]) -> Optional[list]:
    """The entries of common-form `rows`, in their order, if each is a valid
    example of `target` in a file of its kind (labelled for a boolean
    target), none repeats and none is in `earlier`; None otherwise."""
    names, argtexts, valuetexts = zip(*rows)
    if ((label is None) == (target.kind == "boolean") or set(names) != {target.name}
            or len(set(argtexts)) != len(argtexts)
            or (column := _column(target, argtexts, valuetexts)) is None):
        return None
    constant = {s: Constant(s) for s in set(itertools.chain.from_iterable(column[0]))}
    args = [tuple(map(constant.__getitem__, t)) for t in column[0]]
    if earlier and not {atom.args for atom, _ in earlier.entries}.isdisjoint(args):
        return None
    if label is None:
        return [(Atom(target, a, None), value) for a, value in zip(args, column[1])]
    return [(Atom(target, a, True), label) for a in args]


def _parse_example_lines(text: str, target: PredicateSignature, label: Optional[int],
                         earlier: Optional[ExampleSet]) -> ExampleSet:
    schema, entries = Schema([target]), []
    seen = {atom.args for atom, _ in earlier.entries} if earlier else set()
    for lineno, line in _content_lines(text):
        m = _FACT_RE.match(line)
        if label is not None and m and m.group(3) is not None:
            raise ParseError("labelled example files carry no =value", lineno)
        atom = _parse_ground_atom(line, schema, lineno)
        if label is None and target.kind == "boolean":
            raise ParseError("boolean targets need pos/neg files", lineno)
        entries.append((atom, label) if label is not None
                       else (Atom(target, atom.args, None), atom.value))
        if atom.args in seen:
            raise ParseError(f"duplicate entry {entries[-1][0]}", lineno)
        seen.add(atom.args)
    return ExampleSet(target, entries, True)


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
