"""First-order representation, dataset parsing, and the grounding engine.

Predicates are declared in a :class:`Schema`; ground facts live in an
indexed :class:`FactBase`; clause bodies are matched against it
by a small deterministic engine with negation-as-failure.

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

import math
import re
from dataclasses import dataclass, field
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

_VARIABLE_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
_CONSTANT_RE = re.compile(r"(?:[a-z][A-Za-z0-9_]*|-?[0-9]+(?:\.[0-9]+)?)\Z")
_NUMERIC_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?\Z")


@dataclass(frozen=True)
class Constant:
    """A constant symbol; equality is symbol equality."""

    symbol: str

    def numeric(self) -> Optional[float]:
        """Numeric value when the symbol is a numeric literal, else None."""
        if _NUMERIC_RE.match(self.symbol):
            return float(self.symbol)
        return None

    def __str__(self) -> str:
        return self.symbol


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


Term = Union[Constant, Variable]

# A substitution maps variables to constants; applying it to an atom
# replaces exactly the mapped variables.
Substitution = dict


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
    """Numeric threshold constraint on a queried atom's value (op is '>=')."""

    op: str
    threshold: float

    def __post_init__(self):
        if self.op != ">=":
            raise ValueError("only '>=' threshold tests are supported")


# Atom values: None (existence / boolean truth), bool, int (class index or
# count), float (continuous), or a Cmp constraint in query atoms.
AtomValue = Union[None, bool, int, float, Cmp]


@dataclass(frozen=True)
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

    def substitute(self, subst: Substitution) -> "Atom":
        return Atom(self.pred,
                    tuple(subst.get(a, a) if isinstance(a, Variable) else a
                          for a in self.args),
                    self.value)

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


def _sort_key(atom: Atom):
    # lexicographic on constant symbols, then on the value's text form
    return tuple(a.symbol for a in atom.args) + (repr(atom.value),)


class FactBase:
    """Indexed set of ground atoms.

    The facts are fixed at construction: the per-predicate, per-position
    index maps each constant to the facts carrying it, and queries return
    exactly what a linear scan would.  At most one fact per (predicate,
    argument tuple); re-adding with a different payload is an error, naming
    the fact's source line when `lines` gives one per fact.  Queries only
    read the base; nothing in it is written after construction.
    """

    def __init__(self, schema: Schema, facts: Iterable[Atom] = (),
                 lines: Optional[list] = None):
        self.schema = schema
        self._by_pred: dict = {}      # name -> list of facts, canonical order
        self._index: dict = {}        # (name, pos) -> {symbol: [fact ordinal]}
        self._keys: dict = {}         # (name, args) -> payload
        staged: dict = {}
        for k, fact in enumerate(facts):
            if fact.pred.name not in schema:
                raise ParseError(f"unknown predicate {fact.pred.name}")
            if not fact.is_ground():
                raise ParseError(f"fact {fact} is not ground")
            _check_payload(fact.pred, fact.value)
            key = (fact.pred.name, fact.args)
            if key in self._keys:
                if self._keys[key] != fact.value:
                    raise ParseError(f"conflicting values for {fact}",
                                     lines[k] if lines else None)
                continue
            self._keys[key] = fact.value
            staged.setdefault(fact.pred.name, []).append(fact)
        for name, atoms in staged.items():
            atoms.sort(key=_sort_key)
            self._by_pred[name] = atoms
            for pos in range(schema.get(name).arity):
                posting: dict = {}
                for ordinal, atom in enumerate(atoms):
                    posting.setdefault(atom.args[pos].symbol, []).append(ordinal)
                self._index[(name, pos)] = posting

    def __len__(self) -> int:
        return len(self._keys)

    def facts(self) -> list:
        out = []
        for name in sorted(self._by_pred):
            out.extend(self._by_pred[name])
        return out

    def facts_for(self, name: str) -> list:
        return self._by_pred.get(name, [])

    def lookup(self, name: str, args: tuple):
        """Payload of the fact with these ground args, or None if absent."""
        return self._keys.get((name, args))

    def _candidates_raw(self, name: str, args) -> list:
        rows = self._by_pred.get(name)
        if not rows:
            return []
        best = None
        for pos, arg in enumerate(args):
            if isinstance(arg, Constant):
                posting = self._index[(name, pos)].get(arg.symbol, [])
                if best is None or len(posting) < len(best):
                    best = posting
        if best is None:
            return rows
        return [rows[i] for i in best]

    def observed_constants(self, name: str, pos: int) -> list:
        """Distinct constants seen at one argument position, sorted."""
        posting = self._index.get((name, pos), {})
        return [Constant(sym) for sym in sorted(posting)]

    def observed_values(self, name: str) -> list:
        """Distinct numeric payloads of a predicate's facts, sorted."""
        vals = {f.value for f in self._by_pred.get(name, [])}
        return sorted(vals)


def _value_matches(query: AtomValue, actual) -> bool:
    if query is None or query is True:
        return True  # existence; boolean facts are always stored true
    if isinstance(query, Cmp):
        return float(actual) >= query.threshold
    return actual == query


def match(atom: Atom, subst: Substitution, db: FactBase) -> Iterator[Substitution]:
    """Ground `atom` against `db`, extending `subst`.

    Yields every extension of `subst` under which the atom is a fact of the
    base (value constraints included), in the base's canonical fact order,
    sorted by the facts' constant symbols.  Repeated calls are identical.
    """
    name = atom.pred.name
    if name not in db.schema:
        raise ParseError(f"unknown predicate {name}")
    pattern = [subst.get(a, a) for a in atom.args]
    for fact in db._candidates_raw(name, pattern):
        if not _value_matches(atom.value, fact.value):
            continue
        merged = dict(subst)
        for term, actual in zip(pattern, fact.args):
            if isinstance(term, Constant):
                if term != actual:
                    break
            elif merged.setdefault(term, actual) != actual:
                break
        else:
            yield merged


@dataclass(frozen=True)
class Literal:
    """A body literal: an atom, possibly negated (negation-as-failure)."""

    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return ("!" if self.negated else "") + str(self.atom)


def _as_literal(item) -> Literal:
    return item if isinstance(item, Literal) else Literal(item)


def solutions(body: Iterable, seed: Substitution, db: FactBase) -> Iterator[Substitution]:
    """All substitutions grounding the whole body, in deterministic order.

    Positive literals bind free variables via :func:`match`; negated
    literals must be fully bound by the seed or by earlier literals and
    filter the stream (stratified negation-as-failure).
    """
    yield from _ground([_as_literal(l) for l in body], 0, dict(seed), db)


def _ground(lits: list, i: int, subst: Substitution, db: FactBase) -> Iterator[Substitution]:
    # A module-level function, not a closure: a closure that calls itself is
    # a reference cycle, left to the cyclic collector after every query.
    if i == len(lits):
        yield subst
        return
    lit = lits[i]
    if lit.negated:
        grounded = lit.atom.substitute(subst)
        if grounded.variables():
            raise ValueError(
                f"unbound variable in negated literal {lit}")
        if next(match(grounded, subst, db), None) is None:
            yield from _ground(lits, i + 1, subst, db)
    else:
        for ext in match(lit.atom, subst, db):
            yield from _ground(lits, i + 1, ext, db)


def satisfies(body: Iterable, seed: Substitution, db: FactBase) -> bool:
    """True iff at least one full grounding of the body exists in `db`.

    Free variables are existentially quantified; the empty body is
    vacuously true.
    """
    return next(solutions(body, seed, db), None) is not None


# ---------------------------------------------------------------------------
# example sets
# ---------------------------------------------------------------------------


@dataclass
class ExampleSet:
    """Ground target atoms with labels (boolean targets) or values."""

    target: PredicateSignature
    entries: list = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for atom, _ in self.entries:
            if atom.pred != self.target:
                raise ValueError(f"{atom} does not match target {self.target.name}")
            if not atom.is_ground():
                raise ValueError(f"example {atom} is not ground")
            key = (atom.pred.name, atom.args)
            if key in seen:
                raise ValueError(f"duplicate entry {atom}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.entries)

    def merged_with(self, other: "ExampleSet") -> "ExampleSet":
        if other.target != self.target:
            raise ValueError("example sets have different targets")
        return ExampleSet(self.target, list(self.entries) + list(other.entries))


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
        value: AtomValue = int(valuetext)
    else:
        try:
            value = float(valuetext)
        except ValueError:
            raise ParseError(f"{pred.name} expects a real value", lineno)
    _check_payload(pred, value, lineno)
    return value


def parse_facts(text: str, schema: Schema) -> FactBase:
    """Parse a facts stream into a FactBase.

    Parsing then serializing then parsing again is a fixpoint.
    """
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
    """Parse ground target atoms into an ExampleSet.

    For boolean targets pass ``label`` (1 for a positives file, 0 for a
    negatives file).  Hybrid targets carry their payload inline as
    ``atom=value.`` and ``label`` must be None.  An atom already in
    ``earlier``, a set read from another file, is a duplicate at its line.
    """
    schema = Schema([target])
    entries = []
    seen = {atom.args for atom, _ in earlier.entries} if earlier else set()
    for lineno, line in _content_lines(text):
        if label is not None:
            m = _FACT_RE.match(line)
            if m and m.group(3) is not None:
                raise ParseError("labelled example files carry no =value", lineno)
            atom = _parse_ground_atom(line, schema, lineno)
            entries.append((atom, label))
        else:
            atom = _parse_ground_atom(line, schema, lineno)
            if target.kind == "boolean":
                raise ParseError("boolean targets need pos/neg files", lineno)
            entries.append((Atom(atom.pred, atom.args, None), atom.value))
        if atom.args in seen:
            raise ParseError(f"duplicate entry {entries[-1][0]}", lineno)
        seen.add(atom.args)
    return ExampleSet(target, entries)


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
    value: AtomValue = None
    if op == "=":
        if pred.kind != "multiclass":
            raise ParseError(f"'=' tests need a multiclass predicate, got {name}")
        if not re.match(r"[0-9]+\Z", valuetext):
            raise ParseError(f"bad class index {valuetext!r}")
        value = int(valuetext)
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
        value = Cmp(">=", threshold)
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
