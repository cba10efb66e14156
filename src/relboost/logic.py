"""First-order representation, dataset parsing, and the grounding engine.

Predicates are declared in a :class:`Schema`; ground facts live in an
indexed :class:`FactBase`.  Clause bodies are grounded against it by a
small deterministic engine with negation-as-failure: `compile_body` turns
a body into a :class:`Plan` over a layout of bound variables, and
`solutions` extends the binding tuples of many rows by it in one call.

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

import itertools
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


def _sort_key(atom: Atom):
    # lexicographic on constant symbols: a base holds one fact per
    # (predicate, arguments), so no two facts of a predicate tie
    return tuple([a.symbol for a in atom.args])


def _checked(schema: Schema, facts: Iterable[Atom]):
    """`facts`, each checked as a fact of `schema` as it is taken."""
    for fact in facts:
        if fact.pred.name not in schema:
            raise ParseError(f"unknown predicate {fact.pred.name}")
        if not fact.is_ground():
            raise ParseError(f"fact {fact} is not ground")
        _check_payload(fact.pred, fact.value)
        yield fact


class FactBase:
    """Indexed set of ground atoms.

    The facts are fixed at construction: the per-predicate, per-position
    index maps each constant to the facts carrying it, and queries return
    exactly what a linear scan would.  At most one fact per (predicate,
    argument tuple); re-adding with a different payload is an error, naming
    the fact's source line when `lines` gives one per fact.  Queries only
    read the base; nothing in it is written after construction.

    With `base`, the result holds `base`'s facts plus `facts`.  Only the
    predicates that `facts` touch are re-sorted and re-indexed; the others
    share `base`'s lists and postings.

    Each fact is checked against `schema`: a known predicate, constant
    arguments and a payload of its value kind.  The fact readers, which
    have checked every fact at its line already, pass ``_vouched=True``
    to skip these checks.
    """

    def __init__(self, schema: Schema, facts: Iterable[Atom] = (),
                 lines: Optional[list] = None, base: Optional[FactBase] = None,
                 *, _vouched: bool = False):
        self.schema = schema
        self._by_pred: dict = {}      # name -> list of facts, canonical order
        self._index: dict = {}        # (name, pos) -> {symbol: [fact ordinal]}
        self._keys: dict = {}         # (name, args) -> payload
        if base is not None:
            self._by_pred.update(base._by_pred)
            self._index.update(base._index)
            self._keys.update(base._keys)
        keys, staged = self._keys, {}
        for k, fact in enumerate(facts if _vouched else _checked(schema, facts)):
            size = len(keys)
            if keys.setdefault((fact.pred.name, fact.args), fact.value) != fact.value:
                raise ParseError(f"conflicting values for {fact}",
                                 lines[k] if lines else None)
            if len(keys) > size:      # a new fact, not a repeat of a known one
                staged.setdefault(fact.pred.name, []).append(fact)
        for name, atoms in staged.items():
            if name in self._by_pred:
                atoms = self._by_pred[name] + atoms
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

    def lookup(self, name: str, args: tuple):
        """Payload of the fact with these ground args, or None if absent."""
        return self._keys.get((name, args))

    def observed_constants(self, name: str, pos: int) -> list:
        """Distinct constants seen at one argument position, sorted."""
        posting = self._index.get((name, pos), {})
        return [Constant(sym) for sym in sorted(posting)]

    def observed_values(self, name: str) -> list:
        """Distinct numeric payloads of a predicate's facts, sorted."""
        vals = {f.value for f in self._by_pred.get(name, [])}
        return sorted(vals)


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


def _on_base(step: _Step, db: FactBase) -> tuple:
    """(facts, fixed, keys) of `step` on `db`: the predicate's facts in
    canonical order, the ordinals in the shortest posting of a constant
    argument (None without one), and each bound argument's (posting, slot)."""
    if step.name not in db.schema:
        raise ParseError(f"unknown predicate {step.name}")
    facts = db._by_pred.get(step.name)
    if not facts:
        return (), (), ()
    fixed = None
    for pos, symbol in step.consts:
        posting = db._index[(step.name, pos)].get(symbol, ())
        if fixed is None or len(posting) < len(fixed):
            fixed = posting
    return facts, fixed, tuple((db._index[(step.name, pos)], slot) for pos, slot in step.bound)


def _extend(step: _Step, on_base: tuple, tuples: list, owners: list) -> tuple:
    """Ground one literal over `tuples`, the i-th owned by row ``owners[i]``:
    (extended tuples, their owners), each tuple's extensions in canonical
    fact order.  A negated literal, or one without new variables, keeps the
    tuples it fails, or passes, as they are."""
    facts, fixed, keys = on_base
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
            ordinals = posting.get(t[slot].symbol)
            if ordinals is None:
                candidates = ()
                break
            if candidates is None or len(ordinals) < len(candidates):
                candidates = ordinals
        if candidates is None:
            candidates = range(len(facts))
        found = False
        for i in candidates:
            fact = facts[i]
            if threshold is not None:
                if not float(fact.value) >= threshold:
                    continue
            elif equal and fact.value != value:
                continue
            args = fact.args
            if check:
                if (any(args[pos].symbol != t[slot].symbol for pos, slot in checks)
                        or any(args[pos].symbol != symbol for pos, symbol in const_checks)
                        or any(args[pos].symbol != args[first].symbol
                               for pos, first in repeats)):
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
    list of distinct binding tuples over `layout`.  Returns, for each row,
    the tuples over ``plan.grown`` that extend one of its bindings to a
    full grounding: the bindings in their order, each one's groundings in
    canonical fact order, which is the order of a depth-first search.
    Distinct bindings extend to distinct tuples, because a fact base holds
    each fact once.  Each literal's postings are looked up on `db` once per
    call, and the literal is grounded over every row's tuples together.
    Positive literals bind new variables; negated literals keep the tuples
    under which no fact matches (stratified negation-as-failure).
    """
    tuples = [t for group in groups for t in group]
    owners = [r for r, group in enumerate(groups) for _ in group]
    for step in plan.steps:
        if not tuples:
            break
        tuples, owners = _extend(step, _on_base(step, db), tuples, owners)
    out = [[] for _ in groups]
    for t, owner in zip(tuples, owners):
        out[owner].append(t)
    return out


def satisfies(body: Iterable, seed: dict, db: FactBase) -> bool:
    """True iff at least one full grounding of the body exists in `db`,
    with the variables of `seed` bound to its constants.

    Free variables are existentially quantified; the empty body is
    vacuously true.  The search is depth first and stops at the first
    grounding.
    """
    plan = compile_body(tuple(body), tuple(seed))
    return _grounds(plan.steps, [_on_base(step, db) for step in plan.steps], 0,
                    tuple(seed.values()))


def _grounds(steps: tuple, on_bases: list, i: int, t: tuple) -> bool:
    if i == len(steps):
        return True
    for ext in _extend(steps[i], on_bases[i], [t], [0])[0]:
        if _grounds(steps, on_bases, i + 1, ext):
            return True
    return False


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


# one line of the common form of `parse_facts`
_COMMON_LINE_RE = re.compile(
    rf"^([a-z][A-Za-z0-9_]*)(?:\(({_CONSTANT}(?:,{_CONSTANT})*)?\))?"
    r"(?:=(-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?))?\.\n", re.M)


class _Interned(dict):
    """Symbol -> Constant, each constant made once on first sight."""

    def __missing__(self, symbol: str) -> Constant:
        self[symbol] = constant = Constant(symbol)
        return constant


def _read_common(text: str, schema: Schema) -> Optional[list]:
    """The (predicate, args, value) of each line of `text`, line k giving
    entry k, if `text` is in the common form of `parse_facts` and each line
    is a valid fact of `schema`; None otherwise.

    One `findall` reads the whole text.  A match starts at a line start and
    ends at that line's newline, so as many matches as lines cover the text.
    Constants are interned for the call, one `Constant` per symbol.
    """
    if not text.endswith("\n"):
        return None
    rows = _COMMON_LINE_RE.findall(text)
    if len(rows) != text.count("\n"):
        return None
    symbols = _Interned().__getitem__
    out = []
    for name, argtext, valuetext in rows:
        pred = schema._by_name.get(name)
        if pred is None:
            return None
        args = tuple(map(symbols, argtext.split(","))) if argtext else ()
        if len(args) != pred.arity:
            return None
        kind = pred.kind
        if kind == "boolean":
            if valuetext:
                return None
            value = True
        elif not valuetext:
            return None
        elif kind == "continuous":
            value = float(valuetext)
            if not math.isfinite(value):
                return None
        elif valuetext.isdigit():   # ASCII digits only: the pattern admits no others
            value = int(valuetext)
            if value >= (pred.classes if kind == "multiclass" else 2 ** 53 + 1):
                return None
        else:
            return None
        out.append((pred, args, value))
    return out


def parse_facts(text: str, schema: Schema) -> FactBase:
    """Parse a facts stream into a FactBase.

    Text in the common form, the form `serialize_facts` writes, is read in
    one whole-text pass: one ``name(c1,...,ck).`` or ``name(c1,...,ck)=value.``
    a line, each line ending in a newline, with no blank lines, ``%``
    comments or spaces.  Any other text, or one with a line that pass cannot
    vouch for (an unknown predicate, a wrong arity, a value out of its
    kind's range), goes to the per-line reader, which raises every error at
    its line.  Parsing then serializing then parsing again is a fixpoint.
    """
    common = _read_common(text, schema)
    if common is None:
        return _parse_fact_lines(text, schema)
    # line k is fact k, so a conflict still names its line
    return FactBase(schema, list(itertools.starmap(Atom, common)),
                    range(1, len(common) + 1), _vouched=True)


def _parse_fact_lines(text: str, schema: Schema) -> FactBase:
    atoms, linenos = [], []
    for lineno, line in _content_lines(text):
        atoms.append(_parse_ground_atom(line, schema, lineno))
        linenos.append(lineno)
    return FactBase(schema, atoms, linenos, _vouched=True)


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

    Text in the common form of `parse_facts`, the form `serialize_examples`
    writes, is read in one whole-text pass: one ``name(c1,...,ck).`` a line
    for a labelled file, one ``name(c1,...,ck)=value.`` for a hybrid one.
    Any other text, or one with a duplicate, goes to the per-line reader,
    which raises every error at its line.
    """
    seen = {atom.args for atom, _ in earlier.entries} if earlier else set()
    common = None
    if (label is None) != (target.kind == "boolean"):
        common = _read_common(text, Schema([target]))
    if common is None or len({args for _, args, _ in common} - seen) != len(common):
        return _parse_example_lines(text, target, label, seen)
    if label is None:
        return ExampleSet(target, [(Atom(target, args, None), value)
                                   for _, args, value in common])
    return ExampleSet(target, [(atom, label) for atom in itertools.starmap(Atom, common)])


def _parse_example_lines(text: str, target: PredicateSignature,
                         label: Optional[int], seen: set) -> ExampleSet:
    schema = Schema([target])
    entries = []
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
    if len(args) != pred.arity:
        raise ParseError(f"{name} expects {pred.arity} arguments, got {len(args)}")
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
