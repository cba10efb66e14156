"""The per-line readers of facts, examples and datasets, kept as the
references that the tests compare `relboost.logic.parse_facts`,
`parse_examples` and `relboost.dbn.parse_dataset` with.

Each reads its text one content line at a time and raises the first error
at its line: a line's own checks in order, then (for facts) a second value
for a fact at the later line once every line has been read.  A dataset's
state out of range is raised, at its row, after every row has been read.
"""

import re

import numpy as np

from relboost.dbn import DiscreteDataset
from relboost.logic import (
    Atom,
    AtomValue,
    ExampleSet,
    FactBase,
    ParseError,
    PredicateSignature,
    Schema,
    Variable,
    _check_payload,
    parse_int,
    parse_term,
)


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


def _parse_fact_lines(text: str, schema: Schema) -> FactBase:
    atoms, linenos = [], []
    for lineno, line in _content_lines(text):
        atoms.append(_parse_ground_atom(line, schema, lineno))
        linenos.append(lineno)
    # the check `FactBase` made when it was given each fact's line
    keys = {}
    for atom, lineno in zip(atoms, linenos):
        if keys.setdefault((atom.pred.name, atom.args), atom.value) != atom.value:
            raise ParseError(f"conflicting values for {atom}", lineno)
    return FactBase(schema, atoms)


def _parse_example_lines(text: str, target: PredicateSignature, label,
                         earlier) -> ExampleSet:
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


# what `int()` takes as a decimal: Unicode digits, `_` between digits, and
# around them any whitespace but the separators \x1c-\x1f
_DECIMAL = re.compile(r"[^\S\x1c-\x1f]*[+-]?\d+(?:_\d+)*[^\S\x1c-\x1f]*")


def _state(token: str, lineno: int) -> int:
    """One state cell that the row's bulk `int` pass rejected: a decimal
    integer past `int()`'s digit limit is -1, which every range check
    rejects; anything else is not an integer."""
    try:
        return int(token)
    except ValueError:
        if _DECIMAL.fullmatch(token):
            return -1
        raise ParseError("states must be integers", lineno) from None


def _parse_rows(names: list, arities: list, body: list) -> DiscreteDataset:
    rows = []
    for lineno, line in body:
        parts = line.split(",")
        if len(parts) != 2 * len(names):
            raise ParseError(f"expected {2 * len(names)} values", lineno)
        try:
            rows.append([int(p) for p in parts])
        except ValueError:
            rows.append([_state(p, lineno) for p in parts])
    if not rows:
        raise ParseError("dataset has no samples")
    states = np.array(rows, dtype=object)   # Python ints: past int64 is out of range
    bad = (states < 0) | (states >= np.array(arities * 2))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ParseError(f"state out of range for {names[col % len(names)]}", body[row][0])
    return DiscreteDataset(names, arities, states)
