"""The dict-based grounding engine, kept as the reference that the tests
compare the batched `relboost.logic.solutions` with.

A substitution is a ``{Variable: Constant}`` dict.  `match` grounds one
atom in the fact base's canonical order, `ground` chains a body depth
first, and `extend_bindings` gathers the distinct groundings reachable
from a list of substitutions, first occurrence kept.  `reference_solutions`
answers a `solutions` call over binding tuples of constants with these,
and `_facts_of` reads a fact base's facts as `Atom`s.  A constant is its
symbol, so `solutions` takes and returns the same tuples.
"""

import weakref

from relboost.logic import Atom, Cmp, Constant, FactBase, ParseError, Variable


_FACTS = weakref.WeakKeyDictionary()     # fact base -> name -> its facts as Atoms


def _facts_of(db: FactBase, name: str) -> list:
    """The facts of predicate `name` in `db`, in canonical order."""
    by_name = _FACTS.get(db)
    if by_name is None:
        by_name = _FACTS[db] = {}
        for fact in db.facts():
            by_name.setdefault(fact.pred.name, []).append(fact)
    return by_name.get(name, [])


def seed(target: Atom) -> dict:
    """The substitution binding the head variables V0.. to the target's arguments."""
    return {Variable(f"V{i}"): arg for i, arg in enumerate(target.args)}


def substitute(atom: Atom, subst: dict) -> Atom:
    return Atom(atom.pred, tuple(subst.get(a, a) if isinstance(a, Variable) else a
                                 for a in atom.args), atom.value)


def _value_matches(query, actual) -> bool:
    if query is None or query is True:
        return True
    if isinstance(query, Cmp):
        return float(actual) >= query.threshold
    return actual == query


def _candidates(db: FactBase, name: str, pattern: list) -> list:
    rows = _facts_of(db, name)
    if not rows:
        return []
    best = None
    for pos, arg in enumerate(pattern):
        if isinstance(arg, Constant):
            posting = db._index[(name, pos)].get(arg, [])
            if best is None or len(posting) < len(best):
                best = posting
    return rows if best is None else [rows[i] for i in best]


def match(atom: Atom, subst: dict, db: FactBase):
    """Every extension of `subst` under which `atom` is a fact of `db`, in
    canonical fact order."""
    name = atom.pred.name
    if name not in db.schema:
        raise ParseError(f"unknown predicate {name}")
    pattern = [subst.get(a, a) for a in atom.args]
    for fact in _candidates(db, name, pattern):
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


def ground(lits: list, i: int, subst: dict, db: FactBase):
    if i == len(lits):
        yield subst
        return
    lit = lits[i]
    if lit.negated:
        grounded = substitute(lit.atom, subst)
        if grounded.variables():
            raise ValueError(f"unbound variable in negated literal {lit}")
        if next(match(grounded, subst, db), None) is None:
            yield from ground(lits, i + 1, subst, db)
    else:
        for ext in match(lit.atom, subst, db):
            yield from ground(lits, i + 1, ext, db)


def solutions(body, subst: dict, db: FactBase):
    """All substitutions grounding the whole body, depth first."""
    yield from ground(list(body), 0, dict(subst), db)


def extend_bindings(substs: list, literals, db: FactBase) -> list:
    """Distinct full groundings of `literals` reachable from any substitution."""
    out, seen = [], set()
    for theta in substs:
        for ext in solutions(literals, theta, db):
            key = tuple(sorted((v.name, c) for v, c in ext.items()))
            if key not in seen:
                seen.add(key)
                out.append(ext)
    return out


def grown_layout(body, layout) -> tuple:
    """`layout` followed by the body's other variables in first-appearance order."""
    return tuple(dict.fromkeys(list(layout) + [v for lit in body
                                               for v in lit.atom.variables()]))


def reference_solutions(body, layout, groups: list, db: FactBase) -> list:
    """What ``solutions(compile_body(body, layout), groups, db)`` returns,
    computed one row and one substitution at a time."""
    grown = grown_layout(body, layout)
    out = []
    for group in groups:
        exts = extend_bindings([dict(zip(layout, t)) for t in group], body, db)
        out.append([tuple(ext[v] for v in grown) for ext in exts])
    return out
