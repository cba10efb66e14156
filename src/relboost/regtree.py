"""Relational regression-tree induction over gradient-valued examples.

The base learner of every boosting variant in this package.  A tree is
grown greedy best-first: keep a beam of expandable leaves, repeatedly pop
the leaf with the worst (largest) residual score, enumerate candidate node
tests from the mode declarations, and install the best-scoring one.  Node
tests are short conjunctions of literals appended to the clause accumulated
along the path, and evaluation takes the succeeds branch exactly when the
extended clause is satisfiable (existential semantics over the groundings
of path variables).

The module also holds the boosted-function core that every learner is
built on: the summed value of a tree list at one row (`evaluate`), one
functional-gradient step (`boost_step`), and the model-file layout of a
header line followed by optional `function <key>` lines and `tree <i>`
blocks (`parse_header`, `write_model`, `read_trees`).

An example's bindings at a node are positional: a list of distinct tuples
of constants over the node's layout of bound variables.  The layout is the
head variables ``V0..``, then each yes-path test's new variables in
first-appearance order, so the root's one binding is the target atom's
arguments.  A node test is compiled once against its layout into a
`logic.Plan`.

Routing is memoised by a `RoutingCache`.  An example's bindings at a node
depend only on its target atom, its fact base and the yes-tests above the
node, in order (a no branch adds no bindings).  So whether a test succeeds
there, and the bindings it extends them to, is a pure function of (yes-path
of test texts, test text, target, fact base), and is grounded once per run:
at every node and boosting iteration that routes the example by that test
again, and in `boost_step`'s update of the training rows' values.  The rows
that a (yes-path, test) table is missing are grounded together, in one
`logic.solutions` call per fact base.  Each learner's training function
creates the cache, registers its (target, fact base) rows in it once
before the boosting loop (`RoutingCache.register`, which checks them), and
passes their slots to every `boost_step` of the run; fitting and routing
then work on slot integers only, and the cache is dropped when the run
ends.

Besides its routings, each table keeps a state column: a `uint8` array
over the cache's slots, grown as the cache registers more, that holds 0
where the example is not grounded yet, 1 where the test fails and 2 where
it holds.  A growing leaf keeps its rows as a gradient array and a slot
array, so scoring a candidate test is one mask, ``state[slots] == 2``,
after grounding the slots still at 0, and the two children's squared
errors are array sums.  Those sums add left to right from 0.0
(`util.ordered_array_sum`), as a Python loop over the rows does, so every
split and leaf value is the one a per-row loop gives.  Fitting, the
routing of `boost_step`'s rows and `_preroute` share that one scorer.

`evaluate` routes one prediction by the same tables, walking every tree of
a boosted function from the row's one slot; `eval` and `cv` share one
cache per command and first route every row they score through every tree
(`_preroute`), so that each table is grounded by one call per fact base
and `evaluate` of a row only reads the cache.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .logic import (
    Atom,
    Cmp,
    FactBase,
    Literal,
    ModeDeclaration,
    ParseError,
    Plan,
    PredicateSignature,
    Schema,
    Variable,
    compile_body,
    parse_int,
    parse_literal_list,
    solutions,
)
from .util import ordered_array_sum


@dataclass(frozen=True)
class NodeTest:
    """Literals appended to the path clause; may introduce fresh variables."""

    literals: tuple
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_text", ", ".join(str(l) for l in self.literals))

    def text(self) -> str:
        return self._text


@dataclass
class Leaf:
    value: float


@dataclass
class Inner:
    test: NodeTest
    yes: object
    no: object


@dataclass
class RegressionTree:
    """Root-to-leaf paths are well-moded clauses; leaves carry regression values."""

    target: PredicateSignature
    root: object

    def leaf_count(self) -> int:
        return sum(isinstance(node, Leaf) for node in _preorder(self.root))


MAX_FRESH_VARIABLES = 6     # fresh variables one node test may introduce
MAX_THRESHOLDS = 8          # cap on a numeric predicate's ">=" thresholds at one node


@dataclass
class TreeConfig:
    max_leaves: int = 8
    max_new_literals_per_node: int = 2

    def __post_init__(self):
        if self.max_leaves < 2:
            raise ValueError("max_leaves must be at least 2")


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def _sse(gradients: np.ndarray) -> float:
    """Sum of squared errors about the mean of a float64 gradient array.

    The mean and the squares are added left to right from 0.0, as a Python
    loop over the gradients adds them.  Squares are products: float
    ``** 2`` goes through the C library's pow, which may round differently.
    A sum past float range is an OverflowError, as ``** 2`` raises for a
    square past it, so trainers can report targets too large for float
    arithmetic; numpy's overflow warnings on the way there are silenced.
    """
    if not len(gradients):
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        d = gradients - ordered_array_sum(gradients) / len(gradients)
        total = ordered_array_sum(d * d)
    if total == math.inf:
        raise OverflowError("sum of squared errors out of float range")
    return total


# ---------------------------------------------------------------------------
# candidate enumeration
# ---------------------------------------------------------------------------


def _value_variants(pred: PredicateSignature, dbs: list) -> list:
    """Value constraints worth testing for one predicate."""
    if pred.kind == "boolean":
        return [None]
    if pred.kind == "multiclass":
        return [None] + list(range(pred.classes))
    # ">= min" is implied by existence, so thresholds start above it; past
    # the cap, they sit at evenly spaced ranks from there to the maximum
    above = sorted({v for db in dbs for v in db.observed_values(pred.name)})[1:]
    if len(above) > MAX_THRESHOLDS:
        above = [above[round(k * (len(above) - 1) / (MAX_THRESHOLDS - 1))]
                 for k in range(MAX_THRESHOLDS)]
    return [None] + [Cmp(float(v)) for v in above]


def _mode_literals(mode: ModeDeclaration, bound_vars: list, dbs: list) -> list:
    """All literals for one mode; fresh variables are numbered after `bound_vars`.

    Returns (literal, fresh_vars_introduced) pairs.
    """
    choice_lists = []
    for pos, flag in enumerate(mode.arg_modes):
        if flag == "+":
            if not bound_vars:
                return []
            choice_lists.append([("var", v) for v in bound_vars])
        elif flag == "-":
            choice_lists.append([("fresh", pos)])
        else:  # '#'
            consts = sorted({c for db in dbs for c in db.observed_constants(mode.pred.name, pos)})
            if not consts:
                return []
            choice_lists.append([("const", c) for c in consts])
    out = []
    values = _value_variants(mode.pred, dbs)
    for combo in itertools.product(*choice_lists):
        args, fresh, n = [], [], len(bound_vars)
        for kind, payload in combo:
            if kind == "fresh":
                v = Variable(f"V{n}")
                n += 1
                fresh.append(v)
                args.append(v)
            else:
                args.append(payload)
        for value in values:
            out.append((Literal(Atom(mode.pred, tuple(args), value)), tuple(fresh)))
    return out


def enumerate_tests(bound_vars: list, modes: list, dbs: list,
                    config: TreeConfig, path_texts: frozenset) -> list:
    """Candidate NodeTests at a node, deterministic and duplicate free.

    Single literals, plus (when allowed) two-literal chains where the
    second literal consumes a variable introduced by the first.
    """
    singles = []
    for mode in modes:
        for lit, fresh in _mode_literals(mode, bound_vars, dbs):
            if str(lit) in path_texts:
                continue
            singles.append((lit, fresh))
    tests = {}
    for lit, fresh in singles:
        if len(fresh) > MAX_FRESH_VARIABLES:
            continue
        t = NodeTest((lit,))
        tests.setdefault(t.text(), t)
        if config.max_new_literals_per_node < 2 or not fresh:
            continue
        inner_vars = bound_vars + list(fresh)
        for mode in modes:
            for lit2, fresh2 in _mode_literals(mode, inner_vars, dbs):
                if len(fresh) + len(fresh2) > MAX_FRESH_VARIABLES:
                    continue
                if not any(v in fresh for v in lit2.atom.variables()):
                    continue  # chain must consume a freshly introduced variable
                if str(lit2) == str(lit) or str(lit2) in path_texts:
                    continue
                t2 = NodeTest((lit, lit2))
                tests.setdefault(t2.text(), t2)
    return [tests[k] for k in sorted(tests)]


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


class RoutingTable:
    """The routings of one node test at the end of one yes-path.

    `plan` is the test compiled against the yes-path's binding layout, and
    ``plan.grown`` is the layout below its yes branch.  `routings` maps an
    example's slot to its extended binding tuples where the test succeeds
    and to ``()`` where it fails: the bindings the example has at every
    node below the yes branch.  `state` holds, at each slot, 0 until the
    example is grounded, then 1 where the test fails and 2 where it
    succeeds; `column` grows it to the cache's slot count.  A root table's
    state is not kept: its empty test holds at every registered slot.  The
    tables of the tests below the yes branch hang off this one, keyed by
    test text.
    """

    __slots__ = ("plan", "routings", "state", "_below")

    def __init__(self, plan: Plan):
        self.plan = plan
        self.routings: dict = {}
        self.state = np.zeros(0, dtype=np.uint8)
        self._below: dict = {}

    def column(self, n_slots: int) -> np.ndarray:
        """`state`, first grown to cover `n_slots` slots; doubling keeps
        slot-by-slot growth linear."""
        state = self.state
        if len(state) < n_slots:
            state = np.zeros(max(n_slots, 2 * len(state)), dtype=np.uint8)
            state[:len(self.state)] = self.state
            self.state = state
        return state

    def below(self, test: NodeTest) -> "RoutingTable":
        """The table of `test` under this table's yes branch."""
        table = self._below.get(test.text())
        if table is None:
            table = self._below[test.text()] = RoutingTable(
                compile_body(test.literals, self.plan.grown))
        return table


class RoutingCache:
    """Routing of examples by node tests, kept for a training run or a command.

    The tables form one tree per target arity.  Its root is the empty test
    over the head variables ``V0..``, which routes each example to the one
    binding tuple of its target's arguments; a (yes-path, test) pair's table
    is reached by `RoutingTable.below` along the path.  Routings are keyed
    by the example's slot: an integer naming its (target atom, fact base)
    pair by identity.  The cache holds both objects, so no other pair can
    take their ids while it lives.  `slot` checks an example once, when it
    first registers it: a target that is not ground is a ValueError.
    """

    def __init__(self):
        self._slots: dict = {}      # (id(target), id(db)) -> slot
        self._held: list = []       # (target, db) of each slot
        self._roots: dict = {}      # target arity -> root table

    def slot(self, target: Atom, db: FactBase) -> int:
        key = (id(target), id(db))
        slot = self._slots.get(key)
        if slot is None:
            if not target.is_ground():
                raise ValueError(f"example target {target} is not ground")
            slot = self._slots[key] = len(self._held)
            self._held.append((target, db))
            self.root(target.pred.arity).routings[slot] = [tuple(target.args)]
        return slot

    def register(self, rows: list) -> list:
        """The slots of a training run's (target atom, fact base) `rows`, in
        order: every target ground and of one predicate, or a ValueError."""
        if rows:
            target = rows[0][0].pred
            for atom, _ in rows:
                if atom.pred is not target and atom.pred != target:
                    raise ValueError("examples mix target predicates")
        slot = self.slot
        return [slot(atom, db) for atom, db in rows]

    def root(self, arity: int) -> RoutingTable:
        """The table above every test of a tree with a target of `arity`."""
        table = self._roots.get(arity)
        if table is None:
            head = tuple(Variable(f"V{i}") for i in range(arity))
            table = self._roots[arity] = RoutingTable(compile_body((), head))
        return table


@dataclass
class _GrowLeaf:
    created: int
    gradients: np.ndarray        # float64, one per row
    slots: np.ndarray            # intp, the slot of each row
    node: RoutingTable           # the table of the leaf's yes-path
    path_texts: frozenset        # literal texts on the path
    sse: float = field(init=False)
    split: Optional[tuple] = None   # (test, yes leaf, no leaf) once grown

    def __post_init__(self):
        self.sse = _sse(self.gradients)


def _ground_missing(slots: list, table: RoutingTable, above: RoutingTable,
                   cache: RoutingCache):
    """Route the examples of `slots` by the test of `table`, a table below
    `above`, from their bindings in `above`, into its routings and state:
    one `solutions` call per fact base grounds them all."""
    by_db: dict = {}        # id(db) -> (db, slots on it)
    held = cache._held
    for slot in dict.fromkeys(slots):
        db = held[slot][1]
        group = by_db.get(id(db))
        if group is None:
            by_db[id(db)] = (db, [slot])
        else:
            group[1].append(slot)
    bindings, routings = above.routings, table.routings
    state = table.column(len(held))
    for db, group in by_db.values():
        for slot, ext in zip(group, solutions(table.plan, [bindings[s] for s in group], db)):
            routings[slot] = ext or ()
            state[slot] = 2 if ext else 1


def _score_candidate(slots: np.ndarray, table: RoutingTable, above: RoutingTable,
                     cache: RoutingCache) -> np.ndarray:
    """The mask of the `slots` where the test of `table`, a table below
    `above`, succeeds.  Only the slots that `table` has not grounded are
    grounded."""
    state = table.column(len(cache._held))
    at = state[slots]
    if not at.all():
        _ground_missing(slots[at == 0].tolist(), table, above, cache)
        at = state[slots]
    return at == 2


def fit_tree(rows: list, gradients: list, modes: list,
             config: Optional[TreeConfig] = None,
             cache: Optional[RoutingCache] = None) -> RegressionTree:
    """Fit a relational regression tree to ``gradients[i]`` at the i-th row
    of `rows`.

    A row is a (ground target atom, fact base) pair, which is registered in
    `cache` first (a fresh cache when None), or the slot of such a pair
    that `cache` already registered: a boosting run registers its rows once,
    which checks them, and fits every tree from their slots (`boost_step`).
    Slots without their cache, or past its last slot, are a ValueError.
    Growth is greedy best-first under `config`; each leaf's value is the
    mean gradient of the rows routed to it.  A root with no improving
    candidate yields a single-leaf tree.  Routings are read from and added
    to `cache`.
    """
    if not rows:
        raise ValueError("cannot fit a tree to an empty example list")
    config = config or TreeConfig()
    if not isinstance(rows[0], int):
        cache = cache if cache is not None else RoutingCache()
        rows = cache.register(rows)
    elif cache is None or min(rows) < 0 or max(rows) >= len(cache._held):
        raise ValueError("slots must be registered in the given cache")
    slots = np.asarray(rows, dtype=np.intp)
    gradients = np.asarray(gradients, dtype=np.float64)
    if not np.isfinite(gradients).all():
        raise ValueError("gradient must be finite")
    held = cache._held
    target = held[slots[0]][0].pred
    dbs = list(dict.fromkeys([held[s][1] for s in rows]))    # distinct, first seen first

    root_leaf = _GrowLeaf(0, gradients, slots, cache.root(target.arity), frozenset())
    beam = [root_leaf]
    grown = [root_leaf]     # every leaf, each after its parent
    n_leaves = 1

    while beam and n_leaves < config.max_leaves:
        # pop the worst leaf: largest SSE, ties to the oldest
        beam.sort(key=lambda l: (-l.sse, l.created))
        leaf = beam.pop(0)
        if leaf.sse <= 0.0:
            continue
        candidates = enumerate_tests(list(leaf.node.plan.grown), modes, dbs, config,
                                     leaf.path_texts)
        best = None
        gradients, slots, n = leaf.gradients, leaf.slots, len(leaf.slots)
        for test in candidates:
            table = leaf.node.below(test)
            hits = _score_candidate(slots, table, leaf.node, cache)
            if not 0 < np.count_nonzero(hits) < n:
                continue
            score = _sse(gradients[hits]) + _sse(gradients[~hits])
            if score >= leaf.sse - 1e-12:
                continue
            key = (score, test.text())
            if best is None or key < best[0]:
                best = (key, test, table, hits)
        if best is None:
            continue
        _, test, table, hits = best
        new_texts = leaf.path_texts | {str(l) for l in test.literals}
        yes_leaf = _GrowLeaf(2 * n_leaves - 1, gradients[hits], slots[hits], table, new_texts)
        no_leaf = _GrowLeaf(2 * n_leaves, gradients[~hits], slots[~hits], leaf.node,
                            leaf.path_texts)
        n_leaves += 1
        leaf.split = (test, yes_leaf, no_leaf)
        beam.extend([yes_leaf, no_leaf])
        grown.extend([yes_leaf, no_leaf])

    nodes: dict = {}        # created -> the leaf's node in the fitted tree
    for leaf in reversed(grown):    # children before their parents
        if leaf.split is None:
            # the rows' _sse was finite, so their sum is too
            nodes[leaf.created] = Leaf(ordered_array_sum(leaf.gradients) / len(leaf.gradients))
        else:
            test, yes_leaf, no_leaf = leaf.split
            nodes[leaf.created] = Inner(test, nodes[yes_leaf.created], nodes[no_leaf.created])
    return RegressionTree(target, nodes[root_leaf.created])


# ---------------------------------------------------------------------------
# the boosted-function core: psi = offset + sum of tree values
# ---------------------------------------------------------------------------


def evaluate(trees: list, target: Atom, db: FactBase,
             cache: Optional[RoutingCache] = None) -> float:
    """Summed regression value of one ground target atom under `trees`.

    Pure in (trees, target, db): each tree is walked from its root, taking
    the succeeds branch exactly when the accumulated path clause extended
    with the node's test is satisfiable, and the leaf values are added in
    tree order from 0.0, the order `boost_step` accumulates psi in, so the
    two agree exactly.  The routing is `boost_step`'s: read from and added
    to `cache`, a fresh one when None.  An empty list is 0.0.
    """
    pred = target.pred
    for tree in trees:
        if tree.target is not pred \
                and (tree.target.name, tree.target.arity) != (pred.name, pred.arity):
            raise ValueError(f"{target} does not match tree target {tree.target.name}")
    if not trees:
        return 0.0
    cache = cache if cache is not None else RoutingCache()
    slot, root = cache.slot(target, db), cache.root(target.pred.arity)
    total = 0.0
    for tree in trees:
        node, at = tree.root, root
        while isinstance(node, Inner):
            table = at.below(node.test)
            routing = table.routings.get(slot)
            if routing is None:
                _ground_missing([slot], table, at, cache)
                routing = table.routings[slot]
            if routing:
                node, at = node.yes, table
            else:
                node = node.no
        total += node.value
    return total


def boost_step(slots: list, fit: list, modes: list, tree_config: TreeConfig,
               psis: list, cache: RoutingCache, eta: float = 1.0) -> RegressionTree:
    """One functional-gradient step of a boosted function over a run's
    rows, given as their `slots` in the run's `cache`: the run registers
    its rows once, before its first step (`RoutingCache.register`).

    Fits a tree to the (row index, gradient) pairs of `fit`, in their
    order, scales its leaves by the step size `eta`, and adds the tree's
    value at every row i to ``psis[i]`` in place.  Leaves are scaled after
    the fit, never the gradients, so eta = 1 leaves the fitted values
    exact.  The fit and the routing of the rows share `cache`, so the rows
    the fit routed are not grounded again.
    """
    tree = fit_tree([slots[i] for i, _ in fit], [g for _, g in fit], modes,
                    tree_config, cache)
    for node in _preorder(tree.root):
        if isinstance(node, Leaf):
            node.value *= eta
    for leaf, group in _route(tree, np.asarray(slots, dtype=np.intp), cache):
        value = leaf.value
        for i in group.tolist():
            psis[i] += value
    return tree


def _route(tree: RegressionTree, slots: np.ndarray, cache: RoutingCache) -> list:
    """(leaf, positions of the `slots` routed to it) pairs of `tree`, level
    by level: each node's test grounds the slots that reach it and are
    missing from its table in one `solutions` call per fact base.  Leaves
    that no slot reaches are left out."""
    out = []
    stack = [(tree.root, cache.root(tree.target.arity), np.arange(len(slots)))]
    while stack:
        node, at, group = stack.pop()
        if not len(group):
            continue
        if isinstance(node, Leaf):
            out.append((node, group))
            continue
        table = at.below(node.test)
        hits = _score_candidate(slots[group], table, at, cache)
        stack.extend(((node.yes, table, group[hits]), (node.no, at, group[~hits])))
    return out


def _preroute(trees: list, rows: list, cache: RoutingCache):
    """Route every (atom, fact base) pair of `rows` through every tree of
    `trees` into `cache`, so that `evaluate` of any of them by any of the
    trees reads only cached routings and grounds nothing.  Rows that share
    a slot, such as rctbn segments with one target and context, are routed
    once."""
    slots = np.fromiter(dict.fromkeys(cache.slot(atom, db) for atom, db in rows),
                        dtype=np.intp)
    for tree in trees:
        _route(tree, slots, cache)


# ---------------------------------------------------------------------------
# serialization: preorder node listing, bit-exact round trip
# ---------------------------------------------------------------------------


def _preorder(root) -> list:
    """The nodes under `root` in preorder, yes branch first, without recursion."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, Inner):
            stack.extend((node.no, node.yes))
    return order


def serialize_tree(tree: RegressionTree) -> str:
    """One line per node in preorder; a node's id is its preorder position."""
    order = _preorder(tree.root)
    ids = {id(node): i for i, node in enumerate(order)}
    lines = []
    for node in order:
        if isinstance(node, Leaf):
            lines.append(f"leaf {ids[id(node)]} value={node.value!r}")
        else:
            lines.append(f'node {ids[id(node)]} test "{node.test.text()}" '
                         f"yes={ids[id(node.yes)]} no={ids[id(node.no)]}")
    return "\n".join(lines) + "\n"


def parse_finite(token: str, what: str, line: Optional[int] = None) -> float:
    """`token` as a finite float; anything else is a ParseError naming `what`."""
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"{what} must be a finite number, not {token!r}", line)
    return value


_NODE_RE = re.compile(r'node (\d+) test "(.*)" yes=(\d+) no=(\d+)\Z')
_LEAF_RE = re.compile(r"leaf (\d+) value=(\S+)\Z")


def parse_tree(text: str, schema: Schema, target: PredicateSignature,
               first_line: int = 1) -> RegressionTree:
    """Inverse of `serialize_tree`.  `first_line` is the line number of the
    text's first line, so errors name lines of the enclosing file."""
    specs: dict = {}    # node id -> (line, Leaf) or (line, test, yes id, no id)
    for lineno, raw in enumerate(text.splitlines(), start=first_line):
        raw = raw.strip()
        if not raw:
            continue
        node, leaf = _NODE_RE.match(raw), _LEAF_RE.match(raw)
        if node:
            nid, test_text, yes, no = node.groups()
            try:
                literals = tuple(parse_literal_list(test_text, schema))
            except ParseError as exc:
                raise ParseError(str(exc), lineno)
            spec = (lineno, NodeTest(literals), parse_int(yes, "node id", lineno),
                    parse_int(no, "node id", lineno))
        elif leaf:
            nid = leaf.group(1)
            spec = (lineno, Leaf(parse_finite(leaf.group(2), "leaf value", lineno)))
        else:
            raise ParseError(f"bad tree line {raw!r}", lineno)
        key = parse_int(nid, "node id", lineno)
        if key in specs:
            raise ParseError(f"duplicate node id {nid}", lineno)
        specs[key] = spec
    if 0 not in specs:
        raise ParseError("tree has no root node 0", first_line)
    order, reached = [], set()
    # (node id, line that names it, variables the yes-path above it binds)
    stack = [(0, first_line, tuple(Variable(f"V{i}") for i in range(target.arity)))]
    while stack:
        nid, named_at, bound = stack.pop()
        if nid not in specs:
            raise ParseError(f"dangling node id {nid}", named_at)
        if nid in reached:
            raise ParseError(f"node id {nid} is reached twice", named_at)
        reached.add(nid)
        order.append(nid)
        spec = specs[nid]
        if len(spec) == 4:
            try:    # a negated literal may use only variables bound before it
                below = compile_body(spec[1].literals, bound).grown
            except ValueError as exc:
                raise ParseError(str(exc), spec[0])
            stack.extend(((spec[3], spec[0], bound), (spec[2], spec[0], below)))
    nodes: dict = {}
    for nid in reversed(order):     # children before their parents
        spec = specs[nid]
        nodes[nid] = spec[1] if len(spec) == 2 else Inner(spec[1], nodes[spec[2]],
                                                          nodes[spec[3]])
    return RegressionTree(target, nodes[0])


# ---------------------------------------------------------------------------
# model files: a `model <kind> k=v ...` header line, then the trees of each
# boosted function as `tree <i>` blocks, keyed formats naming each function
# on a `function <key>` line first
# ---------------------------------------------------------------------------


def parse_header(text: str, kind: str, schema: Schema, required: tuple = (),
                 numbers: tuple = (), optional: tuple = ()) -> tuple:
    """(fields, target signature) of a model file's header line.

    ``target=<name>/<arity>`` and every field in `required` must be
    present, and no field outside them and `optional` may be; every field
    in `numbers` that is present becomes a finite float.  Every defect is a
    ParseError at line 1.
    """
    lines = text.splitlines()
    tokens = lines[0].split() if lines else []
    if tokens[:2] != ["model", kind]:
        raise ParseError(f"expected a 'model {kind}' header", 1)
    fields: dict = {}
    for token in tokens[2:]:
        key, eq, value = token.partition("=")
        if not key or not eq or key in fields:
            raise ParseError(f"malformed header field {token!r}", 1)
        if key not in ("target",) + required + optional:
            raise ParseError(f"unknown header field {key!r}", 1)
        fields[key] = value
    for key in ("target",) + required:
        if key not in fields:
            raise ParseError(f"model header lacks {key}=", 1)
    for key in numbers:
        if key in fields:
            fields[key] = parse_finite(fields[key], key, 1)
    name, _, arity = fields["target"].partition("/")
    if name not in schema:
        raise ParseError(f"model target {name!r} not in schema", 1)
    target = schema.get(name)
    if arity != str(target.arity):
        raise ParseError("model target arity does not match schema", 1)
    return fields, target


def write_model(header: str, functions: dict) -> str:
    """Model file text: the header line, then each function's trees in
    order, after a `function <key>` line unless the key is None."""
    lines = [header]
    for key, trees in functions.items():
        if key is not None:
            lines.append(f"function {key}")
        for i, tree in enumerate(trees):
            lines.append(f"tree {i}")
            lines.append(serialize_tree(tree).rstrip("\n"))
    return "\n".join(lines) + "\n"


def read_trees(text: str, schema: Schema, target: PredicateSignature,
               keyed: bool = False) -> dict:
    """Function key -> trees of a model file, read after its header line.

    An unkeyed file holds the one function None and may not name any; in a
    keyed file every tree must follow a `function <key>` line.
    """
    functions: dict = {} if keyed else {None: []}
    current = None
    block: list = []
    start = 2       # file line of the block's first line

    def flush():
        if any(line.strip() for line in block):
            functions[current].append(parse_tree("\n".join(block), schema, target, start))
        block.clear()

    for lineno, raw in enumerate(text.splitlines()[1:], start=2):
        if raw.startswith("function "):
            if not keyed:
                raise ParseError("this model format has no function lines", lineno)
            flush()
            current = raw[len("function "):].strip()
            functions.setdefault(current, [])
            start = lineno + 1
        elif raw.startswith("tree "):
            flush()
            start = lineno + 1
        else:
            if raw.strip() and current not in functions:
                raise ParseError("tree before any function line", lineno)
            block.append(raw)
    flush()
    return functions
