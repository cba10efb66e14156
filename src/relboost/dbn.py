"""Two-slice dynamic network structure scoring and greedy search.

Variables are observed in paired consecutive slices.  A structure has
intra-slice arcs among the slice t+1 copies (kept acyclic) and inter-slice
arcs from slice t to slice t+1 (always forward in time, self-links
allowed).  Three decomposable family scores are provided: penalized
log-likelihood with the BIC penalty, the Bayesian-Dirichlet marginal
likelihood, and a mutual-information test score.  Natural logarithms
throughout.

Scoring requires complete discrete data; missing-value handling is a
dataset-preparation concern, and a family table past `_MAX_CELLS` cells is
a `ValueError` raised before it is allocated.  The greedy climb scores each
move by its delta over the one or two families it changes and keeps those
records until one of their families changes.  It ranks the improving moves
by (gain, move) and tests intra acyclicity, one reachability walk each,
only down that ranking until a move passes.  Counts of every small family
that adds one parent to a child's current parents (at most
`_POPCOUNT_CELLS` cells) come from one pass of popcounts over per-state
row bitsets, and those tables are scored as they come, one stacked numpy
pass per table shape; larger tables come from one `np.bincount` each.  Each
score's formula is written once, over a stack of tables, and a single family
is scored as a stack of one.

A dataset body of one-digit states, each row written as fixed-width
two-byte cells (a digit, then a comma or the row's newline), is decoded
from its bytes by whole-array checks; any other body is split into its
fields at once.  Chi-square quantiles depend only on (alpha, df) and are memoised.
"""

from __future__ import annotations

import bisect
import functools
import math
import re
from dataclasses import dataclass
from statistics import NormalDist
from typing import Union

import numpy as np

from .logic import ParseError, parse_int
from .util import ordered_sum


@dataclass
class DiscreteDataset:
    """N paired-slice samples of n discrete variables.

    `rows` has shape (N, 2n): the first n columns are slice t, the last n
    are slice t+1.  States of variable i are 0..arities[i]-1.  It is stored
    column-major, so each `column` is one contiguous array.
    """

    names: list
    arities: list
    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asfortranarray(self.rows, dtype=np.int64)
        n = len(self.names)
        if len(self.arities) != n:
            raise ValueError("names and arities differ in length")
        if self.rows.ndim != 2 or self.rows.shape[1] != 2 * n:
            raise ValueError("rows must have 2n columns")
        if any(r < 1 for r in self.arities):
            raise ValueError("arities must be positive")
        bad = ((self.rows < 0) | (self.rows >= np.array(self.arities * 2))).any(axis=0)
        bad = bad[:n] | bad[n:]
        if bad.any():   # the first variable in declaration order, either slice
            raise ValueError(f"state out of range for {self.names[np.argmax(bad)]}")

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def n_samples(self) -> int:
        return self.rows.shape[0]

    def column(self, ref: tuple) -> np.ndarray:
        """('t', j) is slice t of variable j; ('t1', j) is slice t+1."""
        kind, j = ref
        return self.rows[:, j] if kind == "t" else self.rows[:, self.n_vars + j]


def _read_vars(text: str, what: str) -> tuple:
    """(names, arities, body) of a file headed ``vars: name:arity, ...``.

    Blank lines and ``%`` comment lines are skipped; `body` holds every
    later (line number, stripped text) pair, numbered as in the file.
    """
    lines = [(n, line) for n, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.strip()) and not line.startswith("%")]
    if not lines or not lines[0][1].startswith("vars:"):
        raise ParseError(f"{what} needs a 'vars:' header", lines[0][0] if lines else 1)
    lineno, header = lines[0]
    names, arities = [], []
    for tok in header[len("vars:"):].split(","):
        m = re.match(r"\s*([a-z][A-Za-z0-9_]*)\s*:\s*([0-9]+)\s*\Z", tok)
        if not m or (arity := parse_int(m.group(2), "arity", lineno)) < 1:
            raise ParseError(f"bad variable declaration {tok.strip()!r}", lineno)
        if m.group(1) in names:
            raise ParseError(f"variable {m.group(1)!r} declared twice", lineno)
        names.append(m.group(1))
        arities.append(arity)
    return names, arities, lines[1:]


def parse_dataset(text: str) -> DiscreteDataset:
    """Header ``vars: name:arity, ...`` then one CSV sample per line.

    A body of one-digit states, each row 2n fields and each line ending in a
    newline, is decoded from its bytes in one pass; any other body is split
    into its fields at once and read by `int`.  The first line with a wrong
    field count or a field that is no integer is an error at that line,
    else the first row with a state out of `DiscreteDataset`'s range.
    """
    header, _, rest = text.partition("\n")
    if header.startswith("vars:"):
        # `more` holds lines that `splitlines` broke off the header line
        # (after a form feed, say): the bulk route counts them as rows
        names, arities, more = _read_vars(header, "dataset")
        states = None if more else _one_digit_states(rest, len(names))
        if states is not None:
            return _dataset(names, arities, states, range(2, len(states) + 2))
    names, arities, body = _read_vars(text, "dataset")
    if not body:
        raise ParseError("dataset has no samples")
    width, linenos, lines = 2 * len(names), *zip(*body)
    short = next((k for k, line in enumerate(lines) if line.count(",") != width - 1),
                 len(lines))
    fields = ",".join(lines[:short]).split(",") if short else []
    try:
        states = list(map(int, fields))
    except ValueError:
        states = list(map(_field, fields))
        if None in states:
            short = states.index(None) // width
            raise ParseError("states must be integers", linenos[short]) from None
    if short < len(lines):
        raise ParseError(f"expected {width} values", linenos[short])
    # a state past int64 is out of every range
    states = [state if -2 ** 63 <= state < 2 ** 63 else -1 for state in states]
    return _dataset(names, arities, np.array(states, dtype=np.int64).reshape(-1, width), linenos)


def _one_digit_states(body: str, n: int):
    """The (rows, 2n) states of a body of fixed-width two-byte cells, an ASCII
    digit then ``,`` (``\\n`` closing each row), or None for any other body."""
    cells = np.frombuffer(body.encode(), dtype=np.uint8)
    if not cells.size or cells.size % (4 * n):
        return None
    cells = cells.reshape(-1, 2 * n, 2)
    states = cells[:, :, 0] - ord("0")   # uint8: bytes below '0' wrap past 9
    ends = cells[:, :, 1]
    if (states > 9).any() or (ends[:, :-1] != ord(",")).any() or (ends[:, -1] != ord("\n")).any():
        return None
    return states


def _field(field: str):
    """`int` of a field; -1, out of every range, for an integer past its
    digit limit (it reads each numeral shrunk to ``0``); else None."""
    try:
        return int(field)
    except ValueError:
        try:    # a numeral as `int()` reads one: digits, single `_` between them
            int(re.sub(r"\d+(?:_\d+)*", "0", field))
        except ValueError:
            return None
        return -1


def _dataset(names: list, arities: list, states: np.ndarray, linenos) -> DiscreteDataset:
    """The dataset of (rows, 2n) `states`, row k read at line ``linenos[k]``."""
    try:
        return DiscreteDataset(names, arities, states)
    except ValueError:      # a state out of range: name the first row holding one
        row, col = np.argwhere((states < 0) | (states >= np.array(arities * 2)))[0]
        raise ParseError(f"state out of range for {names[col % len(names)]}",
                         linenos[row]) from None


def serialize_dataset(data: DiscreteDataset) -> str:
    header = "vars: " + ", ".join(f"{n}:{r}" for n, r in zip(data.names, data.arities))
    lines = [header] + [",".join(str(v) for v in row) for row in data.rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------


@dataclass
class TwoSliceNetwork:
    """Arc sets by variable index; intra arcs must stay acyclic."""

    names: list
    arities: list
    intra: set          # (i, j): slice t+1 arc i -> j
    inter: set          # (i, j): slice t of i -> slice t+1 of j

    def __post_init__(self):
        self.intra = set(self.intra)
        self.inter = set(self.inter)
        children: list = [[] for _ in self.names]
        for a, b in self.intra:
            children[a].append(b)
        if _meets_grey(children, range(len(self.names)), [0] * len(self.names)):
            raise ValueError("intra-slice arcs form a cycle")

    def parents(self, i: int) -> tuple:
        """Sorted parent refs of slice t+1 variable i."""
        refs = [("t", a) for (a, b) in self.inter if b == i]
        refs += [("t1", a) for (a, b) in self.intra if b == i]
        return tuple(sorted(refs))


def _meets_grey(children: list, starts, colour: list) -> bool:
    """Iterative depth-first walk along `children` from `starts` into white
    (0) nodes, each grey (1) while on the path and black (2) once done.
    True when an arc reaches a grey node: a cycle, or a node the caller
    greyed to ask whether it is reachable."""
    path = [(None, iter(starts))]
    while path:
        u, arcs = path[-1]
        v = next(arcs, None)
        if v is None:
            path.pop()
            if u is not None:
                colour[u] = 2
        elif colour[v] == 1:
            return True
        elif not colour[v]:
            colour[v] = 1
            path.append((v, iter(children[v])))
    return False


def serialize_network(net: TwoSliceNetwork) -> str:
    lines = ["vars: " + ", ".join(f"{n}:{r}" for n, r in zip(net.names, net.arities))]
    for a, b in sorted(net.intra):
        lines.append(f"intra {net.names[a]}->{net.names[b]}")
    for a, b in sorted(net.inter):
        lines.append(f"inter {net.names[a]}=>{net.names[b]}")
    return "\n".join(lines) + "\n"


def parse_network(text: str) -> TwoSliceNetwork:
    """Header ``vars: name:arity, ...`` then ``intra a->b`` and
    ``inter a=>b`` arc lines over the declared variables."""
    names, arities, body = _read_vars(text, "network")
    index = {n: i for i, n in enumerate(names)}
    arcs: dict = {"intra": set(), "inter": set()}
    for lineno, line in body:
        m = re.match(r"(intra)\s+(\w+)->(\w+)\Z", line) or \
            re.match(r"(inter)\s+(\w+)=>(\w+)\Z", line)
        if not m:
            raise ParseError(f"bad network line {line!r}", lineno)
        kind, a, b = m.groups()
        for name in (a, b):
            if name not in index:
                raise ParseError(f"arc names undeclared variable {name!r}", lineno)
        arcs[kind].add((index[a], index[b]))
    try:
        return TwoSliceNetwork(names, arities, arcs["intra"], arcs["inter"])
    except ValueError as exc:
        raise ParseError(str(exc))


# ---------------------------------------------------------------------------
# score kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BIC:
    pass


@dataclass(frozen=True)
class BDe:
    ess: float = 1.0

    def __post_init__(self):
        if self.ess <= 0:
            raise ValueError("equivalent sample size must be positive")


@dataclass(frozen=True)
class MIT:
    alpha: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


ScoreKind = Union[BIC, BDe, MIT]


# a family table of more cells is refused before it is allocated
_MAX_CELLS = 1 << 22
# the climb counts families of at most this many cells from state bitsets:
# past it one `np.bincount` per family is as fast
_POPCOUNT_CELLS = 64


def family_counts(data: DiscreteDataset, i: int, parents: tuple) -> np.ndarray:
    """Counts matrix of shape (q_i, r_i): parent configuration by child state.

    Parent configurations are mixed-radix over the parents in the given
    order, first parent most significant.
    """
    r = data.arities[i]
    q = math.prod(data.arities[j] for _, j in parents)
    if q * r > _MAX_CELLS:
        names = ", ".join(data.names[j] + ("@t" if side == "t" else "@t+1") for side, j in parents)
        raise ValueError(f"family of {data.names[i]} with parents {names} has {q * r} cells, "
                         f"past the limit of {_MAX_CELLS}")
    code, scale = data.column(("t1", i)), r
    for ref in reversed(parents):
        code = code + scale * data.column(ref)
        scale *= data.arities[ref[1]]
    return np.bincount(code, minlength=q * r).reshape(q, r)


def _state_bitsets(data: DiscreteDataset, ref: tuple) -> np.ndarray:
    """(arity, words) uint64 rows: bit n of row s is set when sample n of
    column `ref` is in state s; the bits past the last sample are clear."""
    r = data.arities[ref[1]]
    bits = np.packbits(data.column(ref) == np.arange(r)[:, None], axis=1, bitorder="little")
    out = np.zeros((r, -(-data.n_samples // 64) * 8), dtype=np.uint8)
    out[:, :bits.shape[1]] = bits
    return out.view(np.uint64)


def _add_counts(data: DiscreteDataset, i: int, parents: tuple, refs: list,
                bitsets) -> dict:
    """{(i, family): counts} for each family of child i with the sorted
    `parents` and one more ref of `refs`, each table as `family_counts`
    builds it.  `bitsets(ref)` gives a column's `_state_bitsets`.

    One row mask per (parent configuration, child state) is ANDed with the
    stacked state masks of every ref, and the popcounts are summed.  Each
    table is gathered from those sums by an index shared by the refs of one
    (arity, sorted position).
    """
    r = data.arities[i]
    rows = bitsets(("t1", i))
    for ref in reversed(parents):   # the first parent ends most significant
        rows = (bitsets(ref)[:, None] & rows).reshape(-1, rows.shape[1])
    stack = np.concatenate([bitsets(ref) for ref in refs])
    buf = np.empty_like(stack)
    popcounts = np.empty(stack.shape, dtype=np.uint8)
    hits = np.empty((len(rows), len(stack)), dtype=np.int64)
    for row, out in zip(rows, hits):
        np.bitwise_count(np.bitwise_and(stack, row, out=buf), out=popcounts)
        # a row's sum is at most the sample count, which a uint32 holds
        popcounts.sum(axis=1, dtype=np.uint32, out=out)
    dims = [data.arities[j] for _, j in parents] + [r]
    cells = np.arange(hits.size).reshape(hits.shape)
    gathers: dict = {}   # (arity, position) -> C-order flat index of the table at offset 0
    tables, offset, flat = {}, 0, hits.ravel()
    for ref in refs:
        size, pos = data.arities[ref[1]], bisect.bisect(parents, ref)
        if (size, pos) not in gathers:
            block = cells[:, :size].reshape(dims + [size])
            gathers[size, pos] = np.ascontiguousarray(np.moveaxis(block, -1, pos).reshape(-1, r))
        tables[(i, parents[:pos] + (ref,) + parents[pos:])] = flat[gathers[size, pos] + offset]
        offset += size
    return tables


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y, dtype=float)
    mask = x > 0
    out[mask] = x[mask] * np.log(y[mask])
    return out


def _totals(cells: np.ndarray) -> list:
    """The sum of each table of a stack.  numpy adds one contiguous row of a
    2-d array pairwise, as it adds a whole array, so each total has the
    bits of that table's own `.sum()`."""
    return cells.reshape(len(cells), -1).sum(axis=1).tolist()


def _logliks(stack: np.ndarray) -> list:
    """Maximum-likelihood log-likelihood sum D_ijk ln(D_ijk / D_ij) of each
    (q, r) counts table of a (K, q, r) stack."""
    counts = stack.astype(float)
    row = counts.sum(axis=2, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.divide(counts, row, out=np.ones_like(counts), where=row > 0)
    return _totals(_xlogy(counts, ratio))


def family_loglik(data: DiscreteDataset, i: int, parents: tuple) -> float:
    """Maximum-likelihood family log-likelihood: sum D_ijk ln(D_ijk / D_ij)."""
    return _logliks(family_counts(data, i, parents)[None])[0]


def bic_penalty(q_i: int, r_i: int, n_samples: float) -> float:
    """q_i (r_i - 1) / 2 * ln N."""
    return q_i * (r_i - 1) / 2.0 * math.log(n_samples)


def _bde_scores(stack: np.ndarray, ess: float) -> list:
    """Dirichlet marginal log-likelihood with alpha_ijk = ess / (q_i r_i) of
    each (q, r) counts table of a (K, q, r) stack.

    Counts are whole numbers, so each row sum D_ij is exact in any order.
    """
    _, q, r = stack.shape
    a_ijk = ess / (q * r)
    a_ij = ess / q
    lg_ijk, lg_ij = math.lgamma(a_ijk), math.lgamma(a_ij)
    scores = []
    for rows in stack.astype(float).tolist():
        total = 0.0
        for row in rows:
            total += lg_ij - math.lgamma(a_ij + sum(row))
            for d_ijk in row:
                total += math.lgamma(a_ijk + d_ijk) - lg_ijk
        scores.append(total)
    return scores


def bde_family_score(counts: np.ndarray, ess: float) -> float:
    """Dirichlet marginal log-likelihood of one (q, r) counts table."""
    return _bde_scores(np.asarray(counts)[None], ess)[0]


def _mutual_informations(stack: np.ndarray) -> list:
    """Empirical MI between child and joint parent of each (q, r) counts
    table of a (K, q, r) stack; 0.0 for an all-zero table."""
    counts = stack.astype(float)
    n = counts.sum(axis=(1, 2), keepdims=True)  # whole numbers: exact in any order
    with np.errstate(invalid="ignore", divide="ignore"):
        pj = counts.sum(axis=2, keepdims=True) / n
        pk = counts.sum(axis=1, keepdims=True) / n
        p = counts / n      # NaN in an all-zero table, which no `p > 0` mask keeps
        ratio = np.divide(p, pj * pk, out=np.ones_like(p), where=p > 0)
    return _totals(_xlogy(p, ratio))


def mutual_information(counts: np.ndarray) -> float:
    """Empirical MI between child and joint parent, from a counts matrix."""
    return _mutual_informations(np.asarray(counts)[None])[0]


def _gammainc_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), series or continued
    fraction depending on the regime (Numerical Recipes style)."""
    if x < 0 or a <= 0:
        raise ValueError("bad arguments to P(a, x)")
    if x == 0.0:
        return 0.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        term = 1.0 / a
        total = term
        n = a
        for _ in range(500):
            n += 1.0
            term *= x / n
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        return total * math.exp(-x + a * math.log(x) - lg)
    # Lentz continued fraction for Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return 1.0 - h * math.exp(-x + a * math.log(x) - lg)


@functools.lru_cache(maxsize=1024)
def chi2_quantile(alpha: float, df: int) -> float:
    """Chi-square quantile: Wilson-Hilferty start, Newton-refined.

    The cube-root normal approximation alone drifts past 1e-3 relative
    error below roughly ten degrees of freedom; two or three Newton steps
    on the CDF keep the error under 1e-3 for all df <= 100.
    """
    if df < 1:
        raise ValueError("degrees of freedom must be positive")
    z = NormalDist().inv_cdf(alpha)
    c = 2.0 / (9.0 * df)
    x = df * (1.0 - c + z * math.sqrt(c)) ** 3
    a = df / 2.0
    for _ in range(3):
        x = max(x, 1e-12)
        f = _gammainc_p(a, x / 2.0) - alpha
        pdf = math.exp((a - 1.0) * math.log(x / 2.0) - x / 2.0
                       - math.lgamma(a)) / 2.0
        if pdf <= 0.0:
            break
        x -= f / pdf
    return x


def _mit_df_schedule(data: DiscreteDataset, i: int, parents: tuple) -> list:
    """Degrees of freedom per parent, parents taken in arity-descending order.

    The j-th parent contributes (r_i - 1)(r_j - 1) * prod of the arities of
    the parents ordered before it.
    """
    r_i = data.arities[i]
    rs = sorted((data.arities[ref[1]] for ref in parents), reverse=True)
    dfs, acc = [], 1
    for j, r_parent in enumerate(rs):
        dfs.append((r_i - 1) * (r_parent - 1) * acc)
        acc *= r_parent
    return dfs


def _mit_scores(data: DiscreteDataset, i: int, families: list, stack: np.ndarray,
                alpha: float) -> list:
    """2N I(X_i, PA_i) minus the summed chi-square quantiles of each family
    of child i with the parents in `families`, from their (K, q, r) stack of
    `family_counts` tables; 0 if no parents.  A term of 0 degrees of freedom
    (an arity-1 child or parent) adds none."""
    scores = []
    for parents, mi in zip(families, _mutual_informations(stack)):
        score = 2.0 * data.n_samples * mi if parents else 0.0
        for df in _mit_df_schedule(data, i, parents):
            if df:
                score -= chi2_quantile(alpha, df)
        scores.append(score)
    return scores


def mit_family_score(data: DiscreteDataset, i: int, parents: tuple, alpha: float) -> float:
    """The MIT score of one family; see `_mit_scores`."""
    return _mit_scores(data, i, [parents], family_counts(data, i, parents)[None], alpha)[0]


def _family_scores(data: DiscreteDataset, i: int, families: list, stack: np.ndarray,
                   kind: ScoreKind) -> list:
    """The scores of child i's families with the sorted parent refs in
    `families`, from their `family_counts` tables of one shape stacked along
    a leading axis."""
    if isinstance(kind, BIC):
        _, q, r = stack.shape
        penalty = bic_penalty(q, r, data.n_samples)
        return [loglik - penalty for loglik in _logliks(stack)]
    if isinstance(kind, BDe):
        return _bde_scores(stack, kind.ess)
    return _mit_scores(data, i, families, stack, kind.alpha)


def family_score(data: DiscreteDataset, i: int, parents: tuple, kind: ScoreKind) -> float:
    return _family_scores(data, i, [parents], family_counts(data, i, parents)[None], kind)[0]


def _score_tables(data: DiscreteDataset, i: int, tables: dict, kind: ScoreKind) -> dict:
    """{(i, family): score} of child i's {(i, family): counts} `tables`,
    those of one shape scored as one stack."""
    stacks: dict = {}   # table shape -> [(i, family)]
    for key, table in tables.items():
        stacks.setdefault(table.shape, []).append(key)
    scores = {}
    for keys in stacks.values():
        stack = np.stack([tables[key] for key in keys])
        scores.update(zip(keys, _family_scores(data, i, [f for _, f in keys], stack, kind)))
    return scores


def score_network(net: TwoSliceNetwork, data: DiscreteDataset,
                  kind: ScoreKind) -> float:
    """Sum of family scores; decomposable over the slice t+1 families."""
    return ordered_sum(family_score(data, i, net.parents(i), kind)
                       for i in range(data.n_vars))


# ---------------------------------------------------------------------------
# greedy hill climbing
# ---------------------------------------------------------------------------

_EPS = 1e-9


def _arc_moves(parents: list, arc: str, i: int, j: int, max_parents: int, fam) -> list:
    """(delta, move, changes) of each move of the `arc` ("inter" or "intra")
    arc i -> j from the structure whose families have the sorted parent
    refs `parents`: an add, or a delete and (intra) a reversal.

    `changes` holds the one or two pairs (family, new parents) a move
    changes, in ascending family order; only they meet the cap, and `delta`
    adds fam(new) - fam(old) over them to 0.0.  Acyclicity is not tested
    here; see `_closes_cycle`.
    """
    ref = ("t", i) if arc == "inter" else ("t1", i)
    if ref not in parents[j]:
        moves = [(("add-" + arc, i, j), [(j, tuple(sorted(parents[j] + (ref,))))])]
    else:
        drop = (j, tuple(r for r in parents[j] if r != ref))
        moves = [(("del-" + arc, i, j), [drop])]
        if arc == "intra":
            gain = (i, tuple(sorted(parents[i] + (("t1", j),))))
            moves.append((("rev-intra", i, j), sorted([drop, gain])))
    records = []
    for move, changes in moves:
        if all(len(p) <= max_parents for _, p in changes):
            delta = 0.0
            for f, p in changes:
                delta += fam(f, p) - fam(f, parents[f])
            records.append((delta, move, changes))
    return records


def _closes_cycle(children: list, move: tuple) -> bool:
    """Whether an intra add or reversal closes a path of the intra arcs
    `children` (for a reversal, a path not using the reversed arc)."""
    name, i, j = move
    if name == "add-intra":
        starts, tail = [j], i
    elif name == "rev-intra":
        starts, tail = [c for c in children[i] if c != j], j
    else:
        return False
    return _meets_grey(children, starts, [int(u == tail) for u in range(len(children))])


def hill_climb(data: DiscreteDataset, kind: ScoreKind, max_parents: int = 3,
               on_step=None) -> TwoSliceNetwork:
    """Greedy structure search from the empty network.

    Applies the best strictly improving single-arc move (intra add, delete,
    reverse; inter add, delete) until a local optimum; ties break on the
    lexicographically smallest move.  Scores decompose over families, so a
    move is scored by its delta over the families it changes, read from
    one cache keyed by (family, sorted parent refs); see `_arc_moves`.
    When a child's parents change, every small family that adds one parent
    to them is counted by `_add_counts` and scored into that cache at once,
    one stack per table shape; other families are scored one by one.
    A step rebuilds only the records of the moves into a changed family and
    the reversals whose gained family changed.
    """
    if max_parents < 1:
        raise ValueError("max_parents must be at least 1")
    n, arities = data.n_vars, data.arities
    every_ref = [(side, a) for side in ("t", "t1") for a in range(n)]
    cache: dict = {}
    bitsets: dict = {}

    def bits(ref):
        if ref not in bitsets:
            bitsets[ref] = _state_bitsets(data, ref)
        return bitsets[ref]

    def fam(i, parents):
        key = (i, parents)
        if key not in cache:
            cache[key] = family_score(data, i, parents, kind)
        return cache[key]

    def score_adds(i):
        """Score each unscored small family that adds one parent to i's,
        one stack of popcount tables per table shape."""
        if len(parents[i]) >= max_parents:
            return
        cells = math.prod(arities[a] for _, a in parents[i]) * arities[i]
        adds = [ref for ref in every_ref if ref != ("t1", i) and ref not in parents[i]
                and cells * arities[ref[1]] <= _POPCOUNT_CELLS
                and (i, tuple(sorted(parents[i] + (ref,)))) not in cache]
        if adds:
            tables = _add_counts(data, i, parents[i], adds, bits)
            cache.update(_score_tables(data, i, tables, kind))

    def into(j):
        """The (arc, tail, head) slots of the arcs into j."""
        return [(arc, i, j) for i in range(n) for arc in ("inter", "intra")
                if arc == "inter" or i != j]

    parents: list = [()] * n
    score = ordered_sum(fam(i, parents[i]) for i in range(n))
    records = {}
    changed = range(n)
    stale = [slot for j in changed for slot in into(j)]
    step = 0
    while True:
        for f in changed:
            score_adds(f)
        for slot in stale:
            records[slot] = _arc_moves(parents, *slot, max_parents, fam)
        ranked = sorted((rec for recs in records.values() for rec in recs if rec[0] > _EPS),
                        key=lambda rec: (-rec[0], rec[1]))
        children = [[b for b in range(n) if ("t1", a) in parents[b]] for a in range(n)]
        best = next((rec for rec in ranked if not _closes_cycle(children, rec[1])), None)
        if best is None:
            break
        delta, move, changes = best
        for f, p in changes:
            parents[f] = p
        score += delta
        step += 1
        if on_step is not None:
            on_step(step, move, score)
        changed = [f for f, _ in changes]
        stale = [slot for f in changed for slot in into(f)]
        stale += [("intra", f, j) for f in changed for j in range(n)
                  if ("t1", f) in parents[j] and j not in changed]
    arcs = {side: {(a, b) for b, refs in enumerate(parents) for s, a in refs if s == side}
            for side in ("t", "t1")}
    return TwoSliceNetwork(data.names, data.arities, arcs["t1"], arcs["t"])
