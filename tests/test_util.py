"""`util.per_distinct` and the functions the learners memoise with it."""

import itertools
import math

import pytest

from relboost import boost, hybrid
from relboost.boost import Hard, Soft
from relboost.util import per_distinct


def _bits(value):
    """A float, or a list or tuple of floats, as its exact bits."""
    if isinstance(value, (list, tuple)):
        return [x.hex() for x in value]
    return value.hex()


class TestPerDistinct:
    KEYS = [(1, 0.25), (0, -1.5), (1, 0.25), (0, 3.0), (0, -1.5), (1, 0.25), (1, -0.0)]

    def test_equals_the_per_row_calls_bit_for_bit(self):
        def fn(label, psi):
            return boost.per_example_objective(label, psi, Soft(2.0, -8.0))

        got = per_distinct(fn, self.KEYS)
        assert [_bits(x) for x in got] == [_bits(fn(*key)) for key in self.KEYS]

    def test_tuple_valued_scores(self):
        keys = [(2, (0.5, -1.0, 3.0)), (0, (0.0, 0.0, 0.0)), (2, (0.5, -1.0, 3.0)),
                (1, (0.0, 0.0, 0.0)), (0, (0.0, 0.0, 0.0))]
        for fn in (hybrid.multinomial_ll, hybrid._multinomial_residual):
            got = per_distinct(fn, iter(keys))     # any iterable of keys
            assert [_bits(x) for x in got] == [_bits(fn(*key)) for key in keys]

    def test_empty_input(self):
        calls = []
        assert per_distinct(lambda *key: calls.append(key), []) == []
        assert per_distinct(lambda *key: calls.append(key), iter(())) == []
        assert calls == []

    def test_calls_fn_once_per_distinct_key_in_first_seen_order(self):
        calls = []

        def fn(label, psi):
            calls.append((label, psi))
            return None     # a None result is memoised like any other

        assert per_distinct(fn, self.KEYS + self.KEYS) == [None] * (2 * len(self.KEYS))
        assert calls == list(dict.fromkeys(self.KEYS))

    def test_each_call_has_its_own_memo(self):
        calls = []
        for _ in range(2):
            per_distinct(lambda *key: calls.append(key), [(0, 1.0), (0, 1.0)])
        assert calls == [(0, 1.0), (0, 1.0)]


# 0.0 and -0.0 are one dict key, so every memoised function must give the
# same bits at both; the other values put the zero beside a larger score
SIGNED_ZEROS = (0.0, -0.0)
OTHERS = (0.0, -0.0, 1.5, -2.0, 41.0, -41.0)
KINDS = (Hard(), Soft(0.0, 0.0), Soft(-0.0, -0.0), Soft(2.0, -8.0), Soft(-3.0, 5.0))


def _unsigned(row):
    return tuple(0.0 if x == 0.0 else x for x in row)


@pytest.mark.parametrize("kind", KINDS, ids=repr)
@pytest.mark.parametrize("label", (0, 1))
def test_rfgb_terms_have_the_same_bits_at_both_zeros(kind, label):
    def gradient(psi):
        return boost._gradient(kind, label, boost.sigmoid_prob(psi))

    assert len({_bits(gradient(psi)) for psi in SIGNED_ZEROS}) == 1
    assert len({_bits(boost.per_example_objective(label, psi, kind))
                for psi in SIGNED_ZEROS}) == 1


@pytest.mark.parametrize("y", (0, 1, 2, 7, 10 ** 6))
def test_poisson_terms_have_the_same_bits_at_both_zeros(y):
    for fn in (hybrid.poisson_gradient, hybrid.poisson_ll):
        assert len({_bits(fn(y, psi)) for psi in SIGNED_ZEROS}) == 1, fn


@pytest.mark.parametrize("n_classes", (2, 3))
def test_multinomial_terms_have_the_same_bits_at_both_zeros(n_classes):
    rows = [row for row in itertools.product(OTHERS, repeat=n_classes) if 0.0 in row]
    assert any(math.copysign(1.0, x) < 0 for row in rows for x in row)
    for row in rows:
        for y in range(n_classes):
            for fn in (hybrid.multinomial_ll, hybrid._multinomial_residual):
                assert _bits(fn(y, row)) == _bits(fn(y, _unsigned(row))), (fn, y, row)
