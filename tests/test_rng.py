import numpy as np

from simcse_forge.rng import Rng


def test_same_seed_same_stream():
    a = Rng(1234)
    b = Rng(1234)
    assert np.array_equal(a.uniform((1000,)), b.uniform((1000,)))
    assert np.array_equal(a.normal((257,)), b.normal((257,)))


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).uniform((100,)), Rng(2).uniform((100,)))


def test_uniform_range_and_mean():
    u = Rng(7).uniform((200_000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_normal_moments():
    z = Rng(11).normal((200_000,), mean=2.0, std=3.0)
    assert abs(z.mean() - 2.0) < 0.03
    assert abs(z.std() - 3.0) < 0.03


def test_bernoulli_rate():
    m = Rng(3).bernoulli(0.7, (100_000,))
    assert set(np.unique(m)) <= {0.0, 1.0}
    assert abs(m.mean() - 0.7) < 0.01


def test_bernoulli_per_unit_probs():
    keep = np.array([0.0, 1.0])
    draws = np.array([Rng(s).bernoulli(keep, (2,)) for s in range(50)])
    assert draws[:, 0].sum() == 0.0
    assert draws[:, 1].sum() == 50.0


def test_shuffle_deterministic_permutation():
    items = list(range(30))
    a, b = list(items), list(items)
    Rng(99).shuffle(a)
    Rng(99).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # 30 elements: identity permutation is absurdly unlikely


def test_stream_is_sequential():
    r = Rng(5)
    first = r.uniform((10,))
    second = r.uniform((10,))
    assert not np.array_equal(first, second)


def test_bernoulli_rows_is_the_full_draw_at_those_rows():
    # keep broadcasts against the picked rows: a scalar, a column vector, or
    # the full keep array's picked rows
    shape, rows = (9, 5), np.array([0, 3, 4, 8])
    column, full_keep = np.linspace(0.1, 0.9, 5), Rng(4).uniform(shape)
    for keep, picked_keep in ((0.6, 0.6), (column, column), (full_keep, full_keep[rows])):
        whole, part = Rng(21), Rng(21)
        want = whole.bernoulli(keep, shape, dtype=bool)[rows]
        got = part.bernoulli(picked_keep, (len(rows), 5), dtype=bool, rows=rows)
        assert got.dtype == np.bool_ and got.tobytes() == want.tobytes()
        assert part._state == whole._state
        assert np.array_equal(part.uniform((3,)), whole.uniform((3,)))
