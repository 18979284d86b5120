import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import equimetric
from equimetric.spath import apsp
from tests.oracles import dijkstra, floyd_warshall, spath_py


def random_weights(rng, n, density=0.5):
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w[i, j] = w[j, i] = round(rng.uniform(0.1, 5.0), 3)
    return w


# Values whose sums round, so a different order of additions would show in
# the bytes; 0.0 gives zero-weight edges and ties.
_TIE_WEIGHTS = np.array([0.0, 0.1, 0.2, 0.3, 0.7, 1.0 / 3.0, 2.0 / 3.0, 1.0, 1e-9])


@st.composite
def weight_matrices(draw, sizes=st.integers(min_value=0, max_value=40)):
    """Dense tables with n drawn from sizes (0 to 40), from empty to complete,
    split into up to three components with no edge between them, symmetric
    or not."""
    n = draw(sizes)
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.4, 1.0]))
    parts = draw(st.integers(min_value=1, max_value=3))
    symmetric = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    part = rng.integers(0, parts, n)
    vals = np.where(rng.random((n, n)) < 0.5,
                    rng.choice(_TIE_WEIGHTS, (n, n)), rng.uniform(0.0, 5.0, (n, n)))
    keep = (rng.random((n, n)) < density) & (part[:, None] == part[None, :])
    w = np.where(keep, vals, np.inf)
    if symmetric:
        w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    return w


@pytest.mark.parametrize("seed", range(20))
def test_apsp_matches_floyd_warshall(seed):
    rng = np.random.default_rng(seed)
    w = random_weights(rng, 12)
    assert np.array_equal(apsp(w), floyd_warshall(w), equal_nan=True) or \
        np.allclose(apsp(w), floyd_warshall(w), atol=1e-12, equal_nan=True)


@pytest.mark.parametrize("seed", range(20))
def test_python_and_active_backend_agree_bitwise(seed):
    # The scalar per-source Dijkstra in tests/oracles.py against the numpy
    # kernel, on fixed seeds.
    rng = np.random.default_rng(1000 + seed)
    w = random_weights(rng, 15)
    assert apsp(w).tobytes() == spath_py(w).tobytes()


@settings(max_examples=150, deadline=None)
@given(w=weight_matrices())
def test_apsp_matches_scalar_dijkstra_bitwise(w):
    ours = apsp(w)
    assert ours.shape == w.shape
    assert ours.tobytes() == spath_py(w).tobytes()


@st.composite
def weight_stacks(draw):
    """(..., n, n) stacks of one to six tables of one size n, each drawn as
    by weight_matrices."""
    n = draw(st.integers(min_value=0, max_value=12))
    batch = draw(st.sampled_from([(1,), (2,), (5,), (2, 3)]))
    tables = [draw(weight_matrices(st.just(n))) for _ in range(int(np.prod(batch)))]
    return np.array(tables, dtype=np.float64).reshape(batch + (n, n))


@settings(max_examples=150, deadline=None)
@given(stack=weight_stacks())
def test_stacked_apsp_matches_each_table_bitwise(stack):
    """Each table of a stacked call gets the bytes of the call on that table
    alone and of the scalar Dijkstra from each of its sources: inf blocks,
    zero weights and tied distances included."""
    got = apsp(stack)
    assert got.shape == stack.shape
    for idx in np.ndindex(stack.shape[:-2]):
        assert got[idx].tobytes() == apsp(stack[idx]).tobytes()
        for s in range(stack.shape[-1]):
            assert got[idx][s].tobytes() == dijkstra(stack[idx], s).tobytes()


def test_stacked_apsp_keeps_tables_apart():
    """A table whose vertices share no edge stays inf off the diagonal next
    to a connected one: no row relaxes through another table's weights."""
    stack = np.full((2, 3, 3), np.inf)
    stack[:, [0, 1, 2], [0, 1, 2]] = 0.0
    stack[0][stack[0] == np.inf] = 1.0
    got = apsp(stack)
    assert (got[0] == 1.0 - np.eye(3)).all()
    assert np.isinf(got[1][~np.eye(3, dtype=bool)]).all()


def test_dijkstra_single_source():
    w = np.array([
        [0.0, 1.0, np.inf],
        [1.0, 0.0, 2.0],
        [np.inf, 2.0, 0.0],
    ])
    assert list(apsp(w)[0]) == [0.0, 1.0, 3.0]


def test_disconnected_stays_infinite():
    w = np.full((4, 4), np.inf)
    np.fill_diagonal(w, 0.0)
    w[0, 1] = w[1, 0] = 1.0
    d = apsp(w)
    assert np.isinf(d[0, 2]) and d[0, 1] == 1.0


def test_backend_identifies_itself():
    assert equimetric.BACKEND == "python"
