"""transport_flow against an exact integer max-flow, the min-cut identity,
and the unpruned Dinic walk it must match bit for bit."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

from oracles import transport_flow_unpruned
from qcompact.maxflow import transport_flow
from qcompact.tolerances import FLOW_TOL


def dense_flow(p_mass, q_mass, allowed):
    """``transport_flow`` with its pairs laid out as the flow matrix."""
    (i, j, f), value, reach_p = transport_flow(p_mass, q_mass, allowed)
    flow = np.zeros(np.shape(allowed))
    flow[i, j] = f
    return flow, value, reach_p


@st.composite
def networks(draw, mass):
    """(p_mass, q_mass, allowed) with masses drawn by ``mass``."""
    p, q = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    allowed = draw(st.lists(st.booleans(), min_size=p * q, max_size=p * q))
    p_mass = draw(st.lists(mass, min_size=p, max_size=p))
    q_mass = draw(st.lists(mass, min_size=q, max_size=q))
    return p_mass, q_mass, np.array(allowed, dtype=bool).reshape(p, q)


def exact_integer_flow(p_cap, q_cap, allowed):
    """scipy's integer max-flow on source, P-atoms, Q-atoms, sink."""
    p, q = allowed.shape
    n = p + q + 2
    cap = np.zeros((n, n), dtype=np.int32)
    cap[0, 1 : p + 1] = p_cap
    cap[p + 1 : n - 1, n - 1] = q_cap
    cap[1 : p + 1, p + 1 : n - 1] = np.where(allowed, sum(p_cap) + 1, 0)
    return maximum_flow(csr_array(cap), 0, n - 1).flow_value


@given(st.integers(1, 64).flatmap(
    lambda D: st.tuples(st.just(D), networks(st.integers(0, D)))
))
@settings(max_examples=300)
def test_value_matches_exact_integer_flow(case):
    """Masses that are multiples of 1/D: scaling by D gives an exact oracle."""
    D, (p_cap, q_cap, allowed) = case
    _, value, _ = transport_flow(np.array(p_cap) / D, np.array(q_cap) / D, allowed)
    assert abs(value - exact_integer_flow(p_cap, q_cap, allowed) / D) <= FLOW_TOL


@given(networks(st.floats(0.0, 1.0)))
@settings(max_examples=300)
def test_float_flow_is_feasible_and_meets_its_cut(net):
    p_mass, q_mass, allowed = net
    p_mass, q_mass = np.array(p_mass, dtype=float), np.array(q_mass, dtype=float)
    flow, value, reach_p = dense_flow(p_mass, q_mass, allowed)
    assert flow.shape == allowed.shape
    assert (flow >= 0.0).all()
    assert (flow[~allowed] == 0.0).all()
    assert (flow.sum(axis=1) <= p_mass + FLOW_TOL).all()
    assert (flow.sum(axis=0) <= q_mass + FLOW_TOL).all()
    cut = p_mass[~reach_p].sum() + q_mass[allowed[reach_p].any(axis=0)].sum()
    assert abs(value - cut) <= FLOW_TOL
    assert abs(value - flow.sum()) <= FLOW_TOL


def test_flow_state_grows_with_the_pairs_used():
    """On a 400 x 400 banded network the solver keeps only the pairs that
    carry flow, and returns no |P| x |Q| matrix: it allocates less than half
    of what one |P| x |Q| table of references would take."""
    n = 400
    rng = np.random.default_rng(0)
    p_mass, q_mass = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    i = np.arange(n)
    allowed = np.abs(i[:, None] - i[None, :]) <= 3
    tracemalloc.start()
    try:
        _, value, _ = transport_flow(p_mass, q_mass, allowed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value > 0.5
    assert peak < n * n * 8 / 2


def _masses(rng, n, kind, zero_share):
    """``n`` masses of one kind, a share of them set to zero."""
    if kind == "dirichlet":
        mass = rng.dirichlet(np.ones(n)) if n else np.zeros(0)
    elif kind == "eighths":
        mass = rng.integers(0, 9, n) / 8
    else:
        mass = rng.random(n)
    mass[rng.random(n) < zero_share] = 0.0
    return mass


def assert_same_as_unpruned(p_mass, q_mass, allowed):
    flow, value, reach_p = dense_flow(p_mass, q_mass, allowed)
    flow_0, value_0, reach_0 = transport_flow_unpruned(p_mass, q_mass, allowed)
    assert np.array_equal(flow, flow_0)
    assert value == value_0
    assert reach_p.dtype == reach_0.dtype and np.array_equal(reach_p, reach_0)


@given(
    st.integers(0, 60), st.integers(0, 60),
    st.sampled_from(["dirichlet", "eighths", "uniform"]),
    st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0]),
    st.sampled_from([0.0, 0.0, 0.3]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_matches_unpruned_walk_bit_for_bit(p, q, kind, density, zero_share, seed):
    """Pruning each phase to its live atoms, and the greedy first phase,
    leave every push as the walk over all labelled atoms makes it; density
    1.0 allows every pair, 0 of either side leaves that side empty."""
    rng = np.random.default_rng(seed)
    p_mass, q_mass = _masses(rng, p, kind, zero_share), _masses(rng, q, kind, zero_share)
    assert_same_as_unpruned(p_mass, q_mass, rng.random((p, q)) < density)


@pytest.mark.parametrize("width, shift", [(0, 0), (1, 0), (2, 3), (3, -2)])
def test_banded_networks_match_unpruned_walk(width, shift):
    """Bands give long augmenting paths, many phases and deep level graphs."""
    n = 300
    rng = np.random.default_rng(width)
    i = np.arange(n)
    allowed = np.abs(i[:, None] - i[None, :] - shift) <= width
    assert_same_as_unpruned(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)), allowed)
    assert_same_as_unpruned(rng.integers(0, 5, n) / 200, rng.integers(0, 5, n) / 200, allowed)


def test_dense_network_holds_no_list_of_its_pairs():
    """On a 400 x 400 network with half its pairs allowed, as early in a
    breakpoint sweep, the solver allocates under 1 MiB, with no matrix to
    return: it lists the allowed pairs only of the atoms its walk reaches,
    where listing all 80k as Python ints takes about 1.7 MiB."""
    n = 400
    rng = np.random.default_rng(1)
    p_mass, q_mass = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    x, y = rng.random((n, 2)), rng.random((n, 2))
    dist = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
    allowed = dist <= np.median(dist)
    del x, y, dist
    tracemalloc.start()
    try:
        _, value, _ = transport_flow(p_mass, q_mass, allowed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 79_000 <= np.count_nonzero(allowed) <= 81_000
    assert value > 0.99
    assert peak < 2**20
