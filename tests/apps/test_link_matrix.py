"""PageRank's link matrix: the vectorized G(n, m) draw is bit-identical.

``make_link_matrix`` replays ``networkx.gnm_random_graph(n, m, seed,
directed=True)`` with NumPy.  The reference below transcribes that
function's loop in plain Python — ``random.Random(seed)`` choosing ``u``
then ``v``, redrawing self-loops and repeated edges — so any drift in
the replay of CPython's draws shows up as a different matrix.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.apps.pagerank import make_link_matrix


def _reference_link_matrix(n: int, seed: int, avg_degree: int = 16) -> np.ndarray:
    m = n * avg_degree
    adj = np.zeros((n, n), dtype=np.float64)  # adj[u, v] = edge u→v
    if n > 1 and m >= n * (n - 1):
        adj[:] = 1.0
        np.fill_diagonal(adj, 0.0)
    elif n > 1:
        rng = random.Random(seed)
        nodes = list(range(n))
        edges = set()
        while len(edges) < m:
            u = rng.choice(nodes)
            v = rng.choice(nodes)
            if u == v or (u, v) in edges:
                continue
            edges.add((u, v))
            adj[u, v] = 1.0
    adj = adj.T
    out_degree = adj.sum(axis=0)
    dangling = out_degree == 0
    adj[:, dangling] = 1.0
    out_degree[dangling] = n
    return adj / out_degree


@pytest.mark.parametrize(
    "n, seed, avg_degree",
    [
        (64, 0, 16),
        (100, 3, 4),
        (37, 11, 2),
        (257, 7, 16),  # n just past a power of two: most draws rejected
        (256, 5, 8),  # a power of two: half the draws rejected
        (17, 2, 0),  # no edges: every node dangles
        (5, 1, 16),  # m >= n(n-1): the complete graph
        (1, 9, 16),
    ],
)
def test_matches_plain_python_gnm_loop(n, seed, avg_degree):
    got = make_link_matrix(n, seed, avg_degree)
    want = _reference_link_matrix(n, seed, avg_degree)
    assert got.shape == (n, n)
    assert got.tobytes() == want.tobytes()


def test_dense_graph_draws_past_the_first_batch():
    # m close to n(n-1): most pairs repeat, so the draw must be extended.
    got = make_link_matrix(12, 4, avg_degree=10)
    assert got.tobytes() == _reference_link_matrix(12, 4, 10).tobytes()


def test_pagerank_default_matrix_is_pinned():
    link = make_link_matrix(2048, 7)
    assert link.flags.f_contiguous
    assert hashlib.sha256(link.tobytes()).hexdigest() == (
        "c6b9e47229c296d5a8e42ee9b0bb4f921942bc8f383712d42d50ba9faf2a4d5a"
    )
