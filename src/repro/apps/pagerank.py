"""PageRank via the power method (paper §7.2.1, Table 3: 32K×32K, Graph).

Both implementations iterate r ← d·Mᵀr + (1−d)/n on the column-stochastic
link matrix.  The CPU baseline walks the dense adjacency edge-at-a-time
(GraphBLAST-style); the GPTPU implementation issues "one FullyConnected
instruction for each adjacency-matrix multiplication with a single
vector", keeping the quantized adjacency tiles resident on-chip across
iterations (they fit the 8 MB memory at this scale).

Because int8 codes cannot represent probability-scale values directly,
the runtime renormalizes the rank vector to unit max before each device
matvec and folds the factor back on the host — standard dynamic scaling
(§6.2.2) tracked exactly.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

import numpy as np

from repro.apps.base import Application, CPUResult, GPTPUResult
from repro.host.cpu import CPUCoreModel
from repro.ops.gemm import tpu_matvec
from repro.runtime.api import OpenCtpu


def _gnm_edges(n: int, m: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The edges of ``networkx.gnm_random_graph(n, m, seed, directed=True)``.

    Replays that function's draw loop without it: ``random.Random(seed)``
    picks ``u`` then ``v`` with ``choice``, whose ``_randbelow(n)`` keeps
    the top ``n.bit_length()`` bits of each 32-bit Mersenne Twister word
    and rejects values ``>= n``; a self-loop or repeated edge is
    redrawn.  A NumPy ``MT19937`` seeded from the same state yields the
    same words, so the first *m* distinct non-loop pairs are the graph.
    Requires ``1 <= m < n·(n-1)``.
    """
    state = random.Random(seed).getstate()[1]
    words = np.random.MT19937()
    words.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(state[:624], dtype=np.uint32), "pos": state[624]},
    }
    shift = np.uint64(32 - n.bit_length())
    # Two accepted draws per edge, acceptance n / 2**bit_length, plus a
    # little for rejected loops and repeats; extend if still short.
    batch = int(2.1 * m * (1 << n.bit_length()) / n) + 64
    drawn = np.empty(0, dtype=np.int64)
    while True:
        raw = words.random_raw(batch) >> shift
        drawn = np.concatenate([drawn, raw[raw < n].astype(np.int64)])
        u, v = drawn[0 : drawn.size - 1 : 2], drawn[1::2]
        kept = np.flatnonzero(u != v)
        _, first = np.unique(u[kept] * n + v[kept], return_index=True)
        if first.size >= m:
            chosen = kept[np.sort(first)[:m]]
            return u[chosen], v[chosen]


def make_link_matrix(n: int, seed: int, avg_degree: int = 16) -> np.ndarray:
    """Column-stochastic link matrix of a random directed G(n, m) graph.

    Bit-identical to building ``nx.gnm_random_graph(n, n·avg_degree,
    seed, directed=True)`` and densifying it, without networkx's
    per-edge Python loop.
    """
    m = n * avg_degree
    # adj[i, j] = edge j→i, column-major: each node's out-links are one
    # contiguous column, normalized in place.
    adj = np.zeros((n, n), dtype=np.float64, order="F")
    if m >= n * (n - 1):
        adj[:] = 1.0  # the complete graph
        np.fill_diagonal(adj, 0.0)
    elif m > 0:
        u, v = _gnm_edges(n, m, seed)
        adj[v, u] = 1.0
    out_degree = adj.sum(axis=0)
    dangling = out_degree == 0
    adj[:, dangling] = 1.0  # dangling nodes link everywhere
    out_degree[dangling] = n
    adj /= out_degree
    return adj


class PageRankApp(Application):
    """Power-method PageRank."""

    name = "pagerank"
    category = "Graph"
    paper_input = "1 x 32K x 32K (4 GB)"

    damping = 0.85

    def default_params(self) -> Dict[str, int]:
        return {"n": 2048, "iterations": 15}

    def generate(self, seed: int = 0, **params: int) -> Dict[str, np.ndarray]:
        n = params.get("n", 2048)
        link = make_link_matrix(n, seed)
        # Read-only: the graph is fixed input, and a read-only model
        # operand stays resident in the Tensorizer's memo by identity.
        link.flags.writeable = False
        return {
            "link": link,
            "iterations": np.array(params.get("iterations", 15)),
        }

    def _power_iteration(self, link: np.ndarray, rank: np.ndarray) -> np.ndarray:
        n = link.shape[0]
        return self.damping * (link @ rank) + (1.0 - self.damping) / n

    def run_cpu(self, inputs: Dict[str, np.ndarray], cpu: CPUCoreModel) -> CPUResult:
        link = inputs["link"]
        iterations = int(inputs["iterations"])
        n = link.shape[0]
        rank = np.full(n, 1.0 / n)
        for _ in range(iterations):
            rank = self._power_iteration(link, rank)
        # The dense baseline touches every matrix entry per iteration.
        seconds = iterations * cpu.graph_traversal_seconds(n * n)
        return CPUResult(value=rank, seconds=seconds)

    def run_gptpu(self, inputs: Dict[str, np.ndarray], ctx: OpenCtpu) -> GPTPUResult:
        link = inputs["link"]
        iterations = int(inputs["iterations"])
        n = link.shape[0]
        rank = np.full(n, 1.0 / n)
        reports = []
        # tpu_matvec computes vec @ mat = (mat.T @ vec).T.  The link
        # matrix is column-major, so link.T is a row-major view; over a
        # read-only link, every iteration hands the Tensorizer the same
        # read-only operand, which it neither copies nor compares.
        link_t = link.T
        for _ in range(iterations):
            scale = float(rank.max())
            product = tpu_matvec(ctx, rank / scale, link_t, model_name="pagerank-link")
            rank = self.damping * scale * product + (1.0 - self.damping) / n
            reports.append(ctx.sync())  # iterations serialize
        return self._collect(ctx, rank, reports)
