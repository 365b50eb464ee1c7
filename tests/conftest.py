"""Shared fixtures.

Thread caps are set before numpy is imported anywhere in the test run so
that timing- and determinism-sensitive tests see single-threaded BLAS.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from signa.diffcore import RngStream, set_precision
from signa.graphdata import Graph

# filled by test_acceptance; echoed after the run, outside pytest's capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _reset_numeric_state():
    """Tests that flip precision must not leak state."""
    set_precision("f64")
    yield
    set_precision("f64")


@pytest.fixture
def two_node_graph() -> Graph:
    """Single undirected edge 0-1, scalar features [2, 4]."""
    return Graph(np.array([[0, 1]]), np.array([[2.0], [4.0]]))


@pytest.fixture
def path4_graph() -> Graph:
    """Path 0-1-2-3 with labels [0, 0, 1, 1]."""
    edges = np.array([[0, 1], [1, 2], [2, 3]])
    feats = np.arange(8, dtype=np.float64).reshape(4, 2)
    return Graph(edges, feats, labels=np.array([0, 0, 1, 1]))


def edge_list(g: Graph) -> np.ndarray:
    """Each undirected edge of g once, as a row (u, v) with u < v."""
    upper = g.csr_sources < g.csr_targets
    return np.stack([g.csr_sources[upper], g.csr_targets[upper]], axis=1)


def split_generator(seed: int) -> np.random.Generator:
    """The numpy generator behind RngStream(seed, "split"), for sbm_generate.

    The SBM fixtures draw from it: its `uniform` and `normal` give the bits
    the stream's own draws would.
    """
    return RngStream(seed, "split")._gen


def assert_drew(stream: RngStream, draws=None) -> None:
    """Assert that `stream` has made exactly the draws that `draws(ref)`
    makes on a fresh stream `ref` of the same key, or none if `draws` is
    None: the two generators must stand in the same state."""
    ref = RngStream(stream.seed, stream.purpose, stream._path)
    if draws is not None:
        draws(ref)
    assert stream._gen.bit_generator.state == ref._gen.bit_generator.state


class CountsTranspose(np.ndarray):
    """An array that counts, in a class attribute, how often `.T` is taken
    of it or of its views; a spy for which matrix products a backward forms."""

    transposes = 0

    @property
    def T(self):
        CountsTranspose.transposes += 1
        return super().T


def random_labeled_graph(rng: np.random.Generator, max_nodes: int = 50) -> Graph:
    """Random undirected graph with at least one edge and random labels."""
    while True:
        n = int(rng.integers(3, max_nodes + 1))
        density = float(rng.uniform(0.05, 0.5))
        iu, iv = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < density
        if not keep.any():
            continue
        edges = np.stack([iu[keep], iv[keep]], axis=1)
        feats = rng.standard_normal((n, 3))
        labels = rng.integers(0, int(rng.integers(2, 5)), size=n)
        return Graph(edges, feats, labels=labels)
