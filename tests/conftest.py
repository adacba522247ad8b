import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def make_cloud(rng):
    """Random point cloud with a guaranteed minimum pairwise separation."""

    def _make(n, m, scale=1.0, min_sep=1e-2):
        for _ in range(200):
            pts = rng.normal(size=(n, m)) * scale
            if n < 2:
                return pts
            diff = pts[:, None, :] - pts[None, :, :]
            d = np.sqrt((diff ** 2).sum(axis=-1))
            if d[~np.eye(n, dtype=bool)].min() > min_sep:
                return pts
        raise AssertionError("could not draw a separated cloud")

    return _make


@pytest.fixture
def make_metric(rng):
    """Random (generically non-Euclidean) metric: shortest-path completion
    of random positive edge weights.  Two passes so the triangle inequality
    holds to the last ulp."""

    def _make(n):
        w = rng.uniform(0.5, 2.0, size=(n, n))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        for _ in range(2):
            for k in range(n):
                w = np.minimum(w, w[:, [k]] + w[[k], :])
        return w

    return _make


@pytest.fixture
def claw_matrix():
    """The 4-point metric d(A,B) = 2, all other distances 1: the standard
    example of a metric that is not of negative type."""
    return np.array([
        [0.0, 2.0, 1.0, 1.0],
        [2.0, 0.0, 1.0, 1.0],
        [1.0, 1.0, 0.0, 1.0],
        [1.0, 1.0, 1.0, 0.0],
    ])


@pytest.fixture(scope="session")
def dense_permutations():
    """Reference permutation matrices of a quotient configuration: the
    matrix for row s of ``action_permutations`` sends e_j to e_(s[j])."""

    def _dense(config):
        eye = np.eye(config.size)
        return [eye[:, s] for s in config.action_permutations]

    return _dense
