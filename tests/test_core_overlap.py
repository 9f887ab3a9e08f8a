"""Channel overlap: the Sec. III-B disjointness argument, quantified."""

import networkx as nx
import numpy as np
import pytest

from repro.core.overlap import (
    are_edge_disjoint,
    build_channel_set,
    channel_from_path,
    edge_disjoint_channel_paths,
    independent_subset_risk,
    joint_subset_risk,
    max_disjoint_rate_scaling,
    overlap_privacy_penalty,
    path_edges,
    shared_edges,
)


def line_graph(*edges):
    graph = nx.Graph()
    for u, v, attrs in edges:
        graph.add_edge(u, v, **attrs)
    return graph


@pytest.fixture
def diamond():
    """s -> {a, b} -> t plus a direct shared trunk s - m - t."""
    attrs = {"risk": 0.1, "loss": 0.01, "delay": 1.0, "rate": 10.0}
    graph = nx.Graph()
    for u, v in [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"), ("s", "m"), ("m", "t")]:
        graph.add_edge(u, v, **dict(attrs))
    return graph


class TestPathComposition:
    def test_path_edges(self):
        assert path_edges(["s", "a", "t"]) == [("a", "s"), ("a", "t")]
        with pytest.raises(ValueError):
            path_edges(["s"])

    def test_channel_from_path_composes(self):
        graph = line_graph(
            ("s", "a", {"risk": 0.1, "loss": 0.1, "delay": 1.0, "rate": 10.0}),
            ("a", "t", {"risk": 0.2, "loss": 0.2, "delay": 2.0, "rate": 5.0}),
        )
        channel = channel_from_path(graph, ["s", "a", "t"])
        assert channel.risk == pytest.approx(1 - 0.9 * 0.8)
        assert channel.loss == pytest.approx(1 - 0.9 * 0.8)
        assert channel.delay == pytest.approx(3.0)
        assert channel.rate == pytest.approx(5.0)

    def test_missing_rate_attribute_raises(self):
        graph = line_graph(("s", "t", {"risk": 0.1}))
        with pytest.raises(KeyError):
            channel_from_path(graph, ["s", "t"])

    def test_build_channel_set(self, diamond):
        channels = build_channel_set(
            diamond, [["s", "a", "t"], ["s", "b", "t"], ["s", "m", "t"]]
        )
        assert channels.n == 3
        assert all(c.rate == 10.0 for c in channels)


class TestSharedEdges:
    def test_disjoint_paths(self, diamond):
        paths = [["s", "a", "t"], ["s", "b", "t"]]
        assert are_edge_disjoint(paths)
        assert shared_edges(paths) == {}

    def test_overlapping_paths(self, diamond):
        paths = [["s", "m", "t"], ["s", "m", "a", "t"]]
        diamond.add_edge("m", "a", risk=0.1, loss=0.01, delay=1.0, rate=10.0)
        sharing = shared_edges(paths)
        assert ("m", "s") in sharing
        assert sharing[("m", "s")] == frozenset({0, 1})
        assert not are_edge_disjoint(paths)


class TestJointRisk:
    def test_matches_independent_for_disjoint(self, diamond):
        paths = [["s", "a", "t"], ["s", "b", "t"], ["s", "m", "t"]]
        for k in (1, 2, 3):
            assert joint_subset_risk(diamond, paths, k) == pytest.approx(
                independent_subset_risk(diamond, paths, k)
            )
            assert overlap_privacy_penalty(diamond, paths, k) == pytest.approx(0.0)

    def test_shared_edge_increases_high_k_risk(self):
        """Two channels over one shared trunk: a single tap reveals both."""
        graph = nx.Graph()
        trunk = {"risk": 0.3, "loss": 0.0, "delay": 1.0, "rate": 10.0}
        clean = {"risk": 0.0, "loss": 0.0, "delay": 1.0, "rate": 10.0}
        graph.add_edge("s", "m", **trunk)
        graph.add_edge("m", "a", **dict(clean))
        graph.add_edge("m", "b", **dict(clean))
        graph.add_edge("a", "t", **dict(clean))
        graph.add_edge("b", "t", **dict(clean))
        paths = [["s", "m", "a", "t"], ["s", "m", "b", "t"]]
        # Both channels have risk 0.3; independently, P(both observed) = 0.09.
        # In reality one tap on the trunk observes both: 0.3.
        assert independent_subset_risk(graph, paths, 2) == pytest.approx(0.09)
        assert joint_subset_risk(graph, paths, 2) == pytest.approx(0.3)
        assert overlap_privacy_penalty(graph, paths, 2) == pytest.approx(0.21)

    def test_exact_against_monte_carlo(self, rng):
        graph = nx.Graph()
        graph.add_edge("s", "x", risk=0.2, rate=1.0)
        graph.add_edge("x", "t", risk=0.4, rate=1.0)
        graph.add_edge("s", "y", risk=0.3, rate=1.0)
        graph.add_edge("y", "t", risk=0.1, rate=1.0)
        graph.add_edge("x", "y", risk=0.25, rate=1.0)
        paths = [["s", "x", "t"], ["s", "y", "t"], ["s", "x", "y", "t"]]
        k = 2
        exact = joint_subset_risk(graph, paths, k)
        # Monte Carlo over edge taps.
        edges = list({e for p in paths for e in path_edges(p)})
        risks = np.array([graph.edges[e]["risk"] for e in edges])
        trials = 200_000
        taps = rng.random((trials, len(edges))) < risks
        edge_index = {e: i for i, e in enumerate(edges)}
        observed = np.zeros(trials)
        for path in paths:
            idx = [edge_index[e] for e in path_edges(path)]
            observed += taps[:, idx].any(axis=1)
        assert exact == pytest.approx(float((observed >= k).mean()), abs=0.005)

    def test_invalid_k(self, diamond):
        with pytest.raises(ValueError):
            joint_subset_risk(diamond, [["s", "a", "t"]], 2)


class TestRateScaling:
    def test_disjoint_paths_scale_one(self, diamond):
        paths = [["s", "a", "t"], ["s", "b", "t"]]
        assert max_disjoint_rate_scaling(diamond, paths) == pytest.approx(1.0)

    def test_shared_bottleneck_halves(self):
        graph = nx.Graph()
        shared = {"risk": 0.0, "loss": 0.0, "delay": 0.0, "rate": 10.0}
        graph.add_edge("s", "m", **shared)
        graph.add_edge("m", "a", **dict(shared))
        graph.add_edge("m", "b", **dict(shared))
        graph.add_edge("a", "t", **dict(shared))
        graph.add_edge("b", "t", **dict(shared))
        paths = [["s", "m", "a", "t"], ["s", "m", "b", "t"]]
        # Both want 10 through the s-m trunk of capacity 10.
        assert max_disjoint_rate_scaling(graph, paths) == pytest.approx(0.5)


class TestDisjointExtraction:
    def test_finds_three_disjoint_paths(self, diamond):
        paths = edge_disjoint_channel_paths(diamond, "s", "t")
        assert len(paths) == 3
        assert are_edge_disjoint(paths)
        assert all(path[0] == "s" and path[-1] == "t" for path in paths)

    def test_max_paths_cap(self, diamond):
        paths = edge_disjoint_channel_paths(diamond, "s", "t", max_paths=2)
        assert len(paths) == 2

    def test_disconnected_raises(self):
        graph = nx.Graph()
        graph.add_node("s")
        graph.add_node("t")
        with pytest.raises(ValueError):
            edge_disjoint_channel_paths(graph, "s", "t")

    def test_missing_node_raises(self, diamond):
        with pytest.raises(ValueError):
            edge_disjoint_channel_paths(diamond, "s", "zz")
