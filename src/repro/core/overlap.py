"""Non-disjoint channels: quantifying the paper's Sec. III-B assumption.

The model assumes the channels in C are *disjoint*: "If two channels
overlap, the bottleneck may reduce their combined throughput... an attacker
who is able to eavesdrop at a shared edge or vertex obtains data from
multiple channels with the same effort... The optimal case for all four
channel properties, therefore, is when the channels are completely
disjoint."  This module makes that argument computable:

* channels are **paths** through a network graph whose edges carry their
  own (risk, loss, delay, rate) attributes;
* per-channel properties compose along the path (risk and loss as
  complements of survival products, delay as a sum, rate as the bottleneck
  minimum);
* the adversary taps *edges* (independently, with the edge's risk), so
  shares on channels sharing a tapped edge are observed **together** --
  the joint observation distribution is computed exactly over tap
  configurations of the involved edges, and the resulting
  :func:`joint_subset_risk` can be compared with the independent-channel
  formula to measure the privacy cost of overlap;
* shared edges also cap combined throughput:
  :func:`max_disjoint_rate_scaling` finds how much of the per-channel rate
  vector is simultaneously sustainable;
* :func:`edge_disjoint_channel_paths` extracts a maximum set of
  edge-disjoint paths (via max-flow), i.e. the configuration under which
  the paper's model is exact.

Edge attributes used: ``risk``, ``loss``, ``delay``, ``rate``.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, Hashable, List, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.core.channel import Channel, ChannelSet
from repro.core.combinatorics import poisson_binomial_tail

#: An undirected edge, canonically ordered.
Edge = Tuple[Hashable, Hashable]


def _canonical_edge(u: Hashable, v: Hashable) -> Edge:
    return (u, v) if repr(u) <= repr(v) else (v, u)


def path_edges(path: Sequence[Hashable]) -> List[Edge]:
    """The canonical edge list of a node path."""
    if len(path) < 2:
        raise ValueError("a channel path needs at least two nodes")
    return [_canonical_edge(u, v) for u, v in zip(path, path[1:])]


def _edge_attr(graph: nx.Graph, edge: Edge, name: str, default: float = None) -> float:
    data = graph.edges[edge]
    if name in data:
        return float(data[name])
    if default is None:
        raise KeyError(f"edge {edge} is missing attribute {name!r}")
    return default


def channel_from_path(graph: nx.Graph, path: Sequence[Hashable], name: str = "") -> Channel:
    """Compose a path's edge attributes into one model channel.

    * risk: share observed iff any edge is tapped -> ``1 - prod(1 - z_e)``;
    * loss: share survives iff it survives every hop -> ``1 - prod(1 - l_e)``;
    * delay: hop delays add;
    * rate: the bottleneck edge caps the path.
    """
    edges = path_edges(path)
    survive_tap = 1.0
    survive_loss = 1.0
    delay = 0.0
    rate = np.inf
    for edge in edges:
        survive_tap *= 1.0 - _edge_attr(graph, edge, "risk", 0.0)
        survive_loss *= 1.0 - _edge_attr(graph, edge, "loss", 0.0)
        delay += _edge_attr(graph, edge, "delay", 0.0)
        rate = min(rate, _edge_attr(graph, edge, "rate"))
    return Channel(
        risk=1.0 - survive_tap,
        loss=1.0 - survive_loss,
        delay=delay,
        rate=float(rate),
        name=name or "->".join(str(node) for node in path),
    )


def build_channel_set(graph: nx.Graph, paths: Sequence[Sequence[Hashable]]) -> ChannelSet:
    """Build the model's ChannelSet from a set of paths.

    Note: the resulting set is only faithful to the model when the paths
    are edge-disjoint; use :func:`joint_subset_risk` to quantify the error
    otherwise.
    """
    return ChannelSet(
        channel_from_path(graph, path, name=f"path{i}") for i, path in enumerate(paths)
    )


def shared_edges(paths: Sequence[Sequence[Hashable]]) -> Dict[Edge, FrozenSet[int]]:
    """Map each edge used by more than one path to the set of path indices."""
    usage: Dict[Edge, set] = {}
    for index, path in enumerate(paths):
        for edge in path_edges(path):
            usage.setdefault(edge, set()).add(index)
    return {
        edge: frozenset(users) for edge, users in usage.items() if len(users) > 1
    }


def are_edge_disjoint(paths: Sequence[Sequence[Hashable]]) -> bool:
    """Whether no two paths share an edge (the model's assumption)."""
    return not shared_edges(paths)


def joint_subset_risk(
    graph: nx.Graph,
    paths: Sequence[Sequence[Hashable]],
    k: int,
) -> float:
    """P(adversary observes >= k shares) under the edge-tap threat model.

    One share of a symbol travels each path; the adversary taps each edge
    independently with the edge's ``risk``, and observes a share iff any
    edge of its path is tapped.  Overlapping paths make observations
    positively correlated, which this exact computation captures (the
    independent-channel Poisson-binomial formula does not).

    The sum is exact over tap configurations of *shared* edges only
    (private edges fold into per-path conditional probabilities), so the
    cost is ``2 ** (#shared edges)`` -- small for realistic topologies.
    """
    if not 1 <= k <= len(paths):
        raise ValueError(f"k={k} invalid for {len(paths)} paths")
    sharing = shared_edges(paths)
    shared = list(sharing.keys())
    # Per-path probability of being observed via a *private* edge.
    private_risk = []
    for path in paths:
        survive = 1.0
        for edge in path_edges(path):
            if edge not in sharing:
                survive *= 1.0 - _edge_attr(graph, edge, "risk", 0.0)
        private_risk.append(1.0 - survive)

    total = 0.0
    for taps in product((False, True), repeat=len(shared)):
        weight = 1.0
        for edge, tapped in zip(shared, taps):
            z = _edge_attr(graph, edge, "risk", 0.0)
            weight *= z if tapped else 1.0 - z
        # Exact-zero sentinel: the weight is a product of z / (1 - z)
        # factors and is exactly 0.0 iff some factor is exactly zero
        # (impossible tap combination); skipping it is an optimisation,
        # not a tolerance decision.
        if weight == 0.0:  # lint: disable=float-eq
            continue
        tapped_edges = {edge for edge, tapped in zip(shared, taps) if tapped}
        # Conditioned on the shared-edge taps, the paths observe
        # independently via their private edges.
        conditional = []
        for index, path in enumerate(paths):
            if any(edge in tapped_edges for edge in path_edges(path)):
                conditional.append(1.0)
            else:
                conditional.append(private_risk[index])
        total += weight * poisson_binomial_tail(conditional, k)
    return total


def independent_subset_risk(
    graph: nx.Graph,
    paths: Sequence[Sequence[Hashable]],
    k: int,
) -> float:
    """The disjoint-assumption risk for the same paths (for comparison)."""
    risks = [channel_from_path(graph, path).risk for path in paths]
    return poisson_binomial_tail(risks, k)


def max_disjoint_rate_scaling(
    graph: nx.Graph,
    paths: Sequence[Sequence[Hashable]],
) -> float:
    """The largest α such that α · (every path's bottleneck rate) fits.

    Each path would like to carry its own bottleneck rate; edges shared by
    several paths must carry the sum.  Returns the max feasible uniform
    scaling -- exactly 1.0 for edge-disjoint paths, less when overlap
    creates a bottleneck ("the bottleneck may reduce their combined
    throughput", Sec. III-B).
    """
    rates = [channel_from_path(graph, path).rate for path in paths]
    load: Dict[Edge, float] = {}
    for rate, path in zip(rates, paths):
        for edge in path_edges(path):
            load[edge] = load.get(edge, 0.0) + rate
    alpha = 1.0
    for edge, demanded in load.items():
        capacity = _edge_attr(graph, edge, "rate")
        alpha = min(alpha, capacity / demanded)
    return alpha


def edge_disjoint_channel_paths(
    graph: nx.Graph,
    source: Hashable,
    sink: Hashable,
    max_paths: int = None,
) -> List[List[Hashable]]:
    """A maximum set of edge-disjoint source-sink paths (max-flow).

    These are the channel sets for which the paper's disjointness
    assumption holds exactly.

    Raises:
        ValueError: if source and sink are not connected.
    """
    if source not in graph or sink not in graph:
        raise ValueError("source and sink must be graph nodes")
    try:
        paths = [list(p) for p in nx.edge_disjoint_paths(graph, source, sink)]
    except nx.NetworkXNoPath as exc:
        raise ValueError(f"no path between {source!r} and {sink!r}") from exc
    paths.sort(key=len)
    if max_paths is not None:
        paths = paths[:max_paths]
    return paths
