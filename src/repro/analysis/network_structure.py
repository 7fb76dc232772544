"""Ego-network structure of the migration (networkx extension).

RQ2 treats migration as social contagion; this extension examines the
*structure* behind it using the crawled followee sample: the subgraph over
sampled migrants and their followees, migration assortativity (do migrants
follow migrants more than chance?), reciprocity among migrated pairs, and
the co-location graph of instances that share migrating ego networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.frames import frames_of
from repro.util.stats import percent


@dataclass(frozen=True)
class NetworkStructureResult:
    """Structural statistics of the sampled migration ego networks."""

    nodes: int
    edges: int
    migrated_nodes: int
    #: fraction of sampled edges whose target also migrated
    pct_edges_into_migrants: float
    #: migrated share of the node population (the degree-unweighted
    #: counterpart; popular non-migrating hubs pull the edge share below it)
    pct_expected_at_random: float
    #: edges between two *sampled* users that exist in both directions
    reciprocity_pct: float
    #: instances connected by at least one cross-instance sampled edge
    instance_graph_nodes: int
    instance_graph_edges: int
    #: largest weakly-connected component share (of sampled migrants)
    largest_component_pct: float


def build_sample_graph(dataset: MigrationDataset) -> nx.DiGraph:
    """The directed graph of the §3.3 followee sample.

    Nodes are Twitter user ids; an edge ``u -> v`` means sampled user ``u``
    follows ``v``.  Node attribute ``migrated`` marks matched migrants;
    ``instance`` carries the migrant's (first) instance domain.
    """
    if not dataset.followee_sample:
        raise AnalysisError("no followee sample in dataset")
    graph = nx.DiGraph()
    for uid, record in dataset.followee_sample.items():
        graph.add_node(uid)
        for followee in record.twitter_followees:
            graph.add_edge(uid, followee)
    for node in graph.nodes:
        user = dataset.matched.get(node)
        graph.nodes[node]["migrated"] = user is not None
        graph.nodes[node]["instance"] = (
            user.mastodon_domain if user is not None else None
        )
    return graph


def instance_cooccurrence_graph(dataset: MigrationDataset) -> nx.Graph:
    """Instances linked whenever a sampled edge crosses between them."""
    sample_graph = build_sample_graph(dataset)
    graph = nx.Graph()
    for u, v in sample_graph.edges:
        iu = sample_graph.nodes[u].get("instance")
        iv = sample_graph.nodes[v].get("instance")
        if iu is None or iv is None or iu == iv:
            continue
        if graph.has_edge(iu, iv):
            graph[iu][iv]["weight"] += 1
        else:
            graph.add_edge(iu, iv, weight=1)
    return graph


def network_structure(dataset: MigrationDataset) -> NetworkStructureResult:
    """The full structural analysis."""
    fr = frames_of(dataset)
    return fr.result(
        ("network_structure",), lambda: _network_structure_frames(fr)
    )


def _network_structure_frames(fr) -> NetworkStructureResult:
    """The structural statistics from flat edge arrays.

    Everything here is integer counting over dense uid ids (unique edge
    keys, set membership by mask and ``searchsorted``, weakly-connected
    components via union-find), so agreement with the networkx graphs of
    :func:`build_sample_graph` is exact by construction — asserted against
    the oracle in ``tests/frames/``.
    """
    dataset = fr.dataset
    if not dataset.followee_sample:
        raise AnalysisError("no followee sample in dataset")
    table = fr.edge_table
    if not table.sources.size:
        raise AnalysisError("the sampled graph has no edges")
    profiles = fr.profile_table
    # dense ids over every uid in sight: edge ends, sampled users, migrants
    n_edges, n_sampled = table.sources.size, len(table.sampled_uids)
    uids, ids = np.unique(
        np.concatenate(
            [
                table.sources,
                table.targets,
                np.asarray(table.sampled_uids, dtype=np.int64),
                np.asarray(profiles.matched_uids, dtype=np.int64),
            ]
        ),
        return_inverse=True,
    )
    width = uids.size
    sampled = np.zeros(width, dtype=bool)
    sampled[ids[2 * n_edges : 2 * n_edges + n_sampled]] = True
    domain = np.full(width, -1, dtype=np.int64)
    domain[ids[2 * n_edges + n_sampled :]] = profiles.matched_domain_ids
    is_node = sampled.copy()
    is_node[ids[: 2 * n_edges]] = True
    migrated = is_node & (domain >= 0)

    # nx.DiGraph.add_edge dedupes repeated followee entries
    keys = np.unique(ids[:n_edges] * width + ids[n_edges : 2 * n_edges])
    heads, tails = np.divmod(keys, width)
    total_edges = int(keys.size)
    node_count = int(np.count_nonzero(is_node))
    migrated_count = int(np.count_nonzero(migrated))
    edges_into_migrants = int(np.count_nonzero(migrated[tails]))

    inner = sampled[heads] & sampled[tails]
    inner_count = int(np.count_nonzero(inner))
    reverse = tails[inner] * width + heads[inner]
    found = np.searchsorted(keys, reverse).clip(max=total_edges - 1)
    reciprocated = int(np.count_nonzero(keys[found] == reverse))

    du, dv = domain[heads], domain[tails]
    cross = (du >= 0) & (dv >= 0) & (du != dv)
    du, dv = du[cross], dv[cross]
    instance_nodes = np.unique(np.concatenate([du, dv])).size
    instance_edges = np.unique(
        np.minimum(du, dv) * len(profiles.domains) + np.maximum(du, dv)
    ).size

    # the sampled users plus the migrants they follow, and the sampled
    # edges among them (every edge starts at a sampled user)
    in_sub = sampled.copy()
    in_sub[tails[migrated[tails]]] = True
    sub_edges = in_sub[tails]
    sub_nodes = np.flatnonzero(in_sub)
    parent = list(range(sub_nodes.size))

    def find(n: int) -> int:
        root = n
        while parent[root] != root:
            root = parent[root]
        while parent[n] != root:
            parent[n], n = root, parent[n]
        return root

    for u, v in zip(
        np.searchsorted(sub_nodes, heads[sub_edges]).tolist(),
        np.searchsorted(sub_nodes, tails[sub_edges]).tolist(),
    ):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    roots = np.fromiter(map(find, range(sub_nodes.size)), np.int64)
    largest = int(np.bincount(roots).max())

    return NetworkStructureResult(
        nodes=node_count,
        edges=total_edges,
        migrated_nodes=migrated_count,
        pct_edges_into_migrants=percent(edges_into_migrants, total_edges),
        pct_expected_at_random=percent(migrated_count, node_count),
        reciprocity_pct=percent(reciprocated, inner_count or 1),
        instance_graph_nodes=int(instance_nodes),
        instance_graph_edges=int(instance_edges),
        largest_component_pct=percent(largest, sub_nodes.size),
    )
