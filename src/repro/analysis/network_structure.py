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

    Everything here is integer counting (unique edges, set membership,
    weakly-connected components via union-find), so agreement with the
    networkx graphs of :func:`build_sample_graph` is exact by construction
    — asserted against the oracle in ``tests/frames/``.
    """
    dataset = fr.dataset
    if not dataset.followee_sample:
        raise AnalysisError("no followee sample in dataset")
    table = fr.edge_table
    sampled = set(table.sampled_uids)
    if table.sources.size:
        # nx.DiGraph.add_edge dedupes repeated followee entries
        pairs = np.unique(
            np.stack([table.sources, table.targets], axis=1), axis=0
        )
        edge_list = [(int(u), int(v)) for u, v in pairs]
    else:
        edge_list = []
    total_edges = len(edge_list)
    if total_edges == 0:
        raise AnalysisError("the sampled graph has no edges")
    nodes = set(sampled)
    for u, v in edge_list:
        nodes.add(u)
        nodes.add(v)
    matched = dataset.matched
    migrated = {n for n in nodes if n in matched}
    edges_into_migrants = sum(1 for _, v in edge_list if v in migrated)
    baseline = percent(len(migrated), len(nodes))

    edge_set = set(edge_list)
    inner_edges = [
        (u, v) for u, v in edge_list if u in sampled and v in sampled
    ]
    reciprocated = sum(1 for u, v in inner_edges if (v, u) in edge_set)

    instance_nodes: set[str] = set()
    instance_edges: set[tuple[str, str]] = set()
    for u, v in edge_list:
        mu = matched.get(u)
        mv = matched.get(v)
        if mu is None or mv is None:
            continue
        iu, iv = mu.mastodon_domain, mv.mastodon_domain
        if iu == iv:
            continue
        instance_nodes.add(iu)
        instance_nodes.add(iv)
        instance_edges.add((iu, iv) if iu <= iv else (iv, iu))

    sub_nodes = sampled | {
        v for u, v in edge_list if u in sampled and v in migrated
    }
    if sub_nodes:
        parent = {n: n for n in sub_nodes}

        def find(n: int) -> int:
            root = n
            while parent[root] != root:
                root = parent[root]
            while parent[n] != root:
                parent[n], n = root, parent[n]
            return root

        for u, v in edge_list:
            if u in parent and v in parent:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
        sizes: dict[int, int] = {}
        for n in sub_nodes:
            root = find(n)
            sizes[root] = sizes.get(root, 0) + 1
        largest_pct = percent(max(sizes.values(), default=0), len(sub_nodes))
    else:
        largest_pct = 0.0

    return NetworkStructureResult(
        nodes=len(nodes),
        edges=total_edges,
        migrated_nodes=len(migrated),
        pct_edges_into_migrants=percent(edges_into_migrants, total_edges),
        pct_expected_at_random=baseline,
        reciprocity_pct=percent(reciprocated, len(inner_edges) or 1),
        instance_graph_nodes=len(instance_nodes),
        instance_graph_edges=len(instance_edges),
        largest_component_pct=largest_pct,
    )
