"""Hypothesis strategies and the networkx distance oracle shared by the
graph tests."""

import itertools

import networkx as nx
from hypothesis import strategies as st

from references import edges_reference, graph_from_edges


@st.composite
def random_graphs(draw, max_vertices=24):
    """A graph on 1..max_vertices vertices, each edge drawn independently."""
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [e for e, keep in zip(pairs, present) if keep])


def networkx_distances(graph, source):
    """Distances from source by networkx's BFS, -1 where source cannot
    reach: an oracle that shares no code with `Graph.layers`."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(edges_reference(graph))
    lengths = nx.single_source_shortest_path_length(g, source)
    return [lengths.get(w, -1) for w in range(graph.n)]
