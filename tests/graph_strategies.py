"""Hypothesis strategies shared by the graph tests."""

import itertools

from hypothesis import strategies as st

from conesym.ridge import Graph


@st.composite
def random_graphs(draw, max_vertices=24):
    """A graph on 1..max_vertices vertices, each edge drawn independently."""
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, present) if keep])
