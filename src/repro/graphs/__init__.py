"""Graph families and the paper's graph operations.

The paper's results are stated under the promise ``F_k``: graphs of maximum
degree at most ``k`` with input and output labels of at most ``k`` bits
(Section 2.2.3).  This subpackage provides

* deterministic graph families (cycles, paths, grids, stars) and random
  bounded-degree families (d-regular, degree-truncated G(n, p)) used as
  workloads — all returned as :class:`~repro.local.network.Network` objects;
* the graph operations of the proof of Theorem 1: disjoint union (Claim 3),
  double edge subdivision, and the cyclic gluing of hard instances.
"""

from repro.graphs.families import (
    cycle_network,
    path_network,
    grid_network,
    star_network,
)
from repro.graphs.random_graphs import (
    random_regular_network,
    bounded_degree_gnp_network,
)
from repro.graphs.operations import (
    disjoint_union,
    subdivide_edge,
    double_subdivide_edge,
    glue_instances,
    relabel_disjoint,
)

__all__ = [
    "cycle_network",
    "path_network",
    "grid_network",
    "star_network",
    "random_regular_network",
    "bounded_degree_gnp_network",
    "disjoint_union",
    "subdivide_edge",
    "double_subdivide_edge",
    "glue_instances",
    "relabel_disjoint",
]
