"""Spanning trees of complete uniform hypergraphs, block matchings,
Prufer-style codes, r-parking functions, exact generating functions, and
extended Shi arrangement regions, with brute-force oracles throughout."""

from .bijection import consecutive_matching, parking_to_tree, tree_to_parking
from .core import (
    DEFAULT_CAP,
    HyperTree,
    InternalError,
    Matching,
    MatchingMismatchError,
    ResourceCapError,
    ValidationError,
    count_matchings_formula,
    count_spanning_trees_formula,
    enumerate_matchings,
    enumerate_spanning_trees,
    extract_matching,
    format_matching,
    format_tree,
    is_spanning_tree,
    parse_matching,
    parse_tree,
    tree_size,
)
from .egf import (
    compose,
    count_rooted_trees_recursive,
    egf_matchings,
    egf_rooted_trees,
    lagrange_coefficient,
    rooted_tree_count,
    verify_functional_equation,
)
from .parking import (
    count_parking,
    enumerate_parking,
    is_r_parking,
    simulate_parking,
)
from .prufer import PruferCode, count_trees_for_matching, decode, encode
from .shi import (
    Hyperplane,
    Region,
    build_arrangement,
    regions,
    witness_satisfies,
)

__version__ = "0.1.0"
