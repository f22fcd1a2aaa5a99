"""Integer labels and sizes: every library entry point refuses a value whose
type is not exactly int with a ValidationError, never a TypeError or an answer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertrees import (
    HyperTree,
    Hyperplane,
    Matching,
    PruferCode,
    Region,
    ValidationError,
    build_arrangement,
    consecutive_matching,
    count_matchings_formula,
    count_parking,
    count_rooted_trees_recursive,
    count_spanning_trees_formula,
    count_trees_for_matching,
    decode,
    egf_matchings,
    egf_rooted_trees,
    encode,
    enumerate_matchings,
    enumerate_parking,
    enumerate_spanning_trees,
    extract_matching,
    is_r_parking,
    is_spanning_tree,
    lagrange_coefficient,
    parking_to_tree,
    parse_matching,
    parse_tree,
    regions,
    rooted_tree_count,
    simulate_parking,
    tree_size,
    tree_to_parking,
    verify_functional_equation,
)
from hypertrees.prufer import parse_code

from conftest import outcome

FIG1 = ((1, 2, 3), (3, 4, 7), (3, 5, 6))

# (name, call, valid arguments): every int in the arguments, however deeply
# nested, is an integer label, size or search cap of the call
ENTRY_POINTS = [
    ("HyperTree", lambda n, r, e: is_spanning_tree(HyperTree(n, r, e)), (7, 3, FIG1)),
    ("extract_matching", lambda n, r, e: extract_matching(HyperTree(n, r, e)), (7, 3, FIG1)),
    ("Matching", Matching, (2, ((1, 2), (3, 4)))),
    ("PruferCode", PruferCode, (9, (3, 3, 4))),
    ("decode", lambda n, s, b, blocks, r: decode(PruferCode(n, s), Matching(b, blocks), r),
     (5, (2,), 2, ((1, 2), (3, 4)), 3)),
    ("encode", lambda n, r, e, b, blocks: encode(HyperTree(n, r, e), Matching(b, blocks)),
     (5, 3, ((1, 2, 5), (3, 4, 5)), 2, ((1, 2), (3, 4)))),
    ("tree_to_parking", lambda n, r, e: tree_to_parking(HyperTree(n, r, e)),
     (7, 3, ((3, 4, 7), (5, 6, 7), (1, 2, 3)))),
    ("parking_to_tree", parking_to_tree, ((1, 0, 0), 2)),
    ("is_r_parking", is_r_parking, ((1, 0, 0), 2)),
    ("simulate_parking", simulate_parking, ((2, 0, 1),)),
    ("enumerate_parking", lambda k, r: list(enumerate_parking(k, r)), (3, 1)),
    ("count_parking", count_parking, (3, 2)),
    ("tree_size", tree_size, (7, 3)),
    ("count_spanning_trees_formula", count_spanning_trees_formula, (7, 3)),
    ("count_matchings_formula", count_matchings_formula, (6, 3)),
    ("enumerate_spanning_trees", lambda n, r: list(enumerate_spanning_trees(n, r)), (5, 3)),
    ("enumerate_matchings", lambda m, b: list(enumerate_matchings(m, b)), (4, 2)),
    ("count_trees_for_matching", count_trees_for_matching, (7, 3)),
    ("consecutive_matching", consecutive_matching, (2, 2)),
    ("parse_tree", lambda n, r: parse_tree("1,2,3;3,4,7;3,5,6", n, r), (7, 3)),
    ("parse_matching", lambda b: parse_matching("1,2|3,4", b), (2,)),
    ("parse_code", lambda n: parse_code("3,3,4", n), (9,)),
    ("egf_matchings", egf_matchings, (2, 6)),
    ("egf_rooted_trees", egf_rooted_trees, (3, 5)),
    ("rooted_tree_count", rooted_tree_count, (5, 3)),
    ("verify_functional_equation", verify_functional_equation, (3, 5)),
    ("lagrange_coefficient", lagrange_coefficient, (3, 2)),
    ("count_rooted_trees_recursive", count_rooted_trees_recursive, (5, 3)),
    ("regions", regions, (2, 1)),
    ("build_arrangement", build_arrangement, (2, 1)),
    ("Hyperplane", Hyperplane, (1, 2, 0)),
    ("Region", lambda r, cs: Region(r, cs, (Fraction(1, 2), Fraction(0)), True), (1, (0,))),
    # a search cap is an integer too
    ("enumerate_parking cap", lambda k, r, cap: list(enumerate_parking(k, r, cap)), (3, 1, 64)),
    ("enumerate_spanning_trees cap",
     lambda n, r, cap: list(enumerate_spanning_trees(n, r, cap)), (5, 3, 45)),
    ("regions cap", regions, (2, 1, 6)),
]
NOT_INTEGERS = (True, False, 2.0, Fraction(2), "2", None)


def _int_paths(value, path=()):
    """The index path of every int inside nested tuples."""
    if isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _int_paths(item, path + (i,))
    else:
        yield path


def _replace(value, path, new):
    if not path:
        return new
    i = path[0]
    return value[:i] + (_replace(value[i], path[1:], new),) + value[i + 1:]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_entry_point_refuses_a_non_integer(data):
    # one integer label or size of a call that answers is replaced by a value
    # of another type; the call must refuse it, whatever the value compares equal to
    name, call, args = data.draw(st.sampled_from(ENTRY_POINTS))
    call(*args)
    path = data.draw(st.sampled_from(list(_int_paths(args))))
    bad = data.draw(st.sampled_from(NOT_INTEGERS))
    with pytest.raises(ValidationError):
        call(*_replace(args, path, bad))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: is_spanning_tree(HyperTree(3, 3, ((1, 2, 3.0),))), "vertex 3.0 is not an integer"),
        (lambda: parking_to_tree((0.0,), 1), "entry 0.0 is not an integer"),
        (lambda: decode(PruferCode(5, (2.0,)), Matching(2, ((1, 2), (3, 4))), 3),
         "code entry 2.0 is not an integer"),
        (lambda: simulate_parking((0.5,)), "entry 0.5 is not an integer"),
        (lambda: is_spanning_tree(HyperTree(3, 3, ((True, 2, 3),))), "vertex True is not an integer"),
        (lambda: Matching(2, ((1, 2.0), (3, 4))), "block member 2.0 is not an integer"),
        (lambda: HyperTree(5, 3, ((1, 2, 3), (None, 4, 5))), "vertex None is not an integer"),
        (lambda: Matching(2, ((1, "2"), (3, 4))), "block member '2' is not an integer"),
        (lambda: count_parking(2.0, 1), "size 2.0 is not an integer"),
        (lambda: tree_size(7.0, 3), "size 7.0 is not an integer"),
        # every type is checked before any bound
        (lambda: tree_size(0, 2.0), "size 2.0 is not an integer"),
        (lambda: consecutive_matching(-1, 0.5), "size 0.5 is not an integer"),
        (lambda: egf_matchings(0.5, -1), "size 0.5 is not an integer"),
        (lambda: egf_rooted_trees(2.0, -1), "size 2.0 is not an integer"),
        (lambda: rooted_tree_count(-1, 1.5), "size 1.5 is not an integer"),
        (lambda: count_spanning_trees_formula(True, 3), "size True is not an integer"),
        (lambda: PruferCode(5.0, ()), "size 5.0 is not an integer"),
        (lambda: list(enumerate_spanning_trees(5.0, 3)), "size 5.0 is not an integer"),
        (lambda: egf_rooted_trees(3, 9.0), "size 9.0 is not an integer"),
        (lambda: count_rooted_trees_recursive(5.0, 3), "size 5.0 is not an integer"),
        (lambda: regions(2.0, 1), "size 2.0 is not an integer"),
        (lambda: list(enumerate_spanning_trees(5, 3, cap=None)), "cap None is not an integer"),
        (lambda: list(enumerate_spanning_trees(4, 3, cap=2.0)), "cap 2.0 is not an integer"),
        (lambda: list(enumerate_parking(2, 1, cap=None)), "cap None is not an integer"),
        (lambda: list(enumerate_parking(2, 1, cap=100.5)), "cap 100.5 is not an integer"),
        (lambda: regions(2, 1, cap="x"), "cap 'x' is not an integer"),
        (lambda: Region(2.0, (0,), (0, 0), True), "size 2.0 is not an integer"),
        (lambda: Region(True, (0,), (0, 0), True), "size True is not an integer"),
        (lambda: Region(0, (0,), (0, 0), True), "need r >= 1"),
        (lambda: Region(1, (0.5,), (0, 0), True), "interval 0.5 is not an integer"),
        (lambda: Region(1, (2,), (3, 0), False), "interval 2 outside [-1, 1]"),
        (lambda: Region(2, (-3,), (-4, 0), False), "interval -3 outside [-2, 2]"),
        (lambda: Hyperplane(1, 2, 0.5), "hyperplane field 0.5 is not an integer"),
        (lambda: Hyperplane(2, 1, 0), "need 1 <= i < j, got i = 2, j = 1"),
        (lambda: HyperTree(3, 3, (1, 2, 3)), "expected groups of vertex labels, got 1"),
        (lambda: HyperTree(3, 3, 5), "expected groups of vertex labels, got 5"),
        (lambda: Matching(1, (1, 2)), "expected groups of block member labels, got 1"),
        (lambda: Matching(2, ((1, 2), 3)), "expected groups of block member labels, got 3"),
        # one-shot iterables of groups are read once, so the refusal names the first bad value
        (lambda: HyperTree(3, 3, (e for e in [(1, 2, "3")])), "vertex '3' is not an integer"),
        (lambda: Matching(2, (b for b in [(1, None), (3, 4)])),
         "block member None is not an integer"),
        (lambda: HyperTree(3, 3, iter((1, 2, 3))), "expected groups of vertex labels, got 1"),
        # a one-shot group is read empty after sorting fails, so no value can be named
        (lambda: HyperTree(3, 3, [iter([1, 2, "3"])]), "vertex labels are not all integers"),
        (lambda: Matching(2, [iter([1, None]), (3, 4)]),
         "block member labels are not all integers"),
    ],
    ids=[
        "tree-float-vertex", "parking_to_tree-float", "decode-float-code", "simulate-float",
        "tree-bool-vertex", "matching-float-member", "tree-none-vertex", "matching-str-member",
        "count_parking-float-k", "tree_size-float-n", "tree_size-n0-float-r",
        "consecutive-k-1-float-b", "egf_matchings-float-b-order-1",
        "egf_rooted_trees-float-r-order-1", "rooted-n-1-float-r", "count-bool-n", "code-float-n",
        "enumerate-float-n", "egf-float-order", "recursive-float-n", "regions-float-m",
        "enumerate-none-cap", "enumerate-no-trees-float-cap", "parking-none-cap",
        "parking-float-cap", "regions-str-cap", "region-float-r", "region-bool-r",
        "region-r0", "region-float-interval", "region-interval-above-r",
        "region-interval-below-r", "hyperplane-float-c", "hyperplane-i-above-j",
        "tree-int-edge", "tree-int-edges",
        "matching-int-blocks", "matching-int-block",
        "tree-one-shot-str-vertex", "matching-one-shot-none-member", "tree-one-shot-int-edge",
        "tree-one-shot-group", "matching-one-shot-group",
    ],
)
def test_non_integer_refusals(call, message):
    assert outcome(call) == (ValidationError, message)
