from __future__ import annotations

import copy
import dataclasses
import math
import pickle
from functools import partial

import pytest

from xmap import (
    Crossmap,
    DuplicateLink,
    EmptyCrossmap,
    HarmonisedPanel,
    IndexedSeries,
    InvalidLabel,
    Link,
    RelationKind,
    UnknownCategory,
    WeightOutOfRange,
    WeightSumViolation,
    WideCrosswalkDocument,
    build_crossmap,
    classify_source,
    classify_target,
    clean_label,
    compose,
    harmonise,
    import_crosswalk,
    read_edge_list,
    summarize,
)
from helpers import COUNTRY_LINKS, country_fixture, country_series


def test_clean_label_strips_whitespace():
    assert clean_label("  BLX \t") == "BLX"


def test_clean_label_keeps_inner_spaces():
    assert clean_label("American Samoa") == "American Samoa"


@pytest.mark.parametrize("bad", ["", "   ", "a,b", "a\nb", "a\rb", 'say "hi"'])
def test_clean_label_rejects(bad):
    with pytest.raises(InvalidLabel):
        clean_label(bad)


_NOT_A_STR = "invalid category label 4: not a str but int"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: clean_label(4), _NOT_A_STR),
        (lambda: Link(4, "b", 1.0), _NOT_A_STR),
        (lambda: build_crossmap("a", "b", [(4, "x", 1.0)]), _NOT_A_STR),
        (lambda: IndexedSeries("t", {4: 1.0}), _NOT_A_STR),
        (lambda: HarmonisedPanel("t", (("u", 4, 1.0),)), _NOT_A_STR),
        (lambda: harmonise([(4, country_fixture(), country_series())]), _NOT_A_STR),
        (lambda: import_crosswalk(WideCrosswalkDocument(("a", "b"), (("x", 4),)), "a", "b"), _NOT_A_STR),
        (
            lambda: import_crosswalk(WideCrosswalkDocument(("a", "b"), (([4], "x"),)), "a", "b"),
            "invalid category label [4]: not a str but list",
        ),
    ],
    ids=[
        "clean_label", "Link", "build_crossmap", "IndexedSeries", "HarmonisedPanel", "harmonise",
        "import_crosswalk", "import_crosswalk-unhashable",
    ],
)
def test_a_label_that_is_not_a_str_is_an_invalid_label(build, message):
    with pytest.raises(InvalidLabel) as raised:
        build()
    assert str(raised.value).startswith(message)


@pytest.mark.parametrize("weight", [0.0, -0.1, 1.00000005, 1.0000001, 2.0, math.nan])
def test_link_rejects_bad_weights(weight):
    with pytest.raises(WeightOutOfRange):
        Link("a", "b", weight)


def test_link_accepts_boundary_weights():
    assert Link("a", "b", 1.0).weight == 1.0
    assert Link("a", "b", 1e-12).weight == 1e-12


def test_link_is_frozen():
    link = Link("a", "b", 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        link.weight = 0.5


def test_empty_crossmap_rejected():
    with pytest.raises(EmptyCrossmap):
        build_crossmap("x", "y", [])


def test_duplicate_pair_rejected_before_weight_sums():
    # (a, b) twice at 0.6 each: the duplicate must win over the 1.2 row sum
    with pytest.raises(DuplicateLink) as caught:
        build_crossmap("x", "y", [("a", "b", 0.6), ("a", "b", 0.6)])
    assert "'a'" in str(caught.value) and "'b'" in str(caught.value)


def test_weight_sum_violation_names_source():
    with pytest.raises(WeightSumViolation) as caught:
        build_crossmap("x", "y", [("a", "b", 0.5), ("a", "c", 0.6), ("z", "b", 1.0)])
    assert caught.value.source == "a"
    assert "'a'" in str(caught.value)


def test_duplicate_on_a_later_source_wins_over_an_earlier_bad_sum():
    # Pair order meets a's bad sum first; the duplicate on z is still reported.
    links = [("a", "x", 0.5), ("z", "x", 0.5), ("z", "x", 0.5), ("b", "y", 1.0)]
    with pytest.raises(DuplicateLink) as caught:
        build_crossmap("p", "q", links)
    assert (caught.value.source, caught.value.target) == ("z", "x")
    assert str(caught.value) == "duplicate link 'z' -> 'x'"
    text = "from,to,weight\n" + "".join(f"{s},{t},{w!r}\n" for s, t, w in links)
    with pytest.raises(DuplicateLink) as caught:
        read_edge_list(text, "p", "q")
    assert str(caught.value) == "duplicate link 'z' -> 'x' (line 4)"


def test_smallest_of_two_bad_sums_is_named_with_its_left_to_right_total():
    # z comes first in the input and a first in pair order; a's weights are
    # added in target order, 0.0 + 0.2 + 0.123456789 + 0.3.
    links = [
        ("z", "x", 0.4), ("a", "z", 0.3), ("a", "x", 0.2), ("a", "y", 0.123456789), ("m", "y", 1.0),
    ]
    expected = ((0.0 + 0.2) + 0.123456789) + 0.3
    with pytest.raises(WeightSumViolation) as caught:
        build_crossmap("p", "q", links)
    assert caught.value.source == "a"
    assert caught.value.total.hex() == expected.hex()
    assert str(caught.value) == "outgoing weights for source 'a' sum to 0.623456789, expected 1"
    text = "from,to,weight\n" + "".join(f"{s},{t},{w!r}\n" for s, t, w in links)
    with pytest.raises(WeightSumViolation) as caught:
        read_edge_list(text, "p", "q")
    # The line of a's last row in the file.
    assert str(caught.value) == "outgoing weights for source 'a' sum to 0.623456789, expected 1 (line 5)"


def test_weight_sum_tolerance_boundary():
    build_crossmap("x", "y", [("a", "b", 0.5), ("a", "c", 0.5000005)])  # off by 5e-7: fine
    with pytest.raises(WeightSumViolation):
        build_crossmap("x", "y", [("a", "b", 0.5), ("a", "c", 0.500002)])  # off by 2e-6


def test_self_loop_is_legal():
    crossmap = build_crossmap("x", "y", [("AUS", "AUS", 1.0)])
    assert crossmap.links[0].pair == ("AUS", "AUS")


def test_category_orders_follow_first_appearance():
    crossmap = country_fixture()
    assert crossmap.source_categories == ("BLX", "E.GER", "W.GER", "AUS")
    assert crossmap.target_categories == ("BEL", "LUX", "DEU", "AUS")


def test_degrees_and_neighbourhoods():
    crossmap = country_fixture()
    assert crossmap.out_degree("BLX") == 2
    assert crossmap.in_degree("DEU") == 2
    assert [l.target for l in crossmap.links_from("BLX")] == ["BEL", "LUX"]
    assert [l.source for l in crossmap.links_into("DEU")] == ["E.GER", "W.GER"]
    for lookup, side in (
        (crossmap.links_from, "source"),
        (crossmap.links_into, "target"),
        (crossmap.out_degree, "source"),
        (crossmap.in_degree, "target"),
        (partial(classify_source, crossmap), "source"),
        (partial(classify_target, crossmap), "target"),
    ):
        with pytest.raises(UnknownCategory) as caught:
            lookup("NOPE")
        assert str(caught.value) == f"'NOPE' is not a {side} category of this crossmap"
        assert (caught.value.label, caught.value.side) == ("NOPE", side)


def test_classification():
    crossmap = country_fixture()
    assert classify_source(crossmap, "BLX") is RelationKind.SPLIT
    assert classify_source(crossmap, "AUS") is RelationKind.ONE_TO_ONE
    assert classify_target(crossmap, "DEU") is RelationKind.AGGREGATE
    assert classify_target(crossmap, "BEL") is RelationKind.UNIQUE


def test_crosswalk_equivalence():
    # all weights 1 <=> all out-degrees 1 <=> is_crosswalk
    walk = build_crossmap("x", "y", [("a", "p", 1.0), ("b", "p", 1.0), ("c", "q", 1.0)])
    assert walk.is_crosswalk
    assert all(link.weight == 1.0 for link in walk.links)
    assert all(walk.out_degree(s) == 1 for s in walk.source_categories)
    assert not country_fixture().is_crosswalk


def test_build_accepts_links_and_tuples():
    built = build_crossmap("x", "y", [Link("a", "b", 0.5), ("a", "c", 0.5)])
    assert len(built.links) == 2


def test_crossmap_is_frozen():
    crossmap = country_fixture()
    with pytest.raises(dataclasses.FrozenInstanceError):
        crossmap.source_taxonomy = "other"


def test_summary_counts():
    s = summarize(country_fixture())
    assert (s.n_sources, s.n_targets, s.n_links) == (4, 4, 5)
    assert (s.n_splits, s.n_aggregates, s.max_in_degree) == (1, 1, 2)
    assert s.is_crosswalk is False


def test_summary_ranks_targets_by_in_degree_then_label():
    s = summarize(country_fixture())
    assert s.most_synthetic_targets == (("DEU", 2), ("AUS", 1), ("BEL", 1), ("LUX", 1))


def test_links_are_stored_in_input_order():
    crossmap = country_fixture()
    assert tuple((l.source, l.target, l.weight) for l in crossmap.links) == COUNTRY_LINKS


def test_identity_map_summary():
    s = summarize(build_crossmap("x", "x", [("A", "A", 1.0)]))
    assert (s.n_sources, s.n_targets, s.n_links) == (1, 1, 1)
    assert (s.n_splits, s.n_aggregates, s.max_in_degree) == (0, 0, 1)
    assert s.is_crosswalk is True


def test_summary_agrees_with_independent_degree_scan():
    import collections
    import random

    from helpers import random_crossmap

    rng = random.Random(3)
    for _ in range(40):
        crossmap = random_crossmap(rng, max_sources=20, max_targets=20)
        out_degrees = collections.Counter(l.source for l in crossmap.links)
        in_degrees = collections.Counter(l.target for l in crossmap.links)
        s = summarize(crossmap)
        assert s.n_sources == len(out_degrees)
        assert s.n_targets == len(in_degrees)
        assert s.n_links == len(crossmap.links)
        assert s.n_splits == sum(1 for d in out_degrees.values() if d > 1)
        assert s.n_aggregates == sum(1 for d in in_degrees.values() if d > 1)
        assert s.max_in_degree == max(in_degrees.values())
        assert s.is_crosswalk == all(d == 1 for d in out_degrees.values())
        for source in crossmap.source_categories:
            expected = RelationKind.SPLIT if out_degrees[source] > 1 else RelationKind.ONE_TO_ONE
            assert classify_source(crossmap, source) is expected


@pytest.mark.parametrize("control", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f"])
def test_clean_label_rejects_c0_controls(control):
    with pytest.raises(InvalidLabel):
        clean_label(f"a{control}b")


@pytest.mark.parametrize(
    "char", ["\ufffe", "\uffff", "\ud800", "\udbff", "\udc00", "\udfff"],
    ids=["U+FFFE", "U+FFFF", "U+D800", "U+DBFF", "U+DC00", "U+DFFF"],
)
def test_clean_label_rejects_what_xml_cannot_carry(char):
    with pytest.raises(InvalidLabel) as caught:
        clean_label(f"a{char}b")
    assert f"non-XML character {char!r}" in str(caught.value)
    with pytest.raises(InvalidLabel):
        build_crossmap("x", "y", [("a", f"b{char}", 1.0)])


def test_clean_label_keeps_inner_tab():
    assert clean_label("a\tb") == "a\tb"


def test_neighbourhoods_come_back_in_pair_order():
    # links deliberately given out of (source, target) order
    crossmap = build_crossmap(
        "x", "y",
        [("b", "q", 0.5), ("a", "q", 1.0), ("b", "p", 0.5), ("c", "q", 0.25), ("c", "p", 0.75)],
    )
    assert [l.target for l in crossmap.links_from("b")] == ["p", "q"]
    assert [l.target for l in crossmap.links_from("c")] == ["p", "q"]
    assert [l.source for l in crossmap.links_into("q")] == ["a", "b", "c"]
    assert [l.source for l in crossmap.links_into("p")] == ["b", "c"]
    assert [l.pair for l in crossmap.pair_order] == sorted(l.pair for l in crossmap.links)
    # first-appearance category order and stored link order are untouched
    assert crossmap.source_categories == ("b", "a", "c")
    assert crossmap.target_categories == ("q", "p")
    assert crossmap.links[0].pair == ("b", "q")


def _views(crossmap: Crossmap) -> tuple:
    """Every derived view of a crossmap, computing (and caching) each one."""
    return (
        crossmap.pair_order,
        crossmap.source_categories,
        crossmap.target_categories,
        [crossmap.links_from(s) for s in crossmap.source_categories],
        [crossmap.links_into(t) for t in crossmap.target_categories],
        [classify_source(crossmap, s) for s in crossmap.source_categories],
        [classify_target(crossmap, t) for t in crossmap.target_categories],
        summarize(crossmap),
        crossmap.is_crosswalk,
    )


@pytest.mark.parametrize(
    "duplicate",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy, dataclasses.replace],
    ids=["pickle", "copy", "deepcopy", "replace"],
)
def test_values_survive_pickle_copy_and_replace(duplicate):
    crossmap = country_fixture()
    # compose builds its result from the columns of its kernel.
    merge = build_crossmap("new", "blocs", [("BEL", "EU", 1.0), ("LUX", "EU", 1.0),
                                            ("DEU", "EU", 1.0), ("AUS", "OC", 1.0)])
    composed = compose(crossmap, merge)
    for mapping in (crossmap, composed):
        views = _views(mapping)  # cached before the value is duplicated
        for value in (mapping.links[0], mapping):
            twin = duplicate(value)
            assert twin == value and hash(twin) == hash(value)
        assert _views(duplicate(mapping)) == views
    series = country_series()
    twin = duplicate(series)
    assert twin == series and dict(twin.entries) == dict(series.entries)


@pytest.mark.parametrize(
    "duplicate",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy, dataclasses.replace],
    ids=["pickle", "copy", "deepcopy", "replace"],
)
def test_values_duplicated_before_pair_order_is_read(duplicate):
    # pair_order is built on first use, so a value duplicated before then
    # builds its own from the links it carries.
    crossmap = country_fixture()
    assert "pair_order" not in vars(crossmap)
    twin = duplicate(crossmap)
    assert twin == crossmap and hash(twin) == hash(crossmap)
    assert twin.pair_order == tuple(sorted(crossmap.links, key=lambda link: link.pair))
    assert _views(twin) == _views(crossmap)


def test_replace_cleans_labels_and_link_stays_frozen_and_slotted():
    link = dataclasses.replace(Link("a", "b", 0.5), source=" c ")
    assert link == Link("c", "b", 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        link.source = "d"
    assert not hasattr(link, "__dict__")
    with pytest.raises(WeightOutOfRange):
        dataclasses.replace(link, weight=0.0)
    series = dataclasses.replace(country_series(), taxonomy="old")
    assert dataclasses.replace(series, entries={" BLX ": 1.0}).entries == {"BLX": 1.0}
