from __future__ import annotations

import copy
import dataclasses
import hashlib
import logging
import math
import pickle
import random
import sys

import pytest

from xmap import (
    CompoundedSlack,
    Crossmap,
    CrossmapError,
    DocumentError,
    DuplicateKey,
    DuplicatePanelRow,
    DuplicateUnit,
    HarmonisedPanel,
    IndexedSeries,
    InvalidLabel,
    MassOverflow,
    MassUnderflow,
    MissingSourceMapping,
    MultiStepChain,
    NonFiniteValue,
    NotBijective,
    PanelRow,
    TargetTaxonomyMismatch,
    TaxonomyMismatch,
    UncoveredIntermediate,
    WEIGHT_SUM_TOLERANCE,
    WeightSumViolation,
    apply,
    apply_chain,
    build_crossmap,
    compose,
    harmonise,
    invert,
    summarize,
    write_edge_list,
    write_series,
    write_summary_json,
)
from helpers import (
    COUNTRY_EXPECTED,
    country_fixture,
    country_series,
    oracle_matrix_apply,
    random_chain,
    random_composable_pair,
    random_crossmap,
    random_series,
)


def test_series_validation():
    series = IndexedSeries("t", {" a ": 1.0, "b": 2.5})
    assert dict(series.entries) == {"a": 1.0, "b": 2.5}
    assert series.total() == 3.5
    with pytest.raises(DuplicateKey):
        IndexedSeries("t", {"a": 1.0, " a": 2.0})  # collides after trimming
    with pytest.raises(NonFiniteValue):
        IndexedSeries("t", {"a": math.nan})
    with pytest.raises(NonFiniteValue):
        IndexedSeries("t", {"a": math.inf})


def test_series_entries_are_read_only():
    series = IndexedSeries("t", {"a": 1.0})
    with pytest.raises(TypeError):
        series.entries["a"] = 2.0


def test_equal_series_hash_equal():
    series = IndexedSeries("t", {"a": 1.0, "b": 2.5})
    same = IndexedSeries("t", {"b": 2.5, " a ": 1})  # other key order, uncleaned label
    assert hash(series) == hash(same)
    assert same in {series}
    assert {series: "found"}[same] == "found"
    assert hash(pickle.loads(pickle.dumps(series))) == hash(series)
    assert IndexedSeries("u", {"a": 1.0, "b": 2.5}) not in {series}


def test_total_adds_left_to_right_on_every_interpreter():
    # Python 3.12's compensated float sum() would give 1.6 here.
    series = IndexedSeries("t", {"a": 0.1, "b": 0.2, "c": 0.3, "d": 1e16, "e": 1.0, "f": -1e16})
    assert series.total() == 0.0


def test_apply_country_fixture_exact():
    out = apply(country_fixture(), country_series())
    assert out.taxonomy == "new"
    assert dict(out.entries) == COUNTRY_EXPECTED


@pytest.mark.parametrize(
    "duplicate",
    [
        lambda v: v,
        lambda v: pickle.loads(pickle.dumps(v)),
        dataclasses.replace,
        lambda v: dataclasses.replace(v, taxonomy="other"),
    ],
    ids=["same", "pickle", "replace", "replace-taxonomy"],
)
def test_apply_output_is_an_ordinary_series(duplicate):
    out = apply(country_fixture(), country_series())
    built = IndexedSeries(out.taxonomy, dict(out.entries))
    assert not hasattr(out, "__dict__") and not hasattr(built, "__dict__")
    twin, built_twin = duplicate(out), duplicate(built)
    assert twin == built_twin and hash(twin) == hash(built_twin)
    assert list(twin.entries.items()) == list(built_twin.entries.items())
    assert pickle.dumps(twin) == pickle.dumps(built_twin)
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.taxonomy = "other"


def test_apply_requires_matching_taxonomy():
    with pytest.raises(TaxonomyMismatch):
        apply(country_fixture(), IndexedSeries("elsewhere", {"BLX": 1.0}))


def test_apply_missing_sources_count_as_zero():
    out = apply(country_fixture(), IndexedSeries("old", {"BLX": 10.0}))
    assert dict(out.entries) == {"BEL": 5.0, "LUX": 5.0, "DEU": 0.0, "AUS": 0.0}


def test_apply_rejects_unmatched_keys_by_default():
    series = IndexedSeries("old", {"BLX": 1.0, "ATLANTIS": 9.0, "MU": 2.0})
    with pytest.raises(MissingSourceMapping) as caught:
        apply(country_fixture(), series)
    # first unmatched key alphabetically, with the rest counted
    assert "'ATLANTIS'" in str(caught.value)
    assert "1 more" in str(caught.value)


def test_apply_allow_unmatched_drops_and_warns(caplog):
    series = IndexedSeries("old", {"BLX": 10.0, "ATLANTIS": 9.0})
    with caplog.at_level(logging.WARNING, logger="xmap.transform"):
        out = apply(country_fixture(), series, allow_unmatched=True)
    assert dict(out.entries) == {"BEL": 5.0, "LUX": 5.0, "DEU": 0.0, "AUS": 0.0}
    assert any("ATLANTIS" in message for message in caplog.messages)


def test_apply_matches_matrix_oracle():
    rng = random.Random(7)
    for _ in range(25):
        crossmap = random_crossmap(rng, max_sources=20, max_targets=20)
        series = random_series(rng, crossmap)
        mine = apply(crossmap, series)
        dense = oracle_matrix_apply(crossmap, series)
        assert set(mine.entries) == set(dense)
        for label, value in dense.items():
            assert math.isclose(mine.entries[label], value, rel_tol=1e-9, abs_tol=1e-6)


def test_compose_country_chain():
    recode = country_fixture()
    merge = build_crossmap(
        "new", "blocs",
        [("BEL", "BENELUX", 1.0), ("LUX", "BENELUX", 1.0), ("DEU", "DACH", 1.0), ("AUS", "DACH", 1.0)],
    )
    fused = compose(recode, merge)
    assert fused.source_taxonomy == "old"
    assert fused.target_taxonomy == "blocs"
    direct = apply(fused, country_series())
    chained = apply(merge, apply(recode, country_series()))
    for label in direct.entries:
        assert math.isclose(direct.entries[label], chained.entries[label], rel_tol=1e-12)


def test_compose_requires_name_match():
    with pytest.raises(TaxonomyMismatch):
        compose(country_fixture(), build_crossmap("elsewhere", "z", [("BEL", "B", 1.0)]))


def test_compose_requires_full_coverage():
    partial = build_crossmap("new", "z", [("BEL", "B", 1.0), ("LUX", "B", 1.0), ("DEU", "D", 1.0)])
    with pytest.raises(UncoveredIntermediate) as caught:
        compose(country_fixture(), partial)  # AUS has nowhere to go
    assert "'AUS'" in str(caught.value)


def test_compose_clamps_float_overshoot():
    # 0.1 + 0.2 + 0.7 accumulates to just above 1 in floats
    spread = build_crossmap("x", "m", [("a", "m1", 0.1), ("a", "m2", 0.2), ("a", "m3", 0.7)])
    collect = build_crossmap("m", "y", [("m1", "u", 1.0), ("m2", "u", 1.0), ("m3", "u", 1.0)])
    fused = compose(spread, collect)
    assert fused.links[0].weight == 1.0


def test_compose_clamps_slack_within_the_tolerance_and_apply_drops_it():
    # s sums to 1.0000009, inside the tolerance, and all of it reaches u: the
    # composed share is clamped to 1, so applying the composition drops the
    # 9e-7 of s's value that apply_chain carries, within (2e + e^2) * |value|.
    a = build_crossmap("x", "m", [("s", "m1", 0.5000009), ("s", "m2", 0.5)])
    b = build_crossmap("m", "y", [("m1", "u", 1.0), ("m2", "u", 1.0)])
    assert [(l.source, l.target, l.weight) for l in compose(a, b).links] == [("s", "u", 1.0)]
    series = IndexedSeries("x", {"s": 1e6})
    direct = apply(compose(a, b), series).entries["u"]
    chained = apply_chain(MultiStepChain((a, b)), series).entries["u"]
    assert direct == 1e6 and chained == pytest.approx(1e6 + 0.9, abs=1e-6)
    assert chained - direct <= (2 * WEIGHT_SUM_TOLERANCE + WEIGHT_SUM_TOLERANCE**2) * 1e6


def test_compose_names_slack_that_compounds_beyond_the_tolerance():
    # Each source of either map sums to 1.0000009, inside the tolerance; the
    # composed source sums to about (1 + 9e-7)^2 = 1.0000018, outside it.
    a = build_crossmap("x", "m", [("s", "m1", 0.5000009), ("s", "m2", 0.5)])
    b = build_crossmap("m", "y", [
        ("m1", "u1", 0.5000009), ("m1", "u2", 0.5), ("m2", "u1", 0.5000009), ("m2", "u2", 0.5)
    ])
    with pytest.raises(CompoundedSlack) as caught:
        compose(a, b)
    assert isinstance(caught.value, WeightSumViolation)
    assert (caught.value.source, caught.value.index) == ("s", None)
    assert str(caught.value) == (
        "composed weights for source 's' sum to 1.0000018, expected 1: both maps are valid, "
        "but the slack of their weight sums compounds beyond the tolerance"
    )


def test_compose_names_slack_just_beyond_the_tolerance():
    # Each source sums to 1.000000525, inside the tolerance; the composed
    # source sums to 1.00000105, 5% beyond it.
    a = build_crossmap("x", "m", [("s", "m1", 0.500000525), ("s", "m2", 0.5)])
    b = build_crossmap("m", "y", [
        ("m1", "u1", 0.5), ("m1", "u2", 0.500000525), ("m2", "u1", 0.5), ("m2", "u2", 0.500000525)
    ])
    with pytest.raises(CompoundedSlack) as caught:
        compose(a, b)
    assert caught.value.source == "s"
    assert str(caught.value).startswith("composed weights for source 's' sum to 1.00000105,")


def test_compounded_slack_takes_line_and_unit_tags():
    err = CompoundedSlack("s", 1.1)
    assert (err.source, err.total, err.index) == ("s", 1.1, None)
    text = (
        "composed weights for source 's' sum to 1.1, expected 1: both maps are valid, "
        "but the slack of their weight sums compounds beyond the tolerance"
    )
    assert str(err) == text
    assert str(err.for_unit("u")) == f"unit 'u': {text}"
    assert str(CompoundedSlack("s", 1.1).at_line(3)) == f"{text} (line 3)"


def test_compose_leaves_out_shares_that_underflow_to_zero():
    # B -> P -> U carries 1e-200 * 1e-200, which is 0.0 in floats: no link
    a = build_crossmap("x", "m", [("A", "P", 1.0), ("B", "P", 1e-200), ("B", "Q", 1.0)])
    b = build_crossmap("m", "y", [("P", "U", 1e-200), ("P", "V", 1.0), ("Q", "V", 1.0)])
    fused = compose(a, b)
    assert [link.pair for link in fused.links] == [("A", "U"), ("A", "V"), ("B", "V")]
    assert fused.links_from("B")[0].weight == 1.0
    assert fused.links_from("A")[0].weight == 1e-200


def test_apply_refuses_a_product_below_the_smallest_normal_float():
    # 1.5 * min split in halves gives 0.75 * min per link, subnormal: the
    # first link in pair order is named.
    split = build_crossmap("x", "y", [("s", "v", 0.5), ("s", "u", 0.5)])
    with pytest.raises(MassUnderflow) as caught:
        apply(split, IndexedSeries("x", {"s": 1.5 * sys.float_info.min}))
    assert (caught.value.source, caught.value.target) == ("s", "u")
    # 2 * min split in halves gives exactly min per link, which is normal.
    out = apply(split, IndexedSeries("x", {"s": 2 * sys.float_info.min}))
    assert dict(out.entries) == {"v": sys.float_info.min, "u": sys.float_info.min}


def test_apply_carries_a_subnormal_value_along_a_unit_weight():
    # A weight of 1 moves the value as it is, so even the smallest subnormal
    # keeps its mass, while another source splits.
    crossmap = build_crossmap("x", "y", [("a", "t", 1.0), ("b", "u", 0.5), ("b", "v", 0.5)])
    out = apply(crossmap, IndexedSeries("x", {"a": 5e-324, "b": 1.0}))
    assert dict(out.entries) == {"t": 5e-324, "u": 0.5, "v": 0.5}


def test_apply_names_underflow_before_overflow():
    crossmap = build_crossmap(
        "x", "y", [("a", "t", 1.0), ("b", "t", 1.0), ("c", "u", 0.5), ("c", "v", 0.5)]
    )
    series = IndexedSeries("x", {"a": 1e308, "b": 1e308, "c": 1.5 * sys.float_info.min})
    with pytest.raises(MassUnderflow) as caught:
        apply(crossmap, series)
    assert (caught.value.source, caught.value.target) == ("c", "u")


def test_apply_overflow_is_a_domain_error():
    merge = build_crossmap("x", "y", [("a", "t", 1.0), ("b", "t", 1.0)])
    with pytest.raises(MassOverflow) as caught:
        apply(merge, IndexedSeries("x", {"a": 1e308, "b": 1e308}))
    assert not isinstance(caught.value, DocumentError)
    assert (caught.value.target, caught.value.total) == ("t", math.inf)
    assert str(caught.value) == "value for target 't' overflows to inf"


def test_invert_bijection_round_trips():
    walk = build_crossmap("iso2", "iso3", [("AF", "AFG", 1.0), ("AL", "ALB", 1.0)])
    back = invert(walk)
    assert back.source_taxonomy == "iso3"
    assert [l.pair for l in back.links] == [("AFG", "AF"), ("ALB", "AL")]
    assert invert(back) == walk


def test_invert_rejects_split_and_aggregate():
    with pytest.raises(NotBijective) as caught:
        invert(country_fixture())
    assert "'BLX'" in str(caught.value)
    merge = build_crossmap("x", "y", [("a", "p", 1.0), ("b", "p", 1.0)])
    with pytest.raises(NotBijective) as caught:
        invert(merge)
    assert "'p'" in str(caught.value)


def test_invert_rejects_near_unit_weight():
    # 0.9999995 is within the 1e-6 sum tolerance, so the map is valid, but it
    # is no crosswalk and inverting it would rewrite the weight to 1
    near = build_crossmap("a", "b", [("X", "P", 0.9999995), ("Y", "Q", 1.0)])
    assert not near.is_crosswalk
    with pytest.raises(NotBijective) as caught:
        invert(near)
    assert caught.value.reason == "non-unit-weight"
    assert caught.value.label == "X"


def test_chain_validation():
    recode = country_fixture()
    with pytest.raises(CrossmapError):
        MultiStepChain(())
    with pytest.raises(TaxonomyMismatch):
        MultiStepChain((recode, build_crossmap("elsewhere", "z", [("BEL", "B", 1.0)])))
    partial = build_crossmap("new", "z", [("BEL", "B", 1.0), ("LUX", "B", 1.0), ("DEU", "D", 1.0)])
    with pytest.raises(UncoveredIntermediate):
        MultiStepChain((recode, partial))


def test_apply_chain_matches_composition():
    recode = country_fixture()
    merge = build_crossmap(
        "new", "blocs",
        [("BEL", "BENELUX", 1.0), ("LUX", "BENELUX", 1.0), ("DEU", "DACH", 1.0), ("AUS", "DACH", 1.0)],
    )
    chain = MultiStepChain((recode, merge))
    assert chain.taxonomies == ("old", "new", "blocs")
    stepped = apply_chain(chain, country_series())
    fused = apply(compose(recode, merge), country_series())
    assert stepped.taxonomy == "blocs"
    for label in stepped.entries:
        assert math.isclose(stepped.entries[label], fused.entries[label], rel_tol=1e-9)


def test_harmonise_builds_panel_in_unit_order():
    crossmap = country_fixture()
    panel = harmonise(
        [
            ("gdp", crossmap, IndexedSeries("old", {"BLX": 10.0, "AUS": 3.0})),
            ("pop", crossmap, IndexedSeries("old", {"E.GER": 2.0, "W.GER": 4.0})),
        ]
    )
    assert isinstance(panel, HarmonisedPanel)
    assert panel.target_taxonomy == "new"
    units = [row.unit for row in panel.rows]
    assert units == ["gdp"] * 4 + ["pop"] * 4
    gdp = {row.key: row.value for row in panel.rows if row.unit == "gdp"}
    assert gdp == {"AUS": 3.0, "BEL": 5.0, "DEU": 0.0, "LUX": 5.0}
    # keys sorted within each unit
    keys = [row.key for row in panel.rows if row.unit == "pop"]
    assert keys == sorted(keys)
    assert panel.rows[0] == PanelRow("gdp", "AUS", 3.0)


def test_harmonise_vouches_for_the_panel_its_constructor_would_build():
    crossmap = country_fixture()
    panel = harmonise([(" gdp ", crossmap, country_series()), ("pop", crossmap, country_series())])
    checked = HarmonisedPanel("new", panel.rows)
    assert panel == checked and hash(panel) == hash(checked)
    assert all(type(row) is PanelRow for row in panel.rows)
    assert not hasattr(panel, "__dict__")  # slotted, like the other value types
    for twin in (pickle.loads(pickle.dumps(panel)), copy.copy(panel), copy.deepcopy(panel)):
        assert twin == panel and hash(twin) == hash(panel)
        assert type(twin) is HarmonisedPanel


def test_harmonise_rejects_duplicate_units_and_target_drift():
    crossmap = country_fixture()
    series = IndexedSeries("old", {"BLX": 1.0})
    with pytest.raises(DuplicateUnit):
        harmonise([("a", crossmap, series), ("a", crossmap, series)])
    other_target = build_crossmap("old", "elsewhere", [("BLX", "X", 1.0)])
    with pytest.raises(TargetTaxonomyMismatch) as caught:
        harmonise([("a", crossmap, series), ("b", other_target, IndexedSeries("old", {"BLX": 1.0}))])
    assert "'b'" in str(caught.value)


def test_harmonise_checks_duplicate_units_on_cleaned_names():
    crossmap, series = country_fixture(), IndexedSeries("old", {"BLX": 1.0})
    with pytest.raises(DuplicateUnit) as caught:
        harmonise([("u", crossmap, series), (" u", crossmap, series)])
    assert (str(caught.value), caught.value.unit) == ("duplicate unit name 'u'", "u")
    with pytest.raises(MissingSourceMapping) as caught:
        harmonise([(" u ", crossmap, IndexedSeries("old", {"ATLANTIS": 1.0}))])
    assert caught.value.unit == "u"
    with pytest.raises(InvalidLabel) as caught:  # index: the first row its unit would take
        harmonise([("u", crossmap, series), ("u,1", crossmap, series)])
    assert (caught.value.text, caught.value.index) == ("u,1", 4)


def test_harmonise_tags_apply_errors_with_unit():
    crossmap = country_fixture()
    bad = IndexedSeries("old", {"ATLANTIS": 1.0})
    with pytest.raises(MissingSourceMapping) as caught:
        harmonise([("trade", crossmap, bad)])
    assert str(caught.value).startswith("unit 'trade':")


def test_harmonise_needs_an_input():
    with pytest.raises(CrossmapError, match="at least one"):
        harmonise([])


def test_harmonised_panel_cleans_and_checks_each_row():
    panel = HarmonisedPanel("t", [(" u ", " k ", 1), ("u", "j", 2.5)])
    assert panel.rows == (PanelRow("u", "k", 1.0), PanelRow("u", "j", 2.5))
    assert all(type(row) is PanelRow and type(row.value) is float for row in panel.rows)
    with pytest.raises(InvalidLabel) as caught:
        harmonise([("u,1", country_fixture(), country_series())])
    assert (caught.value.text, caught.value.index) == ("u,1", 0)
    with pytest.raises(InvalidLabel) as caught:
        HarmonisedPanel("t", [("u", "k", 1.0), ("u", "", 2.0)])
    assert caught.value.index == 1
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteValue) as caught:
            HarmonisedPanel("t", [("u", "j", 1.0), ("u", " k ", value)])
        assert str(caught.value) == f"unit 'u': value for 'k' is not finite: {value!r}"
        assert (caught.value.unit, caught.value.index) == ("u", 1)


@pytest.mark.parametrize(
    "rows",
    [[("u", "k", 1.0), ("u", "k", 2.0)], [("u", "k", 1.0), (" u", "k ", 2.0)]],
    ids=["exact", "after-trimming"],
)
def test_harmonised_panel_rejects_a_repeated_row(rows):
    with pytest.raises(DuplicatePanelRow) as caught:
        HarmonisedPanel("t", rows)
    assert str(caught.value) == "duplicate panel row for ('u', 'k')"
    assert (caught.value.unit, caught.value.key, caught.value.index) == ("u", "k", 1)


def test_mass_conserved_on_fixture():
    series = country_series()
    out = apply(country_fixture(), series)
    assert out.total() == series.total()


def test_apply_is_linear():
    rng = random.Random(11)
    for _ in range(20):
        crossmap = random_crossmap(rng, max_sources=12, max_targets=12)
        u = random_series(rng, crossmap)
        v = random_series(rng, crossmap)
        alpha, beta = rng.uniform(-3, 3), rng.uniform(-3, 3)
        mixed = IndexedSeries(
            u.taxonomy,
            {key: alpha * u.entries[key] + beta * v.entries[key] for key in u.entries},
        )
        left = apply(crossmap, mixed)
        right_u = apply(crossmap, u)
        right_v = apply(crossmap, v)
        for label in left.entries:
            expected = alpha * right_u.entries[label] + beta * right_v.entries[label]
            assert math.isclose(left.entries[label], expected, rel_tol=1e-9, abs_tol=1e-6)


def test_compose_is_associative():
    rng = random.Random(13)
    for _ in range(30):
        a, b = random_composable_pair(rng)
        # third stage covers everything b can reach
        finals = [f"Z{i}" for i in range(rng.randint(1, 6))]
        links_c = []
        for label in b.target_categories:
            fan = rng.randint(1, min(3, len(finals)))
            heads = rng.sample(finals, fan)
            if fan == 1:
                links_c.append((label, heads[0], 1.0))
            else:
                shares = [rng.randint(1, 9) for _ in range(fan)]
                total = sum(shares)
                links_c.extend((label, h, s / total) for h, s in zip(heads, shares))
        c = build_crossmap("omega", "zeta", links_c)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert [l.pair for l in left.links] == [l.pair for l in right.links]
        for mine, theirs in zip(left.links, right.links):
            assert abs(mine.weight - theirs.weight) <= 1e-12


def test_compose_matches_dense_matrix_oracle():
    import numpy as np

    rng = random.Random(17)
    for _ in range(30):
        a, b = random_composable_pair(rng)
        fused = compose(a, b)

        rows = sorted(a.source_categories)
        mids = sorted(set(a.target_categories) | set(b.source_categories))
        cols = sorted(b.target_categories)
        row_pos = {label: i for i, label in enumerate(rows)}
        mid_pos = {label: i for i, label in enumerate(mids)}
        col_pos = {label: i for i, label in enumerate(cols)}
        first = np.zeros((len(rows), len(mids)))
        for link in a.links:
            first[row_pos[link.source], mid_pos[link.target]] = link.weight
        second = np.zeros((len(mids), len(cols)))
        for link in b.links:
            second[mid_pos[link.source], col_pos[link.target]] = link.weight
        product = first @ second

        seen = set()
        for link in fused.links:
            seen.add(link.pair)
            expected = product[row_pos[link.source], col_pos[link.target]]
            assert math.isclose(link.weight, expected, rel_tol=1e-9, abs_tol=1e-15)
        nonzero = {
            (rows[i], cols[j])
            for i, j in zip(*product.nonzero())
        }
        assert seen == nonzero


def test_three_step_chain_matches_fold_compose():
    rng = random.Random(19)
    for _ in range(20):
        a, b = random_composable_pair(rng)
        links_c = [(label, "SINK", 1.0) for label in b.target_categories]
        c = build_crossmap("omega", "zeta", links_c)
        chain = MultiStepChain((a, b, c))
        series = random_series(rng, a)
        stepped = apply_chain(chain, series)
        folded = apply(compose(compose(a, b), c), series)
        assert set(stepped.entries) == set(folded.entries)
        for label in stepped.entries:
            assert math.isclose(
                stepped.entries[label], folded.entries[label], rel_tol=1e-9, abs_tol=1e-6
            )


def test_harmonise_preserves_each_units_mass():
    rng = random.Random(23)
    crossmap = random_crossmap(rng, max_sources=15, max_targets=10)
    inputs = []
    for unit in ("alpha", "beta", "gamma"):
        inputs.append((unit, crossmap, random_series(rng, crossmap)))
    panel = harmonise(inputs)
    for unit, _, series in inputs:
        out_total = sum(row.value for row in panel.rows if row.unit == unit)
        scale = sum(abs(v) for v in series.entries.values())
        assert abs(out_total - series.total()) <= 1e-9 * scale


def test_apply_partial_series_example():
    crossmap = build_crossmap("x", "y", [("A", "X", 0.5), ("A", "Y", 0.5), ("B", "X", 1.0)])
    out = apply(crossmap, IndexedSeries("x", {"A": 2.0}))
    assert dict(out.entries) == {"X": 1.0, "Y": 1.0}


# sha256 per output kind over 50 random composable pairs and one 2000-source
# chain, recorded before Crossmap cached its derived views and compose, invert
# and apply stopped re-cleaning labels: the output bytes may not change.
GOLDEN_OUTPUTS = {
    "compose": "ff164841fad5971d0a17ad589a77ed8c3b0f610452cec7a2e018131afc2e8bb8",
    "apply": "ee1f958c4be226f4c12208048d8fc3720d20fb795ed025059a679f73fe5f456c",
    "summarize": "bedc92d9d0a579cf60f96d20f7139551431ec7bd0e5a605f1b0220335d6d5e52",
    "invert": "81770ce9c53fb278bbdebcdd3e13be11de483e5f590a7d5d7491fbb38fb14d78",
}


def _bijection(rng: random.Random, crossmap: Crossmap) -> Crossmap:
    """A unit-weight bijection from the sources of ``crossmap``, links shuffled."""
    sources = list(crossmap.source_categories)
    rng.shuffle(sources)
    return build_crossmap("alpha", "beta", [(s, f"B-{s}", 1.0) for s in sources])


def test_outputs_are_pinned():
    rng = random.Random(8)
    cases = [random_composable_pair(rng) for _ in range(50)] + [random_chain(rng, 2000)]
    digests = {kind: hashlib.sha256() for kind in GOLDEN_OUTPUTS}
    for a, b in cases:
        fused = compose(a, b)
        outputs = {
            "compose": [write_edge_list(fused)],
            "apply": [write_series(apply(a, random_series(rng, a)))],
            "summarize": [write_summary_json(summarize(m)) for m in (a, b, fused)],
            "invert": [write_edge_list(invert(_bijection(rng, a)))],
        }
        for kind, texts in outputs.items():
            for text in texts:
                digests[kind].update(text.encode("utf-8") + b"\0")
    assert {kind: d.hexdigest() for kind, d in digests.items()} == GOLDEN_OUTPUTS


# sha256 of the edge list of one 12 707-link composition, recorded before
# `xmap compose` wrote the columns of compose's kernel directly.
GOLDEN_LARGE_COMPOSE = "e8602842060999a3b73bb6fc08fa8fd28f2f2048307d06f16ee91b733843ce37"


def test_large_composition_bytes_are_pinned():
    fused = compose(*random_chain(random.Random(2000), 2000))
    assert (len(fused.links), len(fused.source_categories), len(fused.target_categories)) == (
        12707, 2000, 497
    )
    assert hashlib.sha256(write_edge_list(fused).encode("utf-8")).hexdigest() == GOLDEN_LARGE_COMPOSE
