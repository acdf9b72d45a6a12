"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random

import pytest

from xmap import (
    DuplicateLink,
    IndexedSeries,
    Link,
    MultiStepChain,
    WeightSumViolation,
    apply,
    build_crossmap,
    compose,
    import_crosswalk,
    invert,
    layout_bipartite,
    layout_chain,
    read_crosswalk_table,
    read_edge_list,
    render_svg,
    summarize,
    write_edge_list,
    write_summary_json,
)
from xmap.cli import run
from helpers import (
    COUNTRY_EDGE_TEXT,
    COUNTRY_EXPECTED,
    COUNTRY_LINKS,
    COUNTRY_VALUES,
    ISO_COLUMNS,
    ISO_TABLE_TEXT,
    country_fixture,
    country_series,
    oracle_crossings,
    oracle_expand_group_sum,
    oracle_relabel_group_sum,
    plan_crossings,
    random_composable_pair,
    random_crossmap,
    random_crosswalk,
    random_series,
)


def test_criterion_01_country_fixture_build_summarize_transform():
    crossmap = country_fixture()
    summary = summarize(crossmap)
    assert summary.n_splits == 1
    assert summary.n_aggregates == 1
    assert summary.max_in_degree == 2
    assert summary.is_crosswalk is False

    out = apply(crossmap, country_series())
    assert dict(out.entries) == COUNTRY_EXPECTED  # integer-representable: exact
    assert dict(out.entries) == oracle_expand_group_sum(COUNTRY_LINKS, COUNTRY_VALUES)


def test_criterion_02_iso_table_imports_inverts_and_keeps_codes_verbatim():
    doc = read_crosswalk_table(ISO_TABLE_TEXT)
    for from_col, to_col in itertools.permutations(ISO_COLUMNS, 2):
        walk = import_crosswalk(doc, from_col, to_col)
        assert walk.is_crosswalk
        assert len(walk.links) == 5

    two_to_three = import_crosswalk(doc, "ISO2", "ISO3")
    three_to_two = import_crosswalk(doc, "ISO3", "ISO2")
    assert invert(two_to_three) == three_to_two
    assert invert(invert(two_to_three)) == two_to_three

    numeric = import_crosswalk(doc, "ISONumeric", "ISO3")
    assert numeric.source_categories[0] == "004"
    back = read_edge_list(write_edge_list(numeric), "ISONumeric", "ISO3")
    assert back.source_categories[0] == "004"
    assert back == numeric


def test_criterion_03_mass_conservation_1000_random_crossmaps():
    for seed in range(1000):
        rng = random.Random(30_000 + seed)
        crossmap = random_crossmap(rng, max_sources=50, max_targets=50)
        series = random_series(rng, crossmap)
        out = apply(crossmap, series)
        abs_in = sum(abs(value) for value in series.entries.values())
        assert abs(out.total() - series.total()) <= 1e-9 * abs_in


def test_criterion_04_functor_law_200_composable_pairs():
    for seed in range(200):
        rng = random.Random(40_000 + seed)
        first, second = random_composable_pair(rng)
        fused = compose(first, second)  # construction runs full validation
        entries = {
            label: float(rng.randint(0, 1_000_000)) for label in first.source_categories
        }
        series = IndexedSeries("alpha", entries)
        one_step = apply(fused, series)
        two_step = apply(second, apply(first, series))
        # the two-step route zero-fills targets no first-stage mass can reach;
        # the composed map omits them, so they must carry exactly zero
        assert set(one_step.entries) <= set(two_step.entries)
        for label in set(two_step.entries) - set(one_step.entries):
            assert two_step.entries[label] == 0.0
        for label in one_step.entries:
            assert math.isclose(
                one_step.entries[label], two_step.entries[label], rel_tol=1e-9
            )


def test_criterion_05_perturbation_and_duplication_rejected():
    cases = [country_fixture()]
    for seed in range(40):
        cases.append(random_crossmap(random.Random(50_000 + seed), max_sources=12, max_targets=8))
    for crossmap in cases:
        links = list(crossmap.links)
        for index, victim in enumerate(links):
            for delta in (1e-3, -1e-3):
                if not 0.0 < victim.weight + delta <= 1.0:
                    continue
                broken = list(links)
                broken[index] = Link(victim.source, victim.target, victim.weight + delta)
                with pytest.raises(WeightSumViolation) as caught:
                    build_crossmap("alpha", "beta", broken)
                assert caught.value.source == victim.source
            with pytest.raises(DuplicateLink) as caught:
                build_crossmap("alpha", "beta", links + [victim])
            assert (caught.value.source, caught.value.target) == victim.pair


def test_criterion_06_crosswalk_apply_matches_relabel_group_sum_bitwise():
    for seed in range(200):
        rng = random.Random(60_000 + seed)
        walk = random_crosswalk(rng)
        series = random_series(rng, walk, integer=True)
        mapping = {link.source: link.target for link in walk.links}
        assert dict(apply(walk, series).entries) == oracle_relabel_group_sum(
            mapping, dict(series.entries)
        )


def test_criterion_07_round_trips_500_crossmaps_and_summary_json():
    for seed in range(500):
        rng = random.Random(70_000 + seed)
        crossmap = random_crossmap(rng)
        back = read_edge_list(
            write_edge_list(crossmap), crossmap.source_taxonomy, crossmap.target_taxonomy
        )
        assert {l.pair for l in back.links} == {l.pair for l in crossmap.links}
        for mine, theirs in zip(crossmap.links, back.links):
            assert mine.pair == theirs.pair
            assert abs(mine.weight - theirs.weight) <= 1e-9

        summary = summarize(crossmap)
        parsed = json.loads(write_summary_json(summary))
        assert parsed["n_sources"] == summary.n_sources
        assert parsed["n_targets"] == summary.n_targets
        assert parsed["n_links"] == summary.n_links
        assert parsed["n_splits"] == summary.n_splits
        assert parsed["n_aggregates"] == summary.n_aggregates
        assert parsed["max_in_degree"] == summary.max_in_degree
        assert parsed["is_crosswalk"] == summary.is_crosswalk
        assert [tuple(item) for item in parsed["most_synthetic_targets"]] == list(
            summary.most_synthetic_targets
        )


def test_criterion_08_svg_encodings_and_determinism():
    crossmap = country_fixture()
    svg = render_svg(layout_bipartite(crossmap))
    assert svg.count("stroke-dasharray") == 2
    assert svg.count('font-style="italic"') == 1
    assert svg.count('font-weight="bold"') == 3

    import re

    pairs = re.findall(
        r'fill-opacity="([0-9.]+)"/>\n<text[^>]*>([^<]+)</text>', svg
    )
    opacity = {label: float(value) for value, label in pairs}
    assert set(opacity) == {"BEL", "LUX", "DEU", "AUS"}
    for label in ("BEL", "LUX", "AUS"):
        assert opacity["DEU"] > opacity[label]

    again = render_svg(layout_bipartite(crossmap))
    assert svg == again


def test_criterion_09_layout_orderings_and_crossing_bound():
    plan = layout_bipartite(country_fixture())
    top = [node.label for node in plan.layers[0] if node.y == 0]
    assert top == ["BLX"]

    for seed in range(300):
        rng = random.Random(90_000 + seed)
        crossmap = random_crossmap(rng, max_sources=8, max_targets=8)
        chain_plan = layout_chain(MultiStepChain((crossmap,)))
        tail_rows = {label: i for i, label in enumerate(crossmap.source_categories)}
        head_rows = {label: i for i, label in enumerate(crossmap.target_categories)}
        input_crossings = oracle_crossings(
            tail_rows, head_rows, [(l.source, l.target) for l in crossmap.links]
        )
        assert plan_crossings(chain_plan) <= input_crossings


def test_criterion_10_cli_exit_codes_and_out_file(tmp_path):
    table2 = tmp_path / "table2.csv"
    table2.write_text(COUNTRY_EDGE_TEXT)
    values = tmp_path / "values.csv"
    values.write_text("key,value\nBLX,10\nE.GER,5\nW.GER,7\nAUS,3\n")
    broken = tmp_path / "broken.csv"
    broken.write_text("from,to,weight\nBLX,BEL,0.6\nBLX,LUX,0.5\nAUS,AUS,1\n")
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("from;to;weight\nBLX;BEL;1\n")

    def invoke(*argv: str) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        code = run(list(argv), stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    code, out, _ = invoke("validate", str(table2))
    assert code == 0 and "5 links" in out

    code, _, err = invoke("validate", str(broken))
    assert code == 1 and "BLX" in err

    code, _, err = invoke("validate", str(malformed))
    assert code == 2 and "error:" in err

    code, _, err = invoke("validate", str(table2), "--frobnicate")
    assert code == 3 and "usage:" in err

    for argv in (
        ["transform", "--map", str(table2), "--data", str(values)],
        ["render", str(table2)],
        ["summarize", str(table2), "--json"],
    ):
        _, stdout_text, _ = invoke(*argv)
        out_file = tmp_path / "out.txt"
        code, piped, _ = invoke(*argv, "--out", str(out_file))
        assert code == 0 and piped == ""
        assert out_file.read_text() == stdout_text
