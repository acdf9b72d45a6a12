from __future__ import annotations

import copy
import html
import io
import json
import math
import pickle
import random
import sys
from collections import Counter
from xml.dom import minidom

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from xmap import (
    CompoundedSlack,
    Crossmap,
    CrossmapError,
    DuplicateLink,
    HarmonisedPanel,
    IndexedSeries,
    InvalidLabel,
    LayoutPlan,
    Link,
    MassUnderflow,
    MultiStepChain,
    NodeOrdering,
    PlacedNode,
    PlanMismatch,
    PlannedEdge,
    RelationKind,
    WEIGHT_SUM_TOLERANCE,
    WeightSumViolation,
    apply,
    apply_chain,
    build_crossmap,
    compose,
    harmonise,
    import_crosswalk,
    invert,
    layout_bipartite,
    read_crosswalk_table,
    read_edge_list,
    read_series,
    render_svg,
    summarize,
    write_edge_list,
    write_series,
    write_summary_json,
)
from xmap.cli import run
from xmap.core import clean_label, clean_label_columns
from xmap.io import format_weight
from xmap.viz import _escape, count_crossings
from helpers import (
    assert_same_as_rebuilt,
    oracle_composed_links,
    oracle_crossings,
    oracle_first_defect,
    oracle_read_edge_list,
    oracle_relabel_group_sum,
    oracle_underflowing_links,
    random_composable_pair,
    random_crossmap,
)

# label characters: anything except comma, double quote, the C0 controls
# other than tab and the non-characters U+FFFE and U+FFFF (which clean_label
# bans), surrogates, and labels that trim away to nothing
_BANNED_LABEL_CHARS = (
    ',"' + "".join(chr(code) for code in range(0x20) if code != 0x09) + "\ufffe\uffff"
)
label_text = st.text(
    alphabet=st.characters(
        blacklist_characters=_BANNED_LABEL_CHARS, blacklist_categories=("Cs",)
    ),
    min_size=1,
    max_size=12,
).map(str.strip).filter(bool)

label_lists = st.lists(label_text, min_size=1, max_size=6, unique=True)


@st.composite
def crossmaps(draw) -> Crossmap:
    sources = draw(label_lists)
    targets = draw(label_lists)
    links: list[tuple[str, str, float]] = []
    for source in sources:
        fan = draw(st.integers(1, min(3, len(targets))))
        heads = draw(st.permutations(targets))[:fan]
        if fan == 1:
            links.append((source, heads[0], 1.0))
        else:
            shares = draw(st.lists(st.integers(1, 9), min_size=fan, max_size=fan))
            total = sum(shares)
            links.extend((source, head, share / total) for head, share in zip(heads, shares))
    return build_crossmap("alpha", "beta", links)


@st.composite
def crossmaps_from(draw, sources: tuple[str, ...], source_taxonomy: str) -> Crossmap:
    """A crossmap whose sources are exactly ``sources``, so it composes after them."""
    targets = draw(label_lists)
    links: list[tuple[str, str, float]] = []
    for source in sources:
        fan = draw(st.integers(1, min(3, len(targets))))
        heads = draw(st.permutations(targets))[:fan]
        shares = draw(st.lists(st.integers(1, 9), min_size=fan, max_size=fan))
        links.extend((source, head, share / sum(shares)) for head, share in zip(heads, shares))
    return build_crossmap(source_taxonomy, "gamma", links)


@st.composite
def composed_crossmaps(draw) -> Crossmap:
    first = draw(crossmaps())
    return compose(first, draw(crossmaps_from(first.target_categories, first.target_taxonomy)))


# Per-source sums anywhere in the band the weight-sum tolerance admits, its
# two edges drawn often.
_BAND_SUMS = st.one_of(st.sampled_from([1 - 1e-6, 1 + 1e-6]), st.floats(1 - 1e-6, 1 + 1e-6))


@st.composite
def band_crossmaps(draw, sources=None, taxonomies=("alpha", "beta")) -> Crossmap:
    """A crossmap whose sources (``sources``, or drawn) each send weights
    that sum, added left to right in target order, to a drawn point of the
    band [1 - 1e-6, 1 + 1e-6]. A sum that lands just outside it in floats is
    moved in by nudging the last weight an ulp at a time."""
    sources = draw(label_lists) if sources is None else sources
    targets = draw(label_lists)
    links: list[tuple[str, str, float]] = []
    for source in sources:
        fan = draw(st.integers(1, min(3, len(targets))))
        heads = sorted(draw(st.permutations(targets))[:fan])
        total = draw(_BAND_SUMS) if fan > 1 else min(draw(_BAND_SUMS), 1.0)
        shares = draw(st.lists(st.integers(1, 9), min_size=fan, max_size=fan))
        weights = [total * share / sum(shares) for share in shares]
        while True:
            added = 0.0
            for weight in weights:
                added += weight
            if abs(added - 1.0) <= 1e-6:
                break
            weights[-1] = math.nextafter(weights[-1], 0.0 if added > 1.0 else 1.0)
        links.extend(zip([source] * fan, heads, weights))
    return build_crossmap(*taxonomies, links)


def assert_links_are_plain(crossmap: Crossmap) -> None:
    """Each link equals, hashes like and pickles like ``Link(source, target, weight)``."""
    for link in crossmap.links:
        twin = Link(link.source, link.target, link.weight)
        back = pickle.loads(pickle.dumps(link))
        assert link == twin == back and hash(link) == hash(twin) == hash(back)


def shuffled(data, crossmap: Crossmap) -> Crossmap:
    links = data.draw(st.permutations(crossmap.links))
    return Crossmap(crossmap.source_taxonomy, crossmap.target_taxonomy, tuple(links))


@st.composite
def crosswalks(draw) -> Crossmap:
    sources = draw(label_lists)
    targets = draw(label_lists)
    links = [(source, draw(st.sampled_from(targets)), 1.0) for source in sources]
    return build_crossmap("alpha", "beta", links)


@st.composite
def series_for(draw, crossmap: Crossmap, integer: bool = False) -> IndexedSeries:
    if integer:
        value = st.integers(-1_000_000, 1_000_000).map(float)
    else:
        value = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)
    entries = {label: draw(value) for label in crossmap.source_categories}
    return IndexedSeries(crossmap.source_taxonomy, entries)


def check_mass_is_conserved(crossmap: Crossmap, series: IndexedSeries) -> None:
    """``apply`` keeps the total within 1e-9 of the absolute mass, or raises
    ``MassUnderflow`` for a link that exact arithmetic confirms underflows."""
    try:
        out = apply(crossmap, series)
    except MassUnderflow as err:
        links = [(link.source, link.target, link.weight) for link in crossmap.links]
        assert (err.source, err.target) in oracle_underflowing_links(links, dict(series.entries))
        return
    in_total = series.total()
    abs_in = sum(abs(v) for v in series.entries.values())
    assert abs(out.total() - in_total) <= 1e-9 * abs_in


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mass_is_conserved(data):
    crossmap = data.draw(crossmaps())
    check_mass_is_conserved(crossmap, data.draw(series_for(crossmap)))


def test_mass_is_conserved_or_refused_on_a_subnormal_value():
    # ``@example`` cannot pin a ``st.data()`` draw, so the draw that once lost
    # all its mass (each half of 5e-324 rounds to 0.0) is pinned here, beside
    # 1.5 times the smallest normal float, whose halves lie in [min / 2, min).
    split = build_crossmap("alpha", "beta", [("0", "0", 0.5), ("0", "1", 0.5)])
    for value in (5e-324, 1.5 * sys.float_info.min):
        tiny = IndexedSeries("alpha", {"0": value})
        with pytest.raises(MassUnderflow) as caught:
            apply(split, tiny)
        assert (caught.value.source, caught.value.target) == ("0", "0")
        check_mass_is_conserved(split, tiny)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_crosswalk_apply_is_exact_relabel_group_sum(data):
    walk = data.draw(crosswalks())
    series = data.draw(series_for(walk, integer=True))
    mapping = {link.source: link.target for link in walk.links}
    expected = oracle_relabel_group_sum(mapping, dict(series.entries))
    out = apply(walk, series)
    assert dict(out.entries) == expected  # bitwise: integer sums are exact


@settings(max_examples=100, deadline=None)
@given(st.one_of(crossmaps(), composed_crossmaps()))
def test_edge_list_round_trip(crossmap):
    text = write_edge_list(crossmap)
    back = read_edge_list(text, crossmap.source_taxonomy, crossmap.target_taxonomy)
    assert [l.pair for l in back.links] == [l.pair for l in crossmap.links]
    for mine, theirs in zip(crossmap.links, back.links):
        assert abs(mine.weight - theirs.weight) <= 1e-9


@st.composite
def repeated_weight_crossmaps(draw) -> Crossmap:
    """Many sources over a few shares: unit links, and two-way splits whose
    smaller share is a plain decimal or below 5e-10, which format_weight
    prints in repr form. The first two sources take weight 1 and a tiny share."""
    tiny = draw(st.lists(
        st.floats(min_value=0.0, max_value=4.9e-10, exclude_min=True), min_size=1, max_size=3
    ))
    plain = draw(st.lists(st.integers(1, 9).map(lambda k: k / 10), max_size=3))
    targets = draw(st.lists(label_text, min_size=2, max_size=4, unique=True))
    shares = [1.0, tiny[0], *draw(st.lists(st.sampled_from([1.0, *tiny, *plain]), max_size=58))]
    links: list[tuple[str, str, float]] = []
    for index, share in enumerate(shares):
        head, tail = draw(st.permutations(targets))[:2]
        links.append((f"s{index}", head, share))
        if share < 1.0:
            links.append((f"s{index}", tail, 1.0 - share))
    return build_crossmap("alpha", "beta", draw(st.permutations(links)))


@settings(max_examples=100, deadline=None)
@given(repeated_weight_crossmaps())
def test_edge_list_rows_are_each_links_own_text(crossmap):
    # Oracle: each row formats its own link's weight.
    assert write_edge_list(crossmap).split("\n") == [
        "from,to,weight",
        *(f"{l.source},{l.target},{format_weight(l.weight)}" for l in crossmap.links),
        "",
    ]


@settings(max_examples=100, deadline=None)
@given(crossmaps())
def test_summary_json_parses_back(crossmap):
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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_series_round_trip(data):
    crossmap = data.draw(crossmaps())
    series = data.draw(series_for(crossmap))
    assert read_series(write_series(series), series.taxonomy) == series


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_harmonise_vouches_only_for_a_panel_its_constructor_accepts(data):
    # harmonise builds its panel unchecked; the checking constructor must
    # give the same panel back, and the slotted panel must copy and pickle.
    crossmap = data.draw(crossmaps())
    units = data.draw(label_lists)
    inputs = [(unit, crossmap, data.draw(series_for(crossmap))) for unit in units]
    try:
        panel = harmonise(inputs)
    except MassUnderflow:  # a drawn subnormal value, refused as in apply
        return
    checked = HarmonisedPanel(crossmap.target_taxonomy, panel.rows)
    assert panel == checked and hash(panel) == hash(checked)
    for twin in (pickle.loads(pickle.dumps(panel)), copy.copy(panel), copy.deepcopy(panel)):
        assert twin == panel and hash(twin) == hash(panel)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_single_weight_perturbation_is_rejected(data):
    crossmap = data.draw(crossmaps())
    index = data.draw(st.integers(0, len(crossmap.links) - 1))
    links = list(crossmap.links)
    victim = links[index]
    delta = 1e-3 if victim.weight + 1e-3 <= 1.0 else -1e-3
    links[index] = Link(victim.source, victim.target, victim.weight + delta)
    with pytest.raises(WeightSumViolation) as caught:
        build_crossmap("alpha", "beta", links)
    assert caught.value.source == victim.source


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_duplicated_link_is_rejected(data):
    crossmap = data.draw(crossmaps())
    index = data.draw(st.integers(0, len(crossmap.links) - 1))
    victim = crossmap.links[index]
    with pytest.raises(DuplicateLink):
        build_crossmap("alpha", "beta", list(crossmap.links) + [victim])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_validation_reports_the_defect_the_oracle_finds(data):
    # Duplicates (with any weight) and replaced weights injected into a valid
    # map, then shuffled: the error is the smallest duplicated pair, else the
    # smallest source off by more than the tolerance, else none. Its index is
    # the input position of the pair's second link or the source's last link.
    crossmap = data.draw(crossmaps())
    links = [(link.source, link.target, link.weight) for link in crossmap.links]
    weights = st.floats(min_value=1e-3, max_value=1.0)
    for _ in range(data.draw(st.integers(0, 2))):
        source, target, _ = data.draw(st.sampled_from(links))
        links.append((source, target, data.draw(weights)))
    for _ in range(data.draw(st.integers(0, 3))):
        index = data.draw(st.integers(0, len(links) - 1))
        source, target, _ = links[index]
        links[index] = (source, target, data.draw(weights))
    links = data.draw(st.permutations(links))
    expected = oracle_first_defect(links)
    if expected is None:
        assert len(build_crossmap("alpha", "beta", links).links) == len(links)
    else:
        with pytest.raises(CrossmapError) as caught:
            build_crossmap("alpha", "beta", links)
        assert (type(caught.value), str(caught.value), caught.value.index) == expected


# Edge-list texts for the reader oracle. A valid map is written with each
# label cell padded or not (" A", "A ", "A"), so one label repeats under
# several raw texts. Map-level defects go in before the rows are shuffled: a
# duplicated pair, or a weight changed so its source's sum is off. Row-local
# defects go in after: a bad weight text, a label with a banned character or
# trimming to nothing, a weight out of range, or a wrong field count. A label
# defect lands on every cell of that label half the time, so a defect on a
# repeated text must be reported at its first row.
_BAD_WEIGHT_TEXTS = ["", "x", "1_0", "nan", "inf", "-inf", "1e400", "\uff10.5", "0x1"]
_OUT_OF_RANGE_TEXTS = ["0", "-0.0", "-0.5", "1.5", "1.0000001", "1.00000005"]
_BAD_LABEL_CHARS = ['"', "\x01", "\x1f", "\r", "\ufffe", "\uffff", "\udc80"]


@st.composite
def edge_list_texts(draw) -> str:
    crossmap = draw(crossmaps())
    rows = [[link.source, link.target, repr(link.weight)] for link in crossmap.links]
    for _ in range(draw(st.integers(0, 1))):
        rows.append([*draw(st.sampled_from(rows))[:2], draw(st.sampled_from(["1", "0.5"]))])
    for _ in range(draw(st.integers(0, 1))):
        draw(st.sampled_from(rows))[2] = draw(st.sampled_from(["0.25", "0.999"]))
    rows = [list(row) for row in draw(st.permutations(rows))]
    pad = st.sampled_from(["{} ", " {}", "{}", "{}"])
    for row in rows:
        row[0], row[1] = draw(pad).format(row[0]), draw(pad).format(row[1])
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        defect = draw(st.sampled_from(["weight", "range", "label", "fields"]))
        if defect == "weight":
            row[2:3] = [draw(st.sampled_from(_BAD_WEIGHT_TEXTS))]
        elif defect == "range":
            row[2:3] = [draw(st.sampled_from(_OUT_OF_RANGE_TEXTS))]
        elif defect == "fields":
            row[:] = draw(st.sampled_from([row[:2], [*row, "x"]]))
        else:
            everywhere = draw(st.booleans())
            for column in draw(st.sampled_from([(0,), (1,), (0, 1)])):
                label = row[column].strip()
                bad = draw(st.sampled_from(
                    ["", "  ", " \t ", *(label[:1] + char + label[1:] for char in _BAD_LABEL_CHARS)]
                ))
                for other in rows if everywhere else [row]:
                    for index in (0, 1):
                        if other[index:index + 1] and other[index].strip() == label:
                            other[index] = bad
    return "from,to,weight\n" + "".join(",".join(row) + "\n" for row in rows)


@settings(max_examples=200, deadline=None)
@given(edge_list_texts())
def test_read_edge_list_matches_the_row_by_row_oracle(text):
    expected = oracle_read_edge_list(text)
    if isinstance(expected, list):
        built = [Link(*row) for row in expected]
        links = read_edge_list(text, "alpha", "beta").links
        assert list(links) == built
        for link, twin in zip(links, built):
            back = pickle.loads(pickle.dumps(link))
            assert hash(link) == hash(twin) == hash(back) and back == twin
        return
    error, message, line = expected
    with pytest.raises(CrossmapError) as caught:
        read_edge_list(text, "alpha", "beta")
    assert type(caught.value) is error and caught.value.line == line
    assert str(caught.value) == (message if line is None else f"{message} (line {line})")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_read_edge_list_gives_each_label_one_object(data):
    # On an unpadded document, every cell of one label, in either column,
    # comes back as the same str object. Some targets are renamed to source
    # labels (one-to-one, so the map stays valid) for labels in both columns.
    crossmap = data.draw(crossmaps())
    targets = crossmap.target_categories
    sources = data.draw(st.permutations(crossmap.source_categories))
    shared = data.draw(st.integers(0, min(len(targets), len(sources))))
    renamed = dict(zip(targets[:shared], sources[:shared]))
    renamed.update((target, target) for target in targets[shared:])
    assume(len(set(renamed.values())) == len(renamed))
    rows = "".join(
        f"{link.source},{renamed[link.target]},{link.weight!r}\n" for link in crossmap.links
    )
    links = read_edge_list(f"from,to,weight\n{rows}", "alpha", "beta").links
    first_seen: dict[str, str] = {}
    for label in [link.source for link in links] + [link.target for link in links]:
        assert first_seen.setdefault(label, label) is label


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_functor_law_small(data):
    first = data.draw(crossmaps())
    # second stage covers every category the first stage can reach
    mids = first.target_categories
    finals = data.draw(label_lists)
    links = []
    for mid in mids:
        fan = data.draw(st.integers(1, min(3, len(finals))))
        heads = data.draw(st.permutations(list(finals)))[:fan]
        if fan == 1:
            links.append((mid, heads[0], 1.0))
        else:
            shares = data.draw(st.lists(st.integers(1, 9), min_size=fan, max_size=fan))
            total = sum(shares)
            links.extend((mid, head, share / total) for head, share in zip(heads, shares))
    second = build_crossmap("beta", "gamma", links)
    entries = {
        label: float(data.draw(st.integers(0, 1_000_000)))
        for label in first.source_categories
    }
    series = IndexedSeries("alpha", entries)

    fused = apply(compose(first, second), series)
    chained = apply(second, apply(first, series))
    assert set(fused.entries) == set(chained.entries)
    for label in fused.entries:
        assert math.isclose(fused.entries[label], chained.entries[label], rel_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_invert_is_an_involution_on_bijections(data):
    codes = data.draw(label_lists)
    others = data.draw(st.permutations([f"x{code}" for code in codes]))
    walk = build_crossmap("left", "right", [(a, b, 1.0) for a, b in zip(codes, others)])
    assert invert(invert(walk)) == walk
    assert_links_are_plain(invert(walk))
    round_tripped = apply(invert(walk), apply(walk, IndexedSeries("left", {codes[0]: 7.0})))
    assert round_tripped.entries[codes[0]] == 7.0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_link_order_never_changes_results(data):
    first = data.draw(crossmaps())
    second = data.draw(crossmaps_from(first.target_categories, first.target_taxonomy))
    series = data.draw(series_for(first))
    first_shuffled, second_shuffled = shuffled(data, first), shuffled(data, second)

    def transformed(crossmap: Crossmap) -> str:
        try:
            return write_series(apply(crossmap, series))
        except MassUnderflow as err:  # then refused alike in any link order
            return str(err)

    assert first_shuffled.pair_order == first.pair_order
    assert transformed(first_shuffled) == transformed(first)
    assert write_edge_list(compose(first_shuffled, second_shuffled)) == write_edge_list(
        compose(first, second)
    )
    assert summarize(first_shuffled) == summarize(first)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compose_across_the_tolerance_band_gives_a_map_or_compounded_slack(data):
    # Never a bare WeightSumViolation: compose names the slack it compounded.
    first = data.draw(band_crossmaps())
    second = data.draw(band_crossmaps(first.target_categories, ("beta", "gamma")))
    try:
        composed = compose(first, second)
    except CompoundedSlack as err:
        assert err.source in first.source_categories and abs(err.total - 1.0) > 1e-6
    else:
        assert_links_are_plain(composed)


def _edge_text(crossmap: Crossmap) -> str:
    """An edge list of the links with every weight in ``repr`` form, so it
    reads back to the same weights, tolerance edges included."""
    rows = "".join(f"{l.source},{l.target},{l.weight!r}\n" for l in crossmap.links)
    return f"from,to,weight\n{rows}"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_xmap_compose_writes_what_compose_builds(tmp_path_factory, data):
    # The command writes the composition's checked columns and builds no
    # Crossmap: it must match the API byte for byte, error line included,
    # and the slack it names must be what Crossmap finds on the same links.
    if data.draw(st.booleans(), label="band"):
        first = data.draw(band_crossmaps())
        second = data.draw(band_crossmaps(first.target_categories, ("beta", "gamma")))
    else:
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        first, second = random_composable_pair(random.Random(seed))
    folder = tmp_path_factory.mktemp("compose", numbered=True)
    paths = [folder / "a.csv", folder / "b.csv"]
    for path, crossmap in zip(paths, (first, second)):
        path.write_text(_edge_text(crossmap), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = run(["compose", *map(str, paths)], stdout=out, stderr=err)
    links = oracle_composed_links(first, second)
    try:
        expected = Crossmap(first.source_taxonomy, second.target_taxonomy, links)
    except WeightSumViolation as violation:
        with pytest.raises(CompoundedSlack) as caught:
            compose(first, second)
        slack = caught.value
        assert (slack.source, slack.total.hex()) == (violation.source, violation.total.hex())
        assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {slack}\n")
    else:
        composed = compose(first, second)
        assert composed == expected
        assert (code, out.getvalue(), err.getvalue()) == (0, write_edge_list(composed), "")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compose_builds_an_ordinary_crossmap(data):
    # compose wraps its kernel's checked columns: the result must be the
    # Crossmap its own links rebuild, in every table and order.
    first = data.draw(crossmaps())
    second = data.draw(crossmaps_from(first.target_categories, first.target_taxonomy))
    assert_same_as_rebuilt(compose(first, second))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_applying_a_composition_in_the_band_loses_at_most_its_clamped_slack(data):
    # compose clamps a composed share above 1 to 1. Inside the tolerance band
    # e a share can exceed 1 by up to (1 + e)^2 - 1 = 2e + e^2 of its source's
    # value, which apply_chain keeps and apply of the composition drops.
    first = data.draw(band_crossmaps())
    second = data.draw(band_crossmaps(first.target_categories, ("beta", "gamma")))
    try:
        composed = compose(first, second)
    except CompoundedSlack:
        assume(False)
    series = data.draw(series_for(first, integer=True))
    chained = apply_chain(MultiStepChain((first, second)), series)
    direct = apply(composed, series)
    eps = WEIGHT_SUM_TOLERANCE
    clamped = Counter()  # per target, the allowance of its clamped shares
    for source in first.source_categories:
        shares: dict[str, float] = {}  # formed as compose forms them
        for a in first.links_from(source):
            for b in second.links_from(a.target):
                shares[b.target] = shares.get(b.target, 0.0) + a.weight * b.weight
        for target, share in shares.items():
            if share > 1.0:
                clamped[target] += (2 * eps + eps * eps) * abs(series.entries[source])
    mass = sum(abs(value) for value in series.entries.values())
    for target, value in chained.entries.items():
        assert abs(direct.entries.get(target, 0.0) - value) <= 1e-9 * mass + clamped[target]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pair_order_is_the_links_sorted_by_pair(data):
    crossmap = shuffled(data, data.draw(crossmaps()))
    assert crossmap.pair_order == tuple(sorted(crossmap.links, key=lambda link: link.pair))
    for source in crossmap.source_categories:
        assert crossmap.links_from(source) == tuple(
            link for link in crossmap.pair_order if link.source == source
        )


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: random_crossmap(random.Random(seed))), band_crossmaps()
))
def test_links_into_groups_the_sorted_pairs_by_target(crossmap):
    # The layouts' sweeps read these groups. The oracle sorts the pairs and
    # groups their sources by target, with no table of the crossmap's own.
    sources_into: dict[str, list[str]] = {}
    for source, target in sorted(link.pair for link in crossmap.links):
        sources_into.setdefault(target, []).append(source)
    first_seen = list(dict.fromkeys(link.target for link in crossmap.links))
    assert list(crossmap._links_by_target) == list(crossmap.target_categories) == first_seen
    for target in first_seen:
        assert [link.source for link in crossmap.links_into(target)] == sources_into[target]
        assert all(link.target == target for link in crossmap.links_into(target))


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.one_of(
        st.text(alphabet=st.sampled_from(["a", "B", " ", "\t", "\u00e9", *_BAD_LABEL_CHARS]), max_size=4),
        st.sampled_from([4, None, ["a"]]),
    ),
    max_size=6,
))
def test_clean_labels_agrees_with_clean_label(texts):
    # The column step refuses exactly when clean_label refuses some text, and
    # a refused column keeps its texts. Otherwise each cell becomes
    # clean_label of its text, and equal texts come out as one object. Each
    # str is copied to an object of its own, so an equal pair is not already
    # one object.
    try:
        expected = [clean_label(text) for text in texts]
    except InvalidLabel:
        expected = None
    copies = [(text + "!")[:-1] if isinstance(text, str) else text for text in texts]
    half = len(copies) // 2
    columns = [copies[:half], copies[half:]]
    if expected is None:
        assert clean_label_columns(columns) is False
        assert [*columns[0], *columns[1]] == texts
        return
    assert clean_label_columns(columns) is True
    cells = [*columns[0], *columns[1]]
    assert cells == expected
    first: dict[str, str] = {}
    for text, cell in zip(texts, cells):
        assert first.setdefault(text, cell) is cell


@st.composite
def crossing_gaps(draw) -> tuple[list[list[str]], Crossmap]:
    """One step between two shuffled columns, heavy with shared tails and
    heads: column sizes lean small, fans run up to four, and up to three
    unlinked rows (a chain's onward-only sources) join the head column."""
    n_tails = draw(st.one_of(st.integers(1, 4), st.integers(1, 200)))
    n_heads = draw(st.one_of(st.integers(1, 4), st.integers(1, 200)))
    links: list[tuple[str, str, float]] = []
    for tail in range(n_tails):
        heads = draw(st.lists(st.integers(0, n_heads - 1), min_size=1, max_size=4, unique=True))
        links.extend((f"s{tail}", f"t{head}", 1 / len(heads)) for head in heads)
    step = build_crossmap("x", "y", links)
    idle = tuple(f"idle{i}" for i in range(draw(st.integers(0, 3))))
    tails = draw(st.permutations(step.source_categories))
    heads = draw(st.permutations(step.target_categories + idle))
    return [list(tails), list(heads)], step


def _gap(tails: list[str], heads: list[str], pairs: list[tuple[str, str]]):
    """A hand-made ``crossing_gaps`` value: each tail splits evenly over its pairs."""
    fan = Counter(source for source, _ in pairs)
    return [tails, heads], build_crossmap("x", "y", [(s, t, 1 / fan[s]) for s, t in pairs])


@settings(max_examples=60, deadline=None)
@given(crossing_gaps())
@example(_gap(["a"], ["p"], [("a", "p")]))  # a step with one link
@example(_gap(["a", "b", "c"], ["p"], [("c", "p"), ("a", "p"), ("b", "p")]))  # one head row
@example(_gap(["a"], ["r", "p", "q"], [("a", "q"), ("a", "r"), ("a", "p")]))  # one tail row
@example(_gap(["a", "b"], ["p", "q", "idle"], [("a", "q"), ("b", "p")]))  # last row unlinked
@example(_gap(["a", "b"], ["idle", "p", "q"], [("a", "q"), ("b", "p"), ("b", "q")]))  # row 0 unlinked
@example(_gap(["a", "b", "c"], ["p", "q", "r"], [("a", "r"), ("b", "r"), ("c", "p"), ("c", "q")]))
def test_count_crossings_matches_the_oracle_on_shared_endpoints(gap):
    (tails, heads), step = gap
    expected = oracle_crossings(
        {label: row for row, label in enumerate(tails)},
        {label: row for row, label in enumerate(heads)},
        [link.pair for link in step.links],
    )
    assert count_crossings([tails, heads], (step,)) == expected


# Reader fuzz: documents built from the pieces parsers trip over --
# separators, quotes, line breaks, C0 controls, a byte-order mark, and number
# spellings that overflow, underflow or are not finite. Rows mostly match
# their header's width, so the fuzz gets past the field-count check.
_FUZZ_TOKENS = st.sampled_from(
    ["", " ", ",", '"', "\r", "\n", "\r\n", "\t", "\x00", "\x01", "\x1f", "\ufeff",
     "a", "b", "004", "0", "1", "0.5", "-1", "nan", "inf", "-inf", "1e-400", "1e309"]
)
_FUZZ_FIELD = st.one_of(
    st.sampled_from(["a", "b", "c", "0.5", "1"]), st.lists(_FUZZ_TOKENS, max_size=3).map("".join)
)


@st.composite
def fuzz_documents(draw, header: str) -> str:
    header = draw(st.sampled_from([header] * 4 + ["", "\ufeff" + header, "a,b,c,d"]))
    width = draw(st.sampled_from([header.count(",") + 1] * 4 + [1, 2, 3, 4]))
    rows = draw(st.lists(st.lists(_FUZZ_FIELD, min_size=width, max_size=width), max_size=6))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    body = newline.join([header, *(",".join(row) for row in rows)])
    return body + draw(st.sampled_from(["", newline]))


def _import_first_pair(text: str) -> None:
    doc = read_crosswalk_table(text)
    assert_links_are_plain(import_crosswalk(doc, doc.columns[0], doc.columns[-1]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_only_crossmap_errors_escape_the_readers(data):
    readers = {
        "from,to,weight": lambda text: read_edge_list(text, "x", "y"),
        "key,value": lambda text: read_series(text, "x"),
        "from,to,name": _import_first_pair,
    }
    for header, read in readers.items():
        text = data.draw(st.one_of(fuzz_documents(header), st.text(max_size=40)), label=header)
        try:
            read(text)
        except CrossmapError:
            pass


@settings(max_examples=50, deadline=None)
@given(crossmaps())
def test_svg_of_any_legal_labels_parses(crossmap):
    for ordering in NodeOrdering:
        svg = render_svg(layout_bipartite(crossmap, ordering))
        assert minidom.parseString(svg).documentElement.tagName == "svg"


@settings(max_examples=50, deadline=None)
@given(crossmaps())
def test_xmap_render_writes_what_the_api_renders(tmp_path_factory, crossmap):
    # The command hands its layout's columns to the SVG emitter and builds no
    # plan: every ordering and hide setting must match the API byte for byte.
    path = tmp_path_factory.mktemp("render", numbered=True) / "map.csv"
    path.write_text(_edge_text(crossmap), encoding="utf-8")
    for ordering in NodeOrdering:
        for hide in (False, True):
            argv = ["render", str(path), "--order", ordering.value] + ["--hide-unit-weights"] * hide
            out, err = io.StringIO(), io.StringIO()
            expected = render_svg(layout_bipartite(crossmap, ordering), hide_unit_weights=hide)
            assert (run(argv, stdout=out, stderr=err), out.getvalue(), err.getvalue()) == (0, expected, "")


@settings(max_examples=50, deadline=None)
@given(st.one_of(
    crossmaps(), st.integers(0, 2**32 - 1).map(lambda seed: random_crossmap(random.Random(seed)))
))
def test_xmap_validate_prints_the_counts_summarize_gives(tmp_path_factory, crossmap):
    # The command prints the census without summarize's ranking; its five
    # counts must be summarize's, in the same order.
    path = tmp_path_factory.mktemp("validate", numbered=True) / "map.csv"
    path.write_text(_edge_text(crossmap), encoding="utf-8")
    s = summarize(crossmap)
    expected = (
        f"valid: {s.n_sources} sources, {s.n_targets} targets, {s.n_links} links, "
        f"{s.n_splits} splits, {s.n_aggregates} aggregates\n"
    )
    out, err = io.StringIO(), io.StringIO()
    assert (run(["validate", str(path)], stdout=out, stderr=err), out.getvalue(), err.getvalue()) == (
        0, expected, ""
    )


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from("&<>\"'"), st.characters())))
@example("&amp; <a href=\"x\">'b'</a> &lt;")
def test_svg_text_escape_is_html_escape_without_quotes(text):
    assert _escape(text) == html.escape(text, quote=False)


# Plan coordinates of every kind a caller might pass: in and out of range,
# of the wrong number type, or not numbers at all.
_ANY_COORDINATE = st.one_of(
    st.integers(-2, 5), st.floats(-1, 4), st.sampled_from([True, False, None, "1"])
)
_ANY_ENDPOINT = st.one_of(
    st.tuples(st.integers(-1, 4), st.integers(-1, 4)),
    st.tuples(_ANY_COORDINATE, _ANY_COORDINATE),
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    st.lists(st.integers(0, 3), min_size=2, max_size=2),
)

# Node labels and edge texts a caller might pass: clean labels, texts that
# clean_label refuses or changes, and values that are not text.
_ANY_TEXT = st.one_of(
    label_text, st.sampled_from(["a\x01b", "\ufffe", "a,b", " a", "", 7, None, b"a"])
)


@st.composite
def plan_parts(draw) -> tuple[tuple, tuple]:
    """Layers and edges for a ``LayoutPlan``. Half of them are well formed;
    in the rest, a node coordinate is replaced now and then and about half
    the edges join any two endpoints. Independently, half of them draw node
    labels and edge texts from any text a caller might pass."""
    broken = draw(st.booleans())
    texts = draw(st.sampled_from([label_text, _ANY_TEXT]))
    sizes = draw(st.lists(st.integers(0, 4), max_size=4))
    kinds = st.sampled_from([kind.value for kind in RelationKind])
    layers = []
    for column, size in enumerate(sizes):
        nodes = []
        for row in draw(st.permutations(range(size))):
            x = draw(_ANY_COORDINATE) if broken and draw(st.integers(0, 9)) == 0 else column
            y = draw(_ANY_COORDINATE) if broken and draw(st.integers(0, 9)) == 0 else row
            nodes.append(PlacedNode(draw(texts), x, y, draw(kinds)))
        layers.append(tuple(nodes))
    gaps = [gap for gap in range(len(sizes) - 1) if sizes[gap] and sizes[gap + 1]]
    edges = []
    for _ in range(draw(st.integers(0, 8)) if gaps or broken else 0):
        if gaps and not (broken and draw(st.booleans())):
            gap = draw(st.sampled_from(gaps))
            tail = (gap, draw(st.integers(0, sizes[gap] - 1)))
            head = (gap + 1, draw(st.integers(0, sizes[gap + 1] - 1)))
        else:
            tail, head = draw(_ANY_ENDPOINT), draw(_ANY_ENDPOINT)
        weight = draw(st.sampled_from([1.0, 0.5, 0.125]))
        style = draw(st.sampled_from(["solid", "dashed"]))
        edges.append(PlannedEdge(tail, head, weight, style, draw(texts)))
    return tuple(layers), tuple(edges)


@settings(max_examples=300, deadline=None)
@given(plan_parts())
def test_any_plan_is_refused_by_name_or_renders(parts):
    layers, edges = parts
    try:
        plan = LayoutPlan(layers, edges)
    except PlanMismatch:
        return
    for hide in (False, True):
        document = minidom.parseString(render_svg(plan, hide_unit_weights=hide))
        assert len(document.getElementsByTagName("circle")) == sum(map(len, layers))
        assert len(document.getElementsByTagName("line")) == len(edges)


# CLI byte fuzz: a valid document or a reader fuzz document, encoded as
# UTF-8, with bytes spliced in that are not UTF-8 (a stray continuation, a
# truncated sequence, an encoded surrogate) or that decode to what labels and
# numbers may not hold.
_FUZZ_BYTES = st.sampled_from(
    [b"\xff", b"\xfe\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\x00",
     "\uffff".encode(), "\ufffe".encode(), b"0_5", "７".encode()]
)
_VALID_FILES = {
    "from,to,weight": "from,to,weight\nab,x,1\ncd,x,0.5\ncd,y,0.5\n",
    "key,value": "key,value\na,1\nb,2.5\n",
    "from,to,name": "from,to,name\nab,x,n1\ncd,y,n2\n",
}


@st.composite
def fuzz_files(draw, header: str) -> bytes:
    valid = st.just(_VALID_FILES[header])  # drawn half the time, so splices land in fields
    data = draw(st.one_of(valid, fuzz_documents(header), valid, st.text(max_size=40)))
    data = data.encode("utf-8")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(_FUZZ_BYTES) + data[at:]
    return data


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_answers_any_bytes_with_an_exit_code(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("fuzz", numbered=True)
    recode, edges = folder / "recode.csv", folder / "edges.csv"
    table, series = folder / "table.csv", folder / "series.csv"
    recode.write_text("from,to,weight\na,x,1\nb,x,0.5\nb,y,0.5\nc,y,1\n")
    edges.write_bytes(data.draw(fuzz_files("from,to,weight")))
    table.write_bytes(data.draw(fuzz_files("from,to,name")))
    series.write_bytes(data.draw(fuzz_files("key,value")))
    for argv in (
        ["validate", str(edges)],
        ["render", str(edges)],
        ["transform", "--map", str(recode), "--data", str(series)],
        ["import-crosswalk", str(table), "--from", "from", "--to", "name"],
    ):
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, stdout=out, stderr=err)
        assert code in (0, 1, 2), (argv, err.getvalue())
        if argv[0] == "render" and code == 0:
            minidom.parseString(out.getvalue())
