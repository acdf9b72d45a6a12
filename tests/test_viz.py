from __future__ import annotations

import dataclasses
import hashlib
import pickle
import random
import re
from xml.dom import minidom

import pytest

from xmap import (
    LayoutPlan,
    MultiStepChain,
    NodeOrdering,
    PlacedNode,
    PlanMismatch,
    PlannedEdge,
    build_crossmap,
    layout_bipartite,
    layout_chain,
    render_dot,
    render_svg,
)
from xmap import viz
from xmap.viz import count_crossings
from helpers import (
    GOLDEN_DOT,
    GOLDEN_SVG,
    country_fixture,
    oracle_crossings,
    plan_crossings,
    random_chain,
    random_composable_pair,
    random_crossmap,
    sha256,
)


def rows(plan: LayoutPlan, column: int) -> list[str]:
    return [node.label for node in sorted(plan.layers[column], key=lambda n: n.y)]


def test_splits_first_ordering():
    plan = layout_bipartite(country_fixture(), NodeOrdering.SPLITS_FIRST)
    assert rows(plan, 0) == ["BLX", "E.GER", "W.GER", "AUS"]
    assert rows(plan, 1) == ["BEL", "LUX", "DEU", "AUS"]


def test_target_indegree_ordering_puts_synthetic_first():
    plan = layout_bipartite(country_fixture(), NodeOrdering.TARGET_INDEGREE)
    assert rows(plan, 1)[0] == "DEU"


def test_input_order_ordering():
    plan = layout_bipartite(country_fixture(), NodeOrdering.INPUT_ORDER)
    assert rows(plan, 0) == ["BLX", "E.GER", "W.GER", "AUS"]
    assert rows(plan, 1) == ["BEL", "LUX", "DEU", "AUS"]


def test_plan_style_classes():
    plan = layout_bipartite(country_fixture())
    classes = {node.label: node.style_class for node in plan.layers[0]}
    assert classes == {"BLX": "split", "E.GER": "one-to-one", "W.GER": "one-to-one", "AUS": "one-to-one"}
    classes = {node.label: node.style_class for node in plan.layers[1]}
    assert classes["DEU"] == "aggregate" and classes["BEL"] == "unique"


def test_layout_plans_pass_the_checking_constructors_unchanged():
    # The layouts build plans, nodes and edges past the public constructors:
    # each must equal, hash and pickle like its twin built through them, and
    # dataclasses.replace must treat it alike.
    rng = random.Random(12)
    plans = []
    for _ in range(40):
        crossmap = random_crossmap(rng)
        plans.extend(layout_bipartite(crossmap, ordering) for ordering in NodeOrdering)
        plans.append(layout_chain(MultiStepChain(random_composable_pair(rng))))
    plans.append(layout_chain(MultiStepChain(random_chain(rng, 200))))
    for plan in plans:
        checked = LayoutPlan(plan.layers, plan.edges)
        assert checked == plan and hash(checked) == hash(plan)
        assert not hasattr(plan, "__dict__")
        assert pickle.loads(pickle.dumps(plan)) == plan
        nodes = [node for column in plan.layers for node in column]
        for value in (*nodes, *plan.edges):
            assert not hasattr(value, "__dict__")
            twin = type(value)(*(getattr(value, f.name) for f in dataclasses.fields(value)))
            assert twin == value and hash(twin) == hash(value)
            assert pickle.dumps(twin) == pickle.dumps(value)
            assert dataclasses.replace(value) == value
        if nodes:
            node = nodes[0]
            assert dataclasses.replace(node, y=-1) == PlacedNode(node.label, node.x, -1, node.style_class)


def test_plan_validates_permutations():
    nodes = (PlacedNode("a", 0, 0, "one-to-one"), PlacedNode("b", 0, 2, "one-to-one"))
    with pytest.raises(PlanMismatch):
        LayoutPlan((nodes,), ())
    with pytest.raises(PlanMismatch) as caught:
        LayoutPlan(((PlacedNode("a", 1, 0, "one-to-one"),),), ())
    assert str(caught.value) == "inconsistent layout plan: node 'a' is misfiled in column 0"


@pytest.mark.parametrize("text", [1.0, None, b"1"])
def test_plan_rejects_edge_text_that_is_not_a_str(text):
    plan = layout_bipartite(country_fixture())
    edge = PlannedEdge((0, 0), (1, 0), 1.0, "solid", text)
    with pytest.raises(PlanMismatch, match="is not a str"):
        LayoutPlan(plan.layers, (edge,))


def test_plan_rejects_edge_text_that_is_not_a_clean_label():
    plan = layout_bipartite(country_fixture())
    edge = PlannedEdge((0, 0), (1, 0), 0.5, "solid", " 0.5")
    with pytest.raises(PlanMismatch) as caught:
        LayoutPlan(plan.layers, (edge,))
    assert str(caught.value) == "inconsistent layout plan: edge text ' 0.5' is not a clean label"


def test_svg_marks_relation_kinds():
    crossmap = country_fixture()
    svg = render_svg(layout_bipartite(crossmap))
    assert svg.count("stroke-dasharray") == 2
    assert svg.count('font-style="italic"') == 1
    assert svg.count('font-weight="bold"') == 3


def test_svg_opacity_tracks_in_degree():
    crossmap = country_fixture()
    svg = render_svg(layout_bipartite(crossmap))
    pairs = re.findall(
        r'fill-opacity="([0-9.]+)"/>\n<text[^>]*>(?:<title>[^<]*</title>)?([^<]+)</text>', svg
    )
    opacity = {label: float(value) for value, label in pairs}
    assert opacity["DEU"] == 0.6
    assert all(opacity[label] == 0.35 for label in ("BEL", "LUX", "AUS"))


def test_svg_unit_weight_suppression():
    crossmap = country_fixture()
    plan = layout_bipartite(crossmap)
    full = render_svg(plan)
    bare = render_svg(plan, hide_unit_weights=True)
    assert full.count(">1</text>") == 3
    assert bare.count(">1</text>") == 0
    assert bare.count(">0.5</text>") == 2


def test_svg_is_deterministic():
    crossmap = country_fixture()
    first = render_svg(layout_bipartite(crossmap))
    second = render_svg(layout_bipartite(crossmap))
    assert first == second


def test_svg_escapes_and_truncates_labels():
    crossmap = build_crossmap(
        "x", "y",
        [("R&D", "this label is far too long to print in full", 1.0)],
    )
    svg = render_svg(layout_bipartite(crossmap))
    assert "R&amp;D" in svg
    assert "<title>this label is far too long to print in full</title>" in svg
    assert ">this label is far too l…</text>" in svg  # 23 chars + ellipsis


def test_svg_rejects_foreign_plan():
    crossmap = country_fixture()
    plan = layout_bipartite(crossmap)
    dangling = PlannedEdge((0, 0), (1, len(plan.layers[1])), 1.0, "solid", "1")
    with pytest.raises(PlanMismatch):
        LayoutPlan(plan.layers, plan.edges + (dangling,))
    chain_plan = layout_chain(MultiStepChain((crossmap,)))
    assert len(chain_plan.layers) == 2  # single step still renders
    three = MultiStepChain(
        (
            crossmap,
            build_crossmap(
                "new", "z",
                [("BEL", "B", 1.0), ("LUX", "B", 1.0), ("DEU", "D", 1.0), ("AUS", "D", 1.0)],
            ),
        )
    )
    three_plan = layout_chain(three)
    assert len(three_plan.layers) == 3
    assert minidom.parseString(render_svg(three_plan)).documentElement.tagName == "svg"


def test_dot_output_shape():
    crossmap = country_fixture()
    dot = render_dot(crossmap)
    assert dot.startswith("digraph crossmap {\n  rankdir=LR;\n")
    assert dot.count("rank=same;") == 2
    # the self-loop splits into one node per layer
    assert '"from/AUS" [label="AUS"];' in dot
    assert '"to/AUS" [label="AUS"];' in dot
    assert '"from/AUS" -> "to/AUS" [label="1"];' in dot
    assert '"from/BLX" -> "to/BEL" [label="0.5", style=dashed];' in dot
    assert dot.count("style=dashed") == 2
    assert dot == render_dot(crossmap)
    assert dot.count("{") == dot.count("}")


def test_dot_quotes_each_category_and_weight_text_once(monkeypatch):
    # A node id is quoted once and reused by every edge at that node.
    import xmap.viz

    quoted = []
    original = xmap.viz._dot_quote

    def counted(text):
        quoted.append(text)
        return original(text)

    monkeypatch.setattr(xmap.viz, "_dot_quote", counted)
    crossmap = country_fixture()
    dot = render_dot(crossmap)
    monkeypatch.undo()
    assert dot == render_dot(crossmap)
    categories = len(crossmap.source_categories) + len(crossmap.target_categories)
    # each node's id and label, and each distinct weight text
    assert len(quoted) == 2 * categories + len({link.weight for link in crossmap.links})


def test_chain_layout_columns_and_extras():
    recode = country_fixture()
    merge = build_crossmap(
        "new", "blocs",
        [("BEL", "BENELUX", 1.0), ("LUX", "BENELUX", 1.0), ("DEU", "DACH", 1.0), ("AUS", "DACH", 1.0)],
    )
    plan = layout_chain(MultiStepChain((recode, merge)))
    assert len(plan.layers) == 3
    assert sorted(node.label for node in plan.layers[1]) == ["AUS", "BEL", "DEU", "LUX"]
    assert sorted(node.label for node in plan.layers[2]) == ["BENELUX", "DACH"]


def test_barycenter_never_beats_brute_force_bound():
    rng = random.Random(99)
    for _ in range(50):
        crossmap = random_crossmap(rng, max_sources=8, max_targets=8)
        plan = layout_chain(MultiStepChain((crossmap,)))
        tail_rows = {label: i for i, label in enumerate(crossmap.source_categories)}
        head_rows = {label: i for i, label in enumerate(crossmap.target_categories)}
        input_crossings = oracle_crossings(
            tail_rows, head_rows, [(l.source, l.target) for l in crossmap.links]
        )
        assert plan_crossings(plan) <= input_crossings


def test_svg_encoding_counts_on_random_maps():
    rng = random.Random(5)
    for _ in range(20):
        crossmap = random_crossmap(rng, max_sources=10, max_targets=10)
        svg = render_svg(layout_bipartite(crossmap))
        splits = [s for s in crossmap.source_categories if crossmap.out_degree(s) > 1]
        dashed_edges = sum(crossmap.out_degree(s) for s in splits)
        assert svg.count("stroke-dasharray") == dashed_edges
        assert svg.count('font-style="italic"') == len(splits)
        assert svg.count('font-weight="bold"') == len(crossmap.source_categories) - len(splits)


def test_splits_always_sit_above_one_to_one_sources():
    rng = random.Random(6)
    for _ in range(30):
        crossmap = random_crossmap(rng, max_sources=10, max_targets=10)
        plan = layout_bipartite(crossmap, NodeOrdering.SPLITS_FIRST)
        split_rows = [n.y for n in plan.layers[0] if n.style_class == "split"]
        plain_rows = [n.y for n in plan.layers[0] if n.style_class == "one-to-one"]
        if split_rows and plain_rows:
            assert max(split_rows) < min(plain_rows)


def test_identity_chain_has_zero_crossings():
    step = build_crossmap("x", "y", [("A", "A", 1.0), ("B", "B", 1.0)])
    plan = layout_chain(MultiStepChain((step,)))
    assert plan_crossings(plan) == 0


def test_three_layer_chain_respects_crossing_bound():
    rng = random.Random(8)
    for _ in range(30):
        first = random_crossmap(rng, max_sources=6, max_targets=5)
        finals = [f"Z{i}" for i in range(rng.randint(1, 6))]
        links = []
        for label in first.target_categories:
            fan = rng.randint(1, min(2, len(finals)))
            heads = rng.sample(finals, fan)
            if fan == 1:
                links.append((label, heads[0], 1.0))
            else:
                links.extend((label, head, 0.5) for head in heads)
        second = build_crossmap("beta", "gamma", links)
        chain = MultiStepChain((first, second))
        plan = layout_chain(chain)

        # input-order baseline: columns exactly as the layout constructs them
        columns = [list(first.source_categories), list(first.target_categories)]
        for label in second.source_categories:
            if label not in columns[1]:
                columns[1].append(label)
        columns.append(list(second.target_categories))
        baseline = 0
        for gap, step in enumerate((first, second)):
            tail_rows = {label: i for i, label in enumerate(columns[gap])}
            head_rows = {label: i for i, label in enumerate(columns[gap + 1])}
            baseline += oracle_crossings(
                tail_rows, head_rows, [(l.source, l.target) for l in step.links]
            )
        assert plan_crossings(plan) <= baseline


def test_barycenter_solves_a_known_tangle():
    # input order crosses a->q with b->p; one sweep lifts q above p
    tangled = build_crossmap("x", "y", [("a", "p", 0.5), ("a", "q", 0.5), ("b", "p", 1.0)])
    tail_rows = {"a": 0, "b": 1}
    head_rows = {"p": 0, "q": 1}
    assert oracle_crossings(tail_rows, head_rows, [("a", "p"), ("a", "q"), ("b", "p")]) == 1
    plan = layout_chain(MultiStepChain((tangled,)))
    assert plan_crossings(plan) == 0


def test_count_crossings_matches_the_brute_force_oracle():
    # Pins count_crossings before any faster rewrite. The single steps have few
    # targets and many split sources, so edges often share a tail or a head,
    # which never counts as a crossing.
    rng = random.Random(31)
    cases = []
    for _ in range(150):
        first, second = random_composable_pair(rng)
        middle = dict.fromkeys(first.target_categories + second.source_categories)
        orders = [list(first.source_categories), list(middle), list(second.target_categories)]
        cases.append((orders, (first, second)))
    for _ in range(150):
        targets = [f"T{i}" for i in range(rng.randint(1, 3))]
        links = []
        for i in range(rng.randint(1, 25)):
            heads = rng.sample(targets, rng.randint(1, len(targets)))
            links.extend((f"S{i:02d}", head, 1 / len(heads)) for head in heads)
        step = build_crossmap("x", "y", links)
        cases.append(([list(step.source_categories), list(step.target_categories)], (step,)))

    for orders, steps in cases:
        for order in orders:
            rng.shuffle(order)
        expected = sum(
            oracle_crossings(
                {label: row for row, label in enumerate(orders[gap])},
                {label: row for row, label in enumerate(orders[gap + 1])},
                [link.pair for link in step.links],
            )
            for gap, step in enumerate(steps)
        )
        assert count_crossings(orders, steps) == expected


# sha256 of repr(layout_chain(...)), recorded with the pairwise crossing count
# that the inversion count replaced: a crossing count is an exact integer, so
# every plan must stay the same.
GOLDEN_CHAIN_PLANS = "b79fb68b4ca7e674d678e70c3102a78fd573d69cb35e7963b01e86f3886d91af"
GOLDEN_WIDE_CHAIN_PLAN = "db80b2436cefe215c9d45f7d1b26602a98375a57eaea1722875aa8bd3d6587e1"
# sha256 of render_svg of the wide plan per hide_unit_weights, recorded before
# the layouts built nodes and edges through the column builder.
GOLDEN_WIDE_CHAIN_PLAN_SVG = {
    False: "4affdbdd7e734a856c8666eb4fca82aa27c053e12982067ccef478e5c38a3673",
    True: "53873cf255f0ecfe310424bb7ffe7bb73eba7ccaeabb715f7ff1057f76347cce",
}


def test_chain_plans_are_pinned():
    rng = random.Random(77)
    digest = hashlib.sha256()
    for _ in range(300):
        digest.update(repr(layout_chain(MultiStepChain(random_composable_pair(rng)))).encode())
    assert digest.hexdigest() == GOLDEN_CHAIN_PLANS
    wide = MultiStepChain(random_chain(random.Random(500), 500))
    assert len(wide.steps[0].source_categories) == 500
    plan = layout_chain(wide)
    assert hashlib.sha256(repr(plan).encode()).hexdigest() == GOLDEN_WIDE_CHAIN_PLAN
    for hide in (False, True):
        assert sha256(render_svg(plan, hide_unit_weights=hide)) == GOLDEN_WIDE_CHAIN_PLAN_SVG[hide], hide


# sha256 of the column labels (top to bottom) and the edges of every
# layout_bipartite plan below, recorded when the two-layer orderings still
# keyed each node on (mean neighbour row, label) instead of sharing _sweep.
GOLDEN_BIPARTITE_PLANS = "8776d0db9aecb930fd985ae469c3c4cb8ff045f28d5deda7a82ed48e6d0e49b0"


def test_bipartite_plans_are_pinned():
    rng = random.Random(9)
    digest = hashlib.sha256()
    for index in range(200):
        # Every other map is small, so many nodes tie on their barycenter.
        size = 6 if index % 2 else 50
        crossmap = random_crossmap(rng, max_sources=size, max_targets=size)
        for ordering in NodeOrdering:
            plan = layout_bipartite(crossmap, ordering)
            columns = [rows(plan, column) for column in range(len(plan.layers))]
            digest.update(repr((columns, plan.edges)).encode())
    assert digest.hexdigest() == GOLDEN_BIPARTITE_PLANS


def test_svg_with_tab_label_is_well_formed():
    from xml.dom import minidom

    crossmap = build_crossmap("x", "y", [("a\tb", "c", 1.0)])
    svg = render_svg(layout_bipartite(crossmap))
    assert minidom.parseString(svg).documentElement.tagName == "svg"


@pytest.mark.parametrize(
    "tail, head",
    [
        ((0, -1), (1, 0)),  # negative row
        ((1, 0), (2, 2)),  # row past the end of its column
        ((0, 0), (2, 0)),  # skips a column
        ((1, 0), (0, 0)),  # runs backwards
        ((2, 0), (3, 0)),  # head column does not exist
    ],
)
def test_plan_rejects_edges_off_adjacent_placed_nodes(tail, head):
    merge = build_crossmap(
        "new", "blocs",
        [("BEL", "BENELUX", 1.0), ("LUX", "BENELUX", 1.0), ("DEU", "DACH", 1.0), ("AUS", "DACH", 1.0)],
    )
    plan = layout_chain(MultiStepChain((country_fixture(), merge)))
    assert [len(column) for column in plan.layers] == [4, 4, 2]
    with pytest.raises(PlanMismatch):
        LayoutPlan(plan.layers, (PlannedEdge(tail, head, 1.0, "solid", "1"),))


@pytest.mark.parametrize(
    "node, tail, head",
    [
        (PlacedNode("BLX", 0, 0.0, "split"), (0, 0), (1, 0)),  # a float row
        (PlacedNode("BLX", 0.0, 0, "split"), (0, 0), (1, 0)),  # a float column
        (PlacedNode("BLX", 0, False, "split"), (0, 0), (1, 0)),  # a bool row
        (None, (0, 0), (1, 0, 5)),  # a 3-tuple endpoint
        (None, (0,), (1, 0)),  # a 1-tuple endpoint
        (None, [0, 0], (1, 0)),  # a list endpoint
        (None, (0, 0.0), (1, 0)),  # a float row in an endpoint
        (None, (1, 0), (2, -1)),  # a negative row, which a list index would take from the end
        (None, (-1, 0), (0, 0)),  # column -1
    ],
)
def test_plan_coordinates_are_int_pairs(node, tail, head):
    merge = build_crossmap(
        "new", "blocs",
        [("BEL", "BENELUX", 1.0), ("LUX", "BENELUX", 1.0), ("DEU", "DACH", 1.0), ("AUS", "DACH", 1.0)],
    )
    plan = layout_chain(MultiStepChain((country_fixture(), merge)))
    layers = plan.layers
    if node is not None:
        first = [placed for placed in layers[0] if placed.y != 0]
        layers = (tuple(first) + (node,),) + layers[1:]
    with pytest.raises(PlanMismatch):
        LayoutPlan(layers, (PlannedEdge(tail, head, 1.0, "solid", "1"),))


def test_chain_plan_renders_every_column():
    recode = country_fixture()
    # CZE is a source of the second step that the first never reaches
    merge = build_crossmap(
        "new", "blocs",
        [("BEL", "BENELUX", 1.0), ("LUX", "BENELUX", 1.0), ("DEU", "DACH", 1.0),
         ("AUS", "DACH", 1.0), ("CZE", "DACH", 1.0)],
    )
    plan = layout_chain(MultiStepChain((recode, merge)))
    svg = render_svg(plan)
    document = minidom.parseString(svg).documentElement
    assert document.getAttribute("width") == "800"  # two pads and two layer gaps
    assert len(document.getElementsByTagName("circle")) == 11
    assert len(document.getElementsByTagName("line")) == 10
    opacity = {
        text.lastChild.data: float(circle.getAttribute("fill-opacity"))
        for circle, text in zip(
            document.getElementsByTagName("circle"), document.getElementsByTagName("text")
        )
        if circle.hasAttribute("fill-opacity")
    }
    assert len(opacity) == 7  # every node outside the source column is shaded
    assert opacity["CZE"] == 0.35  # in-degree 0 keeps the floor
    assert opacity["DACH"] == 0.85  # in-degree 3
    assert min(opacity.values()) >= 0.35


def test_every_rendered_svg_parses():
    rng = random.Random(11)
    plans = []
    for _ in range(25):
        crossmap = random_crossmap(rng, max_sources=12, max_targets=12)
        plans.extend(layout_bipartite(crossmap, ordering) for ordering in NodeOrdering)
        plans.append(layout_chain(MultiStepChain(random_composable_pair(rng))))
    for plan in plans:
        for hide in (False, True):
            document = minidom.parseString(render_svg(plan, hide_unit_weights=hide))
            circles = document.getElementsByTagName("circle")
            assert len(circles) == sum(len(column) for column in plan.layers)
            assert len(document.getElementsByTagName("line")) == len(plan.edges)
            assert all(float(c.getAttribute("fill-opacity") or 1) >= 0.35 for c in circles)


@pytest.mark.parametrize(
    "name, crossmap",
    [
        ("country", country_fixture()),
        ("random", random_crossmap(random.Random(2024), max_sources=30, max_targets=30)),
    ],
    ids=["country", "random"],
)
def test_two_layer_output_bytes_are_pinned(name, crossmap):
    for ordering in NodeOrdering:
        for hide in (False, True):
            svg = render_svg(layout_bipartite(crossmap, ordering), hide_unit_weights=hide)
            assert sha256(svg) == GOLDEN_SVG[name][ordering.value, hide], (ordering, hide)
    assert sha256(render_dot(crossmap)) == GOLDEN_DOT[name]


def test_middle_column_labels_sit_above_their_nodes():
    merge = build_crossmap(
        "new", "blocs",
        [("BEL", "BENELUX", 1.0), ("LUX", "BENELUX", 1.0), ("DEU", "DACH", 1.0), ("AUS", "DACH", 1.0)],
    )
    plan = layout_chain(MultiStepChain((country_fixture(), merge)))
    document = minidom.parseString(render_svg(plan))
    middle_x = document.getElementsByTagName("circle")[len(plan.layers[0])].getAttribute("cx")
    anchors: dict[str, list[str]] = {}
    for circle, text in zip(
        document.getElementsByTagName("circle"), document.getElementsByTagName("text")
    ):
        column = "middle" if circle.getAttribute("cx") == middle_x else "outer"
        anchors.setdefault(column, []).append(text.getAttribute("text-anchor"))
        if column == "middle":
            assert text.getAttribute("x") == circle.getAttribute("cx")
            assert float(text.getAttribute("y")) < float(circle.getAttribute("cy"))
    assert anchors["middle"] == ["middle"] * len(plan.layers[1])
    assert "middle" not in anchors["outer"]  # first and last columns keep their anchors


# sha256 of render_svg output, recorded before render_svg indexed per-column
# and per-row coordinate tables: chain plans take the middle-column label
# branch, and the 2 000-source map has row sums large enough that every
# midpoint y comes from a sum of two rows.
GOLDEN_CHAIN_SVG = {
    False: "9bf8fa9ec5faddebe86ad6e9c7ec991896ca84b4e1071e9d8b53e4d288ed5a15",
    True: "065bd347e0965e201f5bf6f359b5635590fd2a6ac2b8c0097813893688550b6c",
}
GOLDEN_WIDE_CHAIN_SVG = {
    False: "b6977f0854dbb4beaa124d5fd6d94b7801a739d25c54aa63b544047e6fd5f07a",
    True: "dd00ab8a8fd7c331950f5e35f3bc7745c5074c92d949e547202cc7b48683673f",
}
GOLDEN_LARGE_SVG = {
    ("splits-first", False): "5653e112f1993632d035366fb3f9c2624f536e6faa0e04391f53f7efe2539b00",
    ("splits-first", True): "efd8e886633788080868acc23587e8c6d34add08dc0fb688f94c81aaab8969a4",
    ("target-indegree", False): "46a5aeafaac671daa5c2b0e8a45f270444042b03af25b93e004f53b8aa22aa0b",
    ("target-indegree", True): "b0c439cc9bde9c3da39ce2246c02bae905519e215901a3e47e989e77879d19a8",
    ("input-order", False): "d3e8398a015242ecfbc84fe802f7deeb93eab946c98a02fa0901b3c843c6c212",
    ("input-order", True): "a86190deb3dfe84e5f4c48ad18a67112cb673e6bfb6ff6d0134358a6b2e36c45",
}


@pytest.mark.parametrize("hide", [False, True])
def test_chain_svg_bytes_are_pinned(hide):
    rng = random.Random(41)
    digest = hashlib.sha256()
    for _ in range(100):
        plan = layout_chain(MultiStepChain(random_composable_pair(rng)))
        digest.update(render_svg(plan, hide_unit_weights=hide).encode())
    assert digest.hexdigest() == GOLDEN_CHAIN_SVG[hide]
    wide = layout_chain(MultiStepChain(random_chain(random.Random(501), 500)))
    assert sha256(render_svg(wide, hide_unit_weights=hide)) == GOLDEN_WIDE_CHAIN_SVG[hide]


def test_large_two_layer_svg_bytes_are_pinned():
    crossmap = random_chain(random.Random(2000), 2000)[0]
    assert len(crossmap.source_categories) == 2000
    for ordering in NodeOrdering:
        for hide in (False, True):
            svg = render_svg(layout_bipartite(crossmap, ordering), hide_unit_weights=hide)
            assert sha256(svg) == GOLDEN_LARGE_SVG[ordering.value, hide], (ordering, hide)


# sha256 of render_svg per (ordering, hide) and of render_dot for a
# 1 987-link map whose target column runs to row 1 319, recorded before the
# layouts built nodes and edges through the column builder and before grid
# texts skipped float formatting.
GOLDEN_THOUSANDS_SVG = {
    ("splits-first", False): "a14a313692f21f21e273f10ed7d4194d6c38e05e1bb92c0e231c0d565ea1dd90",
    ("splits-first", True): "f520837227d880b3b0e642a2a98ba6a89beb3b9be904397c8975e8e1f1a410a6",
    ("target-indegree", False): "b315374710766d24df691c7a7b95ad83b3b56b03717488ec469bd9e5dbe33467",
    ("target-indegree", True): "089d52685613f7cbc852710282813b88ef0ae9f58e90aa90ca982c7bdae00c67",
    ("input-order", False): "5ab6092f1e7e928821c602b94b96b09e5e0c10b3430791b397355a8b068bdede",
    ("input-order", True): "0379fa097425dd9778440cc4d29d4acb3e25c7f00d5510d921b6d5c7c99b8c3b",
}
GOLDEN_THOUSANDS_DOT = "3d1b95e5d1128b93955741a57199e872d1e716b71de42f194a4b2a768d3be619"


def test_two_layer_bytes_with_four_digit_rows_are_pinned():
    crossmap = random_crossmap(random.Random(6), max_sources=1000, max_targets=3000)
    assert (len(crossmap.links), len(crossmap.target_categories)) == (1987, 1320)
    for ordering in NodeOrdering:
        for hide in (False, True):
            svg = render_svg(layout_bipartite(crossmap, ordering), hide_unit_weights=hide)
            assert sha256(svg) == GOLDEN_THOUSANDS_SVG[ordering.value, hide], (ordering, hide)
    assert sha256(render_dot(crossmap)) == GOLDEN_THOUSANDS_DOT


def test_coord_skips_float_formatting_only_where_it_gives_the_same_text():
    def two_decimals(value: float) -> str:
        return f"{value:.2f}".rstrip("0").rstrip(".") or "0"

    xs = [viz._PAD_X + column * viz._LAYER_SPACING for column in range(64)]
    ys = [viz._PAD_Y + row * viz._NODE_SPACING for row in range(20_000)]
    values = [
        *xs, *(x + offset for x in xs for offset in (viz._EDGE_TRIM, -viz._EDGE_TRIM, 12.0, -12.0)),
        *((x1 + x2) / 2 for x1, x2 in zip(xs, xs[1:])),
        *ys, *(y + 4 for y in ys), *(y - 10 for y in ys),
        # every row sum's weight-label y, above and below the midpoint
        *((2 * viz._PAD_Y + rows * viz._NODE_SPACING) / 2 + offset
          for rows in range(40_000) for offset in (-6.0, 14.0)),
        # widths and heights
        *(2 * viz._PAD_X + last * viz._LAYER_SPACING for last in range(-1, 64)),
        *(2 * viz._PAD_Y + (rows - 1) * viz._NODE_SPACING for rows in range(20_000)),
        *(viz.target_opacity(degree) for degree in range(12)),
        viz._NODE_RADIUS, 0.0, -0.0, -10.0, 0.5, 1e20,
    ]
    assert [viz._coord(value) for value in values] == [two_decimals(value) for value in values]
    assert viz._coord(-0.0) == "-0"
