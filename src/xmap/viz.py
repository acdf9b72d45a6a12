"""Deterministic node-link diagrams for crossmaps.

Visual grammar: source labels are italic when the category's value will be
redistributed (a split) and bold when it passes through unmodified; split
edges are dashed, one-to-one edges solid; target nodes darken with the number
of incoming contributions, so the most synthetic values stand out; weight
text sits at edge midpoints, with unit weights optionally suppressed.

Layouts order the source column to put splits on top (directing attention to
the redistribution weights) or the target column by incoming degree
(highlighting composition), and multi-layer chains run iterative barycenter
sweeps to reduce edge crossings. Identical inputs always produce
byte-identical SVG and DOT text.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from html import escape
from typing import Iterator, Sequence

from .core import Crossmap, RelationKind, classify_source, classify_target
from .errors import PlanMismatch
from .io import format_weight
from .transform import MultiStepChain

SOLID = "solid"
DASHED = "dashed"

_MAX_LABEL_CHARS = 24
_PAD_X = 160.0
_PAD_Y = 40.0
_NODE_SPACING = 44.0
_LAYER_SPACING = 240.0
_NODE_RADIUS = 6.0
_EDGE_TRIM = 9.0
_SWEEPS = 4  # barycenter iterations of layout_chain, each one pass each way

_SOURCE_FILL = "#33415c"
_TARGET_FILL = "#1f6f8b"
_EDGE_STROKE = "#52606d"
_LABEL_FILL = "#3e4c59"


class NodeOrdering(Enum):
    """Row-ordering policies for the two-layer layout."""

    SPLITS_FIRST = "splits-first"
    TARGET_INDEGREE = "target-indegree"
    INPUT_ORDER = "input-order"


@dataclass(frozen=True)
class PlacedNode:
    label: str
    x: int  # column index
    y: int  # row index within the column
    style_class: str  # the RelationKind value of the node's role


@dataclass(frozen=True)
class PlannedEdge:
    tail: tuple[int, int]  # (column, row) of the source node
    head: tuple[int, int]
    weight: float
    line_style: str  # SOLID or DASHED; dashed iff the tail node is a split
    label_text: str


@dataclass(frozen=True)
class LayoutPlan:
    """All a renderer reads: placed nodes per column, and edges between placed
    nodes of adjacent columns with their line style and weight text."""

    layers: tuple[tuple[PlacedNode, ...], ...]
    edges: tuple[PlannedEdge, ...]

    def __post_init__(self) -> None:
        for index, column in enumerate(self.layers):
            if sorted(node.y for node in column) != list(range(len(column))):
                raise PlanMismatch(f"rows of column {index} are not a permutation")
            for node in column:
                if node.x != index:
                    raise PlanMismatch(f"node {node.label!r} is misfiled in column {index}")
        placed = {(node.x, node.y) for column in self.layers for node in column}
        for edge in self.edges:
            if edge.head[0] != edge.tail[0] + 1 or not (edge.tail in placed and edge.head in placed):
                raise PlanMismatch(f"edge {edge.tail} -> {edge.head} joins no adjacent placed nodes")


# ── layout ────────────────────────────────────────────────────────────────


def _rows(order: Sequence[str]) -> dict[str, int]:
    return {label: row for row, label in enumerate(order)}


def _edge_look(step: Crossmap) -> tuple[dict[str, str], dict[float, str]]:
    """How the edges of ``step`` are drawn, in SVG and DOT alike: the line
    style leaving each source (DASHED from a split) and each weight's text."""
    styles = {
        source: DASHED if classify_source(step, source) is RelationKind.SPLIT else SOLID
        for source in step.source_categories
    }
    return styles, {weight: format_weight(weight) for weight in {link.weight for link in step.links}}


def _edges(
    step: Crossmap, gap: int, tail_row: dict[str, int], head_row: dict[str, int]
) -> Iterator[PlannedEdge]:
    """One planned edge per link of ``step``, in pair order, from column
    ``gap`` to column ``gap + 1``."""
    styles, texts = _edge_look(step)
    return (
        PlannedEdge(
            tail=(gap, tail_row[link.source]),
            head=(gap + 1, head_row[link.target]),
            weight=link.weight,
            line_style=styles[link.source],
            label_text=texts[link.weight],
        )
        for link in step.pair_order
    )


def _place(steps: Sequence[Crossmap], orders: Sequence[Sequence[str]]) -> LayoutPlan:
    """Build the plan of columns ``orders`` (top to bottom) joined by ``steps``.

    The one place a node's kind is decided: ``classify_source`` of the first
    step in column 0, ``classify_target`` of the step before in later columns.
    """
    rows = [_rows(order) for order in orders]
    reached = [set(step.target_categories) for step in steps]

    def kind(column: int, label: str) -> RelationKind:
        if column == 0:
            return classify_source(steps[0], label)
        if label in reached[column - 1]:
            return classify_target(steps[column - 1], label)
        return RelationKind.UNIQUE  # a source of the next step that this step never reaches

    layers = tuple(
        tuple(
            PlacedNode(label, column, row, kind(column, label).value)
            for row, label in enumerate(order)
        )
        for column, order in enumerate(orders)
    )
    edges = (_edges(step, gap, rows[gap], rows[gap + 1]) for gap, step in enumerate(steps))
    return LayoutPlan(layers, tuple(edge for gap_edges in edges for edge in gap_edges))


def layout_bipartite(
    crossmap: Crossmap,
    ordering: NodeOrdering = NodeOrdering.SPLITS_FIRST,
) -> LayoutPlan:
    """Place a crossmap on two columns under the requested ordering.

    splits-first: split sources on top (stable by input order among
    themselves), one-to-one sources below; targets follow the barycenter of
    their connected source rows, ties by label. target-indegree: targets by
    in-degree descending then label; sources by barycenter, ties by label.
    input-order: both columns in first-appearance order. Barycenters come
    from one ``_sweep`` and kinds and edges from ``_place``, as in
    :func:`layout_chain`.
    """
    sources = list(crossmap.source_categories)
    targets = list(crossmap.target_categories)
    # Sorting the swept column by label first lets the stable sweep break ties by label.
    if ordering is NodeOrdering.SPLITS_FIRST:
        sources.sort(key=lambda s: classify_source(crossmap, s) is not RelationKind.SPLIT)
        targets.sort()
        _sweep(targets, sources, {t: [l.source for l in crossmap.links_into(t)] for t in targets})
    elif ordering is NodeOrdering.TARGET_INDEGREE:
        targets.sort(key=lambda t: (-crossmap.in_degree(t), t))
        sources.sort()
        _sweep(sources, targets, {h: [l.target for l in crossmap.links_from(h)] for h in sources})
    # INPUT_ORDER keeps first-appearance order on both columns.

    return _place((crossmap,), (sources, targets))


def count_crossings(orders: list[list[str]], steps: tuple[Crossmap, ...]) -> int:
    """Exact straight-line edge-crossing count, summed over adjacent columns.

    Bilayer cross counting by inversions (Barth, Jünger & Mutzel, "Simple and
    Efficient Bilayer Cross Counting", JGAA 8(2), 2004): each gap's spans
    (tail row, head row) are sorted by tail then head and walked with a
    Fenwick tree over head rows, each span adding the earlier spans whose head
    row is strictly greater. Spans that share a tail or a head never count.
    O(E log V) per gap for E links and V rows, not O(E²) for every pair.
    """
    total = 0
    for gap, step in enumerate(steps):
        tail_row, head_row = _rows(orders[gap]), _rows(orders[gap + 1])
        spans = sorted([(tail_row[link.source], head_row[link.target]) for link in step.links])
        total += _inversions(spans, len(head_row))
    return total


def _inversions(spans: list[tuple[int, int]], rows: int) -> int:
    """Pairs of ``spans`` (sorted) whose later span has the smaller head row;
    heads lie in ``range(rows)``."""
    tree = [0] * (rows + 1)  # Fenwick tree: tree[i] counts heads in rows [i - (i & -i), i)
    total = 0
    for seen, (_, head) in enumerate(spans):
        at_or_below, i = 0, head + 1
        while i:
            at_or_below += tree[i]
            i &= i - 1
        total += seen - at_or_below
        i = head + 1
        while i <= rows:
            tree[i] += 1
            i += i & -i
    return total


def _sweep(order: list[str], neighbour_order: list[str], neighbours: dict[str, list[str]]) -> None:
    """Sort ``order`` in place by the mean row of each label's neighbours in
    ``neighbour_order``; a label without neighbours keys on its current row."""
    row_of = _rows(neighbour_order).__getitem__
    key = {label: float(row) for row, label in enumerate(order)}
    key.update((label, sum(map(row_of, near)) / len(near)) for label, near in neighbours.items())
    order.sort(key=key.__getitem__)


def layout_chain(chain: MultiStepChain) -> LayoutPlan:
    """Place a multi-step chain on one column per taxonomy layer.

    Runs four iterations of a left-to-right then a right-to-left barycenter
    sweep, keeping the best ordering seen (the initial first-appearance ordering
    included), so the final crossing count never exceeds the input order's.
    Kinds and edges come from ``_place``, as in :func:`layout_bipartite`.
    """
    steps = chain.steps

    orders: list[list[str]] = [list(steps[0].source_categories)]
    for index, step in enumerate(steps):
        # Sources of the next step that nothing maps into still occupy a row.
        onward = steps[index + 1].source_categories if index + 1 < len(steps) else ()
        orders.append(list(dict.fromkeys(step.target_categories + onward)))

    into = [{t: [l.source for l in s.links_into(t)] for t in s.target_categories} for s in steps]
    out_of = [{h: [l.target for l in s.links_from(h)] for h in s.source_categories} for s in steps]

    best_orders = [list(order) for order in orders]
    best_crossings = count_crossings(orders, steps)
    for _ in range(_SWEEPS):
        for j in range(1, len(orders)):
            _sweep(orders[j], orders[j - 1], into[j - 1])
        for j in range(len(orders) - 2, -1, -1):
            _sweep(orders[j], orders[j + 1], out_of[j])
        crossings = count_crossings(orders, steps)
        if crossings < best_crossings:
            best_crossings = crossings
            best_orders = [list(order) for order in orders]

    return _place(steps, best_orders)


# ── rendering ─────────────────────────────────────────────────────────────


def _coord(value: float) -> str:
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return text or "0"


def target_opacity(in_degree: int) -> float:
    """Linear opacity ramp with a visible floor of 0.35, which in-degrees 0
    (a chain's onward-only sources) and 1 share, clamped at fully opaque."""
    return min(1.0, 0.35 + 0.25 * max(in_degree - 1, 0))


def _label_markup(label: str, x: float, y: float, attrs: str) -> str:
    shown = label
    title = ""
    if len(label) > _MAX_LABEL_CHARS:
        shown = label[: _MAX_LABEL_CHARS - 1] + "…"
        title = f"<title>{escape(label, quote=False)}</title>"
    return f'<text x="{_coord(x)}" y="{_coord(y)}"{attrs}>{title}{escape(shown, quote=False)}</text>'


def _position(column: int, row: int) -> tuple[float, float]:
    return (_PAD_X + column * _LAYER_SPACING, _PAD_Y + row * _NODE_SPACING)


def render_svg(plan: LayoutPlan, *, hide_unit_weights: bool = False) -> str:
    """Render a plan of any number of columns as an SVG 1.1 document.

    Reads the plan alone: column 0 is drawn as sources, later columns are
    always shaded by how many plan edges reach each node. The geometry is
    fixed: columns 240 apart, rows 44 apart. Labels sit left of the first
    column, right of the last, and centred above the nodes of any column
    between, clear of the edges leaving it. Element order is fixed (nodes by
    column then row, edges in plan order, weight labels last) and all numbers
    use a fixed format, so rendering is byte-identical across runs. Weight
    labels stagger above/below edge midpoints on alternate edges;
    ``hide_unit_weights`` leaves out the labels of weight-1 edges.
    """
    in_degree = Counter(edge.head for edge in plan.edges)
    last = len(plan.layers) - 1
    max_rows = max((len(column) for column in plan.layers), default=0)
    width = 2 * _PAD_X + last * _LAYER_SPACING
    height = 2 * _PAD_Y + (max_rows - 1) * _NODE_SPACING

    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_coord(width)}" height="{_coord(height)}" '
        f'viewBox="0 0 {_coord(width)} {_coord(height)}">',
        '<g font-family="Helvetica, Arial, sans-serif" font-size="13" fill="#1f2933">',
    ]

    for column in plan.layers:
        for node in sorted(column, key=lambda node: node.y):
            x, y = _position(node.x, node.y)
            shade, label_y = "", y + 4
            if node.x == 0:
                split = node.style_class == RelationKind.SPLIT.value
                face = ' font-style="italic"' if split else ' font-weight="bold"'
                fill, label_x, attrs = _SOURCE_FILL, x - 2 * _NODE_RADIUS, f' text-anchor="end"{face}'
            else:
                fill, label_x, attrs = _TARGET_FILL, x + 2 * _NODE_RADIUS, ' text-anchor="start"'
                if node.x < last:  # edges leave this column on the right
                    label_x, label_y, attrs = x, y - 10, ' text-anchor="middle"'
                shade = f' fill-opacity="{_coord(target_opacity(in_degree[node.x, node.y]))}"'
            parts.append(
                f'<circle cx="{_coord(x)}" cy="{_coord(y)}" r="{_coord(_NODE_RADIUS)}" '
                f'fill="{fill}"{shade}/>'
            )
            parts.append(_label_markup(node.label, label_x, label_y, attrs))

    weight_labels: list[str] = []
    for index, edge in enumerate(plan.edges):
        (x1, y1), (x2, y2) = _position(*edge.tail), _position(*edge.head)
        dashed = ' stroke-dasharray="6,4"' if edge.line_style == DASHED else ""
        parts.append(
            f'<line x1="{_coord(x1 + _EDGE_TRIM)}" y1="{_coord(y1)}" '
            f'x2="{_coord(x2 - _EDGE_TRIM)}" y2="{_coord(y2)}" '
            f'stroke="{_EDGE_STROKE}" stroke-width="1.5"{dashed}/>'
        )
        if hide_unit_weights and edge.weight == 1.0:
            continue
        mid_y = (y1 + y2) / 2 + (-6.0 if index % 2 == 0 else 14.0)
        weight_labels.append(
            f'<text x="{_coord((x1 + x2) / 2)}" y="{_coord(mid_y)}" text-anchor="middle" '
            f'font-size="11" fill="{_LABEL_FILL}">{escape(edge.label_text, quote=False)}</text>'
        )
    parts.extend(weight_labels)

    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\") + '"'


def render_dot(crossmap: Crossmap) -> str:
    """Emit the crossmap in DOT form for generic graph viewers.

    Each layer becomes a same-rank group (node ids are layer-qualified so a
    self-loop like AUS -> AUS keeps one node per layer); each link becomes an
    edge statement with the weight as its label and a dashed style on edges
    leaving split sources. Ordering matches render_svg: nodes by layer, edges
    sorted by (source, target).
    """
    lines = ["digraph crossmap {", "  rankdir=LR;"]
    for prefix, labels in (("from", crossmap.source_categories), ("to", crossmap.target_categories)):
        nodes = [f"    {_dot_quote(f'{prefix}/{label}')} [label={_dot_quote(label)}];" for label in labels]
        lines += ["  {", "    rank=same;", *nodes, "  }"]
    styles, texts = _edge_look(crossmap)
    for link in crossmap.pair_order:
        dashed = ", style=dashed" if styles[link.source] == DASHED else ""
        lines.append(
            f"  {_dot_quote(f'from/{link.source}')} -> {_dot_quote(f'to/{link.target}')} "
            f"[label={_dot_quote(texts[link.weight])}{dashed}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
