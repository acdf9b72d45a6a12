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

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import chain, pairwise, repeat
from operator import attrgetter
from typing import Callable, Sequence

from .core import Crossmap, RelationKind, _source_of, _target_of, _unchecked, _weight_of, clean_label
from .errors import InvalidLabel, PlanMismatch
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


@dataclass(frozen=True, slots=True)
class PlacedNode:
    """One node of a layout: its label at grid column ``x``, row ``y``."""

    label: str
    x: int  # column index
    y: int  # row index within the column
    style_class: str  # the RelationKind value of the node's role


@dataclass(frozen=True, slots=True)
class PlannedEdge:
    """One edge of a layout between placed nodes of adjacent columns, with
    its line style and the weight text drawn at its midpoint."""

    tail: tuple[int, int]  # (column, row) of the source node
    head: tuple[int, int]
    weight: float
    line_style: str  # SOLID or DASHED; dashed iff the tail node is a split
    label_text: str


@dataclass(frozen=True, slots=True)
class LayoutPlan:
    """All a renderer reads: placed nodes per column, and edges between placed
    nodes of adjacent columns with their line style and weight text.

    Coordinates are grid indices: each node's ``x`` is its column's index and
    the ``y`` values of a column are a permutation of ``range(len(column))``;
    each edge's ``tail`` and ``head`` are ``(column, row)`` tuples of two
    ``int`` naming placed nodes, the head one column right of the tail. Node
    labels and edge texts are ``str`` that :func:`clean_label` keeps as they
    are. A plan that breaks any of this raises ``PlanMismatch`` when it is
    built.
    """

    layers: tuple[tuple[PlacedNode, ...], ...]
    edges: tuple[PlannedEdge, ...]

    def __post_init__(self) -> None:
        for index, column in enumerate(self.layers):
            for node in column:
                if not _is_clean(node.label):
                    raise PlanMismatch(f"node label {node.label!r} is not a clean label")
                if type(node.x) is not int or type(node.y) is not int:
                    raise PlanMismatch(f"node {node.label!r} is not at an integer (column, row)")
                if node.x != index:
                    raise PlanMismatch(f"node {node.label!r} is misfiled in column {index}")
            if sorted(node.y for node in column) != list(range(len(column))):
                raise PlanMismatch(f"rows of column {index} are not a permutation")
        # Every column's rows are 0..size-1, so an in-range endpoint is a placed node.
        sizes = [len(column) for column in self.layers]
        for edge in self.edges:
            if not (_is_endpoint(edge.tail) and _is_endpoint(edge.head)):
                raise PlanMismatch(f"edge {edge.tail!r} -> {edge.head!r} has an endpoint not of (int, int)")
            (tail_column, tail_row), (head_column, head_row) = edge.tail, edge.head
            if not (
                head_column == tail_column + 1
                and 0 <= tail_column
                and head_column < len(sizes)
                and 0 <= tail_row < sizes[tail_column]
                and 0 <= head_row < sizes[head_column]
            ):
                raise PlanMismatch(f"edge {edge.tail} -> {edge.head} joins no adjacent placed nodes")
            if not isinstance(edge.label_text, str):
                raise PlanMismatch(f"edge text {edge.label_text!r} is not a str")
        for text in dict.fromkeys(edge.label_text for edge in self.edges):
            if not _is_clean(text):
                raise PlanMismatch(f"edge text {text!r} is not a clean label")


def _is_endpoint(at: object) -> bool:
    return type(at) is tuple and len(at) == 2 and type(at[0]) is int and type(at[1]) is int


def _is_clean(text: object) -> bool:
    """Whether ``text`` is a ``str`` that :func:`clean_label` keeps as it is."""
    try:
        return isinstance(text, str) and clean_label(text) == text
    except InvalidLabel:
        return False


# ── layout ────────────────────────────────────────────────────────────────


def _rows(order: Sequence[str]) -> dict[str, int]:
    return {label: row for row, label in enumerate(order)}


def _edge_look(step: Crossmap) -> tuple[dict[str, str], dict[float, str]]:
    """How the edges of ``step`` are drawn, in SVG and DOT alike: the line
    style leaving each source (DASHED from a split) and each weight's text."""
    styles = {
        source: DASHED if kind is RelationKind.SPLIT else SOLID
        for source, kind in step._source_kinds.items()
    }
    return styles, {weight: format_weight(weight) for weight in {link.weight for link in step.links}}


def _edges(
    step: Crossmap, tail_at: dict[str, tuple[int, int]], head_at: dict[str, tuple[int, int]]
) -> list[PlannedEdge]:
    """One planned edge per link of ``step``, in pair order, between the
    ``(column, row)`` endpoints of its source and its target."""
    styles, texts = _edge_look(step)
    links = step.pair_order
    sources = list(map(_source_of, links))
    weights = list(map(_weight_of, links))
    return _unchecked(
        PlannedEdge, len(links),
        map(tail_at.__getitem__, sources), map(head_at.__getitem__, map(_target_of, links)),
        weights, map(styles.__getitem__, sources), map(texts.__getitem__, weights),
    )


def _place(steps: Sequence[Crossmap], orders: Sequence[Sequence[str]]) -> LayoutPlan:
    """Build the plan of columns ``orders`` (top to bottom) joined by ``steps``.

    The one place a node's kind is decided: its source kind in the first step
    for column 0, its target kind in the step before for later columns, where
    a source of the next step that this step never reaches is UNIQUE.
    """
    # One (column, row) tuple per node, shared by all of its edges.
    at = [
        {label: (column, row) for row, label in enumerate(order)} for column, order in enumerate(orders)
    ]
    kinds = (steps[0]._source_kinds, *(step._target_kinds for step in steps))
    text = {kind: kind.value for kind in RelationKind}
    layers = tuple(
        tuple(_unchecked(
            PlacedNode, len(order), order, repeat(column, len(order)), range(len(order)),
            map(text.__getitem__, map(column_kinds.get, order, repeat(RelationKind.UNIQUE))),
        ))
        for column, (order, column_kinds) in enumerate(zip(orders, kinds))
    )
    edges = chain.from_iterable(_edges(step, at[gap], at[gap + 1]) for gap, step in enumerate(steps))
    # Unchecked: labels come from validated links, coordinates from enumerate and
    # edge texts from format_weight. The tests check that LayoutPlan accepts it unchanged.
    return _unchecked(LayoutPlan, 1, (layers,), (tuple(edges),))[0]


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
    from one ``_sweep`` over the crossmap's cached links by target or by
    source, and kinds and edges from ``_place``, as in :func:`layout_chain`.
    """
    sources = list(crossmap.source_categories)
    targets = list(crossmap.target_categories)
    # Sorting the swept column by label first lets the stable sweep break ties by label.
    if ordering is NodeOrdering.SPLITS_FIRST:
        not_split = {s: kind is not RelationKind.SPLIT for s, kind in crossmap._source_kinds.items()}
        sources.sort(key=not_split.__getitem__)
        targets.sort()
        _sweep(targets, sources, crossmap._links_by_target, _source_of)
    elif ordering is NodeOrdering.TARGET_INDEGREE:
        targets.sort()
        targets.sort(key=crossmap._in_degrees.__getitem__, reverse=True)  # stable: ties stay by label
        sources.sort()
        _sweep(sources, targets, crossmap._links_by_source, _target_of)
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


def _sweep(order: list[str], neighbour_order: list[str], groups: dict, end: Callable) -> None:
    """Sort ``order`` in place by the mean row in ``neighbour_order`` of the
    ``end`` of each label's links in ``groups``, a crossmap's cached links by
    source or by target; a label without links keys on its current row."""
    row_of = _rows(neighbour_order).__getitem__
    key = {label: float(row) for row, label in enumerate(order)}
    key.update((label, sum(map(row_of, map(end, links))) / len(links)) for label, links in groups.items())
    order.sort(key=key.__getitem__)


def layout_chain(chain: MultiStepChain) -> LayoutPlan:
    """Place a multi-step chain on one column per taxonomy layer.

    Runs four iterations of a left-to-right then a right-to-left barycenter
    sweep, keeping the best ordering seen (the initial first-appearance ordering
    included), so the final crossing count never exceeds the input order's.
    Sweeps read each step's cached links by target or by source. Kinds and
    edges come from ``_place``, as in :func:`layout_bipartite`.
    """
    steps = chain.steps

    orders: list[list[str]] = [list(steps[0].source_categories)]
    for index, step in enumerate(steps):
        # Sources of the next step that nothing maps into still occupy a row.
        onward = steps[index + 1].source_categories if index + 1 < len(steps) else ()
        orders.append(list(dict.fromkeys(step.target_categories + onward)))

    best_orders = [list(order) for order in orders]
    best_crossings = count_crossings(orders, steps)
    for _ in range(_SWEEPS):
        for j in range(1, len(orders)):
            _sweep(orders[j], orders[j - 1], steps[j - 1]._links_by_target, _source_of)
        for j in range(len(orders) - 2, -1, -1):
            _sweep(orders[j], orders[j + 1], steps[j]._links_by_source, _target_of)
        crossings = count_crossings(orders, steps)
        if crossings < best_crossings:
            best_crossings = crossings
            best_orders = [list(order) for order in orders]

    return _place(steps, best_orders)


# ── rendering ─────────────────────────────────────────────────────────────


def _coord(value: float) -> str:
    if value and value.is_integer():  # not -0.0, which the .2f path prints as "-0"
        return str(int(value))
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return text or "0"


def _escape(text: str) -> str:
    """SVG element text: ``html.escape(text, quote=False)``, without the import."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def target_opacity(in_degree: int) -> float:
    """Linear opacity ramp with a visible floor of 0.35, which in-degrees 0
    (a chain's onward-only sources) and 1 share, clamped at fully opaque."""
    return min(1.0, 0.35 + 0.25 * max(in_degree - 1, 0))


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

    Each grid coordinate is formatted once, per column or per row, and each
    node and edge indexes those texts by the plan's integer coordinates.
    """
    layers = plan.layers
    last = len(layers) - 1
    max_rows = max((len(column) for column in layers), default=0)
    width = 2 * _PAD_X + last * _LAYER_SPACING
    height = 2 * _PAD_Y + (max_rows - 1) * _NODE_SPACING

    xs = [_PAD_X + column * _LAYER_SPACING for column in range(len(layers))]
    ys = [_PAD_Y + row * _NODE_SPACING for row in range(max_rows)]
    node_x = [_coord(x) for x in xs]
    node_y = [_coord(y) for y in ys]
    tail_x = [_coord(x + _EDGE_TRIM) for x in xs]
    head_x = [_coord(x - _EDGE_TRIM) for x in xs]
    mid_x = [_coord((x1 + x2) / 2) for x1, x2 in pairwise(xs)]
    # Grid values are integer-valued floats, so y1 + y2 is exact and a weight
    # label's y depends only on its edge's row sum: above the midpoint on even
    # edges, below it on odd ones.
    mid_y = (
        cache(lambda rows: _coord((2 * _PAD_Y + rows * _NODE_SPACING) / 2 - 6.0)),
        cache(lambda rows: _coord((2 * _PAD_Y + rows * _NODE_SPACING) / 2 + 14.0)),
    )
    weight_text = cache(_escape)

    # Edges go first: their pass counts the in-degrees that shade the nodes.
    in_degree = [[0] * len(column) for column in layers]
    lines: list[str] = []
    weight_labels: list[str] = []
    for index, edge in enumerate(plan.edges):
        (tail_column, tail_row), (head_column, head_row) = edge.tail, edge.head
        in_degree[head_column][head_row] += 1
        dashed = ' stroke-dasharray="6,4"' if edge.line_style == DASHED else ""
        lines.append(
            f'<line x1="{tail_x[tail_column]}" y1="{node_y[tail_row]}" '
            f'x2="{head_x[head_column]}" y2="{node_y[head_row]}" '
            f'stroke="{_EDGE_STROKE}" stroke-width="1.5"{dashed}/>'
        )
        if hide_unit_weights and edge.weight == 1.0:
            continue
        weight_labels.append(
            f'<text x="{mid_x[tail_column]}" y="{mid_y[index % 2](tail_row + head_row)}" '
            f'text-anchor="middle" font-size="11" fill="{_LABEL_FILL}">'
            f'{weight_text(edge.label_text)}</text>'
        )

    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_coord(width)}" height="{_coord(height)}" '
        f'viewBox="0 0 {_coord(width)} {_coord(height)}">',
        '<g font-family="Helvetica, Arial, sans-serif" font-size="13" fill="#1f2933">',
    ]
    radius = _coord(_NODE_RADIUS)
    shade = cache(lambda degree: f' fill-opacity="{_coord(target_opacity(degree))}"')
    split = RelationKind.SPLIT.value
    outer_label_y = [_coord(y + 4) for y in ys]
    middle_label_y = [_coord(y - 10) for y in ys] if last > 1 else []
    for index, column in enumerate(layers):
        x = xs[index]
        label_y = outer_label_y
        if index == 0:
            fill, label_x, anchor = _SOURCE_FILL, _coord(x - 2 * _NODE_RADIUS), ' text-anchor="end"'
        elif index < last:  # edges leave this column on the right
            fill, label_x, anchor = _TARGET_FILL, node_x[index], ' text-anchor="middle"'
            label_y = middle_label_y
        else:
            fill, label_x, anchor = _TARGET_FILL, _coord(x + 2 * _NODE_RADIUS), ' text-anchor="start"'
        for node in sorted(column, key=attrgetter("y")):
            row, label, attrs, shading = node.y, node.label, anchor, ""
            if index == 0:
                attrs += ' font-style="italic"' if node.style_class == split else ' font-weight="bold"'
            else:
                shading = shade(in_degree[index][row])
            title = ""
            if len(label) > _MAX_LABEL_CHARS:
                title = f"<title>{_escape(label)}</title>"
                label = label[: _MAX_LABEL_CHARS - 1] + "…"
            parts.append(
                f'<circle cx="{node_x[index]}" cy="{node_y[row]}" r="{radius}" fill="{fill}"{shading}/>'
            )
            parts.append(
                f'<text x="{label_x}" y="{label_y[row]}"{attrs}>{title}{_escape(label)}</text>'
            )
    parts.extend(lines)
    parts.extend(weight_labels)

    parts += ["</g>", "</svg>", ""]
    return "\n".join(parts)


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
    ids = []
    for prefix, labels in (("from", crossmap.source_categories), ("to", crossmap.target_categories)):
        quoted = {label: _dot_quote(f"{prefix}/{label}") for label in labels}
        nodes = [f"    {node} [label={_dot_quote(label)}];" for label, node in quoted.items()]
        lines += ["  {", "    rank=same;", *nodes, "  }"]
        ids.append(quoted)
    tails, heads = ids
    styles, texts = _edge_look(crossmap)
    weight_labels = {weight: _dot_quote(text) for weight, text in texts.items()}
    for link in crossmap.pair_order:
        dashed = ", style=dashed" if styles[link.source] == DASHED else ""
        lines.append(
            f"  {tails[link.source]} -> {heads[link.target]} "
            f"[label={weight_labels[link.weight]}{dashed}];"
        )
    lines += ["}", ""]
    return "\n".join(lines)
