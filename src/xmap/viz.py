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
from functools import cache
from itertools import chain, count, groupby, repeat
from operator import attrgetter, itemgetter
from typing import Callable, Sequence

from .core import Crossmap, RelationKind, _source_of, _target_of, _unchecked, _weight_of, clean_label
from .errors import InvalidLabel, PlanMismatch
from .io import format_weight
from .transform import MultiStepChain

SOLID = "solid"
DASHED = "dashed"
_DASH = ' stroke-dasharray="6,4"'

_MAX_LABEL_CHARS = 24
# An integer grid: both spacings are even, so every edge midpoint and
# weight-label y is exact, and every coordinate prints as the int it is.
_PAD_X = 160
_PAD_Y = 40
_NODE_SPACING = 44
_LAYER_SPACING = 240
_NODE_RADIUS = 6
_EDGE_TRIM = 9
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
        return clean_label(text) == text
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


def _plan_columns(steps: Sequence[Crossmap], orders: Sequence[Sequence[str]]) -> tuple[list, list]:
    """The columns of the plan of ``orders`` (top to bottom) joined by ``steps``:
    per column, its labels by row and their kind texts; per step, its edges in
    pair order as ``(column, tail rows, head rows, weights, line styles,
    texts)``, from ``column`` to the column right of it.

    The one place a node's kind is decided: its source kind in the first step
    for column 0, its target kind in the step before for later columns, where
    a source of the next step that this step never reaches is UNIQUE.
    """
    kinds = (steps[0]._source_kinds, *(step._target_kinds for step in steps))
    text = {kind: kind.value for kind in RelationKind}
    nodes = [
        (order, list(map(text.__getitem__, map(column_kinds.get, order, repeat(RelationKind.UNIQUE)))))
        for order, column_kinds in zip(orders, kinds)
    ]
    rows = [_rows(order).__getitem__ for order in orders]
    edges = []
    for column, step in enumerate(steps):
        styles, texts = _edge_look(step)
        links = step.pair_order
        sources, weights = list(map(_source_of, links)), list(map(_weight_of, links))
        edges.append((
            column, list(map(rows[column], sources)), list(map(rows[column + 1], map(_target_of, links))),
            weights, list(map(styles.__getitem__, sources)), list(map(texts.__getitem__, weights)),
        ))
    return nodes, edges


def _place(steps: Sequence[Crossmap], orders: Sequence[Sequence[str]]) -> LayoutPlan:
    """Build the plan of columns ``orders`` (top to bottom) joined by ``steps``
    from :func:`_plan_columns`: the one place plan objects are made."""
    nodes, edge_columns = _plan_columns(steps, orders)
    # One (column, row) tuple per node, shared by all of its edges.
    at = [list(zip(repeat(column), range(len(labels)))) for column, (labels, _) in enumerate(nodes)]
    layers = tuple(
        tuple(_unchecked(PlacedNode, len(labels), labels, repeat(column), range(len(labels)), kinds))
        for column, (labels, kinds) in enumerate(nodes)
    )
    edges = chain.from_iterable(
        _unchecked(PlannedEdge, len(weights), map(at[column].__getitem__, tails),
                   map(at[column + 1].__getitem__, heads), weights, styles, texts)
        for column, tails, heads, weights, styles, texts in edge_columns
    )
    # Unchecked: labels come from validated links, coordinates from enumerate and
    # edge texts from format_weight. The tests check that LayoutPlan accepts it unchanged.
    return _unchecked(LayoutPlan, 1, (layers,), (tuple(edges),))[0]


def _orders(crossmap: Crossmap, ordering: NodeOrdering) -> tuple[list[str], list[str]]:
    """The source and target columns of :func:`layout_bipartite`, top to bottom."""
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
    return sources, targets


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
    source (``_orders``), and kinds and edges from ``_place``, as in
    :func:`layout_chain`; ``xmap render`` writes those columns with no plan.
    """
    return _place((crossmap,), _orders(crossmap, ordering))


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
    """An opacity, the one fractional number of an SVG, to at most two decimals."""
    return f"{value:.2f}".rstrip("0").rstrip(".")


# A weight label's y by its edge's index parity and the sum of its end rows.
_WEIGHT_Y, _WEIGHT_STEP = (_PAD_Y - 6, _PAD_Y + 14), _NODE_SPACING // 2


def _row_texts(offset: int, rows: int) -> list[str]:
    """``str(_PAD_Y + offset + row * _NODE_SPACING)`` for each of ``rows``."""
    first = _PAD_Y + offset
    return list(map(str, range(first, first + rows * _NODE_SPACING, _NODE_SPACING)))


def _escape(text: str) -> str:
    """SVG element text: ``html.escape(text, quote=False)``, without the import."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def target_opacity(in_degree: int) -> float:
    """Linear opacity ramp with a visible floor of 0.35, which in-degrees 0
    (a chain's onward-only sources) and 1 share, clamped at fully opaque."""
    return min(1.0, 0.35 + 0.25 * max(in_degree - 1, 0))


_edge_fields = attrgetter("tail", "head", "weight", "line_style", "label_text")
_label_of, _kind_of, _second = attrgetter("label"), attrgetter("style_class"), itemgetter(1)


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

    ``_svg``, the one SVG emitter, writes the plan's columns: each column's
    nodes by row, each run of edges leaving one column. ``xmap render`` calls
    it on the columns of its layout, with no plan.
    """
    edges = []
    for column, run in groupby(plan.edges, key=lambda edge: edge.tail[0]):
        tails, heads, *rest = zip(*map(_edge_fields, run))
        edges.append((column, list(map(_second, tails)), list(map(_second, heads)), *rest))
    columns = [sorted(column, key=attrgetter("y")) for column in plan.layers]
    nodes = [(list(map(_label_of, column)), list(map(_kind_of, column))) for column in columns]
    return _svg(nodes, edges, hide_unit_weights)


def _svg(nodes: Sequence[tuple[list, list]], edges: Sequence[tuple], hide_unit_weights: bool) -> str:
    """The SVG of :func:`render_svg` from columns as :func:`_plan_columns`
    returns them: per column, labels by row and kind texts; per run of edges
    leaving one column, in plan order, ``(column, tail rows, head rows,
    weights, line styles, texts)``. Texts are escaped in one pass, joined by
    newlines, which no clean label holds."""
    last = len(nodes) - 1
    max_rows = max((len(labels) for labels, _ in nodes), default=0)
    width = 2 * _PAD_X + last * _LAYER_SPACING
    height = 2 * _PAD_Y + (max_rows - 1) * _NODE_SPACING
    xs = [_PAD_X + column * _LAYER_SPACING for column in range(len(nodes))]
    node_y = _row_texts(0, max_rows)

    # Edges go first: their head rows count the in-degrees that shade the nodes.
    # Each x text is made once per column, not once per element.
    in_degree = [Counter() for _ in nodes]
    lines, weight_labels = [], []
    first = 0  # plan index of the run's first edge: weight labels alternate above and below
    for column, tails, heads, weights, styles, texts in edges:
        in_degree[column + 1].update(heads)
        x1, x2 = str(xs[column] + _EDGE_TRIM), str(xs[column + 1] - _EDGE_TRIM)
        lines += [
            f'<line x1="{x1}" y1="{node_y[tail]}" x2="{x2}" y2="{node_y[head]}" '
            f'stroke="{_EDGE_STROKE}" stroke-width="1.5"{_DASH if style == DASHED else ""}/>'
            for tail, head, style in zip(tails, heads, styles)
        ]
        mid_x = str(xs[column] + _LAYER_SPACING // 2)
        weight_labels += [
            f'<text x="{mid_x}" y="{_WEIGHT_Y[index & 1] + _WEIGHT_STEP * (tail + head)}" '
            f'text-anchor="middle" font-size="11" fill="{_LABEL_FILL}">{text}</text>'
            for index, tail, head, weight, text in zip(
                count(first), tails, heads, weights, _escape("\n".join(texts)).split("\n")
            )
            if not (hide_unit_weights and weight == 1.0)
        ]
        first += len(tails)

    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        '<g font-family="Helvetica, Arial, sans-serif" font-size="13" fill="#1f2933">',
    ]
    radius = str(_NODE_RADIUS)
    shade = cache(lambda degree: f' fill-opacity="{_coord(target_opacity(degree))}"')
    split = RelationKind.SPLIT.value
    for column, (labels, kinds) in enumerate(nodes):
        x, label_y, looks = xs[column], 4, repeat("")
        if column == 0:
            fill, label_x, anchor = _SOURCE_FILL, str(x - 2 * _NODE_RADIUS), ' text-anchor="end"'
            looks = [' font-style="italic"' if kind == split else ' font-weight="bold"' for kind in kinds]
        elif column < last:  # edges leave this column on the right
            fill, label_x, anchor, label_y = _TARGET_FILL, str(x), ' text-anchor="middle"', -10
        else:
            fill, label_x, anchor = _TARGET_FILL, str(x + 2 * _NODE_RADIUS), ' text-anchor="start"'
        degrees = map(in_degree[column].__getitem__, range(len(labels)))
        shading = repeat("") if column == 0 else map(shade, degrees)
        shown = _escape("\n".join(labels)).split("\n")
        if max(map(len, labels), default=0) > _MAX_LABEL_CHARS:
            shown = [
                text if len(label) <= _MAX_LABEL_CHARS
                else f"<title>{text}</title>{_escape(label[: _MAX_LABEL_CHARS - 1])}…"
                for label, text in zip(labels, shown)
            ]
        node_x = str(x)
        parts += [
            f'<circle cx="{node_x}" cy="{y}" r="{radius}" fill="{fill}"{opacity}/>\n'
            f'<text x="{label_x}" y="{text_y}"{anchor}{look}>{label}</text>'
            for y, opacity, text_y, look, label in zip(
                node_y, shading, _row_texts(label_y, len(labels)), looks, shown
            )
        ]
    parts += [*lines, *weight_labels, "</g>", "</svg>", ""]
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
