"""Independent checks of xmap's outputs.

Nothing here imports xmap. Each check recomputes the expected result from the
generator's ground truth with its own data structures (dict-of-dicts products,
plain group-sums, brute-force crossing counts) and returns None when the
output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
from xml.dom import minidom
from xml.parsers.expat import ExpatError

from inputs import GeneratedMap

TRANSFORM_RTOL = 1e-9
COMPOSE_ATOL = 1e-8  # the edge-list writer keeps 9 fractional digits
ROW_SUM_TOL = 1e-6


def _rows(text: str, header: str) -> list[list[str]] | str:
    lines = text.split("\n")
    if not lines or lines[0] != header or lines[-1] != "":
        return f"expected header {header!r} and a trailing newline"
    return [line.split(",") for line in lines[1:-1]]


def check_validate(gm: GeneratedMap, out: str) -> str | None:
    expected = (
        f"valid: {len(gm.sources)} sources, {len(gm.targets)} targets, {len(gm.links)} links, "
        f"{gm.n_splits} splits, {gm.n_aggregates} aggregates\n"
    )
    return None if out == expected else f"validate printed {out[:120]!r}, expected {expected!r}"


def check_summary_json(gm: GeneratedMap, out: str) -> str | None:
    try:
        got = json.loads(out)
    except json.JSONDecodeError as err:
        return f"summary is not JSON: {err}"
    ranked = sorted(gm.in_degree.items(), key=lambda item: (-item[1], item[0]))
    expected = {
        "n_sources": len(gm.sources),
        "n_targets": len(gm.targets),
        "n_links": len(gm.links),
        "n_splits": gm.n_splits,
        "n_aggregates": gm.n_aggregates,
        "max_in_degree": max(gm.in_degree.values()),
        "is_crosswalk": all(w == 1.0 for _, _, w in gm.links),
        "most_synthetic_targets": [[label, degree] for label, degree in ranked],
    }
    for key, value in expected.items():
        if got.get(key) != value:
            return f"summary {key} is {str(got.get(key))[:80]}, expected {str(value)[:80]}"
    return None if set(got) == set(expected) else f"summary keys are {sorted(got)}"


def check_transform(gm: GeneratedMap, values: dict[str, float], out: str) -> str | None:
    """Group-sum the links against the series, compare within a relative 1e-9,
    and check that total mass is conserved."""
    rows = _rows(out, "key,value")
    if isinstance(rows, str):
        return rows
    expected: dict[str, float] = {}
    scale: dict[str, float] = {}
    for source, target, weight in gm.links:
        part = weight * values[source]
        expected[target] = expected.get(target, 0.0) + part
        scale[target] = scale.get(target, 0.0) + abs(part)
    if [row[0] for row in rows] != sorted(expected):
        return "transform keys are not the sorted set of targets"
    got_total = 0.0
    for key, text in rows:
        got = float(text)
        got_total += got
        if abs(got - expected[key]) > TRANSFORM_RTOL * max(scale[key], 1.0):
            return f"transform {key} is {got!r}, expected {expected[key]!r}"
    residual = abs(got_total - sum(values.values()))
    if residual > TRANSFORM_RTOL * sum(abs(v) for v in values.values()):
        return f"transform loses mass: residual {residual!r}"
    return None


def check_compose(first: GeneratedMap, second: GeneratedMap, out: str) -> str | None:
    """Compare with a dict-of-dicts product and check every row sums to 1."""
    rows = _rows(out, "from,to,weight")
    if isinstance(rows, str):
        return rows
    onward: dict[str, dict[str, float]] = {}
    for middle, final, weight in second.links:
        onward.setdefault(middle, {})[final] = weight
    expected: dict[str, dict[str, float]] = {}
    for source, middle, weight in first.links:
        row = expected.setdefault(source, {})
        for final, onward_weight in onward[middle].items():
            row[final] = row.get(final, 0.0) + weight * onward_weight
    got: dict[str, dict[str, float]] = {}
    for source, final, text in rows:
        got.setdefault(source, {})[final] = float(text)
    if got.keys() != expected.keys():
        return "composed sources differ from the product's"
    for source, row in expected.items():
        if got[source].keys() != row.keys():
            return f"composed links of {source} differ from the product's"
        if abs(sum(got[source].values()) - 1.0) > ROW_SUM_TOL:
            return f"composed weights of {source} do not sum to 1"
        for final, weight in row.items():
            if abs(got[source][final] - weight) > COMPOSE_ATOL:
                return f"composed {source}->{final} is {got[source][final]!r}, expected {weight!r}"
    return None


def check_reject(code: int, err: str, line: int, source: str) -> str | None:
    if code != 1:
        return f"defective map exited {code}, expected 1"
    if f"(line {line})" not in err or repr(source) not in err:
        return f"rejection names the wrong place: {err[:160]!r}"
    return None


def check_svg(gm: GeneratedMap, out: str) -> str | None:
    try:
        doc = minidom.parseString(out)
    except ExpatError as err:
        return f"SVG does not parse: {err}"
    try:
        if doc.documentElement.tagName != "svg":
            return f"root element is {doc.documentElement.tagName!r}"
        circles = len(doc.getElementsByTagName("circle"))
        lines = len(doc.getElementsByTagName("line"))
    finally:
        doc.unlink()
    if circles != len(gm.sources) + len(gm.targets) or lines != len(gm.links):
        return f"SVG has {circles} nodes and {lines} edges"
    return None


def check_dot(gm: GeneratedMap, out: str) -> str | None:
    lines = out.split("\n")
    if lines[0] != "digraph crossmap {" or lines[-2:] != ["}", ""]:
        return "DOT document is not one closed digraph"
    edges = sum(1 for line in lines if " -> " in line)
    return None if edges == len(gm.links) else f"DOT has {edges} edges"


def check_import(pairs: list[tuple[str, str]], out: str) -> str | None:
    rows = _rows(out, "from,to,weight")
    if isinstance(rows, str):
        return rows
    expected = [[code_from, code_to, "1"] for code_from, code_to in pairs]
    return None if rows == expected else "imported edge list differs from the table columns"


def crossings(tail_rows: dict[str, int], head_rows: dict[str, int], links) -> int:
    """Brute-force pairwise count of straight-line crossings between two columns."""
    spans = [(tail_rows[source], head_rows[target]) for source, target, _ in links]
    count = 0
    for i, (a_tail, a_head) in enumerate(spans):
        for b_tail, b_head in spans[i + 1:]:
            if (a_tail - b_tail) * (a_head - b_head) < 0:
                count += 1
    return count


def chain_crossings(orders: list[list[str]], steps: tuple[GeneratedMap, ...]) -> int:
    total = 0
    for gap, step in enumerate(steps):
        tail = {label: row for row, label in enumerate(orders[gap])}
        head = {label: row for row, label in enumerate(orders[gap + 1])}
        total += crossings(tail, head, step.links)
    return total


def plan_orders(plan) -> list[list[str]] | str:
    """Column orders of a layout plan, or a reason the plan is malformed."""
    orders = []
    for index, layer in enumerate(plan.layers):
        rows = sorted((node.y, node.label) for node in layer)
        if [row for row, _ in rows] != list(range(len(rows))):
            return f"rows of column {index} are not a permutation"
        orders.append([label for _, label in rows])
    return orders


def check_chain_plan(plan, steps: tuple[GeneratedMap, GeneratedMap]) -> tuple[str | None, int]:
    """Check a two-step layout and count its crossings.

    The columns must hold exactly each layer's categories, and the plan may
    not cross more than first-appearance order does, which the layout
    promises. Sources of the second step that nothing maps into still take a
    row in the middle column, after the first step's targets. Returns (reason or None, crossings of the plan).
    """
    orders = plan_orders(plan)
    if isinstance(orders, str):
        return orders, -1
    hit = set(steps[0].targets)
    middle = steps[0].targets + [label for label in steps[1].sources if label not in hit]
    initial = [steps[0].sources, middle, steps[1].targets]
    for index, (got, want) in enumerate(zip(orders, initial)):
        if sorted(got) != sorted(want):
            return f"column {index} holds the wrong categories", -1
    if len(plan.edges) != sum(len(step.links) for step in steps):
        return f"plan has {len(plan.edges)} edges", -1
    found = chain_crossings(orders, steps)
    baseline = chain_crossings(initial, steps)
    if found > baseline:
        return f"layout crosses {found} times, first-appearance order {baseline}", found
    return None, found
