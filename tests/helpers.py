"""Fixtures, random generators, and independently coded oracles.

The oracles deliberately avoid the library's own code paths (different data
structures, different iteration orders) so agreement is evidence, not
tautology.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

from xmap import (
    Crossmap,
    DuplicateLink,
    EmptyCrossmap,
    IndexedSeries,
    InvalidLabel,
    LayoutPlan,
    Link,
    ParseError,
    WeightOutOfRange,
    WeightSumViolation,
    build_crossmap,
)

# Five-link recoding between the pre-1990 and post-1990 country lists:
# one split (BLX), one aggregation (DEU), one self-loop (AUS).
COUNTRY_LINKS = (
    ("BLX", "BEL", 0.5),
    ("BLX", "LUX", 0.5),
    ("E.GER", "DEU", 1.0),
    ("W.GER", "DEU", 1.0),
    ("AUS", "AUS", 1.0),
)
COUNTRY_EDGE_TEXT = (
    "from,to,weight\n"
    "BLX,BEL,0.5\n"
    "BLX,LUX,0.5\n"
    "E.GER,DEU,1\n"
    "W.GER,DEU,1\n"
    "AUS,AUS,1\n"
)
COUNTRY_VALUES = {"BLX": 10.0, "E.GER": 5.0, "W.GER": 7.0, "AUS": 3.0}
COUNTRY_EXPECTED = {"BEL": 5.0, "LUX": 5.0, "DEU": 12.0, "AUS": 3.0}

ISO_COLUMNS = ("country", "ISO2", "ISO3", "ISONumeric")
ISO_TABLE_TEXT = (
    "country,ISO2,ISO3,ISONumeric\n"
    "Afghanistan,AF,AFG,004\n"
    "Albania,AL,ALB,008\n"
    "Algeria,DZ,DZA,012\n"
    "American Samoa,AS,ASM,016\n"
    "Andorra,AD,AND,020\n"
)


def country_fixture() -> Crossmap:
    return build_crossmap("old", "new", COUNTRY_LINKS)


def country_series() -> IndexedSeries:
    return IndexedSeries("old", COUNTRY_VALUES)


# ── random instances ──────────────────────────────────────────────────────


def _random_links(
    rng: random.Random, sources: list[str], heads: list[str], max_fan: int
) -> list[tuple[str, str, float]]:
    """Links from every source to 1..``max_fan`` distinct heads.

    Split weights are integer ratios share/total, so each source's weights
    sum to 1 at float precision and every weight is at least 1/36 (safely
    above the 9-digit text format's resolution).
    """
    links: list[tuple[str, str, float]] = []
    for label in sources:
        fan = rng.randint(1, min(max_fan, len(heads)))
        picked = rng.sample(heads, fan)
        if fan == 1:
            links.append((label, picked[0], 1.0))
        else:
            shares = [rng.randint(1, 9) for _ in range(fan)]
            total = sum(shares)
            links.extend((label, head, share / total) for head, share in zip(picked, shares))
    return links


def random_crossmap(rng: random.Random, max_sources: int = 50, max_targets: int = 50) -> Crossmap:
    """Valid crossmap with a mix of one-to-one links, splits, and aggregates."""
    n_sources = rng.randint(1, max_sources)
    n_targets = rng.randint(1, max_targets)
    sources = [f"S{i:03d}" for i in range(n_sources)]
    targets = [f"T{i:03d}" for i in range(n_targets)]
    return build_crossmap("alpha", "beta", _random_links(rng, sources, targets, 4))


def random_crosswalk(rng: random.Random, max_sources: int = 50, max_targets: int = 50) -> Crossmap:
    """Unit-weight crossmap: every source has exactly one link (many-to-one allowed)."""
    n_sources = rng.randint(1, max_sources)
    n_targets = rng.randint(1, max_targets)
    sources = [f"A{i:03d}" for i in range(n_sources)]
    targets = [f"B{i:03d}" for i in range(n_targets)]
    links = [(label, rng.choice(targets), 1.0) for label in sources]
    return build_crossmap("alpha", "beta", links)


def random_composable_pair(rng: random.Random) -> tuple[Crossmap, Crossmap]:
    """Pair (a, b) where every intermediate category of a is covered by b."""
    mids = [f"M{i:02d}" for i in range(rng.randint(1, 10))]
    n_sources = rng.randint(1, 12)
    n_finals = rng.randint(1, 12)
    finals = [f"U{i:02d}" for i in range(n_finals)]
    sources = [f"S{i:02d}" for i in range(n_sources)]
    links_a = _random_links(rng, sources, mids, 3)
    links_b = _random_links(rng, mids, finals, 3)  # every intermediate links on: full coverage
    return (
        build_crossmap("alpha", "mid", links_a),
        build_crossmap("mid", "omega", links_b),
    )


def random_chain(rng: random.Random, n_sources: int) -> tuple[Crossmap, Crossmap]:
    """Two composable steps of fixed size: ``n_sources`` sources, half as many
    intermediate categories and a quarter as many final ones. Intermediates
    the first step never reaches are onward-only sources of the second."""
    sources = [f"S{i:04d}" for i in range(n_sources)]
    mids = [f"M{i:04d}" for i in range(n_sources // 2)]
    finals = [f"U{i:04d}" for i in range(n_sources // 4)]
    return (
        build_crossmap("alpha", "mid", _random_links(rng, sources, mids, 4)),
        build_crossmap("mid", "omega", _random_links(rng, mids, finals, 4)),
    )


def random_series(rng: random.Random, crossmap: Crossmap, integer: bool = False) -> IndexedSeries:
    """Series covering every source of the crossmap."""
    entries = {
        label: float(rng.randint(-1_000_000, 1_000_000)) if integer else rng.uniform(-1e6, 1e6)
        for label in crossmap.source_categories
    }
    return IndexedSeries(crossmap.source_taxonomy, entries)


# ── oracles ───────────────────────────────────────────────────────────────


def oracle_first_defect(links: list[tuple[str, str, float]]) -> tuple[type, str, int] | None:
    """The error a crossmap over ``links`` (clean labels, weights in (0, 1])
    must raise, as (class, message, index), or None when the links are valid.

    Duplicates come first: the smallest pair given more than once, at the
    position in ``links`` of its second link. Then sums: the smallest source
    whose weights, added one by one in (source, target) order, end more than
    1e-6 away from 1, at the position of its last link.
    """
    counts: dict[tuple[str, str], int] = {}
    for source, target, _ in links:
        counts[source, target] = counts.get((source, target), 0) + 1
    repeated = [pair for pair, count in counts.items() if count > 1]
    if repeated:
        source, target = min(repeated)
        at = [i for i, link in enumerate(links) if link[:2] == (source, target)]
        return DuplicateLink, f"duplicate link {source!r} -> {target!r}", at[1]
    totals: dict[str, float] = {}
    for source, _, weight in sorted(links, key=lambda link: (link[0], link[1])):
        totals[source] = totals.get(source, 0.0) + weight
    off = [source for source, total in totals.items() if abs(total - 1.0) > 1e-6]
    if off:
        source = min(off)
        last = max(i for i, link in enumerate(links) if link[0] == source)
        return WeightSumViolation, (
            f"outgoing weights for source {source!r} sum to {totals[source]:.9g}, expected 1"
        ), last
    return None


# Characters a label may not hold, by name, in the order they are looked for.
_NAMED_LABEL_DEFECTS = (
    (",", "comma"), ("\n", "newline"), ("\r", "carriage return"), ('"', "double quote")
)


def _label_defect(label: str) -> str | None:
    """Why a trimmed cell is no label, or None: empty, a named character, then
    the first C0 control other than tab, surrogate or U+FFFE/U+FFFF."""
    if label == "":
        return "empty after trimming whitespace"
    for char, name in _NAMED_LABEL_DEFECTS:
        if char in label:
            return f"contains a {name} character"
    for char in label:
        if ord(char) < 0x20 and char != "\t":
            return f"contains control character {char!r}"
        if 0xD800 <= ord(char) <= 0xDFFF or char in ("\ufffe", "\uffff"):
            return f"contains non-XML character {char!r}"
    return None


def _weight_or_none(text: str) -> float | None:
    """The finite float an ASCII number text without underscores spells, or None."""
    if not text.isascii() or "_" in text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def oracle_read_edge_list(
    text: str,
) -> tuple[type, str, int | None] | list[tuple[str, str, float]]:
    """What reading ``text`` as an edge list must give: the (source, target,
    weight) rows, or the first error as (class, message, line).

    Each row in line order: its field count, its weight text, then its source
    and target labels, then its weight range. Only when every row passes, the
    map-level defect :func:`oracle_first_defect` finds, on the line of a
    duplicated pair's second row or of a violating source's last row.
    """
    lines = [line.rstrip("\r") for line in text.split("\n")]
    if lines[-1] == "":
        del lines[-1]
    if not lines or lines[0] != "from,to,weight":
        found = lines[0] if lines else ""
        return ParseError, f"parse error: expected header 'from,to,weight', found {found!r}", 1
    rows: list[tuple[str, str, float]] = []
    for number in range(2, len(lines) + 1):
        cells = [cell.strip() for cell in lines[number - 1].split(",")]
        if len(cells) != 3:
            reason = f"expected 3 fields (from,to,weight), found {len(cells)}"
            return ParseError, f"parse error: {reason}", number
        source, target, weight_text = cells
        weight = _weight_or_none(weight_text)
        if weight is None:
            return ParseError, f"parse error: invalid weight {weight_text!r}", number
        for label in (source, target):
            reason = _label_defect(label)
            if reason is not None:
                return InvalidLabel, f"invalid category label {label!r}: {reason}", number
        if not 0.0 < weight <= 1.0:
            return WeightOutOfRange, (
                f"link {source!r} -> {target!r} has weight {weight!r}; "
                "weights must satisfy 0 < weight <= 1 (omit the link for zero)"
            ), number
        rows.append((source, target, weight))
    if not rows:
        return EmptyCrossmap, "crossmap has no links; a mapping with no links transforms nothing", None
    found = oracle_first_defect(rows)
    if found is None:
        return rows
    error, message, index = found
    return error, message, index + 2  # rows[i] sits on line i + 2


def oracle_expand_group_sum(
    links: tuple[tuple[str, str, float], ...], values: dict[str, float]
) -> dict[str, float]:
    """Expand each value row along its links into weighted rows, then group-sum."""
    expanded: list[tuple[str, float]] = []
    for source, target, weight in links:
        expanded.append((target, weight * values.get(source, 0.0)))
    grouped: dict[str, float] = {}
    for target, contribution in expanded:
        grouped[target] = grouped.get(target, 0.0) + contribution
    return grouped


def oracle_underflowing_links(
    links: list[tuple[str, str, float]], values: dict[str, float]
) -> set[tuple[str, str]]:
    """Pairs whose nonzero source value times a weight other than 1 is, in
    exact rational arithmetic, below the smallest normal float."""
    floor = Fraction(sys.float_info.min)
    return {
        (source, target)
        for source, target, weight in links
        if weight != 1.0
        and values.get(source, 0.0) != 0.0
        and abs(Fraction(weight) * Fraction(values[source])) < floor
    }


def oracle_composed_links(a: Crossmap, b: Crossmap) -> tuple[Link, ...]:
    """The links ``compose(a, b)`` describes, formed without it and before any
    weight-sum check: sources and, within each, targets in label order, each
    share summed over the intermediates as pair order meets them, a share of
    0.0 left out and one above 1 clamped to 1."""
    links: list[Link] = []
    for source in sorted(a.source_categories):
        shares: dict[str, float] = {}
        for first in a.links_from(source):
            for second in b.links_from(first.target):
                shares[second.target] = shares.get(second.target, 0.0) + first.weight * second.weight
        links.extend(
            Link(source, target, min(shares[target], 1.0)) for target in sorted(shares) if shares[target]
        )
    return tuple(links)


def assert_same_as_rebuilt(crossmap: Crossmap) -> None:
    """``crossmap`` matches ``Crossmap`` rebuilt from its own links in every
    stored and derived table, orders included."""
    twin = Crossmap(crossmap.source_taxonomy, crossmap.target_taxonomy, crossmap.links)
    assert crossmap == twin and hash(crossmap) == hash(twin)
    assert type(crossmap.links) is tuple
    assert type(crossmap._links_by_source) is type(twin._links_by_source)
    assert crossmap._links_by_source.side == "source"
    assert list(crossmap._links_by_source.items()) == list(twin._links_by_source.items())
    assert crossmap.pair_order == twin.pair_order
    assert crossmap.source_categories == twin.source_categories
    assert crossmap.target_categories == twin.target_categories
    assert list(crossmap._out_degrees.items()) == list(twin._out_degrees.items())
    assert list(crossmap._in_degrees.items()) == list(twin._in_degrees.items())


def oracle_relabel_group_sum(mapping: dict[str, str], values: dict[str, float]) -> dict[str, float]:
    """Crosswalk semantics: rename each key by lookup, then sum per new name."""
    out: dict[str, float] = {}
    for key, value in values.items():
        new_key = mapping[key]
        out[new_key] = out.get(new_key, 0.0) + value
    return out


def oracle_matrix_apply(crossmap: Crossmap, series: IndexedSeries) -> dict[str, float]:
    """Dense matrix-vector product, numpy's summation order."""
    import numpy as np

    sources = sorted(crossmap.source_categories)
    targets = sorted(crossmap.target_categories)
    source_pos = {label: i for i, label in enumerate(sources)}
    target_pos = {label: i for i, label in enumerate(targets)}
    matrix = np.zeros((len(sources), len(targets)))
    for link in crossmap.links:
        matrix[source_pos[link.source], target_pos[link.target]] = link.weight
    vector = np.array([series.entries.get(label, 0.0) for label in sources])
    return dict(zip(targets, (vector @ matrix).tolist()))


def oracle_crossings(
    tail_rows: dict[str, int], head_rows: dict[str, int], pairs: list[tuple[str, str]]
) -> int:
    """Brute-force pairwise count of straight-line crossings between two columns."""
    spans = [(tail_rows[source], head_rows[target]) for source, target in pairs]
    count = 0
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            if (spans[i][0] - spans[j][0]) * (spans[i][1] - spans[j][1]) < 0:
                count += 1
    return count


def plan_crossings(plan: LayoutPlan) -> int:
    """Crossing count of a layout plan, summed over adjacent column gaps."""
    total = 0
    for gap in range(len(plan.layers) - 1):
        spans = [(edge.tail[1], edge.head[1]) for edge in plan.edges if edge.tail[0] == gap]
        for i in range(len(spans)):
            for j in range(i + 1, len(spans)):
                if (spans[i][0] - spans[j][0]) * (spans[i][1] - spans[j][1]) < 0:
                    total += 1
    return total
