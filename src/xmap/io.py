"""Bit-stable text formats: edge lists, wide crosswalk tables, series, panels.

These formats are the toolkit's interchange contract. Category labels are
never numerically interpreted ("004" stays "004"), files are UTF-8 with
comma-separated fields and no quoting (the label charset bans the characters
that would need it), output uses "\\n" line endings and input accepts "\\r\\n".
All parse errors carry 1-based line numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Iterable, Iterator, NoReturn, Sequence

from .core import (
    Crossmap,
    CrossmapSummary,
    Link,
    _in_weight_range,
    _source_of,
    _target_of,
    _unchecked,
    _weight_of,
    build_crossmap,
    clean_label,
    clean_labels,
)
from .errors import (
    CrossmapError,
    DuplicateKey,
    DuplicateLink,
    DuplicateSourceCode,
    EmptyCell,
    InvalidLabel,
    MissingColumn,
    NonFiniteValue,
    ParseError,
    WeightSumViolation,
)
from .transform import HarmonisedPanel, IndexedSeries

EDGE_LIST_HEADER = "from,to,weight"
SERIES_HEADER = "key,value"
PANEL_HEADER = "unit,key,value"


def format_weight(weight: float) -> str:
    """Render a link weight with up to 9 fractional digits.

    Trailing zeros are trimmed and unit weights come out as "1". Weights below
    5e-10 would round to "0", which no reader accepts, so they print in
    ``repr`` form (1e-10 as "1e-10"); the 1e-9 round-trip guarantee covers
    every weight.
    """
    text = f"{weight:.9f}".rstrip("0").rstrip(".")
    return repr(weight) if text == "0" else text


def format_value(value: float) -> str:
    """Render a series value exactly: integers without a decimal point, other
    values via the shortest digits that round-trip through float()."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _lines(text: str) -> list[str]:
    """Split a document into lines, tolerating \\r\\n and one trailing newline."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if "\r" in text:
        return [line.rstrip("\r") for line in lines]
    return lines


def _rows(rows: list[str], width: int, what: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields as written) for each of the lines after a
    header, refusing a row without ``width`` fields as "expected {width} {what}"."""
    for number, line in enumerate(rows, start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(number, f"expected {width} {what}, found {len(cells)}")
        yield number, cells


def _body(text: str, header: str) -> list[str]:
    """The lines after the header line, which must read ``header``."""
    lines = _lines(text)
    if not lines or lines[0] != header:
        found = lines[0] if lines else ""
        raise ParseError(1, f"expected header {header!r}, found {found!r}")
    del lines[0]
    return lines


def _float(text: str) -> float | None:
    """``float(text)`` for number text in the form writers emit: ASCII without
    the digit-group underscores and non-ASCII digits that float() also takes.
    None for any other text."""
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    return None


# ── edge lists ────────────────────────────────────────────────────────────


def read_edge_list(text: str, source_taxonomy: str, target_taxonomy: str) -> Crossmap:
    """Parse an edge-list document into a validated crossmap.

    The header must be exactly "from,to,weight" and every row must carry an
    explicit weight (crosswalk tables without weights go through
    :func:`import_crosswalk` instead). Row-local defects are reported first,
    in line order; crossmap validation failures come after, with the line of
    the duplicate's second occurrence or of the violating source's last row,
    which the error's ``index`` gives. Within a row the field count is
    checked first, then the weight text and its finiteness, the source label,
    the target label and the weight range. Each distinct label text and
    weight text is checked once by columns, and every cell of one label text
    gives the same ``str`` object; only a document those checks refuse is
    read again row by row, each row's labels and weight range checked by
    ``Link`` itself, so a defect is reported at its first row.
    """
    links = _edge_links(_body(text, EDGE_LIST_HEADER))
    # Every row parsed, so link i sits on line i + 2.
    try:
        return Crossmap(source_taxonomy, target_taxonomy, links)
    except (DuplicateLink, WeightSumViolation) as err:
        raise err.at_line(err.index + 2)


def _edge_links(rows: list[str]) -> list[Link]:
    """The links of an edge list's rows, checked by columns.

    Every row must hold exactly two commas; the rows are then split once into
    three columns, and each distinct weight text and label text is checked
    once; only the label texts that trimming changes are looked up again.
    Each column of texts is freed once its column of values is made. Where
    any check fails, :func:`_raise_first_row_defect` names the defect.
    """
    count = len(rows)
    if not count:
        return []
    if list(map(str.count, rows, repeat(","))).count(2) != count:
        _raise_first_row_defect(_rows(rows, 3, f"fields ({EDGE_LIST_HEADER})"))
    body = ",".join(rows)
    del rows
    cells = body.split(",")
    del body
    sources, targets, weight_texts = cells[0::3], cells[1::3], cells[2::3]
    del cells
    weights = _edge_weights(set(weight_texts))
    # The first cell of each text stands for all its cells: one str object
    # per label, which later dict lookups find by identity.
    distinct: dict[str, str] = {}
    sources = list(map(distinct.setdefault, sources, sources))
    targets = list(map(distinct.setdefault, targets, targets))
    labels = None if weights is None else clean_labels(distinct)
    if labels is None:
        _raise_first_row_defect(enumerate(zip(sources, targets, weight_texts), start=2))
    del distinct
    if labels:  # only a padded text is not its own label
        sources = list(map(labels.get, sources, sources))
        targets = list(map(labels.get, targets, targets))
    return _unchecked(Link, count, sources, targets, list(map(weights.__getitem__, weight_texts)))


def _edge_weights(texts: Iterable[str]) -> dict[str, float] | None:
    """Each weight cell text mapped to its weight, or None when any text is
    not a number in (0, 1] as :func:`_float` reads it once trimmed."""
    weights: dict[str, float] = {}
    for text in texts:
        weight = _float(text.strip())
        if weight is None or not _in_weight_range(weight):
            return None
        weights[text] = weight
    return weights


def _raise_first_row_defect(rows: Iterable[tuple[int, Sequence[str]]]) -> NoReturn:
    """Check (line number, fields as written) edge-list rows one by one, in
    line order, and raise the first row-local defect with its line."""
    for number, (raw_from, raw_to, raw_weight) in rows:
        stripped = raw_weight.strip()
        weight = _float(stripped)
        if weight is None or not math.isfinite(weight):
            raise ParseError(number, f"invalid weight {stripped!r}")
        try:
            Link(raw_from.strip(), raw_to.strip(), weight)
        except CrossmapError as err:
            raise err.at_line(number)
    raise AssertionError("the column checks refused rows that every row check passes")


def _document(header: str, rows: Iterable[str]) -> str:
    """The header line, then one line per row, each ending in "\\n"."""
    return "\n".join([header, *rows, ""])


def write_edge_list(crossmap: Crossmap) -> str:
    """Emit an edge-list document, rows in stored link order, by the one column writer."""
    links = crossmap.links
    return _write_edge_columns(
        map(_source_of, links), map(_target_of, links), list(map(_weight_of, links))
    )


def _write_edge_columns(sources: Iterable[str], targets: Iterable[str], weights: list) -> str:
    """The edge-list document of source, target and weight columns, each distinct
    weight formatted once: the writer of every edge list, ``xmap compose``'s too."""
    texts = {weight: format_weight(weight) for weight in set(weights)}
    rows = zip(sources, targets, map(texts.__getitem__, weights))
    return _document(EDGE_LIST_HEADER, map(",".join, rows))


# ── wide crosswalk tables ─────────────────────────────────────────────────


@dataclass(frozen=True)
class WideCrosswalkDocument:
    """A parsed wide table: one column per code set, aligned codes per row."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


def read_crosswalk_table(text: str) -> WideCrosswalkDocument:
    """Parse a wide crosswalk table (header row of column names, code rows)."""
    lines = _lines(text)
    if not lines:
        raise ParseError(1, "empty document")
    columns = tuple(c.strip() for c in lines[0].split(","))
    if any(not c for c in columns):
        raise ParseError(1, "empty column name in header")
    if len(set(columns)) != len(columns):
        raise ParseError(1, "duplicate column name in header")
    rows = tuple(
        tuple(cell.strip() for cell in cells) for _, cells in _rows(lines[1:], len(columns), "cells")
    )
    return WideCrosswalkDocument(columns, rows)


def import_crosswalk(doc: WideCrosswalkDocument, from_col: str, to_col: str) -> Crossmap:
    """Build a unit-weight crossmap from two columns of a wide table.

    Each row becomes one link with weight 1; the column names become the
    taxonomy names. The from-column must map each source code once. Any
    descriptive columns (human-readable names and the like) are dropped
    unchecked. The two columns' distinct code texts are cleaned in one
    :func:`clean_labels` batch. Only a table that the batch refuses, or whose
    from-column repeats a code, is read again row by row, so its first defect
    is reported at its line: an empty cell, then a label, then a repeat.
    """
    for name in (from_col, to_col):
        if name not in doc.columns:
            raise MissingColumn(name, doc.columns)
    from_idx = doc.columns.index(from_col)
    to_idx = doc.columns.index(to_col)

    sources = [row[from_idx] for row in doc.rows]
    targets = [row[to_idx] for row in doc.rows]
    try:
        labels = clean_labels({*sources, *targets})
    except TypeError:  # an unhashable cell, which the rows below refuse
        labels = None
    if labels is not None:
        sources = list(map(labels.get, sources, sources))
        if len(set(sources)) == len(sources):
            links = _unchecked(Link, len(sources), sources, map(labels.get, targets, targets), repeat(1.0))
            return build_crossmap(from_col, to_col, links)

    seen_sources: set[str] = set()
    for number, row in enumerate(doc.rows, start=2):
        for idx, name in ((from_idx, from_col), (to_idx, to_col)):
            if isinstance(row[idx], str) and not row[idx].strip():
                raise EmptyCell(number, name)
        try:
            source, _ = clean_label(row[from_idx]), clean_label(row[to_idx])
        except CrossmapError as err:
            raise err.at_line(number)
        if source in seen_sources:
            raise DuplicateSourceCode(source).at_line(number)
        seen_sources.add(source)
    raise AssertionError("the batch refused a table that every row check passes")


# ── value series and panels ───────────────────────────────────────────────


def read_series(text: str, taxonomy: str) -> IndexedSeries:
    """Parse a "key,value" document into a series under the given taxonomy.

    Row-local defects (field count, a repeated key, value text) are reported
    first, in line order; label and finiteness checks are left to
    :class:`IndexedSeries`, and their errors get the key's line attached.
    """
    entries: dict[str, float] = {}
    for number, cells in _rows(_body(text, SERIES_HEADER), 2, f"fields ({SERIES_HEADER})"):
        key, raw_value = cells[0].strip(), cells[1].strip()
        if key in entries:
            raise DuplicateKey(key).at_line(number)
        value = _float(raw_value)
        if value is None:
            raise ParseError(number, f"invalid value {raw_value!r}")
        entries[key] = value

    # Every row parsed and no key repeats, so entry i sits on line i + 2.
    try:
        return IndexedSeries(taxonomy, entries)
    except (InvalidLabel, NonFiniteValue) as err:
        raise err.at_line(err.index + 2)


def write_series(series: IndexedSeries) -> str:
    """Emit a "key,value" document, rows sorted by key ascending."""
    entries = series.entries
    return _document(SERIES_HEADER, (f"{key},{format_value(entries[key])}" for key in sorted(entries)))


def write_panel(panel: HarmonisedPanel) -> str:
    """Emit a long-format panel document in stored row order."""
    return _document(PANEL_HEADER, (f"{r.unit},{r.key},{format_value(r.value)}" for r in panel.rows))


# ── summary reports ───────────────────────────────────────────────────────


def write_summary_json(summary: CrossmapSummary) -> str:
    """Serialise a summary as one compact JSON object with fixed key order."""
    import json  # loaded only by summarize --json

    payload = {field.name: getattr(summary, field.name) for field in fields(summary)}
    return json.dumps(payload, separators=(",", ":"))
