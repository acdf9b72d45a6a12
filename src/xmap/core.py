"""Crossmap domain types: validated category mappings and their census.

A crossmap is a directed, weighted, bipartite mapping between a source and a
target taxonomy. Each link carries the share of numeric mass its source
category sends to its target category. Two conditions make a crossmap safe to
transform data with:

  1. at most one link per (source, target) pair, and
  2. each source category's outgoing weights sum to one,

which together guarantee column totals are preserved when values are pushed
through the map. Crosswalks (pure relabelling tables) are the special case
where every weight is exactly 1.

All values here are immutable after construction and safe to share between
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, NoReturn, Union

from .errors import (
    DuplicateLink,
    EmptyCrossmap,
    InvalidLabel,
    UnknownCategory,
    WeightOutOfRange,
    WeightSumViolation,
)

#: Tolerance for the per-source weight-sum check. Wide enough to admit decimal
#: inputs like thirds (0.333333 x 3), tight enough to reject genuine errors.
WEIGHT_SUM_TOLERANCE = 1e-6


def _off_unit_sum(total: float) -> bool:
    """Whether a source's weight total breaks the sum rule: the one definition."""
    return abs(total - 1.0) > WEIGHT_SUM_TOLERANCE


def _in_weight_range(weight: float) -> bool:
    """Whether a link weight lies in (0, 1], which NaN fails: the one definition."""
    return 0.0 < weight <= 1.0

_BANNED_CHARS = {",": "comma", "\n": "newline", "\r": "carriage return", '"': "double quote"}
# The named characters above, every C0 control except tab, and the rest of
# what XML 1.0 cannot carry: surrogates and the non-characters U+FFFE, U+FFFF.
_BANNED_PATTERN = re.compile('[,"\x00-\x08\x0a-\x1f\ud800-\udfff\ufffe\uffff]')


def clean_label(text: str) -> str:
    """Trim surrounding whitespace and validate a category label.

    Labels are case-sensitive identifiers ("BLX", "111111", "004"); they are
    never numerically interpreted. Comma, newline, and double-quote characters
    are banned so CSV emission stays unambiguous without quoting; the other C0
    control characters except tab, the surrogates U+D800 to U+DFFF and the
    non-characters U+FFFE and U+FFFF are banned because XML cannot carry them.
    """
    label = text.strip()
    if not label:
        raise InvalidLabel(text, "empty after trimming whitespace")
    banned = _BANNED_PATTERN.search(label)
    if banned:
        for ch, name in _BANNED_CHARS.items():
            if ch in label:
                raise InvalidLabel(label, f"contains a {name} character")
        kind = "control" if banned.group() < " " else "non-XML"
        raise InvalidLabel(label, f"contains {kind} character {banned.group()!r}")
    return label


def clean_labels(texts: Iterable[str]) -> dict[str, str] | None:
    """Each of ``texts`` mapped to the label :func:`clean_label` makes of it,
    or None when ``clean_label`` refuses any of them.

    One emptiness test and one pattern scan over the tab-joined labels cover
    every text: tab is allowed in a label, so joining on it adds no match.
    """
    texts = list(texts)
    labels = list(map(str.strip, texts))
    if not all(labels) or _BANNED_PATTERN.search("\t".join(labels)):
        return None
    return dict(zip(texts, labels))


@dataclass(frozen=True, slots=True)
class Link:
    """One directed relation: ``weight`` of ``source``'s mass goes to ``target``.

    A zero share is encoded by the absence of a link, so 0 < weight <= 1.
    Self-loops (source == target) are legal and express "category unchanged".
    """

    source: str
    target: str
    weight: float

    def __post_init__(self) -> None:
        source, target = clean_label(self.source), clean_label(self.target)
        weight = float(self.weight)
        if not _in_weight_range(weight):
            raise WeightOutOfRange(source, target, weight)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "weight", weight)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.source, self.target)


def _unchecked(cls: type, count: int, *columns: Iterable) -> list:
    """``count`` instances of the frozen slotted dataclass ``cls`` built
    column by column with no check, one column per field in declaration
    order, instance i from the i-th item of each column. The caller vouches
    for every value."""
    values = list(map(object.__new__, repeat(cls, count)))
    for name, column in zip(cls.__slots__, columns, strict=True):
        deque(map(cls.__dict__[name].__set__, values, column), maxlen=0)
    return values


_source_of = attrgetter("source")
_target_of = attrgetter("target")
_weight_of = attrgetter("weight")


def _left_to_right_sum(values: Iterable[float]) -> float:
    """The float sum of ``values`` added left to right. Not ``sum()``: Python
    3.12 made float ``sum()`` compensated, so its result would depend on the
    interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


class _CategoryTable(dict):
    """A table keyed by the categories of one ``side`` ("source" or "target")
    of a crossmap, where looking up any other label raises ``UnknownCategory``."""

    __slots__ = ("side",)

    def __init__(self, side: str, table: Mapping | Iterable[tuple]) -> None:
        super().__init__(table)
        self.side = side

    def __missing__(self, label: str) -> NoReturn:
        raise UnknownCategory(label, self.side)


class RelationKind(Enum):
    """Structural role of a category within a crossmap.

    Source side: ONE_TO_ONE (out-degree 1) or SPLIT (out-degree > 1).
    Target side: UNIQUE (in-degree 1) or AGGREGATE (in-degree > 1).
    """

    ONE_TO_ONE = "one-to-one"
    SPLIT = "split"
    UNIQUE = "unique"
    AGGREGATE = "aggregate"


@dataclass(frozen=True)
class Crossmap:
    """A validated mapping between two taxonomies.

    ``links`` keeps the input order, which writers and the category orders
    follow; ``pair_order`` holds the same links sorted by (source, target), the
    one order every reduction, layout and renderer iterates. Construction
    validates every invariant -- no partially-valid crossmap is observable; a
    duplicated pair is reported before a bad weight sum. Prefer
    :func:`build_crossmap` for building from raw triples.
    """

    source_taxonomy: str
    target_taxonomy: str
    links: tuple[Link, ...]
    # Each source's links in pair order, sources in first-appearance order.
    _links_by_source: _CategoryTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        links = tuple(self.links)
        object.__setattr__(self, "links", links)
        if not links:
            raise EmptyCrossmap()
        # One pass groups the links by source, in first-appearance order.
        groups = _CategoryTable("source", ())
        for link in links:
            group = groups.get(link.source)
            if group is None:
                groups[link.source] = [link]
            else:
                group.append(link)
        # Each split source's links are sorted by target, so a duplicate sits
        # next to its twin and the weights are added left to right from 0.0
        # in pair order, as _left_to_right_sum adds them; a lone link's total
        # is its weight. The smallest duplicated pair is reported before the
        # smallest violating source.
        duplicates: list[tuple[str, str]] = []
        violations: list[tuple[str, float]] = []
        for source, group in groups.items():
            if len(group) == 1:
                total = group[0].weight
            else:
                group.sort(key=_target_of)
                total, target = 0.0, None
                for link in group:
                    if link.target == target:
                        duplicates.append((source, target))
                    target = link.target
                    total += link.weight
            if _off_unit_sum(total):
                violations.append((source, total))
            groups[source] = tuple(group)
        # Only a failure looks up the input index of the link it names.
        if duplicates:
            source, target = min(duplicates)
            seconds = [i for i, link in enumerate(links) if link.pair == (source, target)]
            raise DuplicateLink(source, target, index=seconds[1])
        if violations:
            source, total = min(violations)
            last = max(i for i, link in enumerate(links) if link.source == source)
            raise WeightSumViolation(source, total, index=last)
        object.__setattr__(self, "_links_by_source", groups)

    # -- derived structure, each computed once on first use (the dataclass is
    # frozen, so none of it goes stale); each per-category table refuses an
    # unknown label by name

    @cached_property
    def pair_order(self) -> tuple[Link, ...]:
        """The links sorted by (source, target)."""
        groups = self._links_by_source
        return tuple(chain.from_iterable(map(groups.__getitem__, sorted(groups))))

    @cached_property
    def _in_degrees(self) -> _CategoryTable:
        return _CategoryTable("target", Counter(map(_target_of, self.links)))

    @cached_property
    def _source_kinds(self) -> _CategoryTable:
        return _CategoryTable("source", {
            source: RelationKind.SPLIT if len(group) > 1 else RelationKind.ONE_TO_ONE
            for source, group in self._links_by_source.items()
        })

    @cached_property
    def _target_kinds(self) -> _CategoryTable:
        return _CategoryTable("target", {
            target: RelationKind.AGGREGATE if degree > 1 else RelationKind.UNIQUE
            for target, degree in self._in_degrees.items()
        })

    @cached_property
    def _links_by_target(self) -> _CategoryTable:
        # Each group in pair order.
        grouped: dict[str, list[Link]] = {target: [] for target in self._in_degrees}
        for link in self.pair_order:
            grouped[link.target].append(link)
        return _CategoryTable("target", {target: tuple(group) for target, group in grouped.items()})

    @cached_property
    def source_categories(self) -> tuple[str, ...]:
        """Source categories in order of first appearance."""
        return tuple(self._links_by_source)

    @cached_property
    def target_categories(self) -> tuple[str, ...]:
        """Target categories in order of first appearance."""
        return tuple(self._in_degrees)

    def links_from(self, source: str) -> tuple[Link, ...]:
        """Outgoing links of ``source``, in pair order (by target)."""
        return self._links_by_source[source]

    def links_into(self, target: str) -> tuple[Link, ...]:
        """Incoming links of ``target``, in pair order (by source)."""
        return self._links_by_target[target]

    def out_degree(self, source: str) -> int:
        return len(self._links_by_source[source])

    def in_degree(self, target: str) -> int:
        return self._in_degrees[target]

    @cached_property
    def is_crosswalk(self) -> bool:
        """True when every weight is exactly 1 (pure relabelling, no splits)."""
        return all(link.weight == 1.0 for link in self.links)


LinkSpec = Union[Link, tuple[str, str, float]]


def build_crossmap(
    source_taxonomy: str,
    target_taxonomy: str,
    links: Iterable[LinkSpec],
) -> Crossmap:
    """Build a validated crossmap from an ordered collection of links.

    ``links`` is an iterable of (source, target, weight) triples or
    :class:`Link` values; input order is preserved. Raises ``EmptyCrossmap``,
    ``InvalidLabel``, ``WeightOutOfRange``, ``DuplicateLink``, or
    ``WeightSumViolation``, each naming the offending category or pair.
    """
    built: list[Link] = []
    for item in links:
        if isinstance(item, Link):
            built.append(item)
        else:
            source, target, weight = item
            built.append(Link(source, target, weight))
    return Crossmap(source_taxonomy, target_taxonomy, tuple(built))


def classify_source(crossmap: Crossmap, source: str) -> RelationKind:
    """SPLIT if the source category has more than one outgoing link, else ONE_TO_ONE."""
    return crossmap._source_kinds[source]


def classify_target(crossmap: Crossmap, target: str) -> RelationKind:
    """AGGREGATE if the target category has more than one incoming link, else UNIQUE."""
    return crossmap._target_kinds[target]


@dataclass(frozen=True)
class CrossmapSummary:
    """Relation-kind census of a crossmap, for provenance reporting.

    ``most_synthetic_targets`` lists every target with its in-degree, highest
    first (ties by label); a high in-degree marks a target whose value is
    assembled from many contributions and therefore most constructed.
    """

    n_sources: int
    n_targets: int
    n_links: int
    n_splits: int
    n_aggregates: int
    max_in_degree: int
    is_crosswalk: bool
    most_synthetic_targets: tuple[tuple[str, int], ...]


def summarize(crossmap: Crossmap) -> CrossmapSummary:
    """Count sources, targets, links, splits and aggregates from the cached tables."""
    groups, in_degrees = crossmap._links_by_source, crossmap._in_degrees
    ranked = sorted(in_degrees.items(), key=itemgetter(0))  # by label, then
    ranked.sort(key=itemgetter(1), reverse=True)  # by in-degree, stably
    return CrossmapSummary(
        n_sources=len(groups),
        n_targets=len(in_degrees),
        n_links=len(crossmap.links),
        n_splits=len(groups) - list(map(len, groups.values())).count(1),  # every group has a link
        n_aggregates=len(in_degrees) - list(in_degrees.values()).count(1),
        max_in_degree=ranked[0][1],
        is_crosswalk=crossmap.is_crosswalk,
        most_synthetic_targets=tuple(ranked),
    )
