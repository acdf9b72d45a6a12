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
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import pairwise
from typing import Iterable, Union

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


@dataclass(frozen=True)
class Link:
    """One directed relation: ``weight`` of ``source``'s mass goes to ``target``.

    A zero share is encoded by the absence of a link, so 0 < weight <= 1.
    Self-loops (source == target) are legal and express "category unchanged".
    """

    source: str
    target: str
    weight: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", clean_label(self.source))
        object.__setattr__(self, "target", clean_label(self.target))
        object.__setattr__(self, "weight", float(self.weight))
        # NaN fails both comparisons below, so non-finite weights land here too.
        if not (0.0 < self.weight <= 1.0):
            raise WeightOutOfRange(self.source, self.target, self.weight)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.source, self.target)


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
    pair_order: tuple[Link, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
        if not self.links:
            raise EmptyCrossmap()
        ordered = tuple(sorted(self.links, key=lambda link: link.pair))
        object.__setattr__(self, "pair_order", ordered)
        for previous, link in pairwise(ordered):
            if previous.pair == link.pair:
                raise DuplicateLink(link.source, link.target)
        totals: dict[str, float] = {}
        for link in ordered:
            totals[link.source] = totals.get(link.source, 0.0) + link.weight
        for source, total in totals.items():  # keys arrive sorted, as ``ordered`` is
            if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
                raise WeightSumViolation(source, total)

    # -- derived structure (cached; the dataclass is frozen so these never stale)

    def _group_by(self, side: str) -> dict[str, tuple[Link, ...]]:
        # Keys in first-appearance order, each group in pair order.
        grouped: dict[str, list[Link]] = {getattr(link, side): [] for link in self.links}
        for link in self.pair_order:
            grouped[getattr(link, side)].append(link)
        return {label: tuple(group) for label, group in grouped.items()}

    @cached_property
    def _links_by_source(self) -> dict[str, tuple[Link, ...]]:
        return self._group_by("source")

    @cached_property
    def _links_by_target(self) -> dict[str, tuple[Link, ...]]:
        return self._group_by("target")

    @property
    def source_categories(self) -> tuple[str, ...]:
        """Source categories in order of first appearance."""
        return tuple(self._links_by_source)

    @property
    def target_categories(self) -> tuple[str, ...]:
        """Target categories in order of first appearance."""
        return tuple(self._links_by_target)

    def links_from(self, source: str) -> tuple[Link, ...]:
        """Outgoing links of ``source``, in pair order (by target)."""
        try:
            return self._links_by_source[source]
        except KeyError:
            raise UnknownCategory(source, "source") from None

    def links_into(self, target: str) -> tuple[Link, ...]:
        """Incoming links of ``target``, in pair order (by source)."""
        try:
            return self._links_by_target[target]
        except KeyError:
            raise UnknownCategory(target, "target") from None

    def out_degree(self, source: str) -> int:
        return len(self.links_from(source))

    def in_degree(self, target: str) -> int:
        return len(self.links_into(target))

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
    if crossmap.out_degree(source) > 1:
        return RelationKind.SPLIT
    return RelationKind.ONE_TO_ONE


def classify_target(crossmap: Crossmap, target: str) -> RelationKind:
    """AGGREGATE if the target category has more than one incoming link, else UNIQUE."""
    if crossmap.in_degree(target) > 1:
        return RelationKind.AGGREGATE
    return RelationKind.UNIQUE


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
    most_synthetic_targets: tuple[tuple[str, int], ...]
    is_crosswalk: bool


def summarize(crossmap: Crossmap) -> CrossmapSummary:
    """Count sources, targets, links, splits and aggregates in one pass."""
    in_degrees = {t: crossmap.in_degree(t) for t in crossmap.target_categories}
    ranked = sorted(in_degrees.items(), key=lambda item: (-item[1], item[0]))
    kinds = [classify_source(crossmap, s) for s in crossmap.source_categories]
    kinds += [classify_target(crossmap, t) for t in in_degrees]
    return CrossmapSummary(
        n_sources=len(crossmap.source_categories),
        n_targets=len(crossmap.target_categories),
        n_links=len(crossmap.links),
        n_splits=kinds.count(RelationKind.SPLIT),
        n_aggregates=kinds.count(RelationKind.AGGREGATE),
        max_in_degree=max(in_degrees.values()),
        most_synthetic_targets=tuple(ranked),
        is_crosswalk=crossmap.is_crosswalk,
    )
