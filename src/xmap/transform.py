"""Cross-taxonomy transformation engine.

Pushes category-indexed numeric data through a crossmap in three moves:
rename each category along its links, multiply the value by the link weight,
then sum the pieces per target category. Also provides sequential composition
of crossmaps, inversion of bijective crosswalks, and harmonisation of several
sources into one long-format panel sharing a target taxonomy.

Floating-point determinism: every reduction iterates ``Crossmap.pair_order``,
whatever the input link order, so repeated runs produce byte-identical results.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .core import (
    Crossmap,
    Link,
    RelationKind,
    _left_to_right_sum,
    _off_unit_sum,
    _unchecked,
    classify_source,
    classify_target,
    clean_label,
)
from .errors import (
    CompoundedSlack,
    CrossmapError,
    DuplicateKey,
    DuplicatePanelRow,
    DuplicateUnit,
    InvalidLabel,
    MassOverflow,
    MassUnderflow,
    MissingSourceMapping,
    NonFiniteValue,
    NotBijective,
    TargetTaxonomyMismatch,
    TaxonomyMismatch,
    UncoveredIntermediate,
)

_FLOOR = sys.float_info.min  # the smallest normal float: a product below it has lost precision


def _label(text: str, index: int) -> str:
    """``clean_label(text)``, its ``InvalidLabel`` tagged with the entry ``index``."""
    try:
        return clean_label(text)
    except InvalidLabel as err:
        err.index = index
        raise


@dataclass(frozen=True, slots=True)
class IndexedSeries:
    """A category -> numeric value association under one taxonomy.

    Values carry whatever numeric mass the dataset measures (counts, currency,
    population). Labels are trimmed and validated; values must be finite.
    """

    taxonomy: str
    entries: Mapping[str, float]

    def __post_init__(self) -> None:
        cleaned: dict[str, float] = {}
        for index, (key, value) in enumerate(self.entries.items()):
            label = _label(key, index)
            if label in cleaned:
                raise DuplicateKey(label)
            value = float(value)
            if not math.isfinite(value):
                raise NonFiniteValue(label, value, index)
            cleaned[label] = value
        object.__setattr__(self, "entries", MappingProxyType(cleaned))

    def __reduce__(self):
        # A mappingproxy does not pickle: rebuild from a plain dict.
        return (type(self), (self.taxonomy, dict(self.entries)))

    def __hash__(self) -> int:
        # A mappingproxy does not hash: equal series have equal items.
        return hash((self.taxonomy, frozenset(self.entries.items())))

    def total(self) -> float:
        """Sum of all values, added left to right in key order."""
        return _left_to_right_sum(self.entries[k] for k in sorted(self.entries))


@dataclass(frozen=True)
class MultiStepChain:
    """An ordered sequence of crossmaps forming one multi-layer transformation.

    Consecutive steps must agree on the shared taxonomy name, and every target
    category of a step must be a source category of the next step -- otherwise
    mass flowing through the uncovered category would be lost mid-chain.
    """

    steps: tuple[Crossmap, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise CrossmapError("a multi-step chain needs at least one crossmap")
        for left, right in zip(self.steps, self.steps[1:]):
            if left.target_taxonomy != right.source_taxonomy:
                raise TaxonomyMismatch(left.target_taxonomy, right.source_taxonomy)
            uncovered = sorted(t for t in left._in_degrees if t not in right._links_by_source)
            if uncovered:
                raise UncoveredIntermediate(uncovered[0])

    @property
    def taxonomies(self) -> tuple[str, ...]:
        """All layer names, first source through final target."""
        return (self.steps[0].source_taxonomy,) + tuple(s.target_taxonomy for s in self.steps)


class PanelRow(NamedTuple):
    unit: str
    key: str
    value: float


@dataclass(frozen=True, slots=True)
class HarmonisedPanel:
    """Long-format rows (unit, key, value) under one shared target taxonomy.
    Unit and key are cleaned labels and the value is finite, as in a series;
    no (unit, key) pair repeats. :func:`harmonise` vouches for its own panel."""

    target_taxonomy: str
    rows: tuple[PanelRow, ...]

    def __post_init__(self) -> None:
        rows: dict[tuple[str, str], PanelRow] = {}
        for index, row in enumerate(self.rows):
            unit, key, value = PanelRow(*row)
            unit, key = _label(unit, index), _label(key, index)
            value = float(value)
            if not math.isfinite(value):
                raise NonFiniteValue(key, value, index).for_unit(unit)
            if (unit, key) in rows:
                raise DuplicatePanelRow(unit, key, index)
            rows[unit, key] = PanelRow(unit, key, value)
        object.__setattr__(self, "rows", tuple(rows.values()))


def apply(
    crossmap: Crossmap,
    series: IndexedSeries,
    allow_unmatched: bool = False,
) -> IndexedSeries:
    """Transform a series into the crossmap's target taxonomy.

    Each target's value is the weighted sum of its contributing sources;
    sources covered by the map but absent from the data contribute zero, and
    every target category appears in the output (zeros included) so downstream
    merges see a rectangular category set.

    A data category with no outgoing link raises ``MissingSourceMapping``
    unless ``allow_unmatched`` is set, in which case its mass is excluded and
    a warning is logged -- silent mass loss is the worst failure mode here.
    One pass adds each target's products in pair order and checks each: a
    nonzero value whose product with a weight other than 1 falls below the
    smallest normal float would lose mass, so it raises ``MassUnderflow``
    naming the link; a weighted sum that overflowed then raises
    ``MassOverflow`` naming the target.
    """
    if series.taxonomy != crossmap.source_taxonomy:
        raise TaxonomyMismatch(crossmap.source_taxonomy, series.taxonomy)

    known = crossmap._links_by_source
    unmatched = sorted(k for k in series.entries if k not in known)
    if unmatched:
        if not allow_unmatched:
            raise MissingSourceMapping(unmatched[0], extra=len(unmatched) - 1)
        excluded = _left_to_right_sum(abs(series.entries[k]) for k in unmatched)
        import logging  # loaded only where it is used: most processes never warn

        logging.getLogger(__name__).warning(
            "excluded %d unmatched categories (absolute mass %.6g): %s",
            len(unmatched),
            excluded,
            ", ".join(unmatched[:5]) + ("..." if len(unmatched) > 5 else ""),
        )

    entries = series.entries
    totals = {target: 0.0 for target in crossmap.target_categories}
    for link in crossmap.pair_order:
        value = entries.get(link.source, 0.0)
        share = link.weight * value
        if -_FLOOR < share < _FLOOR and value and link.weight != 1.0:
            raise MassUnderflow(link.source, link.target)
        totals[link.target] += share
    if not all(map(math.isfinite, totals.values())):  # the inputs were finite, so a sum overflowed
        target = next(target for target, total in totals.items() if not math.isfinite(total))
        raise MassOverflow(target, totals[target])
    # Unchecked: the keys are labels of validated links and every total is finite.
    return _unchecked(IndexedSeries, 1, (crossmap.target_taxonomy,), (MappingProxyType(totals),))[0]


def compose(a: Crossmap, b: Crossmap) -> Crossmap:
    """Collapse two sequential crossmaps into one.

    The composed weight from s to u is the sum over intermediates m of
    weight(s -> m) * weight(m -> u). Every target of ``a`` must be a source of
    ``b``; composition never renormalises, because renormalisation would
    invent weights the analyst never specified. Under that coverage condition
    the product of row-stochastic maps is row-stochastic. Sums within the
    tolerance of 1 compound, though: (1 + e_a)(1 + e_b) - 1 can leave it, and
    then ``CompoundedSlack`` names the smallest such source and the total
    ``Crossmap`` forms for it. A composed share that underflows to 0.0 is
    left out, as a zero share is the absence of a link. A composed share
    above 1 is clamped to 1, so the weight stays legal: float accumulation
    overshoots by an ulp, but inputs within the tolerance e can overshoot by
    up to (1 + e)^2 - 1. Then ``apply`` of the result drops that share of
    the source's value, up to (2e + e^2) * |value|, where ``apply_chain``
    through ``a`` and ``b`` keeps it. Composed links are ordered by
    (source, target): they are the columns :func:`_compose_columns` checks.
    """
    sources, targets, shares = _compose_columns(a, b)
    links = _unchecked(Link, len(sources), sources, targets, shares)
    return Crossmap(a.source_taxonomy, b.target_taxonomy, links)


def _compose_columns(a: Crossmap, b: Crossmap) -> tuple[list[str], list[str], list[float]]:
    """:func:`compose`'s links as checked source, target and share columns, each
    source's total its shares added left to right from 0.0, as in ``Crossmap``.
    Every source keeps a share, so the columns are never empty."""
    MultiStepChain((a, b))  # checks the shared taxonomy name and the coverage
    firsts, seconds = a._links_by_source, b._links_by_source
    sources, targets, shares = [], [], []
    for source in sorted(firsts):
        weights: dict[str, float] = {}
        for first in firsts[source]:
            share = first.weight
            for second in seconds[first.target]:
                target = second.target
                weights[target] = weights.get(target, 0.0) + share * second.weight
        total = 0.0
        for target in sorted(weights):
            w = weights[target]
            if w > 0.0:
                w = w if w <= 1.0 else 1.0  # min() costs a call per link
                sources.append(source)
                targets.append(target)
                shares.append(w)
                total += w
        if _off_unit_sum(total):  # valid maps keep a share >= ~1/(deg_a*deg_b): total > 0
            raise CompoundedSlack(source, total)
    return sources, targets, shares


def invert(crossmap: Crossmap) -> Crossmap:
    """Reverse a bijective crosswalk, swapping the taxonomies.

    Only defined when every weight is 1 and every target receives exactly one
    link: split weights are shares of *source* mass and carry no meaning in
    the reverse direction, so anything short of a bijection is rejected.
    ``invert(invert(c))`` reproduces ``c`` exactly.
    """
    for source in crossmap.source_categories:
        if classify_source(crossmap, source) is RelationKind.SPLIT:
            raise NotBijective(RelationKind.SPLIT.value, source)
    for target in crossmap.target_categories:
        if classify_target(crossmap, target) is RelationKind.AGGREGATE:
            raise NotBijective(RelationKind.AGGREGATE.value, target)
    if not crossmap.is_crosswalk:
        # A lone link within the sum tolerance of 1 is valid but is no crosswalk.
        first = next(l for l in crossmap.pair_order if l.weight != 1.0)
        raise NotBijective("non-unit-weight", first.source)
    links = crossmap.links
    reversed_links = _unchecked(
        Link, len(links), [l.target for l in links], [l.source for l in links], repeat(1.0)
    )
    return Crossmap(crossmap.target_taxonomy, crossmap.source_taxonomy, reversed_links)


def apply_chain(chain: MultiStepChain, series: IndexedSeries) -> IndexedSeries:
    """Apply every step of a chain in sequence.

    Equivalent (within floating-point tolerance) to applying the composition
    of all steps at once. Intermediate outputs are always fully covered by the
    next step, so no mass is lost mid-chain.
    """
    current = series
    for step in chain.steps:
        current = apply(step, current)
    return current


def harmonise(inputs: Iterable[tuple[str, Crossmap, IndexedSeries]]) -> HarmonisedPanel:
    """Transform several (unit, crossmap, series) sources into one panel.

    All crossmaps must share the same target taxonomy. Each unit name is
    cleaned as a label, once, and must not repeat once cleaned; an invalid
    one raises ``InvalidLabel`` with the ``index`` its unit's first panel row
    would take. Each series is applied strictly; errors are tagged with the
    offending unit. Rows come out in input order, then key ascending within
    each unit; the panel is built unchecked from those cleaned, unique units
    and ``apply``'s checked output.
    """
    items = list(inputs)
    if not items:
        raise CrossmapError("harmonise needs at least one (unit, crossmap, series) input")

    target_taxonomy = items[0][1].target_taxonomy
    seen_units: set[str] = set()
    rows: list[PanelRow] = []
    for unit, crossmap, series in items:
        unit = _label(unit, len(rows))
        if unit in seen_units:
            raise DuplicateUnit(unit)
        seen_units.add(unit)
        if crossmap.target_taxonomy != target_taxonomy:
            raise TargetTaxonomyMismatch(unit, target_taxonomy, crossmap.target_taxonomy)
        try:
            transformed = apply(crossmap, series)
        except CrossmapError as err:
            raise err.for_unit(unit)
        for key in sorted(transformed.entries):
            rows.append(PanelRow(unit, key, transformed.entries[key]))
    return _unchecked(HarmonisedPanel, 1, (target_taxonomy,), (tuple(rows),))[0]
