"""Exception hierarchy for the crossmap toolkit.

Every failure names the offending category, pair, or line so the user can
repair the edge list. ``DocumentError`` and its subclasses cover text-format
problems (CLI exit code 2); all other ``CrossmapError`` subclasses are
domain/validation failures (CLI exit code 1).
"""

from __future__ import annotations


class CrossmapError(Exception):
    """Base class for all crossmap toolkit errors.

    ``line`` (1-based) and ``unit`` are optional context attached by the
    parsing and harmonisation layers respectively; attaching them preserves
    the original exception type.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.line: int | None = None
        self.unit: str | None = None

    def at_line(self, line: int) -> "CrossmapError":
        """Attach a 1-based line number to this error."""
        if self.line is None:
            self.line = line
            self.args = (f"{self.args[0]} (line {line})",)
        return self

    def for_unit(self, unit: str) -> "CrossmapError":
        """Tag this error with the observational unit it occurred in."""
        if self.unit is None:
            self.unit = unit
            self.args = (f"unit {unit!r}: {self.args[0]}",)
        return self


# ── construction / validation ─────────────────────────────────────────────


class InvalidLabel(CrossmapError):
    """Category label is empty or contains a banned character. ``index`` is
    the position of its entry or row where an ``IndexedSeries`` or a
    ``HarmonisedPanel`` raises it, else None."""

    def __init__(self, text: str, reason: str):
        super().__init__(f"invalid category label {text!r}: {reason}")
        self.text = text
        self.reason = reason
        self.index: int | None = None


class EmptyCrossmap(CrossmapError):
    def __init__(self) -> None:
        super().__init__("crossmap has no links; a mapping with no links transforms nothing")


class DuplicateLink(CrossmapError):
    """A (source, target) pair given more than once. Where a ``Crossmap``
    raises it, ``index`` is the input position of the pair's second link;
    otherwise it is None."""

    def __init__(self, source: str, target: str, index: int | None = None):
        super().__init__(f"duplicate link {source!r} -> {target!r}")
        self.source = source
        self.target = target
        self.index = index


class WeightOutOfRange(CrossmapError):
    def __init__(self, source: str, target: str, weight: float):
        super().__init__(
            f"link {source!r} -> {target!r} has weight {weight!r}; "
            "weights must satisfy 0 < weight <= 1 (omit the link for zero)"
        )
        self.source = source
        self.target = target
        self.weight = weight


class WeightSumViolation(CrossmapError):
    """A source whose weights, added left to right in target order, sum to
    ``total``, more than the tolerance away from 1. Where a ``Crossmap``
    raises it, ``index`` is the input position of the source's last link;
    otherwise it is None."""

    _message = "outgoing weights for source {source!r} sum to {total:.9g}, expected 1"

    def __init__(self, source: str, total: float, index: int | None = None):
        super().__init__(self._message.format(source=source, total=total))
        self.source = source
        self.total = total
        self.index = index


class CompoundedSlack(WeightSumViolation):
    """Two valid maps whose composition has a source off the weight-sum
    tolerance: each map's sums lie within it, but their slack compounds."""

    _message = (
        "composed weights for source {source!r} sum to {total:.9g}, expected 1: "
        "both maps are valid, but the slack of their weight sums compounds beyond the tolerance"
    )


class UnknownCategory(CrossmapError):
    def __init__(self, label: str, side: str):
        super().__init__(f"{label!r} is not a {side} category of this crossmap")
        self.label = label
        self.side = side


# ── transformation ────────────────────────────────────────────────────────


class TaxonomyMismatch(CrossmapError):
    """A source taxonomy other than ``expected``: a series whose taxonomy is
    not its crossmap's source taxonomy, or a chain step whose source taxonomy
    is not the target taxonomy of the step before."""

    def __init__(self, expected: str, got: str):
        super().__init__(f"expected source taxonomy {expected!r}, got {got!r}")
        self.expected = expected
        self.got = got


class MissingSourceMapping(CrossmapError):
    """A data category has no outgoing link; its mass would silently vanish."""

    def __init__(self, label: str, extra: int = 0):
        more = f" (and {extra} more)" if extra else ""
        super().__init__(f"data category {label!r} has no outgoing link{more}")
        self.label = label


class MassUnderflow(CrossmapError):
    """A nonzero value times a split weight falls below the smallest normal
    float, so part or all of the mass sent along the link would be lost."""

    def __init__(self, source: str, target: str):
        super().__init__(
            f"the share of {source!r} sent to {target!r} underflows the smallest normal float; "
            "its mass would be lost"
        )
        self.source = source
        self.target = target


class UncoveredIntermediate(CrossmapError):
    """An intermediate category is not carried forward; mass through it would be lost."""

    def __init__(self, label: str):
        super().__init__(f"intermediate category {label!r} is not a source of the next step")
        self.label = label


class NotBijective(CrossmapError):
    def __init__(self, reason: str, label: str):
        super().__init__(f"crossmap is not invertible: {label!r} is a {reason} node")
        self.reason = reason
        self.label = label


class TargetTaxonomyMismatch(CrossmapError):
    def __init__(self, unit: str, expected: str, got: str):
        super().__init__(
            f"unit {unit!r} maps into taxonomy {got!r}, but the panel target is {expected!r}"
        )
        self.unit = unit
        self.expected = expected
        self.got = got


class DuplicateUnit(CrossmapError):
    def __init__(self, unit: str):
        super().__init__(f"duplicate unit name {unit!r}")
        self.unit = unit


# ── text documents ────────────────────────────────────────────────────────


class DocumentError(CrossmapError):
    """Base class for malformed input documents (CLI exit code 2)."""


class ParseError(DocumentError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"parse error: {reason}")
        self.at_line(line)
        self.reason = reason


class DuplicateKey(DocumentError):
    def __init__(self, label: str):
        super().__init__(f"duplicate key {label!r}")
        self.label = label


class NonFiniteValue(DocumentError):
    """A series or panel value that is not finite; ``index`` as for ``InvalidLabel``."""

    def __init__(self, label: str, value: float, index: int | None = None):
        super().__init__(f"value for {label!r} is not finite: {value!r}")
        self.label = label
        self.value = value
        self.index = index


class MissingColumn(DocumentError):
    def __init__(self, name: str, available: tuple[str, ...]):
        super().__init__(f"column {name!r} not found; columns are {list(available)}")
        self.name = name
        self.available = available


class DuplicateSourceCode(DocumentError):
    def __init__(self, label: str):
        super().__init__(f"source code {label!r} appears more than once in the from-column")
        self.label = label


class EmptyCell(DocumentError):
    def __init__(self, line: int, column: str):
        super().__init__(f"empty cell in column {column!r}")
        self.at_line(line)
        self.column = column


# ── rendering ─────────────────────────────────────────────────────────────


class PlanMismatch(CrossmapError):
    def __init__(self, detail: str):
        super().__init__(f"inconsistent layout plan: {detail}")
        self.detail = detail
