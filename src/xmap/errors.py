"""Exception hierarchy for the crossmap toolkit.

Every failure names the offending category, pair, or line so the user can
repair the edge list. Each class lists its fields in ``_fields``, formats its
message from them with ``_message`` and carries the CLI ``exit_code``: 2 for
``DocumentError`` and its subclasses (text-format problems), 1 for all other
domain/validation failures. The fields are the ``args``, so errors pickle.
"""

from __future__ import annotations


class CrossmapError(Exception):
    """Base class for all crossmap toolkit errors.

    ``line`` (1-based) and ``unit`` are optional context attached by the
    parsing and harmonisation layers respectively; attaching them preserves
    the original exception type. ``index`` is None unless a class says when
    it is set. A field left out of the constructor takes its class default.
    """

    _fields: tuple[str, ...] = ("message",)
    _message = "{message}"
    exit_code = 1
    line: int | None = None
    unit: str | None = None
    index: int | None = None

    def __init__(self, *values: object, **named: object) -> None:
        names, cls = self._fields, type(self)
        given = dict(zip(names, values), **named)
        missing = [name for name in names if name not in given and not hasattr(cls, name)]
        if missing or len(given) < len(values) + len(named) or not given.keys() <= set(names):
            raise TypeError(f"{cls.__name__} takes ({', '.join(names)})")
        # BaseException.__reduce__ rebuilds an error as cls(*args) and then
        # restores __dict__: the fields, the tags and the formatted text.
        super().__init__(*(given.get(name, getattr(cls, name, None)) for name in names))
        self.__dict__.update(zip(names, self.args))
        self._text = self._format()

    def _format(self) -> str:
        return self._message.format_map(self.__dict__)

    def __str__(self) -> str:
        return self._text

    def at_line(self, line: int) -> "CrossmapError":
        """Attach a 1-based line number to this error."""
        if self.line is None:
            self.line = line
            self._text = f"{self._text} (line {line})"
        return self

    def for_unit(self, unit: str) -> "CrossmapError":
        """Tag this error with the observational unit it occurred in."""
        if self.unit is None:
            self.unit = unit
            self._text = f"unit {unit!r}: {self._text}"
        return self


# ── construction / validation ─────────────────────────────────────────────


class InvalidLabel(CrossmapError):
    """Category label is empty or contains a banned character. ``index`` is
    the position of its entry or row where an ``IndexedSeries``, a
    ``HarmonisedPanel`` or, for a unit name, ``harmonise`` raises it, else
    None."""

    _fields = ("text", "reason")
    _message = "invalid category label {text!r}: {reason}"


class EmptyCrossmap(CrossmapError):
    _fields = ()
    _message = "crossmap has no links; a mapping with no links transforms nothing"


class DuplicateLink(CrossmapError):
    """A (source, target) pair given more than once. Where a ``Crossmap``
    raises it, ``index`` is the input position of the pair's second link;
    otherwise it is None."""

    _fields = ("source", "target", "index")
    _message = "duplicate link {source!r} -> {target!r}"


class WeightOutOfRange(CrossmapError):
    _fields = ("source", "target", "weight")
    _message = (
        "link {source!r} -> {target!r} has weight {weight!r}; "
        "weights must satisfy 0 < weight <= 1 (omit the link for zero)"
    )


class WeightSumViolation(CrossmapError):
    """A source whose weights, added left to right in target order, sum to
    ``total``, more than the tolerance away from 1. Where a ``Crossmap``
    raises it, ``index`` is the input position of the source's last link;
    otherwise it is None."""

    _fields = ("source", "total", "index")
    _message = "outgoing weights for source {source!r} sum to {total:.9g}, expected 1"


class CompoundedSlack(WeightSumViolation):
    """Two valid maps whose composition has a source off the weight-sum
    tolerance: each map's sums lie within it, but their slack compounds."""

    _message = (
        "composed weights for source {source!r} sum to {total:.9g}, expected 1: "
        "both maps are valid, but the slack of their weight sums compounds beyond the tolerance"
    )


class UnknownCategory(CrossmapError):
    _fields = ("label", "side")
    _message = "{label!r} is not a {side} category of this crossmap"


# ── transformation ────────────────────────────────────────────────────────


class TaxonomyMismatch(CrossmapError):
    """A source taxonomy other than ``expected``: a series whose taxonomy is
    not its crossmap's source taxonomy, or a chain step whose source taxonomy
    is not the target taxonomy of the step before."""

    _fields = ("expected", "got")
    _message = "expected source taxonomy {expected!r}, got {got!r}"


class MissingSourceMapping(CrossmapError):
    """A data category has no outgoing link; its mass would silently vanish.
    ``extra`` counts the other unmatched categories."""

    _fields = ("label", "extra")
    extra = 0

    def _format(self) -> str:
        more = f" (and {self.extra} more)" if self.extra else ""
        return f"data category {self.label!r} has no outgoing link{more}"


class MassUnderflow(CrossmapError):
    """A nonzero value times a split weight falls below the smallest normal
    float, so part or all of the mass sent along the link would be lost."""

    _fields = ("source", "target")
    _message = (
        "the share of {source!r} sent to {target!r} underflows the smallest normal float; "
        "its mass would be lost"
    )


class MassOverflow(CrossmapError):
    """A target whose weighted sum of finite values overflows to ``total``."""

    _fields = ("target", "total")
    _message = "value for target {target!r} overflows to {total!r}"


class UncoveredIntermediate(CrossmapError):
    """An intermediate category is not carried forward; mass through it would be lost."""

    _fields = ("label",)
    _message = "intermediate category {label!r} is not a source of the next step"


class NotBijective(CrossmapError):
    _fields = ("reason", "label")
    _message = "crossmap is not invertible: {label!r} is a {reason} node"


class TargetTaxonomyMismatch(CrossmapError):
    """Its ``unit`` field is the unit tag, so ``for_unit`` leaves it unchanged."""

    _fields = ("unit", "expected", "got")
    _message = "unit {unit!r} maps into taxonomy {got!r}, but the panel target is {expected!r}"


class DuplicateUnit(CrossmapError):
    """Its ``unit`` field is the unit tag, so ``for_unit`` leaves it unchanged."""

    _fields = ("unit",)
    _message = "duplicate unit name {unit!r}"


class DuplicatePanelRow(CrossmapError):
    """A (unit, key) pair that repeats in a ``HarmonisedPanel``, once cleaned;
    ``index`` is the position of the second row. Its ``unit`` field is the
    unit tag, so ``for_unit`` leaves it unchanged."""

    _fields = ("unit", "key", "index")
    _message = "duplicate panel row for ({unit!r}, {key!r})"


# ── text documents ────────────────────────────────────────────────────────


class DocumentError(CrossmapError):
    """Base class for malformed input documents (CLI exit code 2)."""

    exit_code = 2


class ParseError(DocumentError):
    """Its ``line`` field is the line tag, so ``at_line`` leaves it unchanged."""

    _fields = ("line", "reason")
    _message = "parse error: {reason} (line {line})"


class DuplicateKey(DocumentError):
    _fields = ("label",)
    _message = "duplicate key {label!r}"


class NonFiniteValue(DocumentError):
    """A series or panel value that is not finite; ``index`` as for ``InvalidLabel``."""

    _fields = ("label", "value", "index")
    _message = "value for {label!r} is not finite: {value!r}"


class MissingColumn(DocumentError):
    _fields = ("name", "available")

    def _format(self) -> str:
        return f"column {self.name!r} not found; columns are {list(self.available)}"


class DuplicateSourceCode(DocumentError):
    _fields = ("label",)
    _message = "source code {label!r} appears more than once in the from-column"


class EmptyCell(DocumentError):
    """Its ``line`` field is the line tag, so ``at_line`` leaves it unchanged."""

    _fields = ("line", "column")
    _message = "empty cell in column {column!r} (line {line})"


# ── rendering ─────────────────────────────────────────────────────────────


class PlanMismatch(CrossmapError):
    _fields = ("detail",)
    _message = "inconsistent layout plan: {detail}"
