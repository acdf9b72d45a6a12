"""Errors are records: each exported error class keeps its fields, its tags
and its message through pickle and copy, and its constructor checks its
arguments as a plain signature would."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xmap
from xmap import CrossmapError, DuplicateKey, DuplicateLink, MissingSourceMapping, ParseError

ERRORS = [
    cls for cls in map(xmap.__dict__.get, xmap.__all__)
    if isinstance(cls, type) and issubclass(cls, CrossmapError)
]

_TEXT = st.text(max_size=6)
_FLOAT = st.floats(allow_nan=False)
# A value for each constructor field of the exported errors, by field name.
FIELD_VALUES = {
    **dict.fromkeys(
        ("message", "text", "reason", "source", "target", "label", "side", "expected", "got",
         "unit", "key", "name", "column", "detail"),
        _TEXT,
    ),
    **dict.fromkeys(("weight", "total", "value"), _FLOAT),
    "index": st.none() | st.integers(0, 10**6),
    "line": st.integers(1, 10**6),
    "extra": st.integers(0, 100),
    "available": st.lists(_TEXT, max_size=3).map(tuple),
}
TAG_ORDERS = [(), ("line",), ("unit",), ("line", "unit"), ("unit", "line")]
COPIES = {
    "pickle": lambda err: pickle.loads(pickle.dumps(err)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def record(err: CrossmapError) -> tuple:
    # repr, so that a nan field compares equal to itself
    return type(err), str(err), repr(err.args), repr(vars(err)), err.line, err.unit, err.index


@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_survives_pickle_and_copy_with_its_fields_and_tags(cls, data):
    err = cls(*(data.draw(FIELD_VALUES[name], label=name) for name in cls._fields))
    for tag in data.draw(st.sampled_from(TAG_ORDERS), label="tags"):
        if tag == "line":
            err.at_line(data.draw(st.integers(1, 10**6), label="line"))
        else:
            err.for_unit(data.draw(_TEXT, label="unit"))
    if data.draw(st.booleans(), label="set index"):
        err.index = data.draw(st.integers(0, 10**6), label="index")
    for how, duplicate in COPIES.items():
        assert record(duplicate(err)) == record(err), how


def test_a_tagged_error_is_not_wrapped_twice_by_pickle():
    err = DuplicateKey("k").at_line(3)
    for duplicate in COPIES.values():
        back = duplicate(err)
        assert (str(back), back.label, back.line) == ("duplicate key 'k' (line 3)", "k", 3)


def test_missing_source_mapping_keeps_its_extra_count():
    err = MissingSourceMapping("a", extra=2)
    assert str(err) == "data category 'a' has no outgoing link (and 2 more)"
    for duplicate in COPIES.values():
        assert duplicate(err).extra == 2
    assert MissingSourceMapping("a").extra == 0


def test_fields_are_the_args_and_the_message_is_formatted_once():
    err = DuplicateLink("a", "b", index=4)
    assert (err.args, err.source, err.target, err.index) == (("a", "b", 4), "a", "b", 4)
    assert DuplicateLink(target="b", source="a").args == ("a", "b", None)
    assert str(ParseError(2, "x").at_line(9)) == "parse error: x (line 2)"
    assert (str(CrossmapError("text")), CrossmapError("text").message) == ("text", "text")


@pytest.mark.parametrize(
    "args, named",
    [(("a",), {}), (("a", "b", 1, 2), {}), (("a", "b"), {"source": "c"}), (("a", "b"), {"weight": 1})],
    ids=["missing", "too-many", "twice", "unknown"],
)
def test_constructors_refuse_arguments_their_signature_would(args, named):
    with pytest.raises(TypeError):
        DuplicateLink(*args, **named)
