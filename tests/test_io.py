from __future__ import annotations

import json

import pytest

from xmap import (
    CrossmapError,
    DuplicateKey,
    DuplicateLink,
    DuplicateSourceCode,
    EmptyCell,
    EmptyCrossmap,
    HarmonisedPanel,
    IndexedSeries,
    InvalidLabel,
    Link,
    MissingColumn,
    NonFiniteValue,
    ParseError,
    WeightOutOfRange,
    WeightSumViolation,
    build_crossmap,
    compose,
    harmonise,
    import_crosswalk,
    read_crosswalk_table,
    read_edge_list,
    read_series,
    summarize,
    write_edge_list,
    write_panel,
    write_series,
    write_summary_json,
)
from xmap.io import WideCrosswalkDocument
from xmap.io import format_value, format_weight
from helpers import (
    COUNTRY_EDGE_TEXT,
    ISO_COLUMNS,
    ISO_TABLE_TEXT,
    country_fixture,
    country_series,
    oracle_read_edge_list,
    record_label_scans,
)


def test_format_weight():
    assert format_weight(0.5) == "0.5"
    assert format_weight(1.0) == "1"
    assert format_weight(0.25) == "0.25"
    assert format_weight(1 / 3) == "0.333333333"
    assert format_weight(0.1 + 0.2) == "0.3"


def test_format_value():
    assert format_value(12.0) == "12"
    assert format_value(-3.0) == "-3"
    assert format_value(0.5) == "0.5"
    assert float(format_value(1.1)) == 1.1


def test_read_edge_list_round_trips_fixture():
    crossmap = read_edge_list(COUNTRY_EDGE_TEXT, "old", "new")
    assert crossmap == country_fixture()
    assert write_edge_list(crossmap) == COUNTRY_EDGE_TEXT


def test_read_edge_list_accepts_crlf_and_missing_final_newline():
    assert read_edge_list(COUNTRY_EDGE_TEXT.replace("\n", "\r\n"), "old", "new") == country_fixture()
    assert read_edge_list(COUNTRY_EDGE_TEXT.rstrip("\n"), "old", "new") == country_fixture()


@pytest.mark.parametrize("weight", ["abc", "", "inf", "nan"])
def test_read_edge_list_bad_weight_text(weight):
    with pytest.raises(ParseError) as caught:
        read_edge_list(f"from,to,weight\nBLX,BEL,{weight}\n", "x", "y")
    assert caught.value.line == 2


@pytest.mark.parametrize(
    "text",
    ["0_5", "１", "1_000", "７", "١٢"],
    ids=["underscore", "fullwidth-1", "digit-groups", "fullwidth-7", "arabic-indic-12"],
)
def test_readers_take_only_ascii_number_text(text):
    # float() also takes digit-group underscores and non-ASCII digits
    with pytest.raises(ParseError) as caught:
        read_edge_list(f"from,to,weight\na,b,1\nc,d,{text}\n", "x", "y")
    assert caught.value.line == 3
    assert f"invalid weight {text!r}" in str(caught.value)
    with pytest.raises(ParseError) as caught:
        read_series(f"key,value\na,1\nb,{text}\n", "x")
    assert caught.value.line == 3
    assert f"invalid value {text!r}" in str(caught.value)


def test_read_edge_list_weight_range_with_line():
    with pytest.raises(WeightOutOfRange) as caught:
        read_edge_list("from,to,weight\nBLX,BEL,0\n", "x", "y")
    assert "(line 2)" in str(caught.value)


@pytest.mark.parametrize(
    "rows, line",
    [
        ("s,t,0.99999895\n", 2),  # 1.05e-6 off
        ("s,t,0.99999899999995\n", 2),  # 1.00000005e-6 off: a tolerance 1e-7 wider takes it
        ("s,t,0.99999905\n", None),  # 0.95e-6 off
        ("s,a,0.5\ns,b,0.50000105\n", 3),
        ("s,a,0.5\ns,b,0.50000095\n", None),
    ],
    ids=["lone-1.05e-6-off", "lone-1.00000005e-6-off", "lone-0.95e-6-off",
         "split-1.05e-6-off", "split-0.95e-6-off"],
)
def test_read_edge_list_weight_sum_tolerance_is_1e_6(rows, line):
    # Sums just outside and just inside the tolerance, on the lone-link path
    # and the split path: a tolerance widened or narrowed by 10%, or widened
    # by a factor of 1 + 1e-7, reads one of these the other way.
    text = "from,to,weight\n" + rows
    if line is None:
        assert read_edge_list(text, "x", "y").links_from("s")
        return
    with pytest.raises(WeightSumViolation) as caught:
        read_edge_list(text, "x", "y")
    assert (caught.value.source, caught.value.line) == ("s", line)


_H = "from,to,weight"


@pytest.mark.parametrize(
    "text, error, message, line",
    [
        # one defect: the header, a row's field count or weight text, a
        # duplicate at its second row, a sum at its source's last row
        ("from,to\nBLX,BEL\n", ParseError,
         "parse error: expected header 'from,to,weight', found 'from,to'", 1),
        (f"{_H}\nBLX,BEL\n", ParseError, "parse error: expected 3 fields (from,to,weight), found 2", 2),
        (f"{_H}\nBLX,BEL,abc\n", ParseError, "parse error: invalid weight 'abc'", 2),
        (f"{_H}\nBLX,BEL,\n", ParseError, "parse error: invalid weight ''", 2),
        (f"{_H}\nBLX,BEL,inf\n", ParseError, "parse error: invalid weight 'inf'", 2),
        (f"{_H}\nBLX,BEL,0.5\nBLX,BEL,0.5\n", DuplicateLink, "duplicate link 'BLX' -> 'BEL'", 3),
        (f"{_H}\nBLX,BEL,0.6\nAUS,AUS,1\nBLX,LUX,0.5\n", WeightSumViolation,
         "outgoing weights for source 'BLX' sum to 1.1, expected 1", 4),
        # a row-local defect anywhere beats a duplicate seen earlier
        (f"{_H}\na,b,0.5\na,b,0.5\nc,d,abc\n", ParseError, "parse error: invalid weight 'abc'", 4),
        (f"{_H}\na,b,0.5\na,b,0.5\nc,d,2\n", WeightOutOfRange,
         "link 'c' -> 'd' has weight 2.0; weights must satisfy 0 < weight <= 1 (omit the link for zero)", 4),
        # among map-level defects the smallest duplicated pair is named first,
        # at its second occurrence, though ("z", "y") repeats on an earlier line
        (f"{_H}\nz,y,0.5\nz,y,0.5\nb,c,0.3\nb,c,0.3\nb,d,0.5\n", DuplicateLink,
         "duplicate link 'b' -> 'c'", 5),
        # duplicates come before weight sums, whichever line breaks first
        (f"{_H}\nb,c,0.5\nz,y,0.5\nz,y,0.5\n", DuplicateLink, "duplicate link 'z' -> 'y'", 4),
        # then the smallest violating source, at its last row
        (f"{_H}\nq,r,0.5\nm,n,0.5\nq,s,0.4\nm,o,0.4\n", WeightSumViolation,
         "outgoing weights for source 'm' sum to 0.9, expected 1", 5),
    ],
    ids=["header", "field-count", "weight-abc", "weight-empty", "weight-inf", "duplicate",
         "sum-at-last-row", "parse-over-duplicate", "range-over-duplicate", "smallest-duplicate",
         "duplicate-over-sum", "smallest-sum-source"],
)
def test_read_edge_list_multi_defect_policy(text, error, message, line):
    with pytest.raises(CrossmapError) as caught:
        read_edge_list(text, "x", "y")
    assert type(caught.value) is error
    assert (str(caught.value), caught.value.line) == (f"{message} (line {line})", line)


@pytest.mark.parametrize(
    "text, expected",
    [
        (f"{_H}\r\na,b,0.5\r\na,c,0.5\r\n", None),
        (f"{_H}\r\r\na,b,0.5\r\r\na,c,0.5\r\r\n", None),
        (f"{_H}\na\tb,c,1\n", None),
        (f"{_H}\n DEU ,DE,1\n", None),
        (f"{_H}\na,b,1\nc,d\ufffe,1\n",
         (InvalidLabel, "invalid category label 'd\\ufffe': contains non-XML character '\\ufffe'", 3)),
        (f"{_H}\na,b,1\nc, \t ,1\n",
         (InvalidLabel, "invalid category label '': empty after trimming whitespace", 3)),
        (f"{_H}\na,b,1_0\n", (ParseError, "parse error: invalid weight '1_0'", 2)),
        (f"{_H}\na,b,\uff11\n", (ParseError, "parse error: invalid weight '\uff11'", 2)),
        (f"{_H}\na,b,1\nc,d, nan \n", (ParseError, "parse error: invalid weight 'nan'", 3)),
        (f"{_H}\na,b,0\n", (WeightOutOfRange, (
            "link 'a' -> 'b' has weight 0.0; "
            "weights must satisfy 0 < weight <= 1 (omit the link for zero)"
        ), 2)),
        (f"{_H}\na,b,1.5\n", (WeightOutOfRange, (
            "link 'a' -> 'b' has weight 1.5; "
            "weights must satisfy 0 < weight <= 1 (omit the link for zero)"
        ), 2)),
        (f"{_H}\na,b,1\n,c,1\nd,e,1,1\n",
         (InvalidLabel, "invalid category label '': empty after trimming whitespace", 3)),
        (f"{_H}\n", (EmptyCrossmap, (
            "crossmap has no links; a mapping with no links transforms nothing"
        ), None)),
    ],
    ids=["crlf", "cr-cr-lf", "inner-tab", "padded-label", "non-character", "whitespace-cell", "underscore",
         "fullwidth-1", "nan", "zero", "above-one", "four-fields-after-bad-label", "header-only"],
)
def test_read_edge_list_column_checks_fall_back_to_the_row_loop(text, expected, monkeypatch):
    # Every way the column checks can refuse a document sends it to the row
    # loop, which names the first defect as the oracle does; a document the
    # checks accept never reaches it.
    import xmap.io

    fallbacks = []
    row_loop = xmap.io._raise_first_row_defect

    def counted(rows):
        fallbacks.append(rows)
        row_loop(rows)

    monkeypatch.setattr(xmap.io, "_raise_first_row_defect", counted)
    oracle = oracle_read_edge_list(text)
    if expected is None:
        assert read_edge_list(text, "x", "y").links == tuple(Link(*row) for row in oracle)
        assert not fallbacks
        return
    assert oracle == expected
    error, message, line = expected
    with pytest.raises(error) as caught:
        read_edge_list(text, "x", "y")
    assert caught.value.line == line
    assert str(caught.value) == (message if line is None else f"{message} (line {line})")
    assert len(fallbacks) == (line is not None)


def test_write_edge_list_weight_formatting():
    text = write_edge_list(country_fixture())
    assert "E.GER,DEU,1\n" in text
    assert "BLX,BEL,0.5\n" in text


def test_tiny_composed_weight_round_trips():
    # 1e-10 is below the 9-digit format's resolution; it must not print as 0
    first = read_edge_list("from,to,weight\na,b,1\n", "x", "m")
    second = read_edge_list("from,to,weight\nb,x,0.0000000001\nb,y,0.9999999999\n", "m", "y")
    fused = compose(first, second)
    text = write_edge_list(fused)
    assert "a,x,1e-10\n" in text
    again = read_edge_list(text, "x", "y")
    assert [link.pair for link in again.links] == [link.pair for link in fused.links]
    for mine, theirs in zip(again.links, fused.links):
        assert abs(mine.weight - theirs.weight) <= 1e-9


def _ten_way_split(weight: float):
    return build_crossmap("x", "y", [("s", f"t{n}", weight) for n in range(10)])


# Maps valid in memory whose weights, each written to 9 digits, sum outside the
# tolerance, so that the reader refuses the writer's text.
UNREADABLE_WRITES = {
    "ten-links": lambda: _ten_way_split(0.1000001 - 4e-11),
    "lone-link": lambda: build_crossmap("x", "y", [("s", "t", 0.9999990000001)]),
    "composed": lambda: compose(
        _ten_way_split(0.10000009996),
        build_crossmap("y", "z", [(f"t{n}", f"t{n}", 1) for n in range(10)]),
    ),
}


@pytest.mark.xfail(
    strict=True,
    raises=WeightSumViolation,
    reason="ROADMAP item 1: a written map does not always re-read",
)
@pytest.mark.parametrize("name", UNREADABLE_WRITES)
def test_a_written_map_re_reads(name):
    crossmap = UNREADABLE_WRITES[name]()
    text = write_edge_list(crossmap)
    again = read_edge_list(text, crossmap.source_taxonomy, crossmap.target_taxonomy)
    assert [link.pair for link in again.links] == [link.pair for link in crossmap.links]
    for mine, theirs in zip(again.links, crossmap.links):
        assert abs(mine.weight - theirs.weight) <= 1e-9


def test_labels_are_never_numeric():
    crossmap = read_edge_list("from,to,weight\n004,4,1\n", "x", "y")
    assert crossmap.links[0].pair == ("004", "4")
    assert write_edge_list(crossmap) == "from,to,weight\n004,4,1\n"


def test_read_crosswalk_table_shape_errors():
    with pytest.raises(ParseError):
        read_crosswalk_table("")
    with pytest.raises(ParseError):
        read_crosswalk_table("a,b,a\nx,y,z\n")  # duplicate column name
    with pytest.raises(ParseError) as caught:
        read_crosswalk_table("a,,b\n1,2,3\n")
    assert str(caught.value) == "parse error: empty column name in header (line 1)"
    with pytest.raises(ParseError) as caught:
        read_crosswalk_table("a,b\nonly-one\n")
    assert caught.value.line == 2


def test_import_crosswalk_iso_pair():
    doc = read_crosswalk_table(ISO_TABLE_TEXT)
    assert doc.columns == ISO_COLUMNS
    walk = import_crosswalk(doc, "ISO2", "ISO3")
    assert walk.source_taxonomy == "ISO2"
    assert walk.target_taxonomy == "ISO3"
    assert walk.is_crosswalk
    assert [l.pair for l in walk.links] == [
        ("AF", "AFG"), ("AL", "ALB"), ("DZ", "DZA"), ("AS", "ASM"), ("AD", "AND"),
    ]


def test_import_crosswalk_preserves_leading_zeros():
    walk = import_crosswalk(read_crosswalk_table(ISO_TABLE_TEXT), "ISONumeric", "ISO2")
    assert walk.source_categories[0] == "004"


def test_import_crosswalk_missing_column_lists_available():
    with pytest.raises(MissingColumn) as caught:
        import_crosswalk(read_crosswalk_table(ISO_TABLE_TEXT), "ISO2", "FIPS")
    message = str(caught.value)
    assert "'FIPS'" in message and "ISONumeric" in message


def test_import_crosswalk_duplicate_source_code():
    text = "a,b\nx,1\nx,2\n"
    with pytest.raises(DuplicateSourceCode) as caught:
        import_crosswalk(read_crosswalk_table(text), "a", "b")
    assert "(line 3)" in str(caught.value)


def test_import_crosswalk_empty_cell():
    text = "a,b,c\nx,,1\n"
    doc = read_crosswalk_table(text)
    with pytest.raises(EmptyCell) as caught:
        import_crosswalk(doc, "a", "b")
    assert "(line 2)" in str(caught.value)
    # empty cells outside the selected pair are ignored
    walk = import_crosswalk(doc, "a", "c")
    assert walk.links[0].pair == ("x", "1")


def test_import_crosswalk_cleans_each_code_text_once(monkeypatch):
    # Every label that a check scans for banned characters is counted.
    calls = record_label_scans(monkeypatch)
    # BE repeats in the to-column and A sits in both; a defect on a repeated
    # code is reported at its first row.
    walk = import_crosswalk(read_crosswalk_table("a,b\nB,BE\nL,BE\nA,A\n"), "a", "b")
    assert [link.pair for link in walk.links] == [("B", "BE"), ("L", "BE"), ("A", "A")]
    assert sorted(calls) == ["A", "B", "BE", "L"]
    with pytest.raises(InvalidLabel) as caught:
        import_crosswalk(read_crosswalk_table('a,b\nB,B"E\nL,B"E\n'), "a", "b")
    assert str(caught.value) == "invalid category label 'B\"E': contains a double quote character (line 2)"
    # A whitespace-only cell of a table built by hand is an empty cell, as the
    # same table read from a file is.
    with pytest.raises(EmptyCell) as by_hand:
        import_crosswalk(WideCrosswalkDocument(("a", "b"), (("x", "  "),)), "a", "b")
    with pytest.raises(EmptyCell) as from_file:
        import_crosswalk(read_crosswalk_table("a,b\nx,  \n"), "a", "b")
    assert str(by_hand.value) == str(from_file.value) == "empty cell in column 'b' (line 2)"


@pytest.mark.parametrize("row", [("x",), ("x", "y", "z")], ids=["short", "long"])
def test_import_crosswalk_refuses_a_hand_built_ragged_row(row):
    # A row of a table built by hand whose cell count is not the header's is
    # the parse error, at the line, that the same table read from a file gives.
    with pytest.raises(ParseError) as by_hand:
        import_crosswalk(WideCrosswalkDocument(("a", "b"), (("w", "v"), row)), "a", "b")
    with pytest.raises(ParseError) as from_file:
        read_crosswalk_table(f"a,b\nw,v\n{','.join(row)}\n")
    message = f"parse error: expected 2 cells, found {len(row)} (line 3)"
    assert str(by_hand.value) == str(from_file.value) == message


@pytest.mark.parametrize(
    ("columns", "message"),
    [
        (("", "b"), "parse error: empty column name in header (line 1)"),
        (("a", "a", "b"), "parse error: duplicate column name in header (line 1)"),
    ],
    ids=["empty", "repeated"],
)
def test_a_hand_built_table_with_a_bad_header_is_refused_as_a_read_one(columns, message):
    # A table built by hand is refused with the parse error, at line 1, that
    # the same table read from a file gives.
    row = ("x", "y", "z")[: len(columns)]
    with pytest.raises(ParseError) as by_hand:
        import_crosswalk(WideCrosswalkDocument(columns, (row,)), "a", "b")
    with pytest.raises(ParseError) as from_file:
        read_crosswalk_table(f"{','.join(columns)}\n{','.join(row)}\n")
    assert str(by_hand.value) == str(from_file.value) == message


_QUOTED_BE = "invalid category label 'B\"E': contains a double quote character"


@pytest.mark.parametrize(
    ("text", "error", "message"),
    [
        # The first defect by line wins, whichever check the batch would fail on.
        ('a,b\nB,B"E\nL,\n', InvalidLabel, f"{_QUOTED_BE} (line 2)"),
        ('a,b\nB,\nL,B"E\n', EmptyCell, "empty cell in column 'b' (line 2)"),
        # Within a row, an empty cell comes before a bad label, and a bad
        # label before a repeated source code.
        ('a,b\nB"E,\n', EmptyCell, "empty cell in column 'b' (line 2)"),
        ('a,b\nB,X\nB,B"E\n', InvalidLabel, f"{_QUOTED_BE} (line 3)"),
        (
            "a,b\nB,X\nB,Y\n",
            DuplicateSourceCode,
            "source code 'B' appears more than once in the from-column (line 3)",
        ),
    ],
)
def test_import_crosswalk_reports_a_refused_tables_first_defect(text, error, message):
    with pytest.raises(CrossmapError) as caught:
        import_crosswalk(read_crosswalk_table(text), "a", "b")
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_import_crosswalk_never_checks_an_unselected_column():
    text = 'a,name,b\nB,"Brunei" Darussalam,BRN\nL,Laos\x01,LAO\n'
    walk = import_crosswalk(read_crosswalk_table(text), "a", "b")
    assert [link.pair for link in walk.links] == [("B", "BRN"), ("L", "LAO")]


def test_read_series():
    series = read_series("key,value\nBLX,10\nAUS,3.5\n", "old")
    assert dict(series.entries) == {"BLX": 10.0, "AUS": 3.5}
    with pytest.raises(ParseError):
        read_series("wrong,header\n", "old")
    with pytest.raises(DuplicateKey) as caught:
        read_series("key,value\na,1\na,2\n", "old")
    assert "(line 3)" in str(caught.value)
    with pytest.raises(NonFiniteValue):
        read_series("key,value\na,inf\n", "old")
    with pytest.raises(ParseError):
        read_series("key,value\na,ten\n", "old")


def test_series_errors_carry_the_index_read_series_reports_as_a_line():
    with pytest.raises(InvalidLabel) as caught:
        IndexedSeries("t", {"a": 1.0, "b": 2.0, 'c"': 3.0})
    assert (caught.value.index, caught.value.line) == (2, None)
    with pytest.raises(NonFiniteValue) as caught:
        IndexedSeries("t", {"a": 1.0, "b": float("inf")})
    assert (caught.value.index, caught.value.line) == (1, None)
    # A bad key is reported before a bad value on a later row, and each at
    # the line of its entry.
    with pytest.raises(InvalidLabel) as caught:
        read_series('key,value\na,1\n  ,nan\nc"d,2\n', "t")
    assert str(caught.value) == "invalid category label '': empty after trimming whitespace (line 3)"
    with pytest.raises(NonFiniteValue) as caught:
        read_series("key,value\na,1\nb,2\nc,-inf\nd\x01,3\n", "t")
    assert str(caught.value) == "value for 'c' is not finite: -inf (line 4)"
    assert (caught.value.index, caught.value.line) == (2, 4)


def test_write_series_sorted_and_round_trips():
    series = IndexedSeries("t", {"b": 2.0, "a": 1.5})
    text = write_series(series)
    assert text == "key,value\na,1.5\nb,2\n"
    assert read_series(text, "t") == series


def test_write_panel():
    crossmap = country_fixture()
    panel = harmonise([("gdp", crossmap, country_series())])
    text = write_panel(panel)
    assert text.startswith("unit,key,value\ngdp,AUS,3\n")
    assert text.endswith("gdp,LUX,5\n")


def test_write_panel_writes_cleaned_rows():
    panel = HarmonisedPanel("t", [(" u ", " k ", 1.5)])
    assert write_panel(panel) == "unit,key,value\nu,k,1.5\n"


def test_summary_json_exact_shape():
    payload = write_summary_json(summarize(country_fixture()))
    assert payload == (
        '{"n_sources":4,"n_targets":4,"n_links":5,"n_splits":1,"n_aggregates":1,'
        '"max_in_degree":2,"is_crosswalk":false,'
        '"most_synthetic_targets":[["DEU",2],["AUS",1],["BEL",1],["LUX",1]]}'
    )
    parsed = json.loads(payload)
    assert parsed["max_in_degree"] == 2
