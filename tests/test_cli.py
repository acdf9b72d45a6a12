from __future__ import annotations

import io
import os
import subprocess
import sys

import pytest

from xmap.cli import run
from helpers import COUNTRY_EDGE_TEXT, ISO_TABLE_TEXT

SERIES_TEXT = "key,value\nBLX,10\nE.GER,5\nW.GER,7\nAUS,3\n"
MERGE_TEXT = (
    "from,to,weight\n"
    "BEL,BENELUX,1\n"
    "LUX,BENELUX,1\n"
    "DEU,DACH,1\n"
    "AUS,DACH,1\n"
)


def invoke(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def table2(tmp_path):
    path = tmp_path / "table2.csv"
    path.write_text(COUNTRY_EDGE_TEXT)
    return str(path)


@pytest.fixture
def values(tmp_path):
    path = tmp_path / "values.csv"
    path.write_text(SERIES_TEXT)
    return str(path)


def test_validate_ok(table2):
    code, out, err = invoke("validate", table2)
    assert code == 0
    assert out == "valid: 4 sources, 4 targets, 5 links, 1 splits, 1 aggregates\n"
    assert err == ""


def test_validate_weight_sum_names_source(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("from,to,weight\nBLX,BEL,0.6\nBLX,LUX,0.5\nAUS,AUS,1\n")
    code, out, err = invoke("validate", str(path))
    assert code == 1
    assert out == ""
    assert "BLX" in err and "error:" in err


def test_validate_malformed_is_exit_2(tmp_path):
    path = tmp_path / "malformed.csv"
    path.write_text("from,to\nBLX,BEL\n")
    code, _, err = invoke("validate", str(path))
    assert code == 2
    assert "parse error" in err


def test_missing_file_is_exit_2(tmp_path):
    code, _, err = invoke("validate", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "error:" in err


def test_unknown_flag_is_exit_3(table2):
    code, _, err = invoke("validate", table2, "--frobnicate")
    assert code == 3
    assert "usage:" in err


def test_no_command_is_exit_3():
    code, _, err = invoke()
    assert code == 3
    assert "usage:" in err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "command" in capsys.readouterr().out


def test_transform(table2, values):
    code, out, err = invoke("transform", "--map", table2, "--data", values)
    assert code == 0
    assert out == "key,value\nAUS,3\nBEL,5\nDEU,12\nLUX,5\n"
    assert "DEU,12" in out
    assert err == ""


def test_transform_unmatched_key_strict_vs_allowed(table2, tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("key,value\nBLX,10\nATLANTIS,1\n")
    code, _, err = invoke("transform", "--map", table2, "--data", str(data))
    assert code == 1
    assert "ATLANTIS" in err
    code, out, err = invoke("transform", "--map", table2, "--data", str(data), "--allow-unmatched")
    assert code == 0
    assert "BEL,5" in out
    assert "warning:" in err and "ATLANTIS" in err


def test_compose_bridges_taxonomy_names(table2, tmp_path):
    merge = tmp_path / "merge.csv"
    merge.write_text(MERGE_TEXT)
    code, out, err = invoke("compose", table2, str(merge))
    assert code == 0
    assert err == ""
    assert out == (
        "from,to,weight\n"
        "AUS,DACH,1\n"
        "BLX,BENELUX,1\n"
        "E.GER,DACH,1\n"
        "W.GER,DACH,1\n"
    )


def test_compose_uncovered_intermediate(table2, tmp_path):
    partial = tmp_path / "partial.csv"
    partial.write_text("from,to,weight\nBEL,B,1\nLUX,B,1\nDEU,D,1\n")
    code, _, err = invoke("compose", table2, str(partial))
    assert code == 1
    assert "AUS" in err


def test_compose_with_tiny_weight_validates(tmp_path):
    first = tmp_path / "first.csv"
    first.write_text("from,to,weight\na,b,1\n")
    second = tmp_path / "second.csv"
    second.write_text("from,to,weight\nb,x,0.0000000001\nb,y,0.9999999999\n")
    composed = tmp_path / "composed.csv"
    code, _, err = invoke("compose", str(first), str(second), "--out", str(composed))
    assert code == 0, err
    code, out, err = invoke("validate", str(composed))
    assert code == 0, err
    assert out == "valid: 1 sources, 2 targets, 2 links, 1 splits, 0 aggregates\n"


def test_compose_with_underflowing_share_validates(tmp_path):
    first = tmp_path / "first.csv"
    first.write_text("from,to,weight\nA,P,1\nB,P,1e-200\nB,Q,1\n")
    second = tmp_path / "second.csv"
    second.write_text("from,to,weight\nP,U,1e-200\nP,V,1\nQ,V,1\n")
    composed = tmp_path / "composed.csv"
    code, _, err = invoke("compose", str(first), str(second), "--out", str(composed))
    assert code == 0, err
    assert composed.read_text() == "from,to,weight\nA,U,1e-200\nA,V,1\nB,V,1\n"
    code, out, err = invoke("validate", str(composed))
    assert code == 0, err
    assert out == "valid: 2 sources, 2 targets, 3 links, 1 splits, 1 aggregates\n"


def test_transform_overflow_is_exit_1(tmp_path):
    edges = tmp_path / "merge.csv"
    edges.write_text("from,to,weight\na,t,1\nb,t,1\n")
    data = tmp_path / "huge.csv"
    data.write_text("key,value\na,1e308\nb,1e308\n")
    code, out, err = invoke("transform", "--map", str(edges), "--data", str(data))
    assert code == 1
    assert out == ""
    assert "'t'" in err


def test_summarize_text_and_json(table2):
    code, out, _ = invoke("summarize", table2)
    assert code == 0
    assert "links: 5\n" in out
    assert "crosswalk: no\n" in out
    assert "DEU (2)" in out
    code, json_out, _ = invoke("summarize", table2, "--json")
    assert code == 0
    assert json_out.startswith('{"n_sources":4,')
    assert json_out.endswith("}\n")


def test_summarize_respects_name_flags(table2):
    _, out, _ = invoke("summarize", table2, "--source-name", "v1990", "--target-name", "v2020")
    assert out.startswith("taxonomies: v1990 -> v2020\n")


def test_render_svg_and_dot(table2):
    code, svg, _ = invoke("render", table2)
    assert code == 0
    assert svg.startswith("<svg ")
    assert svg.count("stroke-dasharray") == 2
    code, hidden, _ = invoke("render", table2, "--hide-unit-weights")
    assert code == 0
    assert hidden.count(">1</text>") == 0
    code, dot, _ = invoke("render", table2, "--format", "dot")
    assert code == 0
    assert dot.startswith("digraph crossmap {")
    code, by_degree, _ = invoke("render", table2, "--order", "target-indegree")
    assert code == 0
    assert by_degree != svg


def test_render_rejects_unknown_order(table2):
    code, _, err = invoke("render", table2, "--order", "bogus")
    assert code == 3
    assert "usage:" in err


def test_render_rejects_labels_xml_cannot_carry(tmp_path):
    path = tmp_path / "noncharacter.csv"
    path.write_text("from,to,weight\na\uffff,b,1\n", encoding="utf-8")
    code, out, err = invoke("render", str(path))
    assert code == 1
    assert out == ""
    assert "non-XML character '\\uffff' (line 2)" in err


def test_import_crosswalk(tmp_path):
    table = tmp_path / "iso.csv"
    table.write_text(ISO_TABLE_TEXT)
    code, out, _ = invoke("import-crosswalk", str(table), "--from", "ISO2", "--to", "ISO3")
    assert code == 0
    assert out.startswith("from,to,weight\nAF,AFG,1\n")
    code, _, err = invoke("import-crosswalk", str(table), "--from", "ISO2", "--to", "FIPS")
    assert code == 2
    assert "FIPS" in err


def test_out_file_matches_stdout(table2, values, tmp_path):
    for argv in (
        ["transform", "--map", table2, "--data", values],
        ["render", table2],
        ["summarize", table2, "--json"],
    ):
        _, stdout_text, _ = invoke(*argv)
        out_path = tmp_path / "result.txt"
        code, piped, _ = invoke(*argv, "--out", str(out_path))
        assert code == 0
        assert piped == ""
        assert out_path.read_text() == stdout_text


def test_byte_identical_across_hash_seeds(table2, values):
    # PYTHONHASHSEED changes set/dict hashing between processes; output must not
    def capture(seed: str, argv: list[str]) -> bytes:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "xmap", *argv],
            capture_output=True, env=env, check=True,
        )
        return proc.stdout

    for argv in (
        ["render", table2],
        ["summarize", table2, "--json"],
        ["transform", "--map", table2, "--data", values],
    ):
        assert capture("0", argv) == capture("1", argv) == capture("42", argv)


def test_validate_accepts_utf8_bom(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbf" + COUNTRY_EDGE_TEXT.encode("utf-8"))
    code, out, err = invoke("validate", str(path))
    assert code == 0, err
    assert out == "valid: 4 sources, 4 targets, 5 links, 1 splits, 1 aggregates\n"


def test_cli_import_loads_no_network_or_sax_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client, email and ssl,
    # which cost every command tens of milliseconds of start-up
    heavy = ["urllib.request", "http.client", "email", "ssl", "xml.sax"]
    probe = f"import sys, xmap.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["validate", "transform", "import-crosswalk"])
def test_non_utf8_file_is_exit_2_naming_its_line(command, table2, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\xef\xbb\xbf" + b"from,to,weight\r\na,b,1\r\n\xff\xfe,c,1\r\n")
    argv = {
        "validate": ["validate", str(path)],
        "transform": ["transform", "--map", table2, "--data", str(path)],
        "import-crosswalk": ["import-crosswalk", str(path), "--from", "from", "--to", "to"],
    }[command]
    code, out, err = invoke(*argv)
    assert code == 2
    assert out == ""
    assert err == "error: parse error: not UTF-8 text (line 3)\n"
    assert "Traceback" not in err
