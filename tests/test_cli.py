from __future__ import annotations

import argparse
import gc
import io
import os
import random
import shutil
import stat
import subprocess
import sys

import pytest

from xmap import write_edge_list
from xmap.cli import build_parser, run
from helpers import COUNTRY_EDGE_TEXT, GOLDEN_DOT, GOLDEN_SVG, ISO_TABLE_TEXT, random_crossmap, sha256

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
    assert err == ""


def test_transform_unmatched_key_is_refused_by_default(table2, tmp_path):
    # With --allow-unmatched, the transform-unmatched contract row pins the output.
    data = tmp_path / "data.csv"
    data.write_text("key,value\nBLX,10\nATLANTIS,1\n")
    code, _, err = invoke("transform", "--map", table2, "--data", str(data))
    assert code == 1
    assert "ATLANTIS" in err


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


def test_each_input_label_is_cleaned_once(table2, values, tmp_path, monkeypatch):
    # Readers clean each distinct raw label text once per document, either
    # through the batch cleaner or through clean_label, and outputs built from
    # validated links and series are not re-cleaned. A split source repeats on
    # each of its rows and an aggregate target on each of its rows, and " DEU"
    # and "DEU" are two raw texts of one label, so the count of distinct texts
    # is below the count of label fields. Both cleaners are patched in every
    # module that binds them, and every text either one is given is counted.
    import xmap.core

    calls = []
    original, original_batch = xmap.core.clean_label, xmap.core.clean_labels

    def counted(text):
        calls.append(text)
        return original(text)

    def counted_batch(texts):
        texts = list(texts)
        calls.extend(texts)
        return original_batch(texts)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "xmap" and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
                elif value is original_batch:
                    monkeypatch.setattr(module, attr, counted_batch)
    merge_text = (
        "from,to,weight\n"
        "BEL,BENELUX,1\n"
        "LUX,BENELUX,1\n"
        " DEU,DACH,0.5\n"
        "DEU ,CENTRAL,0.5\n"
        "AUS,DACH,1\n"
    )
    merge = tmp_path / "merge.csv"
    merge.write_text(merge_text)

    def label_texts(text: str) -> tuple[int, int]:
        """(distinct raw label texts, label fields) of an edge list."""
        cells = [cell for line in text.splitlines()[1:] for cell in line.split(",")[:2]]
        return len(set(cells)), len(cells)

    map_labels, map_fields = label_texts(COUNTRY_EDGE_TEXT)
    merge_labels, merge_fields = label_texts(merge_text)
    assert map_labels < map_fields and merge_labels < merge_fields
    series_labels = SERIES_TEXT.count("\n") - 1  # keys never repeat
    for argv, labels in (
        (["transform", "--map", table2, "--data", values], map_labels + series_labels),
        (["compose", table2, str(merge)], map_labels + merge_labels),
        (["validate", table2], map_labels),
    ):
        calls.clear()
        code, _, err = invoke(*argv)
        assert (code, err) == (0, "")
        assert len(calls) == labels, argv


def test_compose_uncovered_intermediate(table2, tmp_path):
    partial = tmp_path / "partial.csv"
    partial.write_text("from,to,weight\nBEL,B,1\nLUX,B,1\nDEU,D,1\n")
    code, _, err = invoke("compose", table2, str(partial))
    assert code == 1
    assert "AUS" in err


def test_compose_of_valid_maps_names_compounded_slack(tmp_path):
    first = tmp_path / "a.csv"
    first.write_text("from,to,weight\ns,m1,0.5000009\ns,m2,0.5\n")
    second = tmp_path / "b.csv"
    second.write_text(
        "from,to,weight\nm1,u1,0.5000009\nm1,u2,0.5\nm2,u1,0.5000009\nm2,u2,0.5\n"
    )
    for path in (first, second):
        assert invoke("validate", str(path))[0] == 0
    assert invoke("compose", str(first), str(second)) == (1, "", (
        "error: composed weights for source 's' sum to 1.0000018, expected 1: both maps are "
        "valid, but the slack of their weight sums compounds beyond the tolerance\n"
    ))


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
    assert err == "error: value for target 't' overflows to inf\n"


def test_transform_underflow_is_exit_1(tmp_path):
    # Half of the smallest subnormal rounds to zero: the mass would vanish.
    edges = tmp_path / "split.csv"
    edges.write_text("from,to,weight\n0,0,0.5\n0,1,0.5\n")
    data = tmp_path / "tiny.csv"
    data.write_text("key,value\n0,5e-324\n")
    code, out, err = invoke("transform", "--map", str(edges), "--data", str(data))
    assert code == 1
    assert out == ""
    assert err == (
        "error: the share of '0' sent to '0' underflows the smallest normal float; "
        "its mass would be lost\n"
    )


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


def test_summarize_keeps_an_empty_name(table2):
    # An empty name is a name, as in build_crossmap; only an absent flag
    # falls back to the file stem.
    _, out, _ = invoke("summarize", table2, "--source-name", "", "--target-name", "v2020")
    assert out.startswith("taxonomies:  -> v2020\n")
    _, out, _ = invoke("summarize", table2, "--target-name", "")
    assert out.startswith("taxonomies: table2 -> \n")


@pytest.mark.parametrize("order", ["splits-first", "target-indegree", "input-order"])
def test_render_builds_no_plan(order, table2, monkeypatch):
    # xmap render writes its layout's columns: the contract rows pin the bytes,
    # and no LayoutPlan, PlacedNode or PlannedEdge may be built on the way.
    import xmap.viz

    def refuse(cls, *columns):
        raise AssertionError(f"xmap render built {cls.__name__} objects")

    monkeypatch.setattr(xmap.viz, "_unchecked", refuse)
    code, out, _ = invoke("render", table2, "--order", order, "--hide-unit-weights")
    assert (code, out[:5]) == (0, "<svg ")


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


class Sha256(str):
    """An expected stdout given by the sha256 digest of its UTF-8 bytes."""


COUNTRY_SVG = {key: Sha256(digest) for key, digest in GOLDEN_SVG["country"].items()}
# Input texts by file name; a contract row writes the ones its argv names.
CONTRACT_INPUTS = {
    "country.csv": COUNTRY_EDGE_TEXT,
    "region.csv": "from,to,weight\nBEL,EU,1\nLUX,EU,1\nDEU,EU,1\nAUS,OC,1\n",
    "unmatched.csv": SERIES_TEXT + "ATLANTIS,1\n",
    "iso.csv": "country,ISONumeric,ISO3\nAfghanistan,004,AFG\nAlbania, 008 ,ALB\nAlgeria,012,DZA\n",
    "clamp-a.csv": "from,to,weight\ns,m1,0.5000009\ns,m2,0.5\n",
    "clamp-b.csv": "from,to,weight\nm1,u,1\nm2,u,1\n",
    "bad-label.csv": 'from,to,weight\nBLX,BEL,1\nE.GER,DE"U,1\n',
    "bad-weight.csv": "from,to,weight\nBLX,BEL,1\nE.GER,DEU,1_0\n",
    "bad-sum.csv": "from,to,weight\nBLX,BEL,0.5\nAUS,AUS,1\nBLX,LUX,0.4\n",
}
# id -> (argv, exit code, stdout, stderr), run in process. CI also runs this
# table against the installed package.
CONTRACT = {
    "render": ("render country.csv", 0, COUNTRY_SVG["splits-first", False], ""),
    "render-hidden": ("render --hide-unit-weights country.csv", 0, COUNTRY_SVG["splits-first", True], ""),
    "render-indegree": (
        "render --order target-indegree country.csv", 0, COUNTRY_SVG["target-indegree", False], ""
    ),
    "render-indegree-hidden": (
        "render --order target-indegree --hide-unit-weights country.csv",
        0, COUNTRY_SVG["target-indegree", True], "",
    ),
    "render-input-order": (
        "render --order input-order country.csv", 0, COUNTRY_SVG["input-order", False], ""
    ),
    "render-input-order-hidden": (
        "render --order input-order --hide-unit-weights country.csv",
        0, COUNTRY_SVG["input-order", True], "",
    ),
    "render-dot": ("render --format dot country.csv", 0, Sha256(GOLDEN_DOT["country"]), ""),
    "compose": (
        "compose country.csv region.csv", 0, "from,to,weight\nAUS,OC,1\nBLX,EU,1\nE.GER,EU,1\nW.GER,EU,1\n", ""
    ),
    "transform-unmatched": (
        "transform --map country.csv --data unmatched.csv --allow-unmatched",
        0, "key,value\nAUS,3\nBEL,5\nDEU,12\nLUX,5\n",
        "warning: excluded 1 unmatched categories (absolute mass 1): ATLANTIS\n",
    ),
    "import-crosswalk": (
        "import-crosswalk iso.csv --from ISONumeric --to ISO3",
        0, "from,to,weight\n004,AFG,1\n008,ALB,1\n012,DZA,1\n", "",
    ),
    "compose-clamp": ("compose clamp-a.csv clamp-b.csv", 0, "from,to,weight\ns,u,1\n", ""),
    "bad-label": (
        "validate bad-label.csv",
        1, "", "error: invalid category label 'DE\"U': contains a double quote character (line 3)\n",
    ),
    "bad-weight": ("validate bad-weight.csv", 2, "", "error: parse error: invalid weight '1_0' (line 3)\n"),
    "bad-sum": (
        "validate bad-sum.csv", 1, "", "error: outgoing weights for source 'BLX' sum to 0.9, expected 1 (line 4)\n"
    ),
}


@pytest.mark.parametrize("argv, code, stdout, stderr", CONTRACT.values(), ids=CONTRACT)
def test_cli_contract(argv, code, stdout, stderr, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = argv.split()
    for name in set(argv) & set(CONTRACT_INPUTS):
        (tmp_path / name).write_text(CONTRACT_INPUTS[name])
    got_code, got_out, got_err = invoke(*argv)
    if isinstance(stdout, Sha256):
        got_out = sha256(got_out)
    assert (got_code, got_out, got_err) == (code, stdout, stderr)


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


# The console script that installing the package puts beside the interpreter.
XMAP_SCRIPT = shutil.which("xmap", path=os.path.dirname(sys.executable))


@pytest.mark.skipif(XMAP_SCRIPT is None, reason="no xmap script beside the interpreter")
def test_installed_script_prints_what_python_m_xmap_prints(table2):
    for command in ("validate", "render"):
        script = subprocess.run([XMAP_SCRIPT, command, table2], capture_output=True)
        module = subprocess.run([sys.executable, "-m", "xmap", command, table2], capture_output=True)
        assert module.returncode == 0, module.stderr
        assert (script.returncode, script.stdout, script.stderr) == (0, module.stdout, module.stderr)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(enabled, table2, tmp_path):
    merge = tmp_path / "merge.csv"
    merge.write_text(MERGE_TEXT)
    was_enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv in (["validate", table2], ["compose", table2, str(merge)], ["nope"]):
            invoke(*argv)
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_main_turns_the_collector_off_and_prints_what_run_prints(table2, tmp_path):
    # main() hands run() the argv with the cyclic collector off and nothing
    # frozen, then freezes the heap and exits with run()'s code...
    probe = (
        "import gc, sys; from xmap import cli; "
        "cli.run = lambda argv: print(gc.isenabled(), gc.get_freeze_count(), argv) or 4; "
        "print(gc.isenabled()); sys.argv = ['xmap', 'validate', 'x.csv']\n"
        "try: cli.main()\n"
        "except SystemExit as stop: print(stop.code, gc.isenabled(), gc.get_freeze_count() > 0)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stdout == "True\nFalse 0 ['validate', 'x.csv']\n4 False True\n"
    # ...and the command's bytes and exit code are those run() gives in process.
    merge = tmp_path / "merge.csv"
    merge.write_text(MERGE_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "xmap", "compose", table2, str(merge)], capture_output=True
    )
    code, out, err = invoke("compose", table2, str(merge))
    assert out == "from,to,weight\nAUS,DACH,1\nBLX,BENELUX,1\nE.GER,DACH,1\nW.GER,DACH,1\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


def test_main_warns_about_unmatched_keys_as_run_does(table2, tmp_path):
    # transform --allow-unmatched is the one command that loads logging: the
    # warning line and the --out bytes match run()'s in process.
    data = tmp_path / "data.csv"
    data.write_text("key,value\nBLX,10\nATLANTIS,-1.5\nAUS,3\n")
    out = tmp_path / "out.csv"
    argv = ["transform", "--allow-unmatched", "--map", table2, "--data", str(data), "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "xmap", *argv], capture_output=True)
    written = out.read_bytes()
    out.unlink()
    code, stdout, stderr = invoke(*argv)
    assert (code, stdout, out.read_bytes()) == (0, "", b"key,value\nAUS,3\nBEL,5\nDEU,0\nLUX,5\n")
    assert stderr == "warning: excluded 1 unmatched categories (absolute mass 1.5): ATLANTIS\n"
    assert (proc.returncode, proc.stdout, proc.stderr, written) == (
        code, b"", stderr.encode(), out.read_bytes()
    )


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
    # The library is stdlib-only: every module its import loads (not those the
    # interpreter's site start-up loaded before it) is stdlib or xmap's own.
    probe = (
        "import sys; before = set(sys.modules); import xmap, xmap.cli, xmap.viz; "
        f"print([m for m in {heavy!r} if m in sys.modules]); "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.partition('.')[0] not in sys.stdlib_module_names | {'xmap'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_cli_loads_logging_json_html_and_tempfile_only_where_used(table2):
    # Compared with the modules the interpreter's start-up loaded before it, as
    # a site hook may preload some of them: importing the CLI and running a
    # command that neither warns, writes JSON nor writes --out loads none of
    # the four, while the CLI still imports the drawing module.
    deferred = ["logging", "json", "html", "tempfile"]
    probe = (
        "import io, sys; before = set(sys.modules); import xmap.cli; "
        "new = lambda: sorted({m.partition('.')[0] for m in set(sys.modules) - before} "
        f"& set({deferred!r})); "
        "print(new(), 'xmap.viz' in sys.modules); "
        f"xmap.cli.run(['summarize', {table2!r}], stdout=io.StringIO()); print(new())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines() == ["[] True", "[]"]


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


@pytest.fixture
def random_map(tmp_path):
    # 30x30 draw whose three row orderings give three different SVGs
    path = tmp_path / "random.csv"
    path.write_text(write_edge_list(random_crossmap(random.Random(2024), 30, 30)))
    return str(path)


def optional_flags() -> set[tuple[str, str]]:
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (name, flag)
        for name, parser in commands.choices.items()
        for action in parser._actions
        if not action.required and not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }


def test_every_optional_flag_changes_the_output(table2, values, random_map, tmp_path):
    (tmp_path / "merge.csv").write_text(MERGE_TEXT)
    (tmp_path / "iso.csv").write_text(ISO_TABLE_TEXT)
    (tmp_path / "unmatched.csv").write_text("key,value\nBLX,10\nATLANTIS,1\n")
    merge, iso, unmatched = (str(tmp_path / name) for name in ("merge.csv", "iso.csv", "unmatched.csv"))
    out = str(tmp_path / "out.txt")
    # (command, flag) -> (argv without the flag, the flag with a non-default value)
    table = {
        ("validate", "--out"): (["validate", table2], ["--out", out]),
        ("transform", "--allow-unmatched"): (
            ["transform", "--map", table2, "--data", unmatched], ["--allow-unmatched"]
        ),
        ("transform", "--out"): (["transform", "--map", table2, "--data", values], ["--out", out]),
        ("compose", "--out"): (["compose", table2, merge], ["--out", out]),
        ("render", "--format"): (["render", table2], ["--format", "dot"]),
        ("render", "--order"): (["render", random_map], ["--order", "input-order"]),
        ("render", "--hide-unit-weights"): (["render", table2], ["--hide-unit-weights"]),
        ("render", "--out"): (["render", table2], ["--out", out]),
        ("summarize", "--json"): (["summarize", table2], ["--json"]),
        ("summarize", "--source-name"): (["summarize", table2], ["--source-name", "v1990"]),
        ("summarize", "--target-name"): (["summarize", table2], ["--target-name", "v2020"]),
        ("summarize", "--out"): (["summarize", table2], ["--out", out]),
        ("import-crosswalk", "--out"): (
            ["import-crosswalk", iso, "--from", "ISO2", "--to", "ISO3"], ["--out", out]
        ),
    }
    assert optional_flags() == set(table)

    def outcome(argv: list[str]) -> tuple[str, str, int, bytes | None]:
        code, stdout, stderr = invoke(*argv)
        written = None
        if os.path.exists(out):
            with open(out, "rb") as handle:
                written = handle.read()
            os.remove(out)
        return stdout, stderr, code, written

    for (command, flag), (argv, setting) in table.items():
        assert outcome(argv + setting) != outcome(argv), (command, flag)


@pytest.mark.parametrize("command", ["validate", "render", "transform", "compose"])
@pytest.mark.parametrize("flag", ["--source-name", "--target-name"])
def test_name_flags_belong_to_summarize_alone(command, flag, table2, values):
    argv = {
        "validate": ["validate", table2],
        "render": ["render", table2],
        "transform": ["transform", "--map", table2, "--data", values],
        "compose": ["compose", table2, table2],
    }[command]
    code, out, err = invoke(*argv, flag, "x")
    assert code == 3
    assert out == ""
    assert err.splitlines()[0] == f"error: unrecognized arguments: {flag} x"
    assert err.splitlines()[1].startswith("usage: ")


@pytest.mark.parametrize("flag", ["--source-name", "--target-name"])
def test_name_flags_are_usage_errors_with_json(flag, table2):
    code, out, err = invoke("summarize", table2, "--json", flag, "x")
    message, usage = err.split("\n", 1)
    assert (code, out, message) == (3, "", f"error: {flag} applies to text output only")
    assert usage.startswith("usage: xmap summarize ")


@pytest.mark.parametrize(
    "setting",
    [
        ["--order", "splits-first"],
        ["--order", "input-order"],
        ["--order", "target-indegree"],
        ["--hide-unit-weights"],
    ],
    ids=["splits-first", "input-order", "target-indegree", "hide-unit-weights"],
)
def test_svg_only_flags_are_usage_errors_with_dot(setting, table2, tmp_path):
    out = tmp_path / "out.dot"
    code, stdout, err = invoke("render", table2, "--format", "dot", *setting, "--out", str(out))
    assert code == 3
    assert stdout == ""
    message, usage = err.split("\n", 1)
    assert message == f"error: {setting[0]} applies to --format svg only"
    assert usage.startswith("usage: xmap render ")
    assert not out.exists()


def xmap_writing_to(stdout, *argv: str) -> subprocess.CompletedProcess:
    # stdout buffered, as for most users, so a short result fails only at flush
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "xmap", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
    )


def assert_clean_exit_2(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("size", ["small", "large"])
def test_closed_stdout_is_exit_2_without_traceback(size, table2, random_map):
    # one short line, and an SVG larger than the 8 KiB buffer of the stream
    argv = ["validate", table2] if size == "small" else ["render", random_map]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = xmap_writing_to(write_end, *argv)
    finally:
        os.close(write_end)
    assert_clean_exit_2(proc)
    assert "Broken pipe" in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_exit_2_without_traceback(table2):
    with open("/dev/full", "w") as full:
        proc = xmap_writing_to(full, "render", table2)
    assert_clean_exit_2(proc)
    assert "No space left" in proc.stderr


def test_failed_out_write_leaves_the_old_file(random_map, tmp_path):
    resource = pytest.importorskip("resource")
    out = tmp_path / "drawing.svg"
    out.write_bytes(b"<svg/>\n")
    before = sorted(tmp_path.iterdir())

    def small_file_limit() -> None:  # far below the SVG's size; CPython ignores SIGXFSZ
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))

    proc = subprocess.run(
        [sys.executable, "-m", "xmap", "render", random_map, "--out", str(out)],
        capture_output=True, text=True, preexec_fn=small_file_limit,
    )
    assert_clean_exit_2(proc)
    assert out.read_bytes() == b"<svg/>\n"
    assert sorted(tmp_path.iterdir()) == before


def test_out_file_gets_the_mode_a_plain_open_gives(table2, tmp_path):
    fresh = tmp_path / "fresh.txt"
    umask = os.umask(0o027)
    try:
        code, _, _ = invoke("validate", table2, "--out", str(fresh))
    finally:
        os.umask(umask)
    assert code == 0
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o640
    kept = tmp_path / "kept.txt"
    kept.write_text("old\n")
    kept.chmod(0o604)
    code, _, _ = invoke("validate", table2, "--out", str(kept))
    assert code == 0
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604
    assert kept.read_text().startswith("valid: ")


def test_out_through_a_symlink_replaces_its_target(table2, tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    code, _, _ = invoke("validate", table2, "--out", str(link))
    assert code == 0
    assert link.is_symlink()
    assert real.read_text() == "valid: 4 sources, 4 targets, 5 links, 1 splits, 1 aggregates\n"


VALID_LINE = "valid: 4 sources, 4 targets, 5 links, 1 splits, 1 aggregates\n"


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_out_to_dev_null_writes_into_the_device(table2):
    assert invoke("validate", table2, "--out", "/dev/null") == (0, "", "")
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_out_to_a_fifo_reaches_its_reader(table2, tmp_path):
    import threading

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert invoke("validate", table2, "--out", str(fifo)) == (0, "", "")
    reader.join(timeout=10)
    assert received == [VALID_LINE]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_out_to_dev_stdout_on_a_pipe(table2):
    proc = xmap_writing_to(subprocess.PIPE, "validate", table2, "--out", "/dev/stdout")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, VALID_LINE, "")


@pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0, reason="root writes any directory")
def test_out_file_in_a_locked_directory_is_written_in_place(table2, tmp_path):
    locked = tmp_path / "locked"
    locked.mkdir()
    out = locked / "out.txt"
    out.write_text("old\n")
    locked.chmod(0o555)
    try:
        assert invoke("validate", table2, "--out", str(out)) == (0, "", "")
        assert out.read_text() == VALID_LINE
    finally:
        locked.chmod(0o755)


def test_write_error_of_a_caller_stream_is_reported_unchanged(table2):
    class FullStream(io.StringIO):  # no file descriptor behind it
        def write(self, text: str) -> int:
            raise OSError(28, "No space left on device")

    err = io.StringIO()
    assert run(["validate", table2], stdout=FullStream(), stderr=err) == 2
    assert err.getvalue() == "error: [Errno 28] No space left on device\n"
