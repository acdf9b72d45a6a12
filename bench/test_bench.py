"""Tests of the benchmark itself, at a tiny size.

The oracles must agree with xmap where xmap is known to be right (the country
fixture), must catch a corrupted output, and the generator must be
byte-stable for a seed. Run with ``PYTHONPATH=src python -m pytest bench``.
"""

from __future__ import annotations

import io
import random
from pathlib import Path

import pytest

import inputs
import oracles
import run
import tracing
from xmap import MultiStepChain, build_crossmap, layout_chain
from xmap.cli import run as xmap_run

COUNTRY = inputs.map_of([
    ("BLX", "BEL", 0.5),
    ("BLX", "LUX", 0.5),
    ("E.GER", "DEU", 1.0),
    ("W.GER", "DEU", 1.0),
    ("AUS", "AUS", 1.0),
])
MERGE = inputs.map_of([
    ("BEL", "BENELUX", 1.0),
    ("LUX", "BENELUX", 1.0),
    ("DEU", "DACH", 1.0),
    ("AUS", "DACH", 1.0),
])
COUNTRY_VALUES = {"BLX": 10.0, "E.GER": 5.0, "W.GER": 7.0, "AUS": 3.0}
ISO_TABLE = (
    "country,ISO2,ISO3,ISONumeric\n"
    "Afghanistan,AF,AFG,004\n"
    "Albania,AL,ALB,008\n"
    "Algeria,DZ,DZA,012\n"
)


def xmap_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = xmap_run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def country_files(tmp_path: Path) -> Path:
    (tmp_path / "old.csv").write_text(COUNTRY.text())
    (tmp_path / "merge.csv").write_text(MERGE.text())
    (tmp_path / "values.csv").write_text(
        "key,value\n" + "".join(f"{k},{v!r}\n" for k, v in COUNTRY_VALUES.items())
    )
    (tmp_path / "iso.csv").write_text(ISO_TABLE)
    return tmp_path


def test_oracles_agree_with_xmap_on_country_fixture(country_files: Path):
    path = lambda name: str(country_files / name)  # noqa: E731
    code, out, _ = xmap_cli("validate", path("old.csv"))
    assert code == 0 and oracles.check_validate(COUNTRY, out) is None
    code, out, _ = xmap_cli("summarize", "--json", path("old.csv"))
    assert code == 0 and oracles.check_summary_json(COUNTRY, out) is None
    code, out, _ = xmap_cli("transform", "--map", path("old.csv"), "--data", path("values.csv"))
    assert out == "key,value\nAUS,3\nBEL,5\nDEU,12\nLUX,5\n"
    assert oracles.check_transform(COUNTRY, COUNTRY_VALUES, out) is None
    code, out, _ = xmap_cli("compose", path("old.csv"), path("merge.csv"))
    assert code == 0 and oracles.check_compose(COUNTRY, MERGE, out) is None
    code, out, _ = xmap_cli("render", path("old.csv"))
    assert code == 0 and oracles.check_svg(COUNTRY, out) is None
    code, out, _ = xmap_cli("render", "--format", "dot", path("old.csv"))
    assert code == 0 and oracles.check_dot(COUNTRY, out) is None
    code, out, _ = xmap_cli("import-crosswalk", path("iso.csv"), "--from", "ISONumeric", "--to", "ISO3")
    pairs = [("004", "AFG"), ("008", "ALB"), ("012", "DZA")]
    assert code == 0 and oracles.check_import(pairs, out) is None


def test_oracles_reject_wrong_outputs():
    assert oracles.check_validate(COUNTRY, "valid: 4 sources, 4 targets, 5 links, 1 splits, 2 aggregates\n")
    assert oracles.check_transform(COUNTRY, COUNTRY_VALUES, "key,value\nAUS,3\nBEL,5\nDEU,12\nLUX,5.001\n")
    assert oracles.check_transform(COUNTRY, COUNTRY_VALUES, "key,value\nAUS,3\nBEL,5\nDEU,12\n")
    assert oracles.check_compose(COUNTRY, MERGE, "from,to,weight\nAUS,DACH,1\nBLX,BENELUX,1\n")
    assert oracles.check_svg(COUNTRY, "<svg><circle/>")
    assert oracles.check_reject(2, "error: parse error (line 6)", 6, "AUS")
    assert oracles.check_reject(1, "error: ... 'AUS' ... (line 5)", 6, "AUS")


def test_generator_is_byte_stable_for_a_seed():
    first = inputs.generate(7, 40, 20, 10)
    again = inputs.generate(7, 40, 20, 10)
    other = inputs.generate(8, 40, 20, 10)
    assert first.main.text() == again.main.text()
    assert (first.series, first.defect, first.table) == (again.series, again.defect, again.table)
    assert first.chain[1].text() == again.chain[1].text()
    assert first.main.text() != other.main.text()


def test_generated_maps_are_valid_and_composable():
    data = inputs.generate(3, 200, 30, 20)
    for gm in (data.main, data.second, *data.chain):
        sums: dict[str, float] = {}
        for source, _, weight in gm.links:
            assert weight >= 1 / 36
            sums[source] = sums.get(source, 0.0) + weight
        assert all(abs(total - 1.0) <= 1e-12 for total in sums.values())
    assert set(data.main.targets) <= set(data.second.sources)
    assert set(data.chain[0].targets) <= set(data.chain[1].sources)
    assert data.main.n_splits == 60 and len(data.main.links) == 320


@pytest.fixture
def tiny(tmp_path: Path) -> run.InputSet:
    inputs_ = run.InputSet(inputs.generate(5, 30, 12, 8), tmp_path / "main")
    inputs_.write()
    return inputs_


def test_every_operation_passes_its_oracle(tiny: run.InputSet):
    checker = run.Checker()
    for op in run.OPS[:-1]:
        code, out, err = xmap_cli(*tiny.argv(op))
        assert checker.record(op, tiny, code, out.encode(), err.encode()), checker.failures
    chain = run.chain_of(tiny.data)
    ok, found = checker.record_chain(layout_chain(chain), tiny.data)
    assert ok and found >= 0
    assert checker.failed == 0 and checker.attempted == len(run.OPS)


def test_corrupted_output_counts_as_failure(tiny: run.InputSet):
    checker = run.Checker()
    code, out, err = xmap_cli(*tiny.argv("transform"))
    rows = out.split("\n")
    key, value = rows[1].split(",")
    rows[1] = f"{key},{float(value) + 1.0!r}"
    corrupted = "\n".join(rows)
    assert not run.Checker().record("transform", tiny, code, corrupted.encode(), b"")

    # A correct output that differs from its first run also fails.
    assert checker.record("transform", tiny, code, out.encode(), err.encode())
    assert not checker.record("transform", tiny, code, (out + "\n").encode(), err.encode())
    assert checker.failed == 1 and checker.attempted == 2


def test_chain_oracle_accepts_xmap_layout_and_bounds_its_crossings():
    rng = random.Random(2)
    first = inputs.random_map(rng, ["a", "b", "c", "d"], ["m", "n", "o"])
    second = inputs.random_map(rng, ["m", "n", "o"], ["x", "y"])
    chain = MultiStepChain((
        build_crossmap("p", "q", first.links), build_crossmap("q", "r", second.links),
    ))
    reason, found = oracles.check_chain_plan(layout_chain(chain), (first, second))
    assert reason is None
    middle = first.targets + [label for label in second.sources if label not in first.targets]
    assert found <= oracles.chain_crossings([first.sources, middle, second.targets], (first, second))


def test_traced_pass_counts_repeat_and_spans_nest(tiny: run.InputSet):
    workload = run.Workload(30, 12, frozenset(run.OPS), ("cli",))
    sets = {"main": tiny, "small": tiny}
    chain = run.chain_of(tiny.data)
    checker = run.Checker()
    tracer = tracing.Tracer()
    counts = []
    for _ in range(2):
        tracer.run_id += 1
        tracer.counts.clear()
        tracer.install()
        try:
            _, bytes_out = run.run_pass_in_process(workload, sets, chain, checker, tracer)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts, bytes_out=bytes_out))
    assert checker.failed == 0
    assert counts[0] == counts[1]
    assert counts[0]["core.clean_label_calls"] > 0 and counts[0]["io.bytes_in"] > 0
    selfs = tracing.self_times(tracer.spans, tracer.run_id)
    assert all(value >= 0 for value in selfs.values())
    assert {"cli.run", "io.read_edge_list", "core.build_crossmap", "viz.layout_chain"} <= set(selfs)
    # Uninstalling restores the library's own functions.
    from xmap import core, io as xio

    assert xio.build_crossmap is core.build_crossmap
