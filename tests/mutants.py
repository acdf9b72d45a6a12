"""A mutation gate over xmap's trust checks: every listed mutant must fail a test.

Each entry names a file under ``src/xmap``, a text that occurs exactly once in
it and the text that replaces it, so that one check is weakened, shifted or
switched off. For each mutant the script copies ``src/`` to a temporary
directory, applies the replacement there, and runs the fast test files
(``tests/test_{core,io,transform,cli,viz,errors}.py``) against the copy,
stopping at the first failure. A mutant that survives them is run against the
full suite. An entry marked equivalent carries the reason no input can tell it
from the original; its text is checked, but it is not run.

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py

It exits 0 when every mutant is killed, and 1 on a survivor not listed as
equivalent, on an entry whose text does not occur exactly once, or when the
unmutated copy fails its tests. pytest does not collect this file, as its
name does not start with ``test_``. It uses only the standard library.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "xmap"
FAST = [f"tests/test_{name}.py" for name in ("core", "io", "transform", "cli", "viz", "errors")]
ALL = ["tests"]  # not bench/: its runs import the checkout's own src/, never the copy


class Mutant(NamedTuple):
    file: str  # under src/xmap
    text: str  # occurs exactly once in the file
    replacement: str
    equivalent: str | None = None  # why no input can tell the mutant apart


MUTANTS = [
    # the weight-sum rule: the tolerance itself and the helper that reads it
    Mutant("core.py", "WEIGHT_SUM_TOLERANCE = 1e-6", "WEIGHT_SUM_TOLERANCE = 1.1e-6"),
    Mutant("core.py", "WEIGHT_SUM_TOLERANCE = 1e-6", "WEIGHT_SUM_TOLERANCE = 1e-6 * (1 + 1e-7)"),
    Mutant("core.py", "WEIGHT_SUM_TOLERANCE = 1e-6", "WEIGHT_SUM_TOLERANCE = 0.9e-6"),
    Mutant(
        "core.py",
        "return abs(total - 1.0) > WEIGHT_SUM_TOLERANCE",
        "return abs(total - 1.0) > WEIGHT_SUM_TOLERANCE * 1.1",
    ),
    Mutant(
        "core.py",
        "return abs(total - 1.0) > WEIGHT_SUM_TOLERANCE",
        "return abs(total - 1.0) >= WEIGHT_SUM_TOLERANCE",
        equivalent=(
            "near 1, total - 1.0 is exact and a multiple of 2**-53, and the float 1e-6 is not "
            "(its significand is odd), so abs(total - 1.0) never equals the tolerance"
        ),
    ),
    # the weight range, and the labels' emptiness, character and type rules
    Mutant("core.py", "return 0.0 < weight <= 1.0", "return 0.0 < weight < 1.0000001"),
    Mutant("core.py", "if not all(labels) or", "if False or"),
    Mutant("core.py", r"\ufffe\uffff]", "]"),
    Mutant("core.py", "'[,\"", "'[\""),
    Mutant("core.py", r"\x00-\x08", r"\x01-\x08"),
    Mutant("core.py", r"\x0a-\x1f", r"\x0b-\x1f"),
    Mutant("core.py", r"\ud800-\udfff", ""),
    Mutant("core.py", "if not isinstance(text, str):", "if False:"),
    # the number-text rule of the constructors: a str read by float(), number
    # text in a buffer read by float(), a value float() refuses let through,
    # a series or panel value read by float()
    Mutant("core.py", "if isinstance(value, str):", "if False:"),
    Mutant(
        "core.py",
        'if not (hasattr(type(value), "__float__") or hasattr(type(value), "__index__")):',
        "if False:",
    ),
    Mutant(
        "core.py",
        "if weight is None or not _in_weight_range(weight):",
        "if not _in_weight_range(weight):",
    ),
    Mutant(
        "transform.py",
        "number = value if value.__class__ is float else _number(value)",
        "number = float(value)",
    ),
    Mutant("transform.py", "number = _number(value)", "number = float(value)"),
    # duplicates: links, series keys (read and built), panel rows, units, source codes
    Mutant("core.py", "if link.target == target:", "if False:"),
    Mutant("io.py", "if key in entries:", "if False:"),
    Mutant("transform.py", "if label in cleaned:", "if False:"),
    Mutant("transform.py", "if (unit, key) in rows:", "if False:"),
    Mutant("transform.py", "if unit in seen_units:", "if False:"),
    Mutant("io.py", "and len(set(codes[0])) == len(rows):", "and True:"),
    # the column step's remap of padded label texts, skipped
    Mutant("core.py", "if changed:", "if False:"),
    # a crosswalk table's shape, read or built by hand: an empty or repeated
    # column name, a row of the wrong cell count
    Mutant("io.py", "if any(not c for c in self.columns):", "if False:"),
    Mutant("io.py", "if len(set(self.columns)) != len(self.columns):", "if False:"),
    Mutant("io.py", "if len(row) != width:", "if False:"),
    # the census that validate prints: splits and aggregates miscounted
    Mutant(
        "core.py",
        "list(map(len, groups.values())).count(1)",
        "list(map(len, groups.values())).count(2)",
    ),
    Mutant("core.py", "list(in_degrees.values()).count(1)", "list(in_degrees.values()).count(2)"),
    # apply's one underflow site: its bound halved and doubled, its weight-1 exemption dropped
    Mutant("transform.py", "-_FLOOR < share < _FLOOR", "-_FLOOR / 2 < share < _FLOOR / 2"),
    Mutant("transform.py", "-_FLOOR < share < _FLOOR", "-_FLOOR * 2 < share < _FLOOR * 2"),
    Mutant("transform.py", "and value and link.weight != 1.0:", "and value:"),
    # compose: the coverage check, the clamp, the compounded-slack check and
    # the dropping of a share that underflows to zero
    Mutant("transform.py", "if uncovered:", "if False:"),
    Mutant("transform.py", "if w > 0.0:", "if True:"),
    Mutant("transform.py", "w = w if w <= 1.0 else 1.0", "w = w"),
    Mutant("transform.py", "if _off_unit_sum(total):", "if False:"),
    # the readers' text checks
    Mutant(
        "io.py",
        "if weight is None or not math.isfinite(weight):",
        "if weight is None:",
    ),
    Mutant(
        "io.py",
        "if weight is None or not _in_weight_range(weight):",
        "if weight is None:",
    ),
    # the layout plan's own checks
    Mutant("viz.py", "if node.x != index:", "if False:"),
    Mutant("viz.py", "if not _is_clean(text):", "if False:"),
    # exit codes: a domain error's and a document error's swapped
    Mutant("errors.py", "exit_code = 2", "exit_code = 1"),
    Mutant("errors.py", "exit_code = 1", "exit_code = 2"),
    # the CLI flags that change the output bytes, each ignored
    Mutant("cli.py", "if args.order is not None:", "if False:"),
    Mutant("cli.py", "if args.hide_unit_weights:", "if False:"),
    Mutant("cli.py", "if name is not None:", "if False:"),
    # the CLI's names and bytes: an empty taxonomy name, the second map of
    # compose read under its own stem, a byte-order mark kept
    Mutant("cli.py", "stem if source_name is None else source_name", "source_name or stem"),
    Mutant(
        "cli.py",
        "second = _load_map(args.second, first.target_taxonomy)",
        "second = _load_map(args.second)",
    ),
    Mutant("cli.py", ".removeprefix(codecs.BOM_UTF8)", ""),
    # a file name's trailing dot taken for a suffix
    Mutant("cli.py", "if 0 < dot < len(name) - 1 else", "if 0 < dot else"),
    # the tags: a second line or unit replaces the first, or a field's own tag
    Mutant("errors.py", "if self.line is None:", "if True:"),
    Mutant("errors.py", "if self.unit is None:", "if True:"),
]


def _passes(src: Path, tests: list[str]) -> bool:
    """Whether ``tests`` pass, stopping at the first failure, with the package
    imported from ``src``."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=_env(src), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0


def _env(src: Path) -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _copy(into: Path, mutant: Mutant | None = None) -> Path:
    """A copy of ``src/`` under ``into``, with ``mutant`` applied; its path."""
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        target = src / "xmap" / mutant.file
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(mutant.text, mutant.replacement), encoding="utf-8")
    return src


def _verdict(mutant: Mutant) -> str:
    """"fast" or "full" for the test run that kills ``mutant``, else "survived"."""
    with tempfile.TemporaryDirectory(prefix="xmap-mutant-") as scratch:
        src = _copy(Path(scratch), mutant)
        if not _passes(src, FAST):
            return "fast"
        if not _passes(src, ALL):
            return "full"
        return "survived"


def _baseline_fault() -> str | None:
    """Why the unmutated copy cannot stand for the mutants, or None."""
    with tempfile.TemporaryDirectory(prefix="xmap-mutant-") as scratch:
        src = _copy(Path(scratch))
        probe = subprocess.run(
            [sys.executable, "-c", "import xmap; print(xmap.__file__)"],
            cwd=ROOT, env=_env(src), capture_output=True, text=True,
        )
        if not probe.stdout.startswith(str(src)):
            return f"xmap imports from {probe.stdout.strip() or probe.stderr.strip()}, not the copy"
        if not _passes(src, FAST):
            return "the unmutated copy of src/ fails the fast tests"
    return None


def _describe(mutant: Mutant) -> str:
    return f"{mutant.file}: {mutant.text!r} -> {mutant.replacement!r}"


def main() -> int:
    misplaced = [
        m for m in MUTANTS if (PACKAGE / m.file).read_text(encoding="utf-8").count(m.text) != 1
    ]
    for mutant in misplaced:
        print(f"text not found exactly once: {_describe(mutant)}")
    if misplaced:
        return 1
    fault = _baseline_fault()
    if fault:
        print(fault)
        return 1

    survivors = 0
    for mutant in MUTANTS:
        if mutant.equivalent:
            print(f"equivalent     {_describe(mutant)}\n               ({mutant.equivalent})")
            continue
        start = time.perf_counter()
        verdict = _verdict(mutant)
        seconds = time.perf_counter() - start
        label = "SURVIVED" if verdict == "survived" else f"killed ({verdict})"
        print(f"{label:<14} {_describe(mutant)}  [{seconds:.1f} s]", flush=True)
        survivors += verdict == "survived"
    run = sum(not m.equivalent for m in MUTANTS)
    print(f"{run - survivors} of {run} mutants killed, {len(MUTANTS) - run} listed as equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
