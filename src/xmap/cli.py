"""Command-line interface.

One command per invocation, no config files, no environment variables: the
argv plus the named input files fully determine the output bytes, which go
to stdout or, byte-identically, to the --out file. Every optional flag can
change those bytes, so --source-name/--target-name belong to summarize's
text output, the one output that prints taxonomy names (elsewhere names are
file stems), and render's --order and --hide-unit-weights are usage errors
with --format dot. Diagnostics go to stderr.

--out naming a regular file is replaced in one rename once fully written,
so a failed write leaves the old file; a device or a FIFO is written in
place. A stdout that cannot be written, closed early or full, is an
error like a failed --out.

Exit codes: 0 success, 3 usage error, 2 a read or a write that fails, and
for a CrossmapError the error class's exit_code. That is 2 for a
DocumentError, text that a reader cannot parse as its format: a bad header,
field count or number text, an empty crosswalk cell, a repeated key or code,
a non-finite value, a missing column, or bytes that are not UTF-8. It is 1
for a domain or validation error, where a crossmap rule refuses what was
read, such as an empty or bad label or a weight out of range, even when the
error names its line.

A process pays only for its command: main() runs it with the cyclic garbage
collector off and freezes every object before exit, so the interpreter's
exit-time collections scan none of them; logging, json and tempfile are
imported only by transform --allow-unmatched, summarize --json and --out;
and compose and render write the columns their kernels compute, with no
Crossmap or LayoutPlan built just to print them.
"""

from __future__ import annotations

import argparse
import codecs
import errno
import gc
import os
import stat
import sys
from pathlib import PurePath
from typing import NoReturn, TextIO

from .core import Crossmap, summarize
from .errors import CrossmapError, ParseError
from .io import (
    _write_edge_columns,
    import_crosswalk,
    read_crosswalk_table,
    read_edge_list,
    read_series,
    write_edge_list,
    write_series,
    write_summary_json,
)
from .transform import _compose_columns, apply
from .viz import NodeOrdering, _orders, _plan_columns, _svg, render_dot

EXIT_OK = 0
EXIT_DOCUMENT = 2
EXIT_USAGE = 3


class UsageError(Exception):
    def __init__(self, message: str, usage: str) -> None:
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    # Raise instead of argparse's print-and-exit so run() owns the exit code.
    def error(self, message: str) -> NoReturn:
        raise UsageError(message, self.format_usage())


def _read_text(path: str) -> str:
    with open(path, "rb") as handle:
        # Drop the byte-order mark that spreadsheet exports prepend.
        data = handle.read().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(data.count(b"\n", 0, err.start) + 1, "not UTF-8 text") from None


def _load_map(
    path: str, source_name: str | None = None, target_name: str | None = None
) -> Crossmap:
    # The file stem names a taxonomy only when no name is given; "" is a name.
    stem = PurePath(path).stem
    return read_edge_list(
        _read_text(path),
        stem if source_name is None else source_name,
        stem if target_name is None else target_name,
    )


def _cmd_validate(args: argparse.Namespace) -> str:
    s = summarize(_load_map(args.edges))
    return (
        f"valid: {s.n_sources} sources, {s.n_targets} targets, {s.n_links} links, "
        f"{s.n_splits} splits, {s.n_aggregates} aggregates\n"
    )


def _cmd_transform(args: argparse.Namespace) -> str:
    crossmap = _load_map(args.map)
    # The data file is read in the map's source taxonomy so stems never clash.
    series = read_series(_read_text(args.data), crossmap.source_taxonomy)
    return write_series(apply(crossmap, series, allow_unmatched=args.allow_unmatched))


def _cmd_compose(args: argparse.Namespace) -> str:
    first = _load_map(args.first)
    # The second map is read into the first's target taxonomy: composition
    # needs matching names, and the file stem is only a provenance default.
    second = _load_map(args.second, first.target_taxonomy)
    return _write_edge_columns(*_compose_columns(first, second))


def _cmd_render(args: argparse.Namespace) -> str:
    if args.format == "dot":
        # DOT draws the map in input order with every weight, so the SVG
        # layout flags would change none of its bytes.
        if args.order is not None:
            args.usage_error("--order applies to --format svg only")
        if args.hide_unit_weights:
            args.usage_error("--hide-unit-weights applies to --format svg only")
        return render_dot(_load_map(args.edges))
    ordering = NodeOrdering(args.order) if args.order else NodeOrdering.SPLITS_FIRST
    crossmap = _load_map(args.edges)
    # render_svg(layout_bipartite(crossmap, ordering)), without building the plan.
    return _svg(*_plan_columns((crossmap,), _orders(crossmap, ordering)), args.hide_unit_weights)


def _cmd_summarize(args: argparse.Namespace) -> str:
    if args.json:  # the JSON summary carries no taxonomy names for a name flag to change
        for flag, name in (("--source-name", args.source_name), ("--target-name", args.target_name)):
            if name is not None:
                args.usage_error(f"{flag} applies to text output only")
        return write_summary_json(summarize(_load_map(args.edges))) + "\n"
    crossmap = _load_map(args.edges, args.source_name, args.target_name)
    s = summarize(crossmap)
    ranked = ", ".join(f"{label} ({degree})" for label, degree in s.most_synthetic_targets)
    return (
        f"taxonomies: {crossmap.source_taxonomy} -> {crossmap.target_taxonomy}\n"
        f"sources: {s.n_sources}\n"
        f"targets: {s.n_targets}\n"
        f"links: {s.n_links}\n"
        f"splits: {s.n_splits}\n"
        f"aggregates: {s.n_aggregates}\n"
        f"max in-degree: {s.max_in_degree}\n"
        f"crosswalk: {'yes' if s.is_crosswalk else 'no'}\n"
        f"most synthetic targets: {ranked}\n"
    )


def _cmd_import(args: argparse.Namespace) -> str:
    doc = read_crosswalk_table(_read_text(args.table))
    return write_edge_list(import_crosswalk(doc, args.from_col, args.to_col))


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write the result to this file instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="xmap", description="Validate, transform, and draw crossmaps.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = commands.add_parser("validate", help="check an edge list and print a one-line summary")
    p.add_argument("edges", help="edge list CSV (from,to,weight)")
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_validate)

    p = commands.add_parser("transform", help="recast a data series through a crossmap")
    p.add_argument("--map", required=True, help="edge list CSV for the crossmap")
    p.add_argument("--data", required=True, help="series CSV (key,value)")
    p.add_argument(
        "--allow-unmatched",
        action="store_true",
        help="warn about and drop series keys with no outgoing links",
    )
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_transform)

    p = commands.add_parser("compose", help="fuse two crossmaps into one edge list")
    p.add_argument("first", help="edge list applied first")
    p.add_argument("second", help="edge list applied second")
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_compose)

    p = commands.add_parser("render", help="draw a crossmap as SVG or DOT")
    p.add_argument("edges", help="edge list CSV")
    p.add_argument("--format", choices=["svg", "dot"], default="svg")
    p.add_argument(
        "--order",
        choices=[ordering.value for ordering in NodeOrdering],
        help="row ordering for the SVG layout",
    )
    p.add_argument("--hide-unit-weights", action="store_true")
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_render, usage_error=p.error)

    p = commands.add_parser("summarize", help="report structural counts")
    p.add_argument("edges", help="edge list CSV")
    p.add_argument("--json", action="store_true", help="emit compact JSON instead of text")
    p.add_argument("--source-name", help="source taxonomy name (default: input file stem)")
    p.add_argument("--target-name", help="target taxonomy name (default: input file stem)")
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_summarize, usage_error=p.error)

    p = commands.add_parser("import-crosswalk", help="turn two columns of a wide table into an edge list")
    p.add_argument("table", help="wide crosswalk CSV with a header of column names")
    p.add_argument("--from", dest="from_col", required=True, metavar="COL", help="source column")
    p.add_argument("--to", dest="to_col", required=True, metavar="COL", help="target column")
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_import)

    return parser


def _replace_file(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path`` (through any symlink)
    and rename it into place, so a failed write leaves the old file untouched
    and never a shorter one that still parses. Mode and permission checks are
    those of a plain ``open(path, "w")``, which is what a device, a FIFO or a
    file in a directory that takes no new entries gets instead."""
    try:
        mode = os.stat(path).st_mode
    except OSError:
        mode = None  # absent, or an error the steps below report
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    if mode is not None and not (stat.S_ISREG(mode) and os.access(directory, os.W_OK | os.X_OK)):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    temp = None
    try:
        if mode is not None:
            if not os.access(target, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            mode = stat.S_IMODE(mode)
        else:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        import tempfile  # loaded only by --out

        fd, temp = tempfile.mkstemp(prefix=f".{name}.", dir=directory)
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.chmod(temp, mode)
        os.replace(temp, target)
    except OSError as err:
        if temp is not None:
            os.unlink(temp)
        # Name the path the user gave, not the temporary file.
        raise OSError(err.errno, err.strerror, path) from None


def _write_stdout(stream: TextIO, text: str) -> None:
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        if stream is sys.stdout:
            # Python's note on SIGPIPE: point the dead descriptor at devnull,
            # so the interpreter's flush at exit of what is still buffered is
            # silent.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
        raise


def _report_usage_error(err: UsageError, stream: TextIO) -> int:
    print(f"error: {err}", file=stream)
    print(err.usage.rstrip("\n"), file=stream)
    return EXIT_USAGE


def run(argv: list[str], *, stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    out_stream = stdout if stdout is not None else sys.stdout
    err_stream = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        return _report_usage_error(err, err_stream)
    except SystemExit as stop:  # argparse exits itself only for --help
        return EXIT_OK if (stop.code or 0) == 0 else EXIT_USAGE

    package_log = None
    if getattr(args, "allow_unmatched", False):  # the one command that can log a warning
        import logging

        log_handler = logging.StreamHandler(err_stream)
        log_handler.setFormatter(logging.Formatter("warning: %(message)s"))
        package_log = logging.getLogger(__package__)
        package_log.addHandler(log_handler)
    try:
        text = args.handler(args)
        if args.out:
            _replace_file(args.out, text)
        else:
            _write_stdout(out_stream, text)
    except UsageError as err:  # a flag that the other flags leave without effect
        return _report_usage_error(err, err_stream)
    except CrossmapError as err:
        print(f"error: {err}", file=err_stream)
        return err.exit_code
    except OSError as err:
        print(f"error: {err}", file=err_stream)
        return EXIT_DOCUMENT
    finally:
        if package_log is not None:
            package_log.removeHandler(log_handler)
    return EXIT_OK


def main() -> None:
    # One command, then exit: the links and maps it builds stay live to the end
    # and hold no cycles, so the cyclic collector's passes would free nothing.
    gc.disable()
    code = run(sys.argv[1:])
    # The interpreter still collects at exit with the collector off; frozen
    # objects, every one left from import and the command, are not scanned.
    gc.freeze()
    sys.exit(code)
