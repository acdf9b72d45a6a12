"""xmap benchmark: what a user waits for, end to end, and where the time goes.

Run from the repository root:

    python3 bench/run.py --workload recode-large --seed 1 --seconds 45 --trace 0

With ``--trace 0`` every operation is timed as a user meets it: ``xmap
<command>`` started as a child process (interpreter start and imports
included), plus ``layout_chain`` called in process, since the CLI has no
command for it. With ``--trace 1`` the same operations run in process with
spans around xmap's public functions, and the per-layer numbers are reported
instead. End-to-end times are scaled by a reference job timed in the same run
(see ``REFERENCE_JOB``). Every output is checked against the oracles in
``oracles.py``; the
last line of standard output is one JSON object with the result, and a fuller
record (environment, sizes, output hashes, spans) goes to
``.bench_work/results/``.

The loop is closed: one client, one operation at a time, and at most one
child process alive. Inputs come from ``--seed`` alone.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import select
import signal
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

STARTUP_LAUNCHES = 11
SETUP_PER_PASS = 2
IN_PROCESS_REPEAT_S = 0.25
MIN_PASSES = 2  # two hash seeds, and a repeat to compare output bytes against
DEADLINE_S = 150.0  # stop starting passes past this, so a run ends well within 180 s
CHILD_TIMEOUT_S = 120.0
HASH_SEEDS = ("0", "1")
SMALL_SOURCES = 250  # about 400 links: a country- or ISO-sized map
SMALL_CHAIN_SOURCES = 150
TABLE_ROWS = 250
ENTRY = "import sys; from xmap.cli import main; main()"

# The shared machine's speed drifts, and steps by a third between minutes, for
# every process alike. Each pass therefore also times this fixed job, which
# shares no code with xmap, in a fresh interpreter; the end-to-end times are
# scaled by REFERENCE_S / (the job's median in the run), i.e. reported in
# seconds at the speed where the job takes REFERENCE_S. Unscaled medians are
# printed and recorded too.
REFERENCE_JOB = """
import random
rng = random.Random(0)
text = "\\n".join(
    f"S{rng.randrange(10**6):06d},T{rng.randrange(10**5):05d},{rng.random()!r}" for _ in range(10000)
)
links = sorted((s, t, float(w)) for s, t, w in (line.split(",") for line in text.split("\\n")))
totals = {}
for s, t, w in links:
    totals[t] = totals.get(t, 0.0) + w
out = "\\n".join(f"{k},{v!r}" for k, v in sorted(totals.items()))
"""
REFERENCE_S = 0.12
REFERENCE_PER_PASS = 3

OPS = (
    "validate", "summarize", "transform", "compose", "reject",
    "render_svg", "render_dot", "import_crosswalk", "layout_chain",
)


@dataclass(frozen=True)
class Workload:
    """Operations in ``focus`` run on the workload's main inputs; the others run
    on small inputs, so every workload reports every metric while its time
    stays with the layers it was chosen for."""

    n_sources: int
    chain_sources: int
    focus: frozenset[str]
    stresses: tuple[str, ...]  # layers expected to take more time than any other


# Why each workload exists is in BENCHMARK.json; in short: recode-large loads
# io/core/transform, draw-mid loads viz, and in both the small operations are
# start-up bound.
WORKLOADS = {
    "recode-large": Workload(
        18_750, SMALL_CHAIN_SOURCES,
        frozenset({"validate", "summarize", "transform", "compose", "reject"}),
        ("io", "core", "transform"),
    ),
    "draw-mid": Workload(
        12_500, 1_000,
        frozenset({"validate", "render_svg", "render_dot", "layout_chain"}),
        ("viz",),
    ),
}

PER_LAYER_TIMES = (
    "io.read_edge_list", "io.read_series", "io.write_series", "io.write_edge_list",
    "io.read_crosswalk_table", "io.import_crosswalk", "core.build_crossmap", "core.summarize",
    "transform.apply", "transform.compose", "viz.layout_bipartite", "viz.render_svg",
    "viz.render_dot", "viz.layout_chain", "viz.count_crossings",
)
COUNTS = (
    "io.bytes_in", "io.bytes_out", "core.links", "core.sources", "core.targets",
    "core.clean_label_calls", "viz.chain_crossings",
)


# ── inputs ────────────────────────────────────────────────────────────────


@dataclass
class InputSet:
    """One generated input set, written to ``directory``."""

    data: inputs.Inputs
    directory: Path

    def path(self, name: str) -> str:
        return str(self.directory / name)

    def write(self) -> dict[str, dict]:
        self.directory.mkdir(parents=True, exist_ok=True)
        d = self.data
        files = {
            "main.csv": (d.main.text(), d.main),
            "second.csv": (d.second.text(), d.second),
            "series.csv": (d.series, None),
            "defect.csv": (d.defect, None),
            "table.csv": (d.table, None),
        }
        sizes = {}
        for name, (text, gm) in files.items():
            data = text.encode("utf-8")
            (self.directory / name).write_bytes(data)
            sizes[name] = {"bytes": len(data)}
            if gm is not None:
                sizes[name].update(
                    links=len(gm.links), sources=len(gm.sources), targets=len(gm.targets)
                )
        for index, step in enumerate(d.chain):
            sizes[f"chain step {index + 1}"] = {
                "links": len(step.links), "sources": len(step.sources), "targets": len(step.targets)
            }
        return sizes

    def argv(self, op: str) -> list[str]:
        main, second = self.path("main.csv"), self.path("second.csv")
        return {
            "validate": ["validate", main],
            "summarize": ["summarize", "--json", main],
            "transform": ["transform", "--map", main, "--data", self.path("series.csv")],
            "compose": ["compose", main, second],
            "reject": ["validate", self.path("defect.csv")],
            "render_svg": ["render", main],
            "render_dot": ["render", "--format", "dot", main],
            "import_crosswalk": [
                "import-crosswalk", self.path("table.csv"), "--from", "ISONumeric", "--to", "ISO3"
            ],
        }[op]

    def check(self, op: str, code: int, out: str, err: str) -> str | None:
        d = self.data
        if op == "reject":
            return oracles.check_reject(code, err, d.defect_line, d.defect_source)
        if code != 0:
            return f"exit code {code}: {err.strip()[:160]}"
        if op == "validate":
            return oracles.check_validate(d.main, out)
        if op == "summarize":
            return oracles.check_summary_json(d.main, out)
        if op == "transform":
            return oracles.check_transform(d.main, d.values, out)
        if op == "compose":
            return oracles.check_compose(d.main, d.second, out)
        if op == "render_svg":
            return oracles.check_svg(d.main, out)
        if op == "render_dot":
            return oracles.check_dot(d.main, out)
        if op == "import_crosswalk":
            return oracles.check_import(d.table_pairs, out)
        raise ValueError(op)


def make_inputs(workload: Workload, seed: int, directory: Path) -> dict[str, InputSet]:
    """Main and small input sets. Off-focus operations use the small set."""
    main = InputSet(
        inputs.generate(seed, workload.n_sources, workload.chain_sources, TABLE_ROWS),
        directory / "main",
    )
    small = InputSet(
        inputs.generate(seed + 1_000_003, SMALL_SOURCES, SMALL_CHAIN_SOURCES, TABLE_ROWS),
        directory / "small",
    )
    return {"main": main, "small": small}


def chain_of(data: inputs.Inputs):
    from xmap import MultiStepChain, build_crossmap

    first, second = data.chain
    return MultiStepChain((
        build_crossmap("alpha", "middle", first.links),
        build_crossmap("middle", "omega", second.links),
    ))


# ── checking ──────────────────────────────────────────────────────────────


@dataclass
class Checker:
    """Counts operations and failures: a wrong exit code, an oracle that
    disagrees, or stdout bytes that differ from the operation's first run."""

    attempted: int = 0
    failed: int = 0
    first_hash: dict[str, str] = field(default_factory=dict)
    hashes: dict[str, dict[str, str]] = field(default_factory=dict)
    verified: set[tuple[str, str, int]] = field(default_factory=set)
    chain_crossings: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def record(self, op: str, inputs_: InputSet, code: int, out: bytes, err: bytes,
               hash_seed: str = "in-process") -> bool:
        self.attempted += 1
        digest = hashlib.sha256(out).hexdigest()
        self.hashes.setdefault(op, {}).setdefault(hash_seed, digest)
        reason = None
        if self.first_hash.setdefault(op, digest) != digest:
            reason = f"stdout differs between repeats (hash seed {hash_seed})"
        elif (op, digest, code) not in self.verified:
            reason = inputs_.check(op, code, out.decode("utf-8"), err.decode("utf-8"))
            if reason is None:
                self.verified.add((op, digest, code))
        return self._count(op, reason)

    def record_chain(self, plan, data: inputs.Inputs) -> tuple[bool, int]:
        """Check a layout_chain plan; returns (ok, crossings of the plan)."""
        self.attempted += 1
        digest = hashlib.sha256(repr((plan.layers, plan.edges)).encode()).hexdigest()
        self.hashes.setdefault("layout_chain", {}).setdefault("in-process", digest)
        reason, found = None, self.chain_crossings.get(digest, -1)
        if self.first_hash.setdefault("layout_chain", digest) != digest:
            reason = "layout_chain plan differs between repeats"
        elif digest not in self.chain_crossings:
            reason, found = oracles.check_chain_plan(plan, data.chain)
            if reason is None:
                self.chain_crossings[digest] = found
        return self._count("layout_chain", reason), found

    def _count(self, op: str, reason: str | None) -> bool:
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op}: {reason}")
        return reason is None


# ── child processes ───────────────────────────────────────────────────────


def child_env(hash_seed: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hash_seed
    return env


def run_child(argv: list[str], env: dict[str, str], scratch: Path) -> tuple[float, int, bytes, bytes, float]:
    """Run one child to completion; returns (seconds, exit code, stdout, stderr, peak RSS MB).

    stdout and stderr go to files, so no pipe can fill and stall the child;
    the child is reaped with wait4 to read its own peak RSS.
    """
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=scratch)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss / 1024


# ── end-to-end run ────────────────────────────────────────────────────────


def run_end_to_end(workload: Workload, sets: dict[str, InputSet], seconds: float,
                   scratch: Path, checker: Checker, started: float) -> dict:
    from xmap import layout_chain

    op_set = {op: sets["main" if op in workload.focus else "small"] for op in OPS}
    chain_set = op_set["layout_chain"]
    chain = chain_of(chain_set.data)
    gc.collect()
    gc.freeze()  # keep the generated inputs out of the collector's way during layout_chain

    # Untimed warm-up: byte-compiles xmap and pulls the main map into the file cache.
    warm = sets["main"]
    run_child([sys.executable, "-c", ENTRY, *warm.argv("validate")], child_env(HASH_SEEDS[0]), scratch)

    setup: list[float] = []
    reference: list[float] = []
    samples: dict[str, list[float]] = {op: [] for op in OPS}
    invocations = 0
    walls: list[float] = []
    peak_rss = 0.0
    crossings = -1
    # The budget counts timed work only, so checking outputs costs no samples. A
    # pass is not started if, at the average pass length so far, it would end
    # further past the budget than stopping now falls short of it.
    timed = 0.0
    while len(walls) < MIN_PASSES or timed + (timed / len(walls)) / 2 < seconds:
        if len(walls) >= MIN_PASSES and time.monotonic() - started > DEADLINE_S:
            break
        hash_seed = HASH_SEEDS[len(walls) % len(HASH_SEEDS)]
        env = child_env(hash_seed)
        wall = 0.0
        # Launches without a command and reference jobs, spread over the run
        # like every other sample.
        for _ in range(SETUP_PER_PASS):
            setup.append(run_child([sys.executable, "-c", "import xmap.cli"], env, scratch)[0])
            timed += setup[-1]
        for _ in range(REFERENCE_PER_PASS):
            elapsed, code, _, err, _ = run_child([sys.executable, "-c", REFERENCE_JOB], env, scratch)
            if code != 0:
                raise RuntimeError(f"reference job failed: {err.decode()[-300:]}")
            reference.append(elapsed)
            timed += elapsed
        for op in OPS:
            if op == "layout_chain":
                # In process there is no start-up to amortise, so a short call
                # repeats within the pass and the pass counts its median.
                repeats: list[float] = []
                while not repeats or sum(repeats) < IN_PROCESS_REPEAT_S:
                    start = time.perf_counter()
                    plan = layout_chain(chain)
                    repeats.append(time.perf_counter() - start)
                    _, found = checker.record_chain(plan, chain_set.data)
                    crossings = max(crossings, found)
                    del plan
                samples[op].extend(repeats)
                wall += median(repeats)
                timed += sum(repeats)
                continue
            target = op_set[op]
            elapsed, code, out, err, rss = run_child(
                [sys.executable, "-c", ENTRY, *target.argv(op)], env, scratch
            )
            checker.record(op, target, code, out, err, hash_seed)
            invocations += 1
            peak_rss = max(peak_rss, rss)
            samples[op].append(elapsed)
            wall += elapsed
            timed += elapsed
        walls.append(wall)

    unscaled = {"setup_s": setup, **{f"{op}_s": samples[op] for op in OPS}, "wall_s": walls}
    scale = REFERENCE_S / median(reference)
    metrics = {name: (median(values) * scale, "s", len(values)) for name, values in unscaled.items()}
    metrics["peak_rss_mb"] = (peak_rss, "MB", invocations)
    extra = {
        "reference_s": (median(reference), "s", len(reference)),
        **{f"unscaled.{name}": (median(values), "s", len(values)) for name, values in unscaled.items()},
        "error_rate": (checker.failed / max(checker.attempted, 1), "fraction", checker.attempted),
    }
    extra["viz.chain_crossings"] = (crossings, "count", 1)
    return {"metrics": metrics, "extra": extra, "samples": samples, "setup": setup,
            "reference": reference, "walls": walls}


# ── traced run ────────────────────────────────────────────────────────────


def import_viz_seconds(stderr: str) -> float:
    """Cumulative import time of xmap.viz from ``-X importtime`` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "xmap.viz":
            return int(parts[1]) / 1e6
    raise ValueError("xmap.viz not found in -X importtime output")


def measure_startup(scratch: Path) -> dict[str, float]:
    env = child_env(HASH_SEEDS[0])
    timed_import = (
        "import time; start = time.perf_counter(); import xmap.cli; "
        "print(time.perf_counter() - start)"
    )
    run_child([sys.executable, "-c", "import xmap.cli"], env, scratch)  # warm-up: byte-compile
    startup, imports, viz, cold = [], [], [], []
    for _ in range(STARTUP_LAUNCHES):
        startup.append(run_child([sys.executable, "-c", "pass"], env, scratch)[0])
        elapsed, code, out, _, _ = run_child([sys.executable, "-c", timed_import], env, scratch)
        if code != 0:
            raise RuntimeError("import xmap.cli failed")
        imports.append(float(out))
        cold.append(elapsed)
        importtime = [sys.executable, "-X", "importtime", "-c", "import xmap.cli"]
        _, code, _, err, _ = run_child(importtime, env, scratch)
        viz.append(import_viz_seconds(err.decode("utf-8")))
    return {
        "cli.startup_s": median(startup),
        "cli.import_s": median(imports),
        "cli.import_viz_s": median(viz),
        "launch_s": median(cold),
    }


def run_pass_in_process(workload: Workload, sets: dict[str, InputSet], chain, checker: Checker,
                        tracer: tracing.Tracer | None) -> tuple[float, int]:
    """One pass over the operations in this process; returns (wall seconds, stdout bytes)."""
    from xmap import cli, viz

    wall, bytes_out = 0.0, 0
    for op in OPS:
        target = sets["main" if op in workload.focus else "small"]
        if op == "layout_chain":
            start = time.perf_counter()
            plan = viz.layout_chain(chain)
            wall += time.perf_counter() - start
            ok, found = checker.record_chain(plan, target.data)
            if tracer is not None:
                tracer.counts["viz.chain_crossings"] += found
            continue
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        code = cli.run(target.argv(op), stdout=out, stderr=err)
        wall += time.perf_counter() - start
        data = out.getvalue().encode("utf-8")
        bytes_out += len(data)
        checker.record(op, target, code, data, err.getvalue().encode("utf-8"))
    return wall, bytes_out


def run_traced(workload: Workload, sets: dict[str, InputSet], seconds: float,
               scratch: Path, checker: Checker, started: float) -> dict:
    startup = measure_startup(scratch)
    import xmap.cli  # noqa: F401  (the modules must be loaded before they are patched)

    chain = chain_of(sets["main" if "layout_chain" in workload.focus else "small"].data)
    gc.collect()
    gc.freeze()
    run_pass_in_process(workload, sets, chain, checker, None)  # warm-up

    tracer = tracing.Tracer()
    plain_walls, traced_walls, per_pass = [], [], []
    loop_start = time.monotonic()
    while not traced_walls or time.monotonic() - loop_start < seconds:
        if traced_walls and time.monotonic() - started > DEADLINE_S:
            break
        plain_walls.append(run_pass_in_process(workload, sets, chain, checker, None)[0])
        tracer.run_id += 1
        tracer.counts.clear()
        tracer.install()
        try:
            wall, bytes_out = run_pass_in_process(workload, sets, chain, checker, tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        counts = dict(tracer.counts, **{"io.bytes_out": bytes_out})
        per_pass.append((tracing.self_times(tracer.spans, tracer.run_id), counts))

    counts = per_pass[0][1]
    for _, other in per_pass[1:]:
        if other != counts:
            checker.failed += 1
            checker.failures.append(f"traced counts differ between passes: {other} vs {counts}")

    metrics: dict[str, tuple[float, str, int]] = {}
    n = len(per_pass)
    for name in ("cli.startup_s", "cli.import_s", "cli.import_viz_s"):
        metrics[name] = (startup[name], "s", STARTUP_LAUNCHES)
    for name in PER_LAYER_TIMES:
        metrics[f"{name}_s"] = (median([selfs.get(name, 0.0) for selfs, _ in per_pass]), "s", n)
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count", n)

    layer_self = {
        layer: median([
            sum(t for span, t in selfs.items() if span.split(".")[0] == layer) for selfs, _ in per_pass
        ])
        for layer in tracing.LAYERS
    }
    # Each CLI invocation also pays interpreter start and import, which run
    # outside this process; count them in the cli layer.
    launches = sum(1 for op in OPS if op != "layout_chain") * startup["launch_s"]
    plain = median(plain_walls)
    layer_self["cli"] += launches
    total = sum(layer_self.values())
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s", n)
        metrics[f"{layer}.share"] = (layer_self[layer] / total, "fraction", n)
    metrics["trace.wall_s"] = (median(traced_walls), "s", n)
    # Each traced pass runs right after an untraced one; the median of the pairs'
    # differences is less exposed to machine drift than a difference of medians.
    overhead = median([t - p for t, p in zip(traced_walls, plain_walls)])
    metrics["trace.overhead_s"] = (overhead, "s", n)

    stressed = sum(layer_self[layer] for layer in workload.stresses)
    others = max(layer_self[layer] for layer in tracing.LAYERS if layer not in workload.stresses)
    extra = {
        "untraced.wall_s": (plain, "s", len(plain_walls)),
        "stressed_share": (stressed / total, "fraction", n),
    }
    spans = [
        [s.name, s.start, s.end, s.parent, s.run_id, s.paused] for s in tracer.spans
    ]
    return {"metrics": metrics, "extra": extra, "spans": spans,
            "stress_confirmed": stressed > others}


# ── environment and output ────────────────────────────────────────────────


def environment(seed: int, sizes: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        result = subprocess.run(
            ["git", "-C", str(ROOT), "log", "-1", "--format=%H", "--", "src"],
            capture_output=True, text=True, check=False,
        )
        commit = result.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "xmap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "sizes": sizes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the xmap CLI and library.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind through the finally blocks that stop the child and clean up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    if not (SRC / "xmap" / "cli.py").is_file():
        print(f"error: no xmap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    scratch = run_dir / "child"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        sets = make_inputs(workload, args.seed, run_dir)
        sizes = {name: s.write() for name, s in sets.items()}
        checker = Checker()
        run = run_traced if args.trace else run_end_to_end
        result = run(workload, sets, args.seconds, scratch, checker, started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, sizes),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "output_sha256": checker.hashes,
        **{key: value for key, value in result.items() if key not in ("metrics", "extra")},
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in result["metrics"].items()},
        "extra": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in result["extra"].items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for key, (value, unit, n) in {**result["metrics"], **result["extra"]}.items():
        print(f"{args.workload:13} {key:28} {value:14.6f} {unit:8} n={n}")
    if "stress_confirmed" in result:
        verdict = "confirmed" if result["stress_confirmed"] else "NOT confirmed"
        print(f"{args.workload:13} stresses {'+'.join(workload.stresses)}: {verdict}")
    for failure in checker.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
