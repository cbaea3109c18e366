#!/usr/bin/env python3
"""End-to-end benchmark of rapidgzip: verified file-to-sink decodes and an
open-loop range load against the shipped rapidgzip-serve daemon.

    python3 perfbench/run.py --workload gzip-plain --seed 1 --seconds 15 --trace 0

Run it from the repository root. The first run builds the daemon and the
benchmark helper with CMake into $CARGO_TARGET_DIR (default .bench_build).
Inputs are generated from --seed inside that directory; every output byte is
verified. The last stdout line is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1 (a traced run, plus the untraced runs its overhead is measured
against). The human-readable lines before it print every metric by name and
unit. A byte mismatch makes the command exit with 1 after the result line;
a build or set-up failure exits with 2 and prints no result. See README.md
for the metric definitions and layer_map.json for which layer metric moves
which end-to-end metric.
"""

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
MiB = 1024 * 1024
HELD_OUT_SEED = 20231017

# name, corpus, decoded bytes, writer format, serial-reference format, and the
# chunk size the .rgzidx sidecar is built with (0: no sidecar). The logs file
# compresses at about 6.5:1, above the 4:1 the speculative decoder presizes its
# chunk output for, and spans three 4 MiB chunks of compressed data. The indexed
# archive gets 1 MiB chunks (four checkpoints, all inside the fetcher cache);
# the served archives 256 KiB ones, so a cache miss decodes 256 KiB of
# compressed data instead of the default 4 MiB.
GZIP_PLAIN = [
    ("base64", "base64", 24 * MiB, "gzip", "gzip", 0),
    ("silesia", "silesia", 36 * MiB, "gzip", "gzip", 0),
    ("logs", "logs", 64 * MiB, "gzip", "gzip", 0),
]
CHUNKED_FORMATS = [
    ("fullflush", "silesia", 16 * MiB, "fullflush", "gzip", 0),
    ("bgzf", "silesia", 16 * MiB, "bgzf", "gzip", 0),
    ("indexed", "silesia", 16 * MiB, "gzip", "gzip", 1 * MiB),
    ("zstd", "silesia", 32 * MiB, "zstd", "zstd", 0),
    ("lz4", "silesia", 32 * MiB, "lz4", "lz4", 0),
    ("bzip2", "silesia", 2 * MiB, "bzip2", "bzip2", 0),
]
SERVE_ARCHIVES = [
    ("a0.gz", "base64", 16 * MiB, "gzip", "gzip", 256 * 1024),
    ("a1.gz", "silesia", 16 * MiB, "gzip", "gzip", 256 * 1024),
    ("a2.gz", "base64", 16 * MiB, "gzip", "gzip", 256 * 1024),
    ("a3.gz", "silesia", 16 * MiB, "gzip", "gzip", 256 * 1024),
]
WORKLOADS = {"gzip-plain": GZIP_PLAIN, "chunked-formats": CHUNKED_FORMATS, "serve-range": SERVE_ARCHIVES}

SERVE_CACHE_BYTES = 16 * MiB
# The ranged-request shape (bench/serve_load.cpp's: Zipf(1) over archives and
# over 512 scattered offsets, 4 KiB per request) is fixed in loadgen.cpp.
# The fixed open-loop rate stays well below what one core sustains, so the
# latency percentiles describe service, not queueing collapse; 120/s over 45 %
# of a 20 s run gives the >= 1000 samples a p99 needs.
SERVE_FIXED_RPS = 120
SERVE_LADDER_RPS = (250, 500, 1000, 2000, 4000, 8000)
SERVE_P99_LIMIT_MS = 100.0
SERVE_RUNG_SECONDS = 0.8
# A generator that sends its p99 request later than this after the due time
# no longer loads the daemon open-loop; such a run is flagged invalid.
GENERATOR_LATE_LIMIT_MS = 10.0
SERVE_SETUP_SPAWNS = 5
SERVE_FULL_ROUNDS = 9  # the first is a warm-up

# The gated end-to-end metrics and the per-layer metrics, with their units,
# are declared in BENCHMARK.json. The gated ones are those a shared host cannot
# move on its own: wall time against the serial reference interleaved with it,
# the share of the wall spent before the first output byte, CPU per byte,
# memory and set-up. Absolute bandwidth and latency swing with how many vCPUs
# the host grants (up to 30 % between runs minutes apart), so they are printed
# (and stored in the results file) but not gated.
CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = [(metric["name"], metric["unit"]) for metric in CONTRACT["end_to_end"]]
PER_LAYER = [(metric["name"], metric["unit"]) for metric in CONTRACT["per_layer"]]
PRINTED = [
    ("decode_MBps", "MB/s"),
    ("first_byte_s", "s"),
    ("latency_p50_ms", "ms"),
]


class SetupError(Exception):
    """The benchmark could not build or prepare its inputs: no result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_checked(command, **kwargs):
    result = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kwargs)
    if result.returncode != 0:
        raise SetupError(f"{' '.join(map(str, command))} failed ({result.returncode}): {result.stderr[-2000:]}")
    return result.stdout


# --- build --------------------------------------------------------------------------------------

def build(build_root):
    if shutil.which("cmake") is None:
        raise SetupError("cmake is not installed")
    cmake_dir = build_root / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", str(cmake_dir), "--target", "perfbench-helper", "rapidgzip-serve",
                 "-j", jobs])
    helper = cmake_dir / "perfbench-helper"
    serve = cmake_dir / "rapidgzip" / "rapidgzip-serve"
    for binary in (helper, serve):
        if not binary.exists():
            raise SetupError(f"build did not produce {binary}")
    return helper, serve


# --- host record --------------------------------------------------------------------------------

def spin_probe(workers, seconds=0.3):
    """Effective cores: CPU time `workers` busy processes get per wall second."""
    started = time.monotonic()
    children = []
    for _ in range(workers):
        pid = os.fork()
        if pid == 0:
            end = time.monotonic() + seconds
            while time.monotonic() < end:
                pass
            os._exit(0)
        children.append(pid)
    cpu = 0.0
    for pid in children:
        _, _, usage = os.wait4(pid, 0)
        cpu += usage.ru_utime + usage.ru_stime
    return cpu / (time.monotonic() - started)


def host_record(helper):
    """Facts about the host and build, stored beside the results and never
    compared. The spin probe doubles as a warm-up: shared vCPUs that sat idle
    are often granted only after a second or so of full load."""
    record = json.loads(run_checked([str(helper), "host"]))
    record["nproc"] = os.cpu_count()
    record["effective_cores_cold"] = round(spin_probe(os.cpu_count() or 1, 0.2), 3)
    spin_probe(os.cpu_count() or 1, 1.0)
    record["effective_cores"] = round(spin_probe(os.cpu_count() or 1, 0.5), 3)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True, timeout=5)
        record["commit"] = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        record["commit"] = "unknown"
    return record


# --- inputs -------------------------------------------------------------------------------------

def data_seed(seed, index):
    return (seed * 1000003 + index + 1) % (1 << 63)


def generate(helper, workload, seed, data_root):
    """Write the workload's archives (and sidecar indexes) for `seed`;
    reuse them when this seed was generated before."""
    directory = data_root / f"{workload}-{seed}"
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        return json.loads(manifest_path.read_text())
    if data_root.exists():
        shutil.rmtree(data_root)  # keep one input set on disk
    directory.mkdir(parents=True)
    entries = []
    for index, (name, corpus, size, writer, serial, sidecar_chunk_bytes) in enumerate(WORKLOADS[workload]):
        path = directory / name
        item_seed = data_seed(seed, index)
        info = json.loads(run_checked([str(helper), "gen", "--corpus", corpus, "--size", str(size),
                                       "--seed", str(item_seed), "--format", writer, "--out", str(path)]))
        entry = {"name": name, "path": str(path), "corpus": corpus, "size": info["size"],
                 "crc32": info["crc32"], "compressed_bytes": info["compressed_bytes"], "seed": item_seed,
                 "format": serial, "sidecar": sidecar_chunk_bytes > 0, "index_bytes": 0}
        if sidecar_chunk_bytes:
            index_info = json.loads(run_checked([str(helper), "index", "--path", str(path),
                                                 "--chunk-bytes", str(sidecar_chunk_bytes)]))
            entry["index_bytes"] = index_info["index_bytes"]
        entries.append(entry)
    manifest = {"workload": workload, "seed": seed, "entries": entries}
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return manifest


# --- decode workloads ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


def decode_once(helper, entry, mode, tally, trace_path=None, count_io=False):
    command = [str(helper), "decode", "--path", entry["path"], "--format", entry["format"], "--mode", mode,
               "--size", str(entry["size"]), "--crc", str(entry["crc32"])]
    if entry["sidecar"] and mode == "rg":
        command.append("--sidecar")
    if count_io:
        command.append("--count-io")
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    result = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    try:
        report = json.loads(result.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = {"ok": False, "error": f"exit {result.returncode}: {result.stderr[-300:]}"}
    tally.record(report.get("ok", False), f"{entry['name']} {mode}: {report.get('error')}")
    return report


def decode_round(helper, entries, tally, traced_dir=None):
    """One decode of every file by rapidgzip, each followed by the serial
    reference on the same file (pzstd-style alternation)."""
    results = []
    for entry in entries:
        trace_path = traced_dir / f"{entry['name']}.trace.json" if traced_dir is not None else None
        rg = decode_once(helper, entry, "rg", tally, trace_path=trace_path, count_io=traced_dir is not None)
        serial = decode_once(helper, entry, "serial", tally)
        results.append((entry, rg, serial, trace_path))
    return results


def round_end_to_end(results):
    rg = [r for _, r, _, _ in results]
    serial = [s for _, _, s, _ in results]
    if not all(r.get("ok") for r in rg + serial):
        return None
    wall = sum(r["wall_s"] for r in rg)
    size = sum(r["bytes"] for r in rg)
    return {
        "decode_MBps": size / wall / 1e6,
        "speedup_vs_serial": sum(s["wall_s"] for s in serial) / wall,
        "first_byte_s": sum(r["first_byte_s"] for r in rg) / len(rg),
        "first_byte_frac": sum(r["first_byte_s"] for r in rg) / wall,
        "cpu_s_per_GB": sum(r["cpu_s"] for r in rg) / size * 1e9,
        # Mean over files, not max: a memory change in any format shows, not
        # only in the one archive that happens to peak highest.
        "peak_rss_MiB": sum(r["maxrss_kib"] for r in rg) / len(rg) / 1024.0,
        "setup_s": sum(r["setup_s"] for r in rg),
        "latency_p50_ms": wall / len(rg) * 1e3,
        "wall_s": wall,
    }


def timed_rounds(seconds, run_round, minimum=3):
    """Run rounds until the next one would overrun `seconds` (at least
    `minimum`), after one untimed warm-up round: the first decodes after
    input generation run on cold caches and a host that has not yet
    scheduled every vCPU."""
    started = time.monotonic()
    run_round()
    results = []
    while True:
        round_started = time.monotonic()
        results.append(run_round())
        elapsed = time.monotonic() - started
        per_round = time.monotonic() - round_started
        if len(results) >= minimum and elapsed + per_round > seconds:
            return results


def decode_workload(helper, manifest, seconds, traced, work_dir, report):
    entries = manifest["entries"]
    tally = Tally()
    if not traced:
        rounds = timed_rounds(seconds, lambda: decode_round(helper, entries, tally))
        per_round = [m for m in (round_end_to_end(r) for r in rounds) if m is not None]
        report["round_metrics"] = per_round
        report["decodes"] = [{"file": entry["name"], "rg": rg, "serial": serial}
                             for results in rounds for entry, rg, serial, _ in results]
        metrics = {name: analysis.median([m[name] for m in per_round]) if per_round else float("nan")
                   for name, _ in END_TO_END + PRINTED}
        # Peak RSS is bimodal (it depends on how many chunks happen to be in
        # flight at once); its mean over rounds moves smoothly, a median flips.
        metrics["peak_rss_MiB"] = analysis.mean([m["peak_rss_MiB"] for m in per_round]) if per_round else 0.0
        report["rounds"] = len(rounds)
        for entry in entries:
            walls = [rg["wall_s"] * 1e3 for results in rounds for e, rg, _, _ in results
                     if e["name"] == entry["name"] and rg.get("ok")]
            report.setdefault("lines", []).append(timing_line(f"decode wall {entry['name']}", walls))
        return metrics, tally

    # Traced run: untraced and traced rounds alternate; the traced rounds give
    # the attribution, the untraced ones the overhead baseline and per-archive
    # bandwidth.
    trace_dir = work_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    untraced_walls, traced_walls, layer_rounds = [], [], []
    per_archive = {entry["name"]: [] for entry in entries}
    started = time.monotonic()
    for _ in range(8):
        if len(traced_walls) >= 2 and time.monotonic() - started > seconds * 0.8:
            break
        plain = decode_round(helper, entries, tally)
        summary = round_end_to_end(plain)
        if summary is not None:
            untraced_walls.append(summary["wall_s"])
        for entry, rg, _, _ in plain:
            if rg.get("ok"):
                per_archive[entry["name"]].append(rg["bytes"] / rg["wall_s"] / 1e6)
        traced_round = decode_round(helper, entries, tally, traced_dir=trace_dir)
        summary = round_end_to_end(traced_round)
        if summary is None:
            continue
        traced_walls.append(summary["wall_s"])
        layer_rounds.append(decode_round_layers(traced_round, report))

    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for name in layer_rounds[0] if layer_rounds else []:
        metrics[name] = analysis.median([layers[name] for layers in layer_rounds])
    marked = total = 0
    for entry in entries:
        if entry["format"] == "gzip" and manifest["workload"] == "gzip-plain":
            replay = json.loads(run_checked([str(helper), "markers", "--path", entry["path"]]))
            marked += replay["marked"]
            total += replay["total"]
            report.setdefault("marker_frac_by_file", {})[entry["name"]] = analysis.ratio(replay["marked"],
                                                                                     replay["total"])
    metrics["deflate.marker_frac"] = analysis.ratio(marked, total)
    if manifest["workload"] == "chunked-formats":
        for name, values in per_archive.items():
            metrics[f"formats.decode_MBps.{name}"] = analysis.median(values) if values else 0.0
        indexed = [e for e in entries if e["sidecar"]]
        metrics["index.bytes_frac"] = analysis.ratio(sum(e["index_bytes"] for e in indexed),
                                                     sum(e["compressed_bytes"] for e in indexed))
    if untraced_walls and traced_walls:
        metrics["telemetry.trace_overhead_frac"] = (analysis.median(traced_walls)
                                                    / analysis.median(untraced_walls) - 1.0)
    report["traced_rounds"] = len(traced_walls)
    return metrics, tally


def decode_round_layers(results, report):
    """Per-layer sums over one traced round (one traced decode per file)."""
    sums = {"io.pread_s": 0.0, "blockfinder.find_s": 0.0, "blockfinder.find_calls": 0, "core.flush_scan_s": 0.0,
            "deflate.decode_s": 0.0, "simd.stitch_s": 0.0, "core.wait_s": 0.0, "formats.frame_decode_s": 0.0,
            "sink.s": 0.0, "index.import_s": 0.0, "telemetry.dropped_spans": 0}
    pread = compressed = decodes = chunks = speculative = redecodes = 0
    pool_task_s = pool_capacity_s = idle_s = wall = cpu = cpu_wall = issued = wasted = 0.0
    for entry, rg, _, trace_path in results:
        trace, spans = analysis.load_trace(trace_path)
        layers = analysis.decode_layers(spans, rg.get("counters", {}), rg["chunks"])
        dropped = analysis.dropped_spans(trace) + rg.get("dropped_spans", 0)
        sums["telemetry.dropped_spans"] += dropped
        for key in ("blockfinder.find_s", "blockfinder.find_calls", "core.flush_scan_s", "deflate.decode_s",
                    "simd.stitch_s", "core.wait_s", "formats.frame_decode_s", "sink.s"):
            sums[key] += layers[key]
        sums["io.pread_s"] += rg["pread_s"]
        sums["index.import_s"] += rg["import_s"]
        pread += rg["pread_bytes"]
        compressed += entry["compressed_bytes"]
        decodes += layers["decodes"]
        chunks += layers["chunks"]
        speculative += layers["speculative"]
        redecodes += layers["redecodes"]
        pool_task_s += layers["pool_task_s"]
        pool_capacity_s += layers["pool_threads"] * layers["wall_s"]
        idle_s += layers["core.idle_frac"] * layers["wall_s"]
        wall += layers["wall_s"]
        cpu_wall += rg["wall_s"]
        cpu += rg["cpu_s"]
        issued += layers["prefetch_issued"]
        wasted += layers["prefetch_wasted"]
        consumer_sum = sum(layers["consumer"].values())
        if abs(consumer_sum - layers["wall_s"]) > 1e-6 * max(1.0, layers["wall_s"]) or \
                min(layers["consumer"].values()) < -1e-5:
            raise SetupError(f"{entry['name']}: consumer breakdown does not sum to its wall time")
        report.setdefault("breakdown", {})[entry["name"]] = {
            "consumer_s": {k: round(v, 6) for k, v in layers["consumer"].items()},
            "worker_s": {k: round(v, 6) for k, v in layers["worker"].items()},
            "decode_wall_s": round(layers["wall_s"], 6)}
    if sums["telemetry.dropped_spans"] > 0:
        raise SetupError(f"traced run dropped {sums['telemetry.dropped_spans']} spans")
    sums.update({
        "io.read_amplification": analysis.ratio(pread, compressed),
        "core.decode_passes": analysis.ratio(decodes, chunks),
        "core.spec_accept_frac": 1.0 - analysis.ratio(redecodes, speculative) if speculative else 0.0,
        "core.pool_busy_frac": analysis.ratio(pool_task_s, pool_capacity_s),
        "core.effective_cores": analysis.ratio(cpu, cpu_wall),
        "core.idle_frac": analysis.ratio(idle_s, wall),
        "core.prefetch_wasted_frac": analysis.ratio(wasted, issued),
    })
    return sums


# --- serve workload -----------------------------------------------------------------------------

class Daemon:
    """rapidgzip-serve as a child process: default settings except root,
    port and cache budget (and --trace in traced runs)."""

    def __init__(self, serve, root, log_path, trace_path=None):
        command = [str(serve), "--port", "0", "--cache-bytes", str(SERVE_CACHE_BYTES)]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        command.append(str(root))
        self.log_path = log_path
        self.started = time.monotonic()
        with open(log_path, "w", encoding="utf-8") as output:
            self.process = subprocess.Popen(command, stdout=output, stderr=subprocess.STDOUT)
        self.port = self._wait_for_port()

    def _wait_for_port(self):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            match = re.search(r"listening on [0-9.]+:(\d+)", self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.001)
        self.stop()
        raise SetupError(f"rapidgzip-serve did not start: {self.log_path.read_text()[-500:]}")

    def get(self, path, headers=None, timeout=30):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            connection.request("GET", path, headers=headers or {})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def metrics(self):
        status, body = self.get("/metrics")
        if status != 200:
            raise SetupError("/metrics failed")
        return analysis.parse_prometheus(body.decode())

    def cpu_seconds(self):
        """utime + stime of every daemon thread, in nanosecond resolution."""
        total = 0
        for task in Path(f"/proc/{self.process.pid}/task").iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (OSError, ValueError, IndexError):
                continue
        return total / 1e9

    def peak_rss_mib(self):
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """SIGTERM drains (and lets --trace write its file); escalate if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def serve_spec(entries):
    return ",".join(f"{e['name']}:{e['corpus']}:{e['size']}:{e['seed']}" for e in entries)


def spawn_ready(serve, root, work_dir, tally, trace_path=None):
    """Start the daemon and request one byte of every archive: the set-up a
    client waits for (spawn, listen, sidecar adoption, first chunk)."""
    daemon = Daemon(serve, root, work_dir / "serve.log", trace_path)
    try:
        for entry in SERVE_ARCHIVES:
            status, body = daemon.get(f"/{entry[0]}", {"Range": "bytes=0-0"})
            tally.record(status == 206 and len(body) == 1, f"first request {entry[0]}: {status}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.monotonic() - daemon.started


def load(helper, daemon, entries, arguments):
    output = run_checked([str(helper), "load", "--port", str(daemon.port), "--archives", serve_spec(entries),
                          "--conns", str(max(1, min(4, os.cpu_count() or 1)))] + arguments, timeout=170)
    return json.loads(output)


def open_loop(helper, daemon, entries, seed, rate, seconds):
    before_metrics, before_cpu = daemon.metrics(), daemon.cpu_seconds()
    started = time.monotonic()
    result = load(helper, daemon, entries, [
        "--phase", "openloop", "--rate", str(rate), "--seconds", str(seconds), "--seed", str(seed)])["phases"][0]
    result["wall_s"] = time.monotonic() - started
    result["cpu_s"] = daemon.cpu_seconds() - before_cpu
    result["metrics_delta"] = metrics_delta(before_metrics, daemon.metrics())
    return result


def metrics_delta(before, after):
    return {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}


def check_zero_copy(tally, phase, delta):
    """The 206 hot path must lend cached chunk spans: a single range-copied
    body byte is a failure (the gate of bench/serve_load.cpp)."""
    copied = delta.get("rapidgzip_serve_range_copy_bytes_total", 0.0)
    if copied != 0:
        tally.record(False, f"zero-copy gate, {phase}: {copied:.0f} range bytes copied")


def latency_tail(phase, p=99.0):
    """p-th percentile of latency from due time; failed requests count as
    missing any limit."""
    values = phase["latency_ms"] + [float("inf")] * phase["failed"]
    return analysis.percentile(values, p)


def serve_workload(helper, serve, manifest, seconds, traced, work_dir, seed, report):
    entries = manifest["entries"]
    root = Path(entries[0]["path"]).parent
    tally = Tally()

    if traced:
        return serve_traced(helper, serve, entries, root, seconds, work_dir, seed, tally, report)

    setups = []
    for _ in range(SERVE_SETUP_SPAWNS - 1):
        daemon, setup = spawn_ready(serve, root, work_dir, tally)
        setups.append(setup)
        daemon.stop()
    daemon, setup = spawn_ready(serve, root, work_dir, tally)
    setups.append(setup)
    try:
        fixed = open_loop(helper, daemon, entries, seed, SERVE_FIXED_RPS, max(2.0, seconds * 0.45))
        tally.attempted += fixed["attempted"]
        tally.failed += fixed["failed"]
        check_zero_copy(tally, "fixed-rate phase", fixed["metrics_delta"])
        # Whole-archive GETs, each paired with the serial zlib decode of the
        # same file; LRU flooding keeps every GET cold (each archive decodes
        # to as much as the whole cache holds). The light fixed-rate phase
        # lets a shared host take vCPUs back, so warm them up again first.
        spin_probe(os.cpu_count() or 1, 1.0)
        before = daemon.metrics()
        pairs = load(helper, daemon, entries, ["--phase", "full", "--rounds", str(SERVE_FULL_ROUNDS),
                                               "--paths", ",".join(e["path"] for e in entries)])["pairs"]
        after = daemon.metrics()
        for pair in pairs:
            tally.record(pair["get"]["ok"] and pair["serial"]["ok"], f"full GET round {pair['round']}: {pair}")
        check_zero_copy(tally, "whole-archive GETs", metrics_delta(before, after))
        peak_rss = daemon.peak_rss_mib()  # before the ladder overloads it on purpose
        ladder = load(helper, daemon, entries, [
            "--phase", "ladder", "--rates", ",".join(map(str, SERVE_LADDER_RPS)),
            "--rung-seconds", str(SERVE_RUNG_SECONDS), "--seed", str(seed + 1),
            "--limit-ms", str(SERVE_P99_LIMIT_MS), "--drain-seconds", "2"])
        # Overloaded rungs may time out by design; a wrong answer never may.
        for rung in ladder["phases"]:
            tally.attempted += rung["attempted"]
            tally.failed += rung["answered_wrong"]
        check_zero_copy(tally, "ladder", metrics_delta(after, daemon.metrics()))
    finally:
        daemon.stop()

    rounds = []
    for number in range(1, SERVE_FULL_ROUNDS):
        got = [p["get"] for p in pairs if p["round"] == number]
        serial = [p["serial"] for p in pairs if p["round"] == number]
        wall = sum(g["wall_s"] for g in got)
        rounds.append({"decode_MBps": sum(g["bytes"] for g in got) / wall / 1e6,
                       "speedup_vs_serial": sum(s["wall_s"] for s in serial) / wall,
                       # base64 and silesia archives differ by 2x here: the
                       # mean per round is steady, a median over GETs flips.
                       "first_byte_s": analysis.mean([g["first_byte_s"] for g in got]),
                       "first_byte_frac": sum(g["first_byte_s"] for g in got) / wall})
    metrics = {
        "decode_MBps": analysis.median([r["decode_MBps"] for r in rounds]),
        "speedup_vs_serial": analysis.median([r["speedup_vs_serial"] for r in rounds]),
        "first_byte_s": analysis.median([r["first_byte_s"] for r in rounds]),
        "first_byte_frac": analysis.median([r["first_byte_frac"] for r in rounds]),
        # The ranged phase alone: cache misses and wasted prefetch move it.
        "cpu_s_per_GB": analysis.ratio(fixed["cpu_s"], fixed["bytes"]) * 1e9,
        "peak_rss_MiB": peak_rss,
        "setup_s": analysis.median(setups),
        "latency_p50_ms": analysis.percentile(fixed["latency_ms"], 50) if fixed["latency_ms"] else float("inf"),
    }
    count = len(fixed["latency_ms"]) + fixed["failed"]
    report["full_rounds"] = rounds
    report["full_gets"] = [{"round": p["round"], "archive": i % len(entries), "first_byte_s": p["get"]["first_byte_s"],
                            "wall_s": p["get"]["wall_s"], "serial_s": p["serial"]["wall_s"]}
                           for i, p in enumerate(pairs)]
    report["gen_late_p99_ms"] = generator_late_p99_ms(fixed)
    report["open_loop_valid"] = report["gen_late_p99_ms"] <= GENERATOR_LATE_LIMIT_MS
    report["serve_p99_ms"] = latency_tail(fixed)
    report["serve_p99_valid"] = (analysis.tail_percentile(count) or 0) >= 99.0
    report["serve_max_rps"] = max_rps(ladder["phases"])
    report["serve_max_rps_censored"] = all(latency_tail(p) <= SERVE_P99_LIMIT_MS for p in ladder["phases"])
    report["ladder"] = [{"offered_rps": p["offered_rps"], "p99_ms": latency_tail(p), "attempted": p["attempted"],
                         "failed": p["failed"]} for p in ladder["phases"]]
    lines = report.setdefault("lines", [])
    lines.append(timing_line(f"latency at {SERVE_FIXED_RPS} req/s", fixed["latency_ms"], fixed["failed"]))
    for phase in ladder["phases"]:
        lines.append(timing_line(f"latency at {phase['offered_rps']} req/s", phase["latency_ms"], phase["failed"]))
    lines.append(f"generator late p99 {report['gen_late_p99_ms']:.3f} ms "
                 f"({'open-loop' if report['open_loop_valid'] else 'INVALID: generator fell behind'})")
    report["fixed_phase"] = {"attempted": fixed["attempted"], "failed": fixed["failed"],
                             "cache_hit_frac": cache_hit_frac(fixed), "cpu_s": fixed["cpu_s"],
                             "latency_deciles_ms": [analysis.percentile(fixed["latency_ms"], p)
                                                    for p in range(10, 100, 10)] if fixed["latency_ms"] else []}
    return metrics, tally


def max_rps(phases, limit_ms=SERVE_P99_LIMIT_MS):
    """Highest offered rate whose tail (at the percentile the sample count
    supports) meets the limit, interpolated in log-rate between the last
    passing and the first failing rung."""
    passing = None
    for phase in phases:
        count = len(phase["latency_ms"]) + phase["failed"]
        p = analysis.tail_percentile(count) or 50.0
        tail = latency_tail(phase, p)
        if tail <= limit_ms:
            passing = (phase["offered_rps"], tail)
            continue
        if passing is None:
            return 0.0
        low_rate, low_tail = passing
        if tail == float("inf") or tail <= low_tail:
            return low_rate
        fraction = (limit_ms - low_tail) / (tail - low_tail)
        return low_rate * (phase["offered_rps"] / low_rate) ** fraction
    return passing[0] if passing else 0.0


def timing_line(label, values_ms, failed=0):
    """Median and the highest percentile with ten samples beyond it, with the
    sample count; failures count as missing any limit."""
    count = len(values_ms) + failed
    if not values_ms:
        return f"{label}: no samples ({failed} failed)"
    values = values_ms + [float("inf")] * failed
    text = f"{label}: p50 {analysis.percentile(values, 50):.4g} ms"
    tail = analysis.tail_percentile(count)
    if tail is not None and tail > 50:
        text += f", p{tail:g} {analysis.percentile(values, tail):.4g} ms"
    return text + f" over {count} samples ({failed} failed)"


def generator_late_p99_ms(phase):
    return analysis.percentile(phase["late_ms"], 99) if phase["late_ms"] else 0.0


def cache_hit_frac(phase):
    delta = phase["metrics_delta"]
    hits = delta.get("rapidgzip_serve_cache_hits_total", 0.0)
    return analysis.ratio(hits, hits + delta.get("rapidgzip_serve_cache_misses_total", 0.0))


def serve_traced(helper, serve, entries, root, seconds, work_dir, seed, tally, report):
    phase_seconds = max(2.0, seconds * 0.35)
    # Untraced baseline, then the traced daemon on the same schedule.
    daemon, _ = spawn_ready(serve, root, work_dir, tally)
    try:
        plain = open_loop(helper, daemon, entries, seed, SERVE_FIXED_RPS, phase_seconds)
    finally:
        daemon.stop()
    trace_path = work_dir / "serve.trace.json"
    if trace_path.exists():
        trace_path.unlink()
    daemon, _ = spawn_ready(serve, root, work_dir, tally, trace_path=trace_path)
    try:
        phase = open_loop(helper, daemon, entries, seed, SERVE_FIXED_RPS, phase_seconds)
    finally:
        daemon.stop()
    for name, result in (("untraced phase", plain), ("traced phase", phase)):
        tally.attempted += result["attempted"]
        tally.failed += result["failed"]
        check_zero_copy(tally, name, result["metrics_delta"])
    trace, spans = analysis.load_trace(trace_path)
    requests = [s for s in spans if s.name == "serve.request"]
    tasks = [s for s in spans if s.name == "pool.task"]
    pool_threads = len({s.tid for s in tasks})
    delta = phase["metrics_delta"]
    answered = max(1, phase["attempted"] - phase["failed"])
    imports = [json.loads(run_checked([str(helper), "adopt", "--path", e["path"]]))["import_s"] for e in entries]

    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update({
        "core.cache_hit_frac": cache_hit_frac(phase),
        "core.prefetch_wasted_frac": analysis.ratio(delta.get("rapidgzip_prefetch_wasted_total", 0.0),
                                                    delta.get("rapidgzip_prefetch_issued_total", 0.0)),
        "core.pool_busy_frac": analysis.ratio(sum(s.duration for s in tasks), pool_threads * phase["wall_s"]),
        "core.effective_cores": analysis.ratio(phase["cpu_s"], phase["wall_s"]),
        "index.import_s": sum(imports),
        "index.bytes_frac": analysis.ratio(sum(e["index_bytes"] for e in entries),
                                           sum(e["compressed_bytes"] for e in entries)),
        "deflate.decode_s": sum(s.duration for s in spans if s.name == "chunk.decode"),
        "serve.request_s": analysis.ratio(sum(s.duration for s in requests), len(requests)),
        "serve.cpu_ms_per_req": phase["cpu_s"] / answered * 1e3,
        "serve.ttfb_ms": analysis.percentile(phase["ttfb_ms"], 50) if phase["ttfb_ms"] else 0.0,
        "serve.range_copy_bytes": delta.get("rapidgzip_serve_range_copy_bytes_total", 0.0),
        "gen.late_p99_ms": generator_late_p99_ms(phase),
        "telemetry.trace_overhead_frac": analysis.ratio(phase["cpu_s"] / answered,
                                                        plain["cpu_s"] / max(1, plain["attempted"] - plain["failed"]))
        - 1.0,
        "telemetry.dropped_spans": analysis.dropped_spans(trace),
    })
    if metrics["telemetry.dropped_spans"] > 0:
        raise SetupError(f"daemon trace dropped {metrics['telemetry.dropped_spans']} spans")
    report["serve_requests_traced"] = len(requests)
    return metrics, tally


# --- main ---------------------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    try:
        helper, serve = build(build_root)
        host = host_record(helper)
        work_dir = build_root / "work" / f"{args.workload}-{args.seed}-{args.trace}"
        if work_dir.exists():
            shutil.rmtree(work_dir)
        work_dir.mkdir(parents=True)
        generation_started = time.monotonic()
        manifest = generate(helper, args.workload, args.seed, build_root / "data")
        report = {"host": host, "generate_s": round(time.monotonic() - generation_started, 3),
                  "held_out_seed": HELD_OUT_SEED}
        if args.workload == "serve-range":
            metrics, tally = serve_workload(helper, serve, manifest, args.seconds, args.trace == 1, work_dir,
                                            args.seed, report)
        else:
            metrics, tally = decode_workload(helper, manifest, args.seconds, args.trace == 1, work_dir, report)
    except (SetupError, OSError, http.client.HTTPException, subprocess.SubprocessError, ValueError,
            KeyError) as error:
        log(f"perfbench: {error}")
        return 2

    declared = PER_LAYER if args.trace else END_TO_END
    failed_frac = analysis.ratio(tally.failed, tally.attempted)
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} attempted, {tally.failed} failed")
    for name, unit in declared + ([] if args.trace else PRINTED):
        print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_frac':32s} {failed_frac:.6g} ratio")
    for key in ("serve_p99_ms", "serve_max_rps"):
        if key in report:
            print(f"  {key:32s} {report[key]:.6g} {'ms' if key.endswith('ms') else 'req/s'}")
    for line in report.get("lines", []):
        print(f"  {line}")
    for error in tally.errors:
        print(f"  FAILED: {error}")
    results_dir = build_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "metrics": metrics,
         "failed_frac": failed_frac, "report": report}, indent=1, default=str))

    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
