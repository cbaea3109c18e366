"""Tests for the benchmark's own arithmetic and determinism.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The tests that drive the compiled helper build
it first (same build directory as run.py: $CARGO_TARGET_DIR or .bench_build).
"""

import gzip
import hashlib
import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402
import run  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent


def build_helper():
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    helper, _ = run.build(build_root)
    return helper


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(analysis.tail_percentile(10000), 99.9)
        self.assertEqual(analysis.tail_percentile(9999), 99.0)
        self.assertEqual(analysis.tail_percentile(1000), 99.0)
        self.assertEqual(analysis.tail_percentile(999), 95.0)
        self.assertEqual(analysis.tail_percentile(200), 95.0)
        self.assertEqual(analysis.tail_percentile(100), 90.0)
        self.assertEqual(analysis.tail_percentile(20), 50.0)
        self.assertIsNone(analysis.tail_percentile(19))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile(values, 50), 50)
        self.assertEqual(analysis.percentile(values, 99), 99)
        self.assertEqual(analysis.percentile(values, 100), 100)
        self.assertEqual(analysis.percentile([7.0], 99), 7.0)
        self.assertEqual(analysis.percentile(values[::-1], 10), 10)

    def test_failed_requests_miss_the_limit(self):
        phase = {"latency_ms": [1.0] * 98, "failed": 2}
        self.assertEqual(run.latency_tail(phase, 99.0), float("inf"))
        self.assertEqual(run.latency_tail(phase, 98.0), 1.0)

    def test_max_rps_interpolates_between_rungs(self):
        def rung(rate, latency_ms):
            return {"offered_rps": rate, "latency_ms": [latency_ms] * 1000, "failed": 0}
        phases = [rung(100, 10.0), rung(200, 50.0), rung(400, 150.0)]
        # limit 100 ms lies halfway between 50 and 150 ms: halfway in log-rate.
        self.assertAlmostEqual(run.max_rps(phases, limit_ms=100.0), 200 * 2 ** 0.5)
        self.assertEqual(run.max_rps([rung(100, 500.0)], limit_ms=100.0), 0.0)
        self.assertEqual(run.max_rps([rung(100, 5.0), rung(200, 6.0)], limit_ms=100.0), 200)

    def test_quartile_spread(self):
        self.assertAlmostEqual(analysis.quartile_spread([10.0] * 10), 0.0)
        self.assertGreater(analysis.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]), 0.5)


class TraceArithmeticTest(unittest.TestCase):
    """A hand-written trace (times in microseconds, as the library writes them)."""

    @staticmethod
    def event(name, tid, begin, end):
        return {"name": name, "cat": "t", "ph": "X", "ts": begin, "dur": end - begin, "pid": 1, "tid": tid}

    def trace(self):
        e = self.event
        return {"otherData": {"droppedSpans": 0}, "traceEvents": [
            # consumer thread: flush scan, wait, a consumer decode, sink, stitch
            e("bench.decompress", 1, 0, 100),
            e("chunk.find", 1, 0, 4),
            e("chunk.wait", 1, 10, 40),
            e("chunk.decode", 1, 40, 45),
            e("sink", 1, 50, 60),
            e("chunk.stitch", 1, 60, 70),
            # worker 2: a speculative chunk (find + decode)
            e("pool.task", 2, 0, 50),
            e("chunk.find", 2, 0, 5),
            e("chunk.decode", 2, 5, 45),
            # worker 3: a checkpoint decode and a stitch
            e("pool.task", 3, 30, 90),
            e("chunk.decode", 3, 35, 75),
            e("chunk.stitch", 3, 75, 85),
        ]}

    def test_nesting_and_self_time(self):
        spans = analysis.spans_from_trace(self.trace())
        root = next(s for s in spans if s.name == "bench.decompress")
        self.assertEqual(sorted(child.name for child in root.children),
                         ["chunk.decode", "chunk.find", "chunk.stitch", "chunk.wait", "sink"])
        self.assertAlmostEqual(root.self_time, (100 - 4 - 30 - 5 - 10 - 10) / 1e6)
        task = next(s for s in spans if s.name == "pool.task" and s.tid == 3)
        self.assertAlmostEqual(task.self_time, (60 - 40 - 10) / 1e6)

    def test_consumer_breakdown_sums_to_wall(self):
        spans = analysis.spans_from_trace(self.trace())
        layers = analysis.decode_layers(spans, {"rapidgzip_chunk_redecodes_total": 0}, chunk_count=2)
        consumer = layers["consumer"]
        self.assertAlmostEqual(sum(consumer.values()), layers["wall_s"])
        self.assertAlmostEqual(consumer["wait"], 30e-6)
        self.assertAlmostEqual(consumer["sink"], 10e-6)
        self.assertAlmostEqual(consumer["stitch"], 10e-6)
        self.assertAlmostEqual(consumer["decode"], 5e-6)
        self.assertAlmostEqual(consumer["find"], 4e-6)
        self.assertAlmostEqual(consumer["other"], 41e-6)

    def test_worker_split_and_layers(self):
        spans = analysis.spans_from_trace(self.trace())
        layers = analysis.decode_layers(spans, {}, chunk_count=2)
        self.assertAlmostEqual(layers["worker"]["find"], 5e-6)
        self.assertAlmostEqual(layers["worker"]["decode"], 80e-6)
        self.assertAlmostEqual(layers["worker"]["stitch"], 10e-6)
        self.assertAlmostEqual(layers["worker"]["other"], 15e-6)
        self.assertEqual(layers["blockfinder.find_calls"], 1)
        self.assertAlmostEqual(layers["blockfinder.find_s"], 5e-6)
        self.assertAlmostEqual(layers["core.flush_scan_s"], 4e-6)
        self.assertEqual(layers["decodes"], 3)
        self.assertEqual(layers["speculative"], 1)
        self.assertEqual(layers["pool_threads"], 2)

    def test_idle_fraction(self):
        spans = analysis.spans_from_trace(self.trace())
        # decode spans cover [5, 75] within the [0, 100] window
        self.assertAlmostEqual(analysis.idle_fraction(spans, (0.0, 100e-6)), 0.30)
        self.assertAlmostEqual(analysis.idle_fraction(spans, (50e-6, 100e-6)), 0.50)
        self.assertAlmostEqual(analysis.union_length([(0, 2), (1, 3), (5, 6)]), 4)

    def test_prometheus(self):
        text = "# HELP x y\nfoo_total 3\nfoo_total{a=\"b\"} 2\nbar 1.5\n"
        self.assertEqual(analysis.parse_prometheus(text), {"foo_total": 5.0, "bar": 1.5})


class MetricNameTest(unittest.TestCase):
    def test_names_and_units(self):
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [name for name, _ in run.END_TO_END + run.PRINTED + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, metric_unit in run.END_TO_END + run.PRINTED + run.PER_LAYER:
            self.assertTrue(analysis.valid_metric_name(name), name)
            self.assertRegex(metric_unit, unit)
        self.assertFalse(analysis.valid_metric_name("bad name"))
        self.assertFalse(analysis.valid_metric_name(".hidden"))

    def test_layer_map_names_are_declared(self):
        self.assertEqual(sorted(w["name"] for w in run.CONTRACT["workloads"]), sorted(run.WORKLOADS))
        layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text())
        declared = {name for name, _ in run.END_TO_END + run.PER_LAYER}
        printed = {name for name, _ in run.PRINTED} | {"serve_p99_ms", "serve_max_rps"}
        self.assertEqual({e["metric"] for e in layer_map["end_to_end"] if e["gated"]},
                         {name for name, _ in run.END_TO_END})
        for entry in layer_map["per_layer"]:
            self.assertIn(entry["metric"], declared)
            for moved in entry["moves"]:
                self.assertIn(moved, declared | printed)
            for workload in entry["workloads"]:
                self.assertIn(workload, run.WORKLOADS)


class GenerationTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        helper = build_helper()
        with tempfile.TemporaryDirectory() as directory:
            def digest(seed, corpus, archive_format):
                path = Path(directory) / f"{seed}.{corpus}.{archive_format}"
                subprocess.run([str(helper), "gen", "--corpus", corpus, "--size", str(1 << 20), "--seed",
                                str(seed), "--format", archive_format, "--out", str(path)],
                               check=True, stdout=subprocess.DEVNULL)
                return hashlib.sha256(path.read_bytes()).hexdigest()
            for corpus in ("base64", "silesia", "logs"):
                for archive_format in ("gzip", "fullflush", "bgzf", "zstd", "lz4", "bzip2"):
                    self.assertEqual(digest(7, corpus, archive_format), digest(7, corpus, archive_format))
                self.assertNotEqual(digest(7, corpus, "gzip"), digest(8, corpus, "gzip"))


class StallingServer:
    """Minimal keep-alive HTTP/1.1 range server over a gzip file's content
    that stalls once, before answering request number `stall_at`."""

    def __init__(self, content, stall_at, stall_seconds):
        self.content = content
        self.stall_at = stall_at
        self.stall_seconds = stall_seconds
        self.served = 0
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self.accept, daemon=True)
        self.thread.start()

    def accept(self):
        while True:
            try:
                connection, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self.serve, args=(connection,), daemon=True).start()

    def serve(self, connection):
        buffer = b""
        with connection:
            while True:
                while b"\r\n\r\n" not in buffer:
                    chunk = connection.recv(65536)
                    if not chunk:
                        return
                    buffer += chunk
                head, buffer = buffer.split(b"\r\n\r\n", 1)
                first, last = map(int, re.search(rb"Range: bytes=(\d+)-(\d+)", head).groups())
                self.served += 1
                if self.served == self.stall_at:
                    time.sleep(self.stall_seconds)
                body = self.content[first:last + 1]
                connection.sendall(b"HTTP/1.1 206 Partial Content\r\nContent-Length: %d\r\n\r\n" % len(body) + body)

    def close(self):
        self.listener.close()


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        """One 300 ms stall on a single pipelined connection must show up in
        the latency of every request that came due during it; a closed-loop
        client would have measured only the stalled request."""
        helper = build_helper()
        with tempfile.TemporaryDirectory() as directory:
            archive = Path(directory) / "a.gz"
            subprocess.run([str(helper), "gen", "--corpus", "base64", "--size", str(1 << 20), "--seed", "3",
                            "--format", "gzip", "--out", str(archive)], check=True, stdout=subprocess.DEVNULL)
            server = StallingServer(gzip.decompress(archive.read_bytes()), stall_at=50, stall_seconds=0.3)
            try:
                result = subprocess.run(
                    [str(helper), "load", "--port", str(server.port), "--archives", f"a.gz:base64:{1 << 20}:3",
                     "--conns", "1", "--phase", "openloop", "--rate", "200", "--seconds", "1.5", "--seed", "1"],
                    check=True, stdout=subprocess.PIPE, text=True, timeout=60)
            finally:
                server.close()
        phase = json.loads(result.stdout)["phases"][0]
        self.assertEqual(phase["failed"], 0)
        latencies = phase["latency_ms"]
        self.assertGreaterEqual(max(latencies), 250.0)
        # ~60 requests come due during the stall; all of them wait for it.
        delayed = [latency for latency in latencies if latency > 50.0]
        self.assertGreaterEqual(len(delayed), 20)
        self.assertLess(analysis.percentile(latencies, 25), 50.0)
        # The generator itself kept to the schedule.
        self.assertLess(analysis.percentile(phase["late_ms"], 99), 50.0)


if __name__ == "__main__":
    unittest.main()
