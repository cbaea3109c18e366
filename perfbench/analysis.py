"""Pure arithmetic of the end-to-end benchmark: percentiles, span trees and
the per-layer attribution computed from Chrome trace-event JSON. Nothing in
here runs a process, so test_perfbench.py can check every formula on
hand-written inputs."""

import json
import math
import re
import statistics

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def valid_metric_name(name):
    return bool(METRIC_NAME.match(name))


def tail_percentile(count, candidates=TAIL_CANDIDATES, beyond=10):
    """The highest percentile that still has at least `beyond` samples above
    it among `count` samples, or None when even the median has too few."""
    for p in sorted(candidates, reverse=True):
        if count * (100.0 - p) / 100.0 >= beyond - 1e-9:  # 10000 * 0.1% is 9.999... in floating point
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile (p in [0, 100]) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values):
    return statistics.median(values)


def mean(values):
    return statistics.fmean(values)


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles Python's statistics module gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


class Span:
    __slots__ = ("name", "tid", "begin", "end", "parent", "children")

    def __init__(self, name, tid, begin, end):
        self.name = name
        self.tid = tid
        self.begin = begin
        self.end = end
        self.parent = None
        self.children = []

    @property
    def duration(self):
        return self.end - self.begin

    @property
    def self_time(self):
        return self.duration - sum(child.duration for child in self.children)

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


def spans_from_trace(trace):
    """Spans (seconds) from a parsed trace-event document, nested per thread:
    a span is the child of the innermost span on the same thread that
    contains it."""
    spans = [Span(event["name"], event["tid"], event["ts"] / 1e6, (event["ts"] + event["dur"]) / 1e6)
             for event in trace["traceEvents"] if event.get("ph") == "X"]
    by_thread = {}
    for span in spans:
        by_thread.setdefault(span.tid, []).append(span)
    epsilon = 2e-9  # timestamps carry nanoseconds rendered as microseconds with 3 decimals
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda span: (span.begin, -span.end))
        stack = []
        for span in thread_spans:
            while stack and span.begin >= stack[-1].end - epsilon:
                stack.pop()
            if stack and span.end <= stack[-1].end + epsilon:
                span.parent = stack[-1]
                stack[-1].children.append(span)
            stack.append(span)
    return spans


def load_trace(path):
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    return trace, spans_from_trace(trace)


def dropped_spans(trace):
    return int(trace.get("otherData", {}).get("droppedSpans", 0))


def union_length(intervals):
    """Total length covered by a set of (begin, end) intervals."""
    total = 0.0
    current_begin = current_end = None
    for begin, end in sorted(intervals):
        if current_end is None or begin > current_end:
            if current_end is not None:
                total += current_end - current_begin
            current_begin, current_end = begin, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_begin
    return total


def idle_fraction(spans, window, names=("chunk.decode", "frame.decode")):
    """Share of `window` = (begin, end) in which no span named in `names` is
    open on any thread."""
    begin, end = window
    if end <= begin:
        return 0.0
    clipped = [(max(span.begin, begin), min(span.end, end)) for span in spans
               if span.name in names and span.end > begin and span.begin < end]
    return 1.0 - union_length(clipped) / (end - begin)


def in_pool_task(span):
    return any(ancestor.name == "pool.task" for ancestor in span.ancestors())


CONSUMER_PARTS = {
    "chunk.wait": "wait",
    "chunk.stitch": "stitch",
    "chunk.decode": "decode",
    "chunk.find": "find",
    "frame.decode": "decode",
    "sink": "sink",
}


def self_time_breakdown(root, parts):
    """Split `root`'s wall time into the self times of its descendants,
    keyed by `parts[name]`, plus "other" (root's own self time and any span
    kind not in `parts`). The values sum to root.duration by construction;
    a negative self time would mean the spans did not nest."""
    result = {part: 0.0 for part in set(parts.values())}
    result["other"] = 0.0
    stack = [root]
    while stack:
        span = stack.pop()
        key = parts.get(span.name, "other") if span is not root else "other"
        result[key] += span.self_time
        stack.extend(span.children)
    return result


def decode_layers(spans, counters, chunk_count):
    """Per-layer numbers of one traced whole-file decode."""
    consumer_roots = [span for span in spans if span.name == "bench.decompress"]
    if len(consumer_roots) != 1:
        raise ValueError("expected exactly one bench.decompress span")
    root = consumer_roots[0]
    window = (root.begin, root.end)

    def total(name, predicate=lambda span: True):
        return sum(span.duration for span in spans if span.name == name and predicate(span))

    pooled_finds = [span for span in spans if span.name == "chunk.find" and in_pool_task(span)]
    tasks = [span for span in spans if span.name == "pool.task"]
    speculative = sum(1 for task in tasks
                      if any(child.name == "chunk.find" for child in walk(task)))
    pool_threads = len({task.tid for task in tasks})
    decodes = sum(1 for span in spans if span.name in ("chunk.decode", "frame.decode"))
    worker = {"find": 0.0, "decode": 0.0, "stitch": 0.0, "other": 0.0}
    for task in tasks:
        split = self_time_breakdown(task, {"chunk.find": "find", "chunk.decode": "decode",
                                           "frame.decode": "decode", "chunk.stitch": "stitch"})
        for key in worker:
            worker[key] += split.get(key, 0.0)
    redecodes = counters.get("rapidgzip_chunk_redecodes_total", 0)
    issued = counters.get("rapidgzip_prefetch_issued_total", 0)
    return {
        "wall_s": root.duration,
        "consumer": self_time_breakdown(root, CONSUMER_PARTS),
        "worker": worker,
        "blockfinder.find_s": sum(span.duration for span in pooled_finds),
        "blockfinder.find_calls": len(pooled_finds),
        "core.flush_scan_s": total("chunk.find", lambda span: not in_pool_task(span)),
        "deflate.decode_s": total("chunk.decode"),
        "simd.stitch_s": total("chunk.stitch"),
        "formats.frame_decode_s": total("frame.decode"),
        "core.wait_s": total("chunk.wait"),
        "sink.s": total("sink"),
        "decodes": decodes,
        "chunks": chunk_count,
        "speculative": speculative,
        "redecodes": redecodes,
        "pool_task_s": total("pool.task"),
        "pool_threads": pool_threads,
        "core.idle_frac": idle_fraction(spans, window),
        "prefetch_issued": issued,
        "prefetch_wasted": counters.get("rapidgzip_prefetch_wasted_total", 0),
    }


def walk(span):
    stack = list(span.children)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def parse_prometheus(text):
    """Family name -> summed value over all label sets."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        family = name_part.split("{", 1)[0]
        try:
            values[family] = values.get(family, 0.0) + float(value)
        except ValueError:
            continue
    return values
