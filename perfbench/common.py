"""Shared pieces of the benchmark: inputs, statistics, metric tables."""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".bench_build" / "perfbench"

#: DEFAULT_PROFILE's key and value sizes
KEY_SIZE = 16
VALUE_SIZE = 100
ENTRY_SIZE = KEY_SIZE + VALUE_SIZE
MiB = 1024 * 1024


class BenchFailure(Exception):
    """A wrong result or a failed post-run check: the run reports no numbers."""


def use_checkout_source() -> None:
    """Put this checkout's ``src`` first on ``sys.path``, so the program
    measured is the one beside the benchmark and never an installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchFailure(f"no program source at {src}/repro")
    sys.path.insert(0, str(src))


def key_of(i: int) -> bytes:
    """Fixed-width key; numeric order is byte order."""
    return b"%016d" % i


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    """Independent deterministic stream per (workload, seed, purpose)."""
    return random.Random(f"{workload}/{seed}/{stream}")


# -- host speed ----------------------------------------------------------------

#: iterations of the calibration kernel (about 0.6 ms of interpreter work)
CAL_ITERS = 2000
#: median duration of one calibration kernel on the reference host, a
#: 2-vCPU x86-64 VM running CPython 3.11 (ns)
CAL_REF_NS = 600_000
#: calibrations this close to a chunk's start or end set its speed
#: factor: the kernels run just before and just after it (host
#: interference comes and goes within a tenth of a second, so farther
#: kernels track it worse)
CAL_SLACK_NS = 20_000_000
#: calibration kernels run before and again after each set-up
SETUP_CAL_KERNELS = 5
#: least operations a block holds, so each block's p999 has ten
#: samples beyond it
BLOCK_OPS = 10_000


def calibrate() -> int:
    """Host time (ns) of one run of a fixed interpreter kernel."""
    t0 = time.perf_counter_ns()
    table = {}
    for i in range(CAL_ITERS):
        key = i.to_bytes(8, "little")
        table[key] = key + key
    return time.perf_counter_ns() - t0


class Calibrator:
    """Tracks the host's speed while a phase runs.

    The reference hosts are shared VMs that disturb a run in two ways.
    Their virtual CPUs are taken away for 1 to 25 % of the time, in
    bursts that last minutes; the benchmark therefore reads host time on
    the CPU clock of the process doing the work, which stands still
    while the VM is preempted.  And the speed of the CPU time they do
    get drifts by tens of percent; timing a fixed interpreter kernel
    between chunks of work, and scaling each chunk's host times by
    ``CAL_REF_NS / median(kernel times just before and after it)``,
    expresses host time in seconds of the reference host at its usual
    speed.  A program change moves these numbers exactly as it moves the
    CPU time it costs; machine drift largely cancels.
    """

    def __init__(self) -> None:
        self._at: list[int] = []
        self._ns: list[int] = []

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        duration = calibrate()
        self.record(t0 + duration // 2, duration)

    def record(self, at_ns: int, duration_ns: int) -> None:
        """Add a kernel time measured at ``at_ns`` (possibly by another
        process on the same host)."""
        self._at.append(at_ns)
        self._ns.append(duration_ns)

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Scale for host times measured from ``start_ns`` to ``end_ns``."""
        lo = bisect.bisect_left(self._at, start_ns - CAL_SLACK_NS)
        hi = bisect.bisect_right(self._at, end_ns + CAL_SLACK_NS)
        nearby = self._ns[lo:hi]
        if not nearby:
            raise BenchFailure("no calibration next to a chunk of work")
        return CAL_REF_NS / median(nearby)


# -- statistics ----------------------------------------------------------------

def quantile(values, q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1]); inf marks a failed op."""
    ordered = sorted(values)
    if not ordered:
        raise BenchFailure("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return float(ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def block_p999_us(blocks) -> float:
    """The smallest p999 (µs) over blocks of latencies (ns).

    Interference from a shared host only ever adds time, and it lands in
    a different block on every run (the slowest ops of two passes over
    the same inputs do not repeat), so the least disturbed block is the
    steadiest view of the program's own tail."""
    return min(quantile(lat, 0.999) for lat in blocks) / 1e3


def block_summary(blocks) -> dict[str, float]:
    """Closed-loop host metrics over ``(ops, busy_ns, latencies_ns)``
    blocks of ``BLOCK_OPS`` operations: throughput and the median latency
    are medians over the blocks, the p999 is :func:`block_p999_us`."""
    return {
        "host_ops_per_s": median(ops / (busy / 1e9) for ops, busy, _lat in blocks),
        "host_p50_us": median(quantile(lat, 0.5) for _ops, _busy, lat in blocks) / 1e3,
        "host_p999_us": block_p999_us(lat for _ops, _busy, lat in blocks),
    }


# -- set-up and post-run checks --------------------------------------------------

def timed_setups(set_up, n: int, fingerprint) -> tuple[tuple, list[float]]:
    """Run ``set_up`` ``n`` times; it returns a tuple whose first item
    is the store.  Each set-up is timed on the process's CPU clock (set
    up is CPU-bound and never waits, so that is its wall time less the
    time the VM was preempted) and speed-normalized by kernels run just
    before and after it (see :class:`Calibrator`); every store but the
    last is closed, and all must leave the same ``fingerprint(store)``.
    Returns the last set-up's tuple and the seconds of each."""
    state = None
    times: list[float] = []
    seen = set()
    for _ in range(n):
        if state is not None:
            state[0].close()
            state = None
        gc.collect()
        kernels = [calibrate() for _ in range(SETUP_CAL_KERNELS)]
        t0 = time.process_time()
        state = set_up()
        cpu_s = time.process_time() - t0
        kernels += [calibrate() for _ in range(SETUP_CAL_KERNELS)]
        times.append(cpu_s * CAL_REF_NS / median(kernels))
        seen.add(fingerprint(state[0]))
    if len(seen) != 1:
        raise BenchFailure(f"set-ups of one seed differ: {seen}")
    return state, times


def check_store(store, user_bytes: int, label: str = "store") -> None:
    """Post-run checks of one single-store facade; any failure fails the
    run.  ``user_bytes`` is the key and value bytes the benchmark itself
    put into the store: the store must have counted exactly those, and
    its MWA must equal the drive's table bytes over them (WA x AWA with
    both inputs taken from outside the store's own arithmetic)."""
    from repro.errors import InvariantViolation
    from repro.lsm.verify import verify_db
    from repro.smr.stats import CATEGORY_TABLE

    report = verify_db(store.db)
    if not report.ok:
        raise BenchFailure(f"{label}: verify_db: " + "; ".join(report.problems))
    try:
        store.db.check_invariants()
    except InvariantViolation as exc:
        raise BenchFailure(f"{label}: check_invariants: {exc}") from exc
    counted = store.tracker.user_bytes
    if counted != user_bytes:
        raise BenchFailure(f"{label}: store counted {counted} user bytes, "
                           f"the benchmark put {user_bytes}")
    device = store.drive.stats.bytes_written_by_category.get(CATEGORY_TABLE, 0)
    expected = device / user_bytes
    if not math.isclose(store.mwa(), expected, rel_tol=1e-9):
        raise BenchFailure(f"{label}: MWA {store.mwa()!r} != table bytes "
                           f"written / user bytes put {expected!r}")


def peak_rss_mib() -> float:
    """This process's peak resident set (VmHWM)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchFailure("VmHWM not found in /proc/self/status")


def environment() -> dict:
    """What the numbers were measured on."""
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 -- recorded as unknown, never fatal
        numpy_version = None
    commit = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.partition("\n")
        if top and Path(top).resolve() == ROOT:
            commit = head.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": commit,
            "machine": platform.machine()}


# -- metric tables -------------------------------------------------------------

#: end-to-end metrics with a bound: name -> unit
END_TO_END = {
    "host_ops_per_s": "ops/s",
    "host_p50_us": "us",
    "host_p999_us": "us",
    "sim_ops_per_s": "ops/sim_s",
    "sim_p999_ms": "sim_ms",
    "mwa": "ratio",
    "space_amp": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: end-to-end metrics that are printed but carry no bound: failures are
#: the result's ``attempted``/``failed``, and serve-mixed's open-loop
#: p999 is set by the longest server stall, so it spreads too widely
#: between runs on a shared host to be a regression gate
PRINTED_ONLY = {
    "open_p999_us": "us",
    "error_rate": "fraction",
}

#: per-layer metrics of the traced run: name -> unit
PER_LAYER = {
    "net.client.rtt_host_s": "s",
    "net.parse.host_s": "s",
    "net.server.self_host_us_per_req": "us/req",
    "net.requests": "count",
    "net.failed": "count",
    "shard.lock_wait_host_s": "s",
    "shard.route.calls": "count",
    "shard.facade.host_s": "s",
    "shard.sim_balance": "ratio",
    **{f"kvstore.{op}.{field}": unit
       for op in ("put", "get", "scan")
       for field, unit in (("calls", "count"), ("host_s", "s"),
                           ("sim_s", "sim_s"))},
    "lsm.write.self_host_s": "s",
    "lsm.wal.add_record.calls": "count",
    "lsm.wal.add_record.bytes": "bytes",
    "lsm.wal.add_record.host_s": "s",
    "lsm.memtable.add.host_s": "s",
    "lsm.flush.calls": "count",
    "lsm.flush.host_s": "s",
    "lsm.flush.sim_s": "sim_s",
    "lsm.compaction.calls": "count",
    "lsm.compaction.host_s": "s",
    "lsm.compaction.self_host_s": "s",
    "lsm.compaction.sim_s": "sim_s",
    "lsm.compaction.bytes_in": "bytes",
    "lsm.compaction.bytes_out": "bytes",
    "lsm.sstable_build.host_s": "s",
    "lsm.bloom.build.host_s": "s",
    "lsm.stall.host_s": "s",
    "lsm.get.self_host_s": "s",
    "lsm.memtable.get.host_s": "s",
    "lsm.table_get.calls": "count",
    "lsm.table_get.host_s": "s",
    "lsm.table_get.per_get": "ratio",
    "lsm.bloom.probe.calls": "count",
    "lsm.bloom.negative_ratio": "ratio",
    "lsm.cache.lookups": "count",
    "lsm.cache.hit_ratio": "ratio",
    "lsm.block_seek.host_s": "s",
    "lsm.cpu_sim_s": "sim_s",
    "core.write_files.calls": "count",
    "core.write_files.bytes": "bytes",
    "core.write_files.host_s": "s",
    "core.write_files.sim_s": "sim_s",
    "core.band.allocate.calls": "count",
    "core.band.allocate.host_s": "s",
    "core.band.free.calls": "count",
    "core.freespace.reuse_ratio": "ratio",
    "core.occupied_bytes": "bytes",
    "core.read_file.calls": "count",
    "core.read_file.bytes": "bytes",
    "core.read_file.host_s": "s",
    "core.read_file.sim_s": "sim_s",
    **{f"smr.{op}.{field}": unit
       for op in ("read", "write", "write_buffered")
       for field, unit in (("calls", "count"), ("bytes", "bytes"),
                           ("sim_s", "sim_s"))},
    "smr.trim.calls": "count",
    "smr.seek.sim_s": "sim_s",
    "smr.host_s": "s",
    "trace.overhead_ops_per_s": "ops/s",
    "loadgen.open_late_p99_us": "us",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"),
                        *(ROOT / "perfbench").glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeatable(workload: str, seed: int, seconds: int,
                     fingerprint: tuple) -> None:
    """Fail unless ``fingerprint`` (the simulated metrics) equals what
    every earlier run of this seed, run length and source recorded.

    Runs share ``.bench_build/perfbench/fingerprints.json``; the source
    digest in the key keeps a changed program from being compared with
    its parent."""
    path = SPAN_DIR / "fingerprints.json"
    key = f"{workload}/{seed}/{seconds}/{_source_digest()}"
    try:
        seen = json.loads(path.read_text())
    except FileNotFoundError:
        seen = {}
    if key in seen and seen[key] != list(fingerprint):
        raise BenchFailure(
            f"simulated outputs of seed {seed} changed between runs of the "
            f"same source: {seen[key]} before, {list(fingerprint)} now")
    seen[key] = list(fingerprint)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(path)


def traced_result(base: dict, traced: dict, layers: dict, num_spans: int) -> dict:
    """A ``--trace 1`` run: the end-to-end table of the untraced pass,
    the per-layer metrics of the traced pass, both passes' op counts."""
    return {
        "e2e": base["e2e"],
        "open_p999_us": base.get("open_p999_us"),
        "attempted": base["attempted"] + traced["attempted"],
        "failed": base["failed"] + traced["failed"],
        "raw_ops_per_s": base["raw_ops_per_s"],
        "late_p99_us": base["late_p99_us"],
        "layers": layers,
        "num_spans": num_spans,
    }


def layer_metrics(traces: list[dict], extra: dict) -> dict[str, float]:
    """Per-layer metrics from the recorder summaries of every process
    in the run; ``extra`` supplies gauges read outside the spans
    (occupied bytes, shard balance, server self time, load counts)."""
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    for trace in traces:
        for name, entry in trace["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(entry, 0))
            for field, value in entry.items():
                acc[field] += value
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def calls(name: str) -> float:
        # iterator-returning calls are counted on the call, not per step
        return counts.get(name + ".calls", span(name, "calls"))

    out: dict[str, float] = {
        "net.client.rtt_host_s": span("net.client.request", "host_s"),
        "net.parse.host_s": (span("net.parse.feed", "host_s")
                             + span("net.parse.next_request", "host_s")),
        "shard.lock_wait_host_s": counts.get("shard.lock_wait_ns", 0) / 1e9,
        "shard.route.calls": counts.get("shard.route.calls", 0),
        "shard.facade.host_s": sum(span(f"shard.{op}", "self_s")
                                   for op in ("get", "put", "scan")),
        "lsm.write.self_host_s": span("lsm.write", "self_s"),
        "lsm.wal.add_record.calls": span("lsm.wal.add_record", "calls"),
        "lsm.wal.add_record.bytes": counts.get("lsm.wal.add_record.bytes", 0),
        "lsm.wal.add_record.host_s": span("lsm.wal.add_record", "host_s"),
        "lsm.memtable.add.host_s": span("lsm.memtable.add", "host_s"),
        "lsm.compaction.self_host_s": span("lsm.compaction", "self_s"),
        "lsm.compaction.bytes_in": counts.get("lsm.compaction.bytes_in", 0),
        "lsm.compaction.bytes_out": counts.get("lsm.compaction.bytes_out", 0),
        "lsm.sstable_build.host_s": (span("lsm.sstable_build.add", "host_s")
                                     + span("lsm.sstable_build.finish", "host_s")),
        "lsm.bloom.build.host_s": span("lsm.bloom.build", "host_s"),
        "lsm.stall.host_s": counts.get("lsm.stall_ns", 0) / 1e9,
        "lsm.get.self_host_s": span("lsm.get", "self_s"),
        "lsm.memtable.get.host_s": span("lsm.memtable.get", "host_s"),
        "lsm.table_get.calls": span("lsm.table_get", "calls"),
        "lsm.table_get.host_s": span("lsm.table_get", "host_s"),
        "lsm.table_get.per_get": _ratio(span("lsm.table_get", "calls"),
                                        span("lsm.get", "calls")),
        "lsm.bloom.probe.calls": counts.get("lsm.bloom.probes", 0),
        "lsm.bloom.negative_ratio": _ratio(counts.get("lsm.bloom.negatives", 0),
                                           counts.get("lsm.bloom.probes", 0)),
        "lsm.cache.lookups": counts.get("lsm.cache.lookups", 0),
        "lsm.cache.hit_ratio": _ratio(counts.get("lsm.cache.hits", 0),
                                      counts.get("lsm.cache.lookups", 0)),
        "lsm.block_seek.host_s": span("lsm.block_seek", "host_s"),
        "lsm.cpu_sim_s": counts.get("lsm.cpu_sim_s", 0),
        "core.band.allocate.calls": span("core.band.allocate", "calls"),
        "core.band.allocate.host_s": span("core.band.allocate", "host_s"),
        "core.band.free.calls": counts.get("core.band.free.calls", 0),
        "core.freespace.reuse_ratio": _ratio(
            counts.get("core.freespace.reuse", 0),
            span("core.band.allocate", "calls")),
        "smr.trim.calls": counts.get("smr.trim.calls", 0),
        "smr.seek.sim_s": counts.get("smr.seek.sim_s", 0),
        "smr.host_s": sum(span(f"smr.{op}", "host_s")
                          for op in ("read", "write", "write_buffered")),
    }
    for op in ("put", "get", "scan"):
        name = f"kvstore.{op}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.host_s"] = span(name, "host_s")
        out[f"{name}.sim_s"] = span(name, "sim_s")
    for name in ("lsm.flush", "lsm.compaction"):
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.host_s"] = span(name, "host_s")
        out[f"{name}.sim_s"] = span(name, "sim_s")
    for name in ("core.write_files", "core.read_file"):
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.bytes"] = counts.get(f"{name}.bytes", 0)
        out[f"{name}.host_s"] = span(name, "host_s")
        out[f"{name}.sim_s"] = span(name, "sim_s")
    for op in ("read", "write", "write_buffered"):
        name = f"smr.{op}"
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.bytes"] = counts.get(f"{name}.bytes", 0)
        out[f"{name}.sim_s"] = span(name, "sim_s")
    out.update(extra)
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise BenchFailure(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: out[name] for name in PER_LAYER}
