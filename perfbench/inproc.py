"""The in-process workloads: ``fill-random`` and ``read-uniform``.

Both run one SEALDB store at ``DEFAULT_PROFILE`` (1 MiB block cache)
inside this process.  A pass is: set up (open, and for read-uniform
preload), a timed closed-loop phase (next op as soon as the last
returns) in blocks of ``BLOCK_OPS``, then checks that are not timed.
"""

from __future__ import annotations

import time

from common import (
    BLOCK_OPS,
    END_TO_END,
    ENTRY_SIZE,
    KEY_SIZE,
    SPAN_DIR,
    VALUE_SIZE,
    BenchFailure,
    Calibrator,
    MiB,
    block_summary,
    check_repeatable,
    check_store,
    key_of,
    layer_metrics,
    median,
    peak_rss_mib,
    quantile,
    rng_for,
    timed_setups,
    traced_result,
)

FILL = "fill-random"
READ = "read-uniform"

#: operations per unit of ``--seconds``: a fixed count, so simulated
#: results never depend on the host.  On the reference host that is
#: about one second of work for fill-random (5,300 puts/s) and one and
#: a third for read-uniform (7,500 gets/s)
OPS_PER_SECOND = {FILL: 5000, READ: 10000}
#: operations between two calibrations (about 50 ms of fill-random
#: work, 65 ms of read-uniform work)
CHUNK = {FILL: 250, READ: 500}
#: set-ups per untraced run; setup_s is their median
SETUPS = {FILL: 5, READ: 3}
#: fill-random's values are smaller than the profile's 100 bytes: with
#: 100-byte values one put in ~1,000 triggers a compaction, exactly the
#: p999 rank, so p999 would flip between compaction and flush stalls
#: from seed to seed; at 64 bytes it is a flush stall and compactions
#: show in throughput and the per-layer stall time
FILL_VALUE_SIZE = 64
#: read-uniform's database: about four times the block cache
READ_DB_BYTES = 4 * MiB
READ_ABSENT_SHARE = 0.1


def _read_db_keys() -> int:
    return READ_DB_BYTES // ENTRY_SIZE


def _space_amp(store, live_bytes: int) -> float:
    return store.storage.manager.occupied_bytes() / live_bytes


def _setup(workload: str, seed: int):
    """Open the store (and preload it); returns ``(store, model, space
    amplification after every ``BLOCK_OPS`` writes and at the end, key
    and value bytes put)``."""
    import repro

    store = repro.open("sealdb", shards=1)
    model: dict[bytes, bytes] = {}
    space: list[float] = []
    put_bytes = 0
    if workload == READ:
        rng = rng_for(workload, seed, "load")
        order = list(range(_read_db_keys()))
        rng.shuffle(order)
        for n, i in enumerate(order, 1):
            key, value = key_of(2 * i), rng.randbytes(VALUE_SIZE)
            store.put(key, value)
            model[key] = value
            put_bytes += len(key) + len(value)
            if n % BLOCK_OPS == 0:
                space.append(_space_amp(store, n * ENTRY_SIZE))
        store.flush()
        space.append(_space_amp(store, len(model) * ENTRY_SIZE))
        # warm-up: opening every table is lazy set-up, not read cost;
        # one full scan opens them all and checks the load
        if list(store.scan()) != sorted(model.items()):
            raise BenchFailure("scan after the load does not match it")
    return store, model, space, put_bytes


def _fingerprint(store) -> tuple:
    return (store.now, store.mwa(), store.storage.manager.occupied_bytes())


def _make_ops(workload: str, seed: int, seconds: int) -> list:
    """The timed phase's inputs, generated before timing: whole blocks
    of ``BLOCK_OPS``, at least three, about ``seconds`` of work."""
    blocks = max(3, round(seconds * OPS_PER_SECOND[workload] / BLOCK_OPS))
    n = blocks * BLOCK_OPS
    rng = rng_for(workload, seed, "ops")
    if workload == FILL:
        ids = list(range(n))
        rng.shuffle(ids)
        return [(key_of(i), rng.randbytes(FILL_VALUE_SIZE)) for i in ids]
    n_keys = _read_db_keys()
    return [key_of(2 * rng.randrange(n_keys) + (rng.random() < READ_ABSENT_SHARE))
            for _ in range(n)]


def _timed_phase(store, workload: str, ops: list, model: dict):
    """Closed loop: each op starts when the previous returns.  Returns
    host service times (ns, speed-normalized, on the CPU clock),
    simulated latencies, per-block ``(ops, busy ns)``, the raw wall time
    of the phase and (fill-random) the space amplification at every
    block end.

    Host times are read on this thread's CPU clock: each chunk's busy
    time is its CPU time, and each op's wall time is scaled by its
    chunk's CPU time over its wall time, so time the VM was preempted
    does not count (``common.Calibrator``)."""
    clock = store.drive.clock
    perf = time.perf_counter_ns
    cpu = time.thread_time_ns
    chunk = CHUNK[workload]
    cal = Calibrator()
    raw: list[int] = []
    sim: list[float] = []
    chunks: list[tuple[int, int, int]] = []
    space: list[float] = []
    cal.sample()
    for c in range(0, len(ops), chunk):
        part = ops[c:c + chunk]
        c0 = cpu()
        t0 = perf()
        if workload == FILL:
            put = store.put
            for key, value in part:
                h0 = perf()
                s0 = clock.now
                put(key, value)
                sim.append(clock.now - s0)
                raw.append(perf() - h0)
        else:
            get = store.get
            expected = model.get
            for key in part:
                h0 = perf()
                s0 = clock.now
                value = get(key)
                sim.append(clock.now - s0)
                raw.append(perf() - h0)
                if value != expected(key):
                    raise BenchFailure(f"GET {key!r} returned a wrong value")
        t1 = perf()
        chunks.append((t0, t1, cpu() - c0))
        cal.sample()
        done = c + len(part)
        if workload == FILL and done % BLOCK_OPS == 0:
            space.append(_space_amp(store, done * (KEY_SIZE + FILL_VALUE_SIZE)))
    factors = [cal.factor(t0, t1) for t0, t1, _ in chunks]
    scales = [f * cpu_ns / (t1 - t0)
              for (t0, t1, cpu_ns), f in zip(chunks, factors)]
    service = [ns * scales[i // chunk] for i, ns in enumerate(raw)]
    busy = [cpu_ns * f for (_, _, cpu_ns), f in zip(chunks, factors)]
    per_block = BLOCK_OPS // chunk
    blocks = [(BLOCK_OPS, sum(busy[b:b + per_block]))
              for b in range(0, len(busy), per_block)]
    return service, sim, blocks, sum(t1 - t0 for t0, t1, _ in chunks), space


def run_pass(workload: str, seed: int, seconds: int, setups: int,
             recorder=None) -> dict:
    """One complete pass; with ``recorder`` the timed phases are traced."""
    (store, model, space, put_bytes), setup_times = timed_setups(
        lambda: _setup(workload, seed), setups, _fingerprint)

    ops = _make_ops(workload, seed, seconds)
    clock = store.drive.clock
    sim_start = clock.now
    if recorder is not None:
        from tracer import install_store_layers
        install_store_layers(recorder)
    try:
        service, sim, blocks, raw_ns, fill_space = _timed_phase(
            store, workload, ops, model)
        if workload == FILL:
            store.flush()
    finally:
        trace = (recorder.finish(SPAN_DIR / f"spans-{workload}.npz")
                 if recorder is not None else None)
    sim_elapsed = clock.now - sim_start
    if workload == FILL:
        model = dict(ops)
        put_bytes += sum(len(key) + len(value) for key, value in ops)
    if list(store.scan()) != sorted(model.items()):
        raise BenchFailure("full scan does not match the expected contents")
    check_store(store, put_bytes)

    occupied = store.storage.manager.occupied_bytes()
    space = fill_space or space
    host = block_summary([(n, busy, service[i * BLOCK_OPS:(i + 1) * BLOCK_OPS])
                          for i, (n, busy) in enumerate(blocks)])
    e2e = {
        **host,
        "sim_ops_per_s": len(ops) / sim_elapsed,
        "sim_p999_ms": quantile(sim, 0.999) * 1e3,
        "mwa": store.mwa(),
        "space_amp": median(space),
        "setup_s": median(setup_times),
        "peak_rss_mib": peak_rss_mib(),
    }
    store.close()
    return {
        "e2e": {name: e2e[name] for name in END_TO_END},
        "attempted": len(ops),
        "failed": 0,
        "raw_ops_per_s": len(ops) / (raw_ns / 1e9),
        "late_p99_us": 0.0,
        "occupied_bytes": occupied,
        "trace": trace,
        "fingerprint": tuple(e2e[k] for k in ("sim_ops_per_s", "sim_p999_ms",
                                              "mwa", "space_amp")),
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Untraced: one pass.  Traced: an untraced and a traced pass; the
    simulated metrics of every pass must repeat exactly, within the run
    and across runs of the same seed."""
    if not trace:
        result = run_pass(workload, seed, seconds, SETUPS[workload])
        check_repeatable(workload, seed, seconds, result["fingerprint"])
        return result
    from tracer import Recorder

    base = run_pass(workload, seed, seconds, 1)
    check_repeatable(workload, seed, seconds, base["fingerprint"])
    traced = run_pass(workload, seed, seconds, 1, recorder=Recorder())
    check_repeatable(workload, seed, seconds, traced["fingerprint"])
    extra = {
        "net.server.self_host_us_per_req": 0.0,
        "net.requests": 0,
        "net.failed": 0,
        "shard.sim_balance": 0.0,
        "core.occupied_bytes": traced["occupied_bytes"],
        "trace.overhead_ops_per_s": (traced["e2e"]["host_ops_per_s"]
                                     - base["e2e"]["host_ops_per_s"]),
        "loadgen.open_late_p99_us": traced["late_p99_us"],
    }
    return traced_result(base, traced, layer_metrics([traced["trace"]], extra),
                         traced["trace"]["num_spans"])
