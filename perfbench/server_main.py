"""Server entry point of ``serve-mixed`` (started by ``serve.py``).

    python3 perfbench/server_main.py --seed 1 --setups 3 --trace 0

Sets the 2-shard SEALDB store up ``--setups`` times (open and preload,
each timed), serves the last one with ``repro.net.server.KVServer`` on
an ephemeral loopback port, and talks to its parent through JSON lines
on stdout and commands on stdin:

* stdout ``{"ready": ...}``: port and set-up times;
* stdin ``cal`` (sent between rounds, nothing in flight): reply
  ``{"cal": ...}`` with the time of one host-speed calibration kernel
  run in this process, the store's occupied bytes, and this process's
  CPU time (all threads) before and after taking those two;
* stdin ``mark <bytes>``: the timed phases are over and the generator
  has had ``<bytes>`` of keys and values acknowledged (preload
  included); reply ``{"marked": ...}`` with per-shard simulated clocks,
  the simulated latency tail, the event loop's CPU time and (traced)
  the span summary;
* stdin closed: graceful drain, then post-run checks, then
  ``{"report": ...}`` with MWA, occupied bytes and peak RSS -- numbers
  ``INFO`` does not expose.

In both passes the server fronts a thin store proxy that records each
request's simulated latency on the owning shard's clock and counts the
bytes put into each shard (about 1.3 us of host time per request,
under half a percent of one).  Traced (``--trace 1``), the same wrappers
as the in-process runs are installed too, plus the server-side wire
parser.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
import threading
import time

from common import (
    SPAN_DIR,
    BenchFailure,
    calibrate,
    check_store,
    key_of,
    peak_rss_mib,
    quantile,
    timed_setups,
    use_checkout_source,
)


def _emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


class _Materialized:
    """A finished scan: its pairs plus the sharded scan's ``partial``."""

    def __init__(self, pairs, partial: bool) -> None:
        self._pairs = pairs
        self.partial = partial

    def __iter__(self):
        return iter(self._pairs)


class _SimTimed:
    """Store proxy recording each request's simulated latency and the
    key and value bytes put into each shard.

    A keyed request is timed on the clock of the shard that owns the key
    (the server holds that shard's lock around the call); a scan, which
    holds every shard's lock, on the furthest-moving shard clock.
    """

    def __init__(self, store, put_bytes: dict[int, int]) -> None:
        self._store = store
        self.sim_latencies: list[float] = []
        #: ``id(shard)`` -> bytes put, the preload included
        self.put_bytes = put_bytes

    def __getattr__(self, name):
        return getattr(self._store, name)

    def get(self, key: bytes):
        shard = self._store.shard_for(key)
        t0 = shard.now
        try:
            return self._store.get(key)
        finally:
            self.sim_latencies.append(shard.now - t0)

    def put(self, key: bytes, value: bytes) -> None:
        shard = self._store.shard_for(key)
        t0 = shard.now
        try:
            self._store.put(key, value)
        finally:
            self.sim_latencies.append(shard.now - t0)
        self.put_bytes[id(shard)] += len(key) + len(value)

    def scan(self, start=None, end=None, limit=None):
        shards = self._store.shards
        t0 = [shard.now for shard in shards]
        scan = self._store.scan(start, end, limit)
        try:
            pairs = list(scan)
        finally:
            scan.close()
        self.sim_latencies.append(
            max(shard.now - t for shard, t in zip(shards, t0)))
        return _Materialized(pairs, scan.partial)


def _occupied(store) -> int:
    return sum(shard.storage.manager.occupied_bytes() for shard in store.shards)


def _set_up(seed: int, setups: int):
    """The timed set-ups; returns the store, the set-up times and the
    preload's bytes per shard (``id(shard)`` -> bytes)."""
    import repro
    from serve import SHARDS, preload_pairs

    pairs = [(key_of(i), value) for i, value in preload_pairs(seed)]

    def set_up():
        store = repro.open("sealdb", shards=SHARDS)
        for key, value in pairs:
            store.put(key, value)
        store.flush()
        return (store,)

    (store,), times = timed_setups(
        set_up, setups, lambda s: tuple(shard.now for shard in s.shards))
    put_bytes = {id(shard): 0 for shard in store.shards}
    for key, value in pairs:
        put_bytes[id(store.shard_for(key))] += len(key) + len(value)
    return store, times, put_bytes


async def _serve(store, setup_times: list[float], target: _SimTimed,
                 traced: bool) -> dict:
    from repro.net.server import KVServer, ServerConfig

    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def read_commands() -> None:
        for line in sys.stdin:
            if line.strip() == "cal":
                # between rounds nothing is in flight, so this thread has
                # the interpreter and the store to itself
                cpu0 = time.process_time_ns()
                occupied = _occupied(store)
                ns = calibrate()
                _emit({"cal": {"ns": ns, "occupied": occupied, "cpu0": cpu0,
                               "cpu1": time.process_time_ns()}})
            else:
                loop.call_soon_threadsafe(commands.put_nowait, line.strip())
        loop.call_soon_threadsafe(commands.put_nowait, "stop")

    recorder = None
    if traced:
        from tracer import Recorder, install_server_parser, install_store_layers
        recorder = Recorder()
        install_store_layers(recorder)
        install_server_parser(recorder)
    clocks0 = [shard.now for shard in store.shards]
    server = KVServer(target, ServerConfig())
    try:
        _host, port = await server.start()
        threading.Thread(target=read_commands, daemon=True).start()
        cpu0 = time.thread_time()
        _emit({"ready": {"port": port, "setup_s": setup_times}})
        mark = None
        while (command := await commands.get()) != "stop":
            name, _, acked = command.partition(" ")
            if name != "mark" or mark is not None:
                continue
            loop_cpu = time.thread_time() - cpu0
            trace = (recorder.finish(SPAN_DIR / "spans-serve-mixed-server.npz")
                     if recorder is not None else None)
            mark = {
                "shard_sim_s": [shard.now - t0
                                for shard, t0 in zip(store.shards, clocks0)],
                "sim_p999_ms": quantile(target.sim_latencies, 0.999) * 1e3,
                "acked_bytes": int(acked),
                "loop_cpu_s": loop_cpu,
                "server_requests":
                    server.obs.metrics.counters["net.requests"].value,
                "trace": trace,
            }
            _emit({"marked": mark})
        if mark is None:
            raise BenchFailure("stopped before the timed phases were marked")
    finally:
        if recorder is not None:
            recorder.uninstall()
        await server.stop()
    return mark


def _check(store, put_bytes: dict[int, int], acked_bytes: int) -> None:
    """Post-run checks of every shard and of the merged MWA against the
    bytes the proxy put and the generator saw acknowledged."""
    from repro.smr.stats import CATEGORY_TABLE

    for index, shard in enumerate(store.shards):
        check_store(shard, put_bytes[id(shard)], f"shard {index}")
    total = sum(put_bytes.values())
    if total != acked_bytes:
        raise BenchFailure(f"the server put {total} bytes, the generator "
                           f"saw {acked_bytes} acknowledged")
    device = sum(shard.drive.stats.bytes_written_by_category.get(CATEGORY_TABLE, 0)
                 for shard in store.shards)
    if not math.isclose(store.mwa(), device / total, rel_tol=1e-9):
        raise BenchFailure(f"store MWA {store.mwa()!r} != table bytes "
                           f"written / user bytes put {device / total!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        use_checkout_source()
        store, setup_times, put_bytes = _set_up(args.seed, args.setups)
        target = _SimTimed(store, put_bytes)
        mark = asyncio.run(_serve(store, setup_times, target, bool(args.trace)))
        _check(store, put_bytes, mark["acked_bytes"])
        report = {
            "mwa": store.mwa(),
            "occupied_bytes": _occupied(store),
            "peak_rss_mib": peak_rss_mib(),
        }
        store.close()
    except BenchFailure as exc:
        _emit({"error": str(exc)})
        return 1
    _emit({"report": report})
    return 0


if __name__ == "__main__":
    sys.exit(main())
