"""The ``serve-mixed`` workload: a 2-shard store behind the RESP server.

The server runs in its own process (``server_main.py``), so client and
server do not share one interpreter lock.  This process is the load
generator: one thread, one selector, ``CONNECTIONS`` sockets.  Each
connection owns a disjoint, contiguous key partition and never has two
requests in flight on one key, so every reply is exactly predictable
from the connection's own model and is checked.

Phases: a closed loop (``WINDOW`` requests in flight per connection,
each refilled as soon as its reply is in, each request timed from its
own send to its own reply), then an open loop at the fixed
``OPEN_RATE`` (each request timed from when it was due), then an
untimed read-back of every partition through ``NetClient``.  Both
timed phases run in rounds of ``ROUND`` requests with a calibration of
the server's host speed between rounds, and are summarized over blocks
of ``BLOCK_OPS`` requests (``common.block_summary``).

The closed loop's host times are read on the server's CPU clock.  The
server is bound by one interpreter core, so on an undisturbed host its
CPU time and the wall time of the loop agree; but the reference hosts
are VMs whose virtual CPUs are taken away for 1 to 25 % of the time,
which stretches wall time by up to half (the preempted thread holds the
interpreter lock, so every other server thread waits too) while the CPU
clock stands still.  Each round's throughput is its requests per server
CPU second, and each request's latency is its wall latency times the
round's server CPU time over its wall time.  Time the server spends
idle without being preempted (waiting on a lock, say) is hidden from
these three metrics too; ``shard.lock_wait_host_s`` and the printed
wall rate show it.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import time
from collections import deque

from common import (
    BLOCK_OPS,
    END_TO_END,
    ENTRY_SIZE,
    ROOT,
    SPAN_DIR,
    VALUE_SIZE,
    BenchFailure,
    Calibrator,
    MiB,
    block_p999_us,
    block_summary,
    calibrate,
    key_of,
    layer_metrics,
    median,
    quantile,
    rng_for,
    traced_result,
)

WORKLOAD = "serve-mixed"
SHARDS = 2
#: no more connections than cores
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: requests in flight per connection in the closed loop
WINDOW = 8
#: keyspace that fits the cache: about 0.7 MiB per shard, 1 MiB cache
KEYS = int(0.7 * MiB * SHARDS) // ENTRY_SIZE
SET_SHARE = 0.50
SCAN_SHARE = 0.02
SCAN_LIMIT = 10
#: closed-loop requests/s of the seed commit on the reference host
#: (speed-normalized); only sizes the fixed request count from
#: ``--seconds``
CLOSED_RATE = 3500
#: offered rate of the open loop: about half the seed commit's
#: closed-loop ceiling of 3,200 wall requests/s (2 connections x 8 in
#: flight on the reference host)
OPEN_RATE = 1600
#: open-loop blocks of ``BLOCK_OPS`` requests per run: each block's p999
#: is set by its longest server stall, so the least disturbed of three
#: blocks is taken
OPEN_BLOCKS = 3
#: requests between two calibrations (taken with nothing in flight)
ROUND = 400
SETUPS = 3
#: seconds to wait on the server before the run is failed
SERVER_TIMEOUT = 120.0

_SET, _GET, _SCAN = 0, 1, 2


def preload_pairs(seed: int) -> list[tuple[int, bytes]]:
    """``(key id, value)`` of the preload, in load order."""
    rng = rng_for(WORKLOAD, seed, "load")
    order = list(range(KEYS))
    rng.shuffle(order)
    return [(i, rng.randbytes(VALUE_SIZE)) for i in order]


class _Conn:
    """One connection of the generator, with its partition's model."""

    def __init__(self, port: int, lo: int, hi: int,
                 model: dict[int, bytes], rng) -> None:
        from repro.net.protocol import RespParser

        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.parser = RespParser()
        self.lo, self.hi = lo, hi
        self.model = model
        self.rng = rng
        self.busy: set[int] = set()
        self.unknown: set[int] = set()
        #: in-flight requests in send order: [kind, id, value, t0]
        self.pending: deque = deque()
        self.out: list[bytes] = []
        self.queued: list[list] = []
        #: key and value bytes of the acknowledged SETs
        self.acked_bytes = 0

    def _pick(self, kind: int) -> int:
        rng, busy = self.rng, self.busy
        for _ in range(1000):
            if kind == _SCAN:
                first = rng.randrange(self.lo, self.hi - SCAN_LIMIT + 1)
                if busy.isdisjoint(range(first, first + SCAN_LIMIT)):
                    return first
            else:
                key_id = rng.randrange(self.lo, self.hi)
                if key_id not in busy:
                    return key_id
        raise BenchFailure("load generator found no idle key")

    def queue(self) -> None:
        """Encode the next request; it is sent by :meth:`flush`."""
        from repro.net.protocol import encode_command

        r = self.rng.random()
        kind = _SCAN if r < SCAN_SHARE else _SET if r < SCAN_SHARE + SET_SHARE else _GET
        key_id = self._pick(kind)
        value = None
        if kind == _SET:
            value = self.rng.randbytes(VALUE_SIZE)
            self.out.append(encode_command([b"SET", key_of(key_id), value]))
            self.busy.add(key_id)
        elif kind == _GET:
            self.out.append(encode_command([b"GET", key_of(key_id)]))
            self.busy.add(key_id)
        else:
            self.out.append(encode_command(
                [b"SCAN", key_of(key_id), key_of(self.hi), b"%d" % SCAN_LIMIT]))
            self.busy.update(range(key_id, key_id + SCAN_LIMIT))
        request = [kind, key_id, value, 0]
        self.pending.append(request)
        self.queued.append(request)

    def flush(self, t0: int | None = None) -> None:
        """Send the queued requests; they are timed from ``t0`` (a due
        time) or, by default, from now."""
        if not self.out:
            return
        stamp = time.perf_counter_ns() if t0 is None else t0
        for request in self.queued:
            request[3] = stamp
        self.queued = []
        payload = b"".join(self.out)
        self.out = []
        try:
            self.sock.sendall(payload)
        except OSError as exc:
            raise BenchFailure(f"send failed: {exc}") from exc

    def replies(self) -> list[tuple[list, object]]:
        """Receive what is available; returns ``(request, reply)`` pairs."""
        try:
            data = self.sock.recv(1 << 16)
        except OSError as exc:
            raise BenchFailure(f"receive failed: {exc}") from exc
        if not data:
            raise BenchFailure("server closed a connection mid-run")
        self.parser.feed(data)
        done = []
        while True:
            reply = self.parser.next_value()
            if reply is None:
                return done
            done.append((self.pending.popleft(), reply))

    def check(self, request: list, reply) -> bool:
        """Check one reply against the model; False for an error reply."""
        from repro.net.protocol import RespError

        kind, key_id, value, _t0 = request
        if kind == _SCAN:
            self.busy.difference_update(range(key_id, key_id + SCAN_LIMIT))
        else:
            self.busy.discard(key_id)
        if isinstance(reply, RespError):
            if kind == _SET:
                self.unknown.add(key_id)
            return False
        if kind == _SET:
            if reply != "OK":
                raise BenchFailure(f"SET {key_id} replied {reply!r}")
            self.model[key_id] = value
            self.unknown.discard(key_id)
            self.acked_bytes += len(key_of(key_id)) + len(value)
        elif kind == _GET:
            if key_id not in self.unknown and reply != self.model[key_id]:
                raise BenchFailure(f"GET {key_id} returned a wrong value")
        else:
            if not isinstance(reply, list) or len(reply) != 2:
                raise BenchFailure(f"SCAN {key_id} replied {reply!r}")
            partial, flat = reply
            if partial:
                return False
            self._check_pairs(key_id, min(key_id + SCAN_LIMIT, self.hi),
                              [(flat[i], flat[i + 1])
                               for i in range(0, len(flat), 2)])
        return True

    def _check_pairs(self, first: int, end: int, pairs) -> None:
        if [key for key, _ in pairs] != [key_of(i) for i in range(first, end)]:
            raise BenchFailure(f"SCAN from {first} returned the wrong keys")
        for i, (_key, value) in zip(range(first, end), pairs):
            if i not in self.unknown and value != self.model[i]:
                raise BenchFailure(f"SCAN returned a wrong value for {i}")

    def read_back(self, port: int) -> None:
        """Untimed: page through the whole partition with ``NetClient``."""
        from repro.net.client import NetClient

        with NetClient("127.0.0.1", port) as client:
            first = self.lo
            while first < self.hi:
                pairs, partial = client.scan(key_of(first), key_of(self.hi), 1000)
                if partial or not pairs:
                    raise BenchFailure("read-back scan was partial or empty")
                end = first + len(pairs)
                self._check_pairs(first, end, pairs)
                first = end

    def close(self) -> None:
        self.sock.close()


class _Load:
    """Outcomes of one round of requests."""

    def __init__(self) -> None:
        self.latency: list[float] = []
        self.late: list[int] = []
        self.failed = 0
        self.spans: list[tuple[int, int]] = []
        self.start = time.perf_counter_ns()
        self.end = self.start
        #: server CPU time (ns) spent on this round
        self.server_cpu = 0

    def done(self, conn: _Conn, request: list, reply, now: int) -> None:
        if conn.check(request, reply):
            self.latency.append(now - request[3])
        else:
            self.failed += 1
            self.latency.append(float("inf"))
        self.spans.append((request[3], now))


def _receive(sel, load: _Load, timeout: float, on_reply=None) -> None:
    for key, _mask in sel.select(timeout):
        conn = key.data
        received = conn.replies()
        now = time.perf_counter_ns()
        for request, reply in received:
            load.done(conn, request, reply, now)
            if on_reply is not None:
                on_reply(conn)
        conn.flush()


def _wait_idle(conns, sel, load: _Load, on_reply=None) -> None:
    """Receive until nothing is in flight; ``on_reply(conn)`` runs after
    each reply and may queue the next request."""
    while any(conn.pending for conn in conns):
        if not sel.select(30.0):
            raise BenchFailure("no reply from the server for 30 s")
        _receive(sel, load, 0.0, on_reply)


def _closed_round(conns, sel, n: int) -> _Load:
    """``n`` requests, ``WINDOW`` in flight per connection, each timed
    from its own send to its own reply."""
    load = _Load()
    quota = {id(conn): n // len(conns) for conn in conns}
    quota[id(conns[0])] += n % len(conns)

    def refill(conn: _Conn) -> None:
        if quota[id(conn)] > 0:
            conn.queue()
            quota[id(conn)] -= 1

    for conn in conns:
        for _ in range(WINDOW):
            refill(conn)
        conn.flush()
    _wait_idle(conns, sel, load, refill)
    if len(load.latency) != n:
        raise BenchFailure(f"closed round ran {len(load.latency)} of {n} requests")
    load.end = time.perf_counter_ns()
    return load


def _open_round(conns, sel, n: int, rate: float) -> _Load:
    """``n`` requests due every ``1/rate`` s whatever the replies do,
    each timed from when it was due; ``late`` records how far behind
    its schedule the generator sent."""
    load = _Load()
    interval = 1e9 / rate
    start = load.start
    for j in range(n):
        due = start + int(j * interval)
        while (now := time.perf_counter_ns()) < due:
            _receive(sel, load, (due - now) / 1e9)
        conn = conns[j % len(conns)]
        conn.queue()
        conn.flush(t0=due)
        load.late.append(time.perf_counter_ns() - due)
    _wait_idle(conns, sel, load)
    load.end = time.perf_counter_ns()
    return load


def _phase(server: "_Server", cal: Calibrator, rounds: int,
           run_round) -> list[_Load]:
    """Rounds of load with a calibration of the server's host speed
    between rounds, while no request is in flight."""
    loads = []
    for _ in range(rounds):
        load = run_round()
        load.server_cpu = server.calibrate(cal)
        loads.append(load)
    return loads


def _blocks(loads: list[_Load], cal: Calibrator, cpu_clock: bool):
    """Speed-normalized ``(ops, busy ns, latencies)`` per block, on the
    server's CPU clock or, without ``cpu_clock``, on the wall clock."""
    per_block = BLOCK_OPS // ROUND
    blocks = []
    for b in range(0, len(loads), per_block):
        ops, busy, latency = 0, 0.0, []
        for load in loads[b:b + per_block]:
            factor = cal.factor(load.start, load.end)
            wall = load.end - load.start
            if cpu_clock:
                busy += load.server_cpu * factor
                factor *= load.server_cpu / wall
            else:
                busy += wall * factor
            ops += len(load.latency)
            latency += [ns * factor for ns in load.latency]
        if ops != BLOCK_OPS:
            raise BenchFailure(f"a block holds {ops} requests, not {BLOCK_OPS}")
        blocks.append((ops, busy, latency))
    return blocks


class _Server:
    """The server process and its line-oriented control channel."""

    def __init__(self, seed: int, traced: bool) -> None:
        cmd = [sys.executable, str(ROOT / "perfbench" / "server_main.py"),
               "--seed", str(seed), "--setups", str(1 if traced else SETUPS),
               "--trace", str(int(traced))]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)
        self._buf = b""
        #: occupied bytes at every calibration of the timed phase
        self.occupied: list[int] = []
        #: the server's CPU clock (ns) after the last calibration
        self._cpu = None

    def read(self, key: str) -> dict:
        """The next JSON line from the server, which must carry ``key``."""
        deadline = time.monotonic() + SERVER_TIMEOUT
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not self._sel.select(left):
                raise BenchFailure(f"server sent no {key!r} in time")
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise BenchFailure(f"server exited before {key!r}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        message = json.loads(line)
        if "error" in message:
            raise BenchFailure(f"server: {message['error']}")
        if key not in message:
            raise BenchFailure(f"server sent {message!r}, expected {key!r}")
        return message[key]

    def calibrate(self, cal: Calibrator) -> int:
        """Time the kernel in the server and, at the same moment, here:
        under load both processes run, so the host is sampled with both
        cores busy.  Returns the server's CPU time (ns) since the last
        calibration, the calibrations themselves excluded."""
        at = time.perf_counter_ns()
        self.send("cal")
        cal.record(at, calibrate())
        reply = self.read("cal")
        cal.record(at, reply["ns"])
        self.occupied.append(reply["occupied"])
        since = 0 if self._cpu is None else reply["cpu0"] - self._cpu
        self._cpu = reply["cpu1"]
        return since

    def send(self, line: str) -> None:
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def stop(self) -> dict:
        self.proc.stdin.close()
        report = self.read("report")
        self.proc.wait(timeout=SERVER_TIMEOUT)
        if self.proc.returncode != 0:
            raise BenchFailure(f"server exited {self.proc.returncode}")
        return report

    def kill(self) -> None:
        """Make sure the server is gone and its pipes are closed."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._sel.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        self.proc.stdout.close()


def run_pass(seed: int, seconds: int, traced: bool) -> dict:
    closed_blocks = max(3, round(seconds * CLOSED_RATE / BLOCK_OPS))
    server = _Server(seed, traced)
    conns: list[_Conn] = []
    cal = Calibrator()
    try:
        ready = server.read("ready")
        per = KEYS // CONNECTIONS
        models = [dict() for _ in range(CONNECTIONS)]
        preload = preload_pairs(seed)
        for key_id, value in preload:
            if key_id < per * CONNECTIONS:
                models[key_id // per][key_id] = value
        sel = selectors.DefaultSelector()
        for c in range(CONNECTIONS):
            conn = _Conn(ready["port"], c * per, (c + 1) * per, models[c],
                         rng_for(WORKLOAD, seed, f"conn{c}"))
            conns.append(conn)
            sel.register(conn.sock, selectors.EVENT_READ, conn)
        server.calibrate(cal)
        closed = _phase(server, cal, closed_blocks * BLOCK_OPS // ROUND,
                        lambda: _closed_round(conns, sel, ROUND))
        opened = _phase(server, cal, OPEN_BLOCKS * BLOCK_OPS // ROUND,
                        lambda: _open_round(conns, sel, ROUND, OPEN_RATE))
        acked = sum(len(key_of(i)) + len(value) for i, value in preload)
        server.send(f"mark {acked + sum(conn.acked_bytes for conn in conns)}")
        mark = server.read("marked")
        for conn in conns:
            conn.read_back(ready["port"])
        sel.close()
        report = server.stop()
    finally:
        for conn in conns:
            conn.close()
        server.kill()
    loads = closed + opened
    attempted = sum(len(load.latency) for load in loads)
    shard_sim = mark["shard_sim_s"]
    e2e = {
        **block_summary(_blocks(closed, cal, cpu_clock=True)),
        "sim_ops_per_s": attempted / max(shard_sim),
        "sim_p999_ms": mark["sim_p999_ms"],
        "mwa": report["mwa"],
        "space_amp": median(server.occupied) / (KEYS * ENTRY_SIZE),
        "setup_s": median(ready["setup_s"]),
        "peak_rss_mib": report["peak_rss_mib"],
    }
    closed_ops = sum(len(load.latency) for load in closed)
    return {
        "e2e": {name: e2e[name] for name in END_TO_END},
        "open_p999_us": block_p999_us(lat for _ops, _busy, lat
                                      in _blocks(opened, cal, cpu_clock=False)),
        "attempted": attempted,
        "failed": sum(load.failed for load in loads),
        "raw_ops_per_s": closed_ops / (sum(load.end - load.start
                                           for load in closed) / 1e9),
        "late_p99_us": quantile([ns for load in opened for ns in load.late],
                                0.99) / 1e3,
        "mark": mark,
        "report": report,
        "client_spans": [span for load in loads for span in load.spans],
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not trace:
        return run_pass(seed, seconds, traced=False)
    from tracer import Recorder

    base = run_pass(seed, seconds, traced=False)
    traced = run_pass(seed, seconds, traced=True)
    client = Recorder()
    for h0, h1 in traced["client_spans"]:
        client.external_span("net.client.request", h0, h1)
    client_trace = client.finish(SPAN_DIR / f"spans-{WORKLOAD}-client.npz")
    mark = traced["mark"]
    server_trace = mark["trace"]
    parse_s = sum(server_trace["spans"].get(name, {}).get("host_s", 0)
                  for name in ("net.parse.feed", "net.parse.next_request"))
    requests = mark["server_requests"]
    shard_sim = mark["shard_sim_s"]
    extra = {
        "net.server.self_host_us_per_req":
            (mark["loop_cpu_s"] - parse_s) / requests * 1e6 if requests else 0.0,
        "net.requests": traced["attempted"],
        "net.failed": traced["failed"],
        "shard.sim_balance": sum(shard_sim) / len(shard_sim) / max(shard_sim),
        "core.occupied_bytes": traced["report"]["occupied_bytes"],
        "trace.overhead_ops_per_s": (traced["e2e"]["host_ops_per_s"]
                                     - base["e2e"]["host_ops_per_s"]),
        "loadgen.open_late_p99_us": traced["late_p99_us"],
    }
    return traced_result(base, traced, layer_metrics([server_trace, client_trace], extra),
                          server_trace["num_spans"] + client_trace["num_spans"])
