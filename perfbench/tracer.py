"""Span recorder for the traced run.

At run time this module wraps public methods of the program's classes
(no source file is edited) and records, for every wrapped call, one span:
its name, its parent span, a request id, host start/end
(``time.perf_counter_ns``) and simulated start/end on the ``SimClock``
of the object called -- or, for objects without a clock, of the nearest
enclosing span.  Each span names its clock: ``clock`` indexes
:attr:`Recorder.clock_names` (``-1`` means host only).

Hot leaf calls with no children (bloom probes, cache lookups, routing,
seek-cost lookups, clock charges, free-list hits, trims) are counted
where they happen instead of spanned, which keeps the ratios exact and
the recorder's own cost small.

Spans stay in memory, one buffer per thread, until :meth:`Recorder.finish`
computes self times (a span's duration minus the time its child spans
cover) and writes them out as one ``.npz`` file.

Wrappers only read clocks; they never advance them.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

_perf_ns = time.perf_counter_ns
_NAN = math.nan
_MISSING = object()


class _ThreadBuffer:
    """One thread's spans (column arrays) plus its open-span stack."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.rid = array("q")
        self.clock = array("i")
        self.h0 = array("q")
        self.h1 = array("q")
        self.s0 = array("d")
        self.s1 = array("d")
        #: open spans: (index, SimClock or None)
        self.stack: list[tuple[int, object]] = []
        self.rid_now = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.smr_depth = 0
        self.write_depth = 0
        self.bg_depth = 0


class Recorder:
    """Installs span and counter wrappers and aggregates what they saw."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._rids = itertools.count(1)
        self._clock_ids: dict[int, int] = {}
        self._clocks: list[object] = []
        self.clock_names: list[str] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patched: list[tuple[type, str, object]] = []

    # -- per-thread state ------------------------------------------------------

    def _buf(self) -> _ThreadBuffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _clock_id(self, clock) -> int:
        if clock is None:
            return -1
        cid = self._clock_ids.get(id(clock))
        if cid is None:
            with self._lock:
                cid = self._clock_ids.get(id(clock))
                if cid is None:
                    cid = len(self._clocks)
                    self._clocks.append(clock)  # pin: ids stay unique
                    self.clock_names.append(f"sim#{cid}")
                    self._clock_ids[id(clock)] = cid
        return cid

    def count(self, name: str, amount: float = 1) -> None:
        self._buf().counts[name] += amount

    def external_span(self, name: str, h0: int, h1: int) -> None:
        """Record a host-only root span timed by the benchmark itself
        (a client request, from its send to its reply)."""
        buf = self._buf()
        buf.name.append(self._name_id(name))
        buf.parent.append(-1)
        buf.rid.append(next(self._rids))
        buf.clock.append(-1)
        buf.h0.append(h0)
        buf.h1.append(h1)
        buf.s0.append(_NAN)
        buf.s1.append(_NAN)

    # -- span bookkeeping ------------------------------------------------------

    def _open(self, buf: _ThreadBuffer, nid: int, clock) -> int:
        stack = buf.stack
        if stack:
            parent, parent_clock = stack[-1]
            if clock is None:
                clock = parent_clock
        else:
            parent = -1
            buf.rid_now = next(self._rids)
        idx = len(buf.name)
        buf.name.append(nid)
        buf.parent.append(parent)
        buf.rid.append(buf.rid_now)
        buf.clock.append(self._clock_id(clock))
        buf.s0.append(clock.now if clock is not None else _NAN)
        buf.s1.append(_NAN)
        buf.h1.append(0)
        stack.append((idx, clock))
        buf.h0.append(_perf_ns())
        return idx

    def _close(self, buf: _ThreadBuffer, idx: int) -> int:
        h1 = _perf_ns()
        _idx, clock = buf.stack.pop()
        buf.h1[idx] = h1
        if clock is not None:
            buf.s1[idx] = clock.now
        return h1 - buf.h0[idx]

    # -- wrapper factories -----------------------------------------------------

    def span(self, name: str, *, clock_of=None, nbytes_of=None, kind=None):
        """Wrapper factory: one span per call of the wrapped function.

        ``clock_of(obj)`` gives the object's SimClock (default: inherit
        the enclosing span's), ``nbytes_of(args)`` the bytes the call
        moves, and ``kind`` selects the depth bookkeeping behind the
        stall and simulated-CPU attribution.
        """
        nid = self._name_id(name)
        bytes_key = name + ".bytes"
        rec = self

        def factory(fn):
            def wrapper(obj, *args, **kwargs):
                buf = rec._buf()
                if nbytes_of is not None:
                    buf.counts[bytes_key] += nbytes_of(args)
                if kind == "smr":
                    buf.smr_depth += 1
                elif kind == "write":
                    buf.write_depth += 1
                elif kind == "bg":
                    buf.bg_depth += 1
                idx = rec._open(buf, nid,
                                clock_of(obj) if clock_of is not None else None)
                try:
                    return fn(obj, *args, **kwargs)
                finally:
                    duration = rec._close(buf, idx)
                    if kind == "smr":
                        buf.smr_depth -= 1
                    elif kind == "write":
                        buf.write_depth -= 1
                    elif kind == "bg":
                        buf.bg_depth -= 1
                        if buf.bg_depth == 0 and buf.write_depth > 0:
                            buf.counts["lsm.stall_ns"] += duration
            return wrapper
        return factory

    def iter_span(self, name: str, *, clock_of=None):
        """Wrapper factory for calls that return a lazy iterator: the
        call is counted, and each step of the iterator is one span."""
        nid = self._name_id(name)
        calls_key = name + ".calls"
        rec = self

        def factory(fn):
            def wrapper(obj, *args, **kwargs):
                buf = rec._buf()
                buf.counts[calls_key] += 1
                clock = clock_of(obj) if clock_of is not None else None
                return _SpannedIter(rec, fn(obj, *args, **kwargs), nid, clock)
            return wrapper
        return factory

    def counter(self, on_call):
        """Wrapper factory for hot leaves: ``on_call(counts, args,
        result)`` updates this thread's counters; no span is kept."""
        rec = self

        def factory(fn):
            def wrapper(obj, *args, **kwargs):
                result = fn(obj, *args, **kwargs)
                on_call(rec._buf(), args, result)
                return result
            return wrapper
        return factory

    def timed_lock(self, key: str):
        """Wrapper factory for ``lock_for``: the returned lock's
        acquisition wait is added to counter ``key`` (nanoseconds)."""
        rec = self

        def factory(fn):
            def wrapper(obj, *args, **kwargs):
                return _TimedLock(rec, fn(obj, *args, **kwargs), key)
            return wrapper
        return factory

    # -- installation ----------------------------------------------------------

    def wrap(self, cls: type, attr: str, factory) -> None:
        """Replace ``cls.attr`` (own or inherited) with a wrapper; the
        original is restored by :meth:`uninstall`."""
        raw = _MISSING
        for klass in cls.__mro__:
            if attr in klass.__dict__:
                raw = klass.__dict__[attr]
                break
        if raw is _MISSING:
            raise AttributeError(f"{cls.__name__}.{attr} does not exist")
        if isinstance(raw, classmethod):
            wrapped = classmethod(factory(raw.__func__))
        else:
            wrapped = factory(raw)
        self._patched.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            cls, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)

    # -- results ---------------------------------------------------------------

    def finish(self, out_path: Path | None = None) -> dict:
        """Aggregate the spans per name and (optionally) write them out.

        Returns ``{"spans": {name: {"calls", "host_s", "self_s",
        "sim_s"}}, "counts": {...}, "num_spans": n}``.
        """
        import numpy as np

        self.uninstall()
        stats: dict[str, dict[str, float]] = {}
        counts: dict[str, float] = defaultdict(float)
        columns = defaultdict(list)
        for thread, buf in enumerate(self._buffers):
            for key, value in buf.counts.items():
                counts[key] += value
            n = len(buf.name)
            if n == 0:
                continue
            name = np.frombuffer(buf.name, dtype=np.int32)
            parent = np.frombuffer(buf.parent, dtype=np.int64)
            h0 = np.frombuffer(buf.h0, dtype=np.int64)
            h1 = np.frombuffer(buf.h1, dtype=np.int64)
            s0 = np.frombuffer(buf.s0, dtype=np.float64)
            s1 = np.frombuffer(buf.s1, dtype=np.float64)
            duration = (h1 - h0).astype(np.float64)
            has_parent = parent >= 0
            child = np.bincount(parent[has_parent], weights=duration[has_parent],
                                minlength=n)
            self_ns = duration - child
            sim = np.nan_to_num(s1 - s0)
            for nid in np.unique(name):
                mask = name == nid
                entry = stats.setdefault(self.names[nid], {
                    "calls": 0, "host_s": 0.0, "self_s": 0.0, "sim_s": 0.0})
                entry["calls"] += int(mask.sum())
                entry["host_s"] += float(duration[mask].sum()) / 1e9
                entry["self_s"] += float(self_ns[mask].sum()) / 1e9
                entry["sim_s"] += float(sim[mask].sum())
            for col, arr in (("name", name), ("parent", parent),
                             ("rid", np.frombuffer(buf.rid, dtype=np.int64)),
                             ("clock", np.frombuffer(buf.clock, dtype=np.int32)),
                             ("host_start_ns", h0), ("host_end_ns", h1),
                             ("sim_start_s", s0), ("sim_end_s", s1)):
                columns[col].append(arr)
            columns["thread"].append(np.full(n, thread, dtype=np.int16))
        num_spans = sum(len(buf.name) for buf in self._buffers)
        if out_path is not None and columns:
            out_path.parent.mkdir(parents=True, exist_ok=True)
            np.savez(out_path, names=np.array(self.names),
                     clock_names=np.array(self.clock_names or [""]),
                     **{col: np.concatenate(arrs) for col, arrs in columns.items()})
        self._buffers = []
        return {"spans": stats, "counts": dict(counts), "num_spans": num_spans}


class _SpannedIter:
    """Iterator proxy: each ``next`` is one span; other attributes
    (``close``, ``partial``) pass through to the wrapped iterator."""

    def __init__(self, rec: Recorder, inner, nid: int, clock) -> None:
        self._rec = rec
        self._inner = iter(inner)
        self._source = inner
        self._nid = nid
        self._clock = clock

    def __iter__(self):
        return self

    def __next__(self):
        rec = self._rec
        buf = rec._buf()
        idx = rec._open(buf, self._nid, self._clock)
        try:
            return next(self._inner)
        finally:
            rec._close(buf, idx)

    def close(self) -> None:
        close = getattr(self._source, "close", None)
        if close is not None:
            close()

    def __getattr__(self, name):
        return getattr(self._source, name)


class _TimedLock:
    """Context-manager proxy timing the wrapped lock's acquisition."""

    def __init__(self, rec: Recorder, inner, key: str) -> None:
        self._rec = rec
        self._inner = inner
        self._key = key

    def __enter__(self):
        t0 = _perf_ns()
        value = self._inner.__enter__()
        self._rec.count(self._key, _perf_ns() - t0)
        return value

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)


# -- what the benchmark wraps -------------------------------------------------

def _len_arg(index: int):
    return lambda args: len(args[index])


def _int_arg(index: int):
    return lambda args: args[index]


def _files_bytes(args) -> int:
    return sum(len(data) for _name, data in args[0])


def _drive_clock(obj):
    return obj.drive.clock


def _own_clock(obj):
    return obj.clock


def install_store_layers(rec: Recorder) -> None:
    """Wrap the store, engine, placement and drive layers of SEALDB.

    Wrappers go on the concrete classes a SEALDB store is built from
    (``SealDB`` for the ``KVStoreBase`` facade, ``DynamicBandStorage``
    for ``Storage``, ``RawHMSMRDrive`` for ``Drive``), so a method that
    one of them overrides is still the one traced.
    """
    from repro.core.dynamic_band import DynamicBandManager
    from repro.core.freespace import FreeSpaceList
    from repro.core.sealdb import SealDB
    from repro.core.storage import DynamicBandStorage
    from repro.lsm.block import Block
    from repro.lsm.bloom import BloomFilter
    from repro.lsm.cache import LRUCache
    from repro.lsm.db import DB
    from repro.lsm.memtable import Memtable
    from repro.lsm.sstable import SSTableBuilder, SSTableReader
    from repro.lsm.wal import LogWriter
    from repro.shard.router import HashRouter
    from repro.shard.store import ShardedStore
    from repro.smr.raw_hmsmr import RawHMSMRDrive
    from repro.smr.timing import DiskTimingModel, SimClock

    w = rec.wrap
    # shard
    w(ShardedStore, "get", rec.span("shard.get"))
    w(ShardedStore, "put", rec.span("shard.put"))
    w(ShardedStore, "scan", rec.iter_span("shard.scan"))
    w(ShardedStore, "lock_for", rec.timed_lock("shard.lock_wait_ns"))

    def route(buf, _args, _result):
        buf.counts["shard.route.calls"] += 1
    w(HashRouter, "shard_of", rec.counter(route))
    # kvstore facade
    w(SealDB, "put", rec.span("kvstore.put", clock_of=_drive_clock))
    w(SealDB, "get", rec.span("kvstore.get", clock_of=_drive_clock))
    w(SealDB, "scan", rec.iter_span("kvstore.scan", clock_of=_drive_clock))
    # lsm engine
    w(DB, "write", rec.span("lsm.write", clock_of=_drive_clock, kind="write"))
    w(DB, "get", rec.span("lsm.get", clock_of=_drive_clock))
    w(DB, "flush", rec.span("lsm.flush", clock_of=_drive_clock, kind="bg"))
    compaction = rec.span("lsm.compaction", clock_of=_drive_clock, kind="bg")

    def run_compaction_factory(fn):
        spanned = compaction(fn)

        def wrapper(db, *args, **kwargs):
            result = spanned(db, *args, **kwargs)
            record = db.compaction_records[-1]
            if not record.trivial_move:
                counts = rec._buf().counts
                counts["lsm.compaction.bytes_in"] += record.input_bytes
                counts["lsm.compaction.bytes_out"] += record.output_bytes
            return result
        return wrapper
    w(DB, "run_compaction", run_compaction_factory)
    w(Memtable, "add", rec.span("lsm.memtable.add"))
    w(Memtable, "get", rec.span("lsm.memtable.get"))
    w(LogWriter, "add_record", rec.span("lsm.wal.add_record",
                                        nbytes_of=_len_arg(0)))
    w(SSTableBuilder, "add", rec.span("lsm.sstable_build.add"))
    w(SSTableBuilder, "finish", rec.span("lsm.sstable_build.finish"))
    w(SSTableReader, "get", rec.span("lsm.table_get"))
    w(BloomFilter, "build", rec.span("lsm.bloom.build"))

    def bloom_probe(buf, _args, result):
        buf.counts["lsm.bloom.probes"] += 1
        if not result:
            buf.counts["lsm.bloom.negatives"] += 1
    w(BloomFilter, "may_contain", rec.counter(bloom_probe))

    def cache_lookup(buf, _args, result):
        buf.counts["lsm.cache.lookups"] += 1
        if result is not None:
            buf.counts["lsm.cache.hits"] += 1
    w(LRUCache, "get", rec.counter(cache_lookup))
    w(Block, "seek", rec.iter_span("lsm.block_seek"))
    # core: dynamic-band placement
    w(DynamicBandStorage, "write_files",
      rec.span("core.write_files", clock_of=_drive_clock,
               nbytes_of=_files_bytes))
    w(DynamicBandStorage, "read_file",
      rec.span("core.read_file", clock_of=_drive_clock,
               nbytes_of=_int_arg(2)))
    w(DynamicBandManager, "allocate",
      rec.span("core.band.allocate", clock_of=_drive_clock))

    def band_free(buf, _args, _result):
        buf.counts["core.band.free.calls"] += 1
    w(DynamicBandManager, "free", rec.counter(band_free))

    def freespace_hit(buf, _args, result):
        if result is not None:
            buf.counts["core.freespace.reuse"] += 1
    w(FreeSpaceList, "allocate", rec.counter(freespace_hit))
    # smr: drive and timing model
    w(RawHMSMRDrive, "read", rec.span("smr.read", clock_of=_own_clock,
                                      nbytes_of=_int_arg(1), kind="smr"))
    w(RawHMSMRDrive, "write", rec.span("smr.write", clock_of=_own_clock,
                                       nbytes_of=_len_arg(1), kind="smr"))
    w(RawHMSMRDrive, "write_buffered",
      rec.span("smr.write_buffered", clock_of=_own_clock,
               nbytes_of=_len_arg(1), kind="smr"))

    def trim(buf, _args, _result):
        buf.counts["smr.trim.calls"] += 1
    w(RawHMSMRDrive, "trim", rec.counter(trim))

    def seek(buf, _args, result):
        buf.counts["smr.seek.sim_s"] += result
    w(DiskTimingModel, "seek_time", rec.counter(seek))

    def advance(buf, args, _result):
        if buf.smr_depth == 0:
            buf.counts["lsm.cpu_sim_s"] += args[0]
    w(SimClock, "advance", rec.counter(advance))


def install_server_parser(rec: Recorder) -> None:
    """Wrap the server side of the wire codec."""
    from repro.net.protocol import RespParser

    rec.wrap(RespParser, "feed", rec.span("net.parse.feed"))
    rec.wrap(RespParser, "next_request", rec.span("net.parse.next_request"))
