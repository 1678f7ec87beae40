"""The three workloads, their measurement windows and their checks.

=================  ==========  ================================================
workload           substrate   shape
=================  ==========  ================================================
txn-transfer       process     YCSB+T, 100% ``Account.transfer``, 10k accounts,
                               uniform keys, closed loop of 32, in memory
rw-zipf-durable    process     YCSB-A (50% read / 50% write), zipfian 0.99 over
                               100k accounts, closed loop of 32, durable
                               directory with incremental snapshots
sim-mixed-views    simulator   YCSB-M (45/45/10), zipfian over 10k accounts,
                               open loop at 3000 rps on an absolute schedule,
                               three registered views
=================  ==========  ================================================

Every knob a workload does not name stays at the program's default.  The
process workloads are the coordinator process (which also runs the load
generator on the runtime's kernel) plus one worker process, built from
``process_stateflow_overrides(workers=1)``.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.bench.harness import process_stateflow_overrides
from repro.compiler.pipeline import compile_program
from repro.query import QueryEngine, ViewSpec
from repro.runtimes import executor as executor_mod
from repro.runtimes import state as state_mod
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow import coordinator as coordinator_mod
from repro.runtimes.stateflow import procworker as procworker_mod
from repro.runtimes.state import materialize_snapshot, apply_flat_writes
from repro.storage import FileChangelogStore, FileSnapshotStore
from repro.substrates.kafka import KafkaBroker
from repro.substrates.simulation import Simulation
from repro.substrates.spawner import make_spawner
from repro.substrates.wallclock import WallClock
from repro.views import ViewManager
from repro.workloads import Account, YcsbWorkload

from . import checks
from .loadgen import ClosedLoop, OpenLoop
from .trace import GcWatch, Tracer

_PAGE = os.sysconf("SC_PAGE_SIZE")

INITIAL_BALANCE = 1_000_000
#: Closed-loop clients on the process workloads.
OUTSTANDING = 32
#: Set-ups per run; ``setup_s`` is their median and the last one is
#: measured.
SETUPS = 5
#: Process workloads: wall time run before the measured window.
WARMUP_MS = 2_000.0
#: Longest wait for outstanding replies after the generator stops.
DRAIN_MS = 15_000.0
#: Throughput is the median of per-bucket completion rates.
BUCKET_S = 1.0
#: The simulator job: virtual length, offered rate, share of the job
#: treated as warm-up for latency.
SIM_JOB_MS = 4_000.0
SIM_RPS = 3_000.0
SIM_WARMUP_SHARE = 0.1
#: The simulator runs at least this many repeats of the job (the
#: determinism check compares them).
SIM_MIN_REPEATS = 2


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    substrate: str          # "process" | "simulator"
    mix: str                # YCSB mix letter
    records: int
    distribution: str
    durable: bool = False
    views: bool = False


#: Why each workload exists is in ``BENCHMARK.json``.
WORKLOADS: dict[str, WorkloadSpec] = {spec.name: spec for spec in (
    WorkloadSpec("txn-transfer", "process", "T", 10_000, "uniform"),
    WorkloadSpec("rw-zipf-durable", "process", "A", 100_000, "zipfian",
                 durable=True),
    WorkloadSpec("sim-mixed-views", "simulator", "M", 10_000, "zipfian",
                 views=True),
)}


# ---------------------------------------------------------------------------
# metric catalogue
# ---------------------------------------------------------------------------

#: End-to-end metrics: name -> (unit, what it is).
END_TO_END: dict[str, tuple[str, str]] = {
    "tput_tps": ("1/s", "completed requests per second, median of 1 s "
                 "buckets of the wall clock on process workloads; on the "
                 "simulator per virtual second of the job (the cost model; "
                 "the simulator's wall rate is trace.tput_untraced_tps)"),
    "p50_ms": ("ms", "latency from submit (simulator: due time) to reply, "
               "median; wall clock on process workloads, virtual time (the "
               "cost model, not the code) on the simulator"),
    "p95_ms": ("ms", "as p50_ms, 95th percentile"),
    "rss_mb": ("MB", "resident memory of the coordinator process plus the "
               "largest worker process at the end of the measured window "
               "(simulator: after each job, median)"),
    "setup_s": ("s", "workload construction to first committed reply, "
                f"median of {SETUPS} set-ups"),
}

#: Per-layer metrics: name -> (unit, layer module, base / meaning).
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "trace.tput_untraced_tps": ("1/s", "benchmark", "tput, untraced"),
    "trace.tput_traced_tps": ("1/s", "benchmark", "tput, traced"),
    "trace.overhead_pct": ("%", "benchmark", "traced tput loss"),
    "ingress.submit_us": ("us/call", "runtimes.stateflow.runtime",
                          "self time per StateflowRuntime.submit"),
    "kafka.produce_calls": ("count/txn", "substrates.kafka",
                            "KafkaBroker.produce calls per txn"),
    "kafka.produce_us": ("us/call", "substrates.kafka",
                         "self time per produce"),
    "network.send_calls": ("count/txn", "substrates.network",
                           "Network.send calls per txn"),
    "kernel.events": ("count/txn", "substrates.simulation|wallclock",
                      "kernel callbacks run per txn"),
    "kernel.schedule_calls": ("count/txn", "substrates.simulation|wallclock",
                              "timers scheduled per txn"),
    "kernel.vt_p50_ms": ("ms", "substrates.simulation|wallclock",
                         "latency on the kernel clock, median (simulator: "
                         "virtual time, the cost model)"),
    "kernel.vt_p99_ms": ("ms", "substrates.simulation|wallclock",
                         "latency on the kernel clock, 99th pct"),
    "coord.on_request_us": ("us/call", "runtimes.stateflow.coordinator",
                            "self time per Coordinator.on_request"),
    "coord.on_txn_report_us": ("us/call", "runtimes.stateflow.coordinator",
                               "self time per Coordinator.on_txn_report"),
    "coord.txns_per_batch": ("txn/batch", "runtimes.stateflow.coordinator",
                             "completed txns per closed batch"),
    "coord.stall_ms_per_batch": ("ms/batch", "runtimes.stateflow.coordinator",
                                 "AriaStats.stall_ms (waiting) per batch"),
    "coord.cpu_ms": ("ms/txn", "runtimes.stateflow.coordinator",
                     "coordinator process CPU (RUSAGE_SELF) per txn"),
    "aria.decide_us": ("us/batch", "runtimes.stateflow.aria",
                       "self time per aria.decide (one per batch)"),
    "aria.commit_ratio": ("ratio", "runtimes.stateflow.aria",
                          "commits / attempts, multi-key and single-key"),
    "aria.aborts": ("count/txn", "runtimes.stateflow.aria",
                    "WAW+RAW+stale aborts per txn"),
    "aria.fallback_runs": ("count/txn", "runtimes.stateflow.aria",
                           "sequential-fallback executions per txn"),
    "state.slot_pins": ("count/batch", "runtimes.state",
                        "backend pin_view calls per batch"),
    "state.pin_view_us": ("us/call", "runtimes.state",
                          "time per PartitionedStore.pin_view"),
    "state.apply_writes_us": ("us/call", "runtimes.state",
                              "self time per WorkerSlice.apply_writes"),
    "state.snapshot_ms": ("ms/cut", "runtimes.state",
                          "committed-store capture per snapshot cut"),
    "exec.handle_calls": ("count/txn", "runtimes.executor",
                          "OperatorExecutor.handle calls per txn in this "
                          "process (0 where workers are processes)"),
    "exec.handle_us": ("us/call", "runtimes.executor",
                       "self time per OperatorExecutor.handle"),
    "wire.frames": ("count/txn", "substrates.wire",
                    "frames both ways (proxy counters) per txn"),
    "wire.bytes": ("B/txn", "substrates.wire",
                   "bytes coordinator->worker (proxy counter) per txn"),
    "wire.encode_us": ("us/call", "substrates.wire",
                       "self time per encode_frame in the coordinator"),
    "wire.decode_us": ("us/call", "substrates.wire",
                       "self time per decode_frame in the coordinator"),
    "proxy.replicate_calls": ("count/txn", "runtimes.stateflow.procworker",
                              "replicate_writes calls per txn"),
    "worker.cpu_ms": ("ms/txn", "runtimes.stateflow.procworker",
                      "worker process CPU (RUSAGE_CHILDREN) per txn over "
                      "the worker's life"),
    "snap.cuts": ("count", "runtimes.stateflow.snapshots",
                  "snapshot cuts in the traced window"),
    "snap.take_ms_max": ("ms", "runtimes.stateflow.snapshots",
                         "longest Coordinator._take_snapshot"),
    "snap.bytes_per_cut": ("B/cut", "runtimes.stateflow.snapshots",
                           "payload bytes per cut"),
    "storage.fsyncs_per_batch": ("count/batch", "storage",
                                 "fsyncs per closed batch"),
    "storage.fsync_ms_per_batch": ("ms/batch", "storage",
                                   "fsync wall time per closed batch"),
    "storage.append_us": ("us/call", "storage",
                          "time per FileChangelogStore.append"),
    "storage.bytes_per_txn": ("B/txn", "storage",
                              "bytes written to disk per txn"),
    "views.on_commit_us": ("us/batch", "views",
                           "time per ViewManager.on_commit"),
    "views.keys_applied": ("count/batch", "views",
                           "keys folded into views per batch"),
    "gc.gen2_count": ("count", "interpreter",
                      "generation-2 collections in the traced window"),
    "gc.gen2_pause_ms": ("ms", "interpreter",
                         "summed gen-2 pause in the traced window"),
    "gc.gen2_pause_max_ms": ("ms", "interpreter", "longest gen-2 pause"),
}

#: Per-layer counts that repeat exactly on ``sim-mixed-views`` (checked
#: across two traced repeats of one seed in every traced run).
EXACT_ON_SIM = (
    "kernel.events", "kernel.schedule_calls", "kernel.vt_p50_ms",
    "kernel.vt_p99_ms", "kafka.produce_calls", "network.send_calls",
    "coord.txns_per_batch", "aria.commit_ratio", "aria.aborts",
    "aria.fallback_runs", "state.slot_pins", "exec.handle_calls",
    "snap.cuts", "views.keys_applied",
)


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

def _cpu_ms(who: int) -> float:
    usage = resource.getrusage(who)
    return (usage.ru_utime + usage.ru_stime) * 1e3


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def read_counters(runtime: StateflowRuntime) -> dict[str, float]:
    """Cumulative counters the program already keeps."""
    coordinator = runtime.coordinator
    stats = coordinator.stats
    proxies = [w for w in runtime.workers if hasattr(w, "frames_sent")]
    stores = (coordinator.changelog, coordinator.snapshots)
    return {
        "kernel.events": runtime.sim.processed_events,
        "network.sends": runtime.network.messages_sent,
        "aria.batches": stats.closed_batches,
        "aria.transactions": stats.transactions,
        "aria.commits": stats.commits,
        "aria.single_key": stats.single_key,
        "aria.aborts": stats.aborts_waw + stats.aborts_raw
        + stats.aborts_stale,
        "aria.fallback_runs": stats.fallback_runs,
        "aria.stall_ms": stats.stall_ms,
        "wire.frames": sum(p.frames_sent + p.frames_received
                           for p in proxies),
        "wire.bytes": sum(p.bytes_sent for p in proxies),
        "storage.fsyncs": sum(getattr(s, "fsyncs", 0) for s in stores),
        "storage.fsync_ms": sum(getattr(s, "fsync_wall_ms", 0.0)
                                for s in stores),
        "storage.bytes": sum(getattr(s, "bytes_written", 0) for s in stores),
        "snap.cuts": len(coordinator.snapshots.cut_log),
        "views.keys": runtime.views.keys_applied,
        "views.commits": runtime.views.commits_applied,
        "cpu.self_ms": _cpu_ms(resource.RUSAGE_SELF),
    }


def install_tracer(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer on the request path."""
    Coord = coordinator_mod.Coordinator

    def request_key(owner: Any, event: Any, *args: Any, **kwargs: Any) -> int:
        return event.request_id or -1

    def produce_key(broker: Any, topic: str, key: Any = None,
                    value: Any = None, **kwargs: Any) -> int:
        return getattr(value, "request_id", None) or -1

    def enter_batch(coordinator: Any, batch: Any) -> int:
        tracer.batch_id = batch.batch_id
        return batch.batch_id

    tracer.wrap(Coord, "_commit_phase", "coord.commit_phase", key=enter_batch)
    tracer.wrap(StateflowRuntime, "submit", "ingress.submit")
    tracer.wrap(KafkaBroker, "produce", "kafka.produce", key=produce_key)
    tracer.wrap(Coord, "on_request", "coord.on_request", key=request_key)
    tracer.wrap(Coord, "on_txn_report", "coord.on_txn_report",
                key=request_key)
    tracer.wrap(coordinator_mod, "decide", "aria.decide")
    tracer.wrap(Coord, "_take_snapshot", "snap.take")
    tracer.wrap(Coord, "_capture_state", "state.capture")
    tracer.wrap(state_mod.PartitionedStore, "pin_view", "state.pin_view")
    tracer.wrap(state_mod.WorkerSlice, "apply_writes", "state.apply_writes")
    tracer.wrap(executor_mod.OperatorExecutor, "handle", "exec.handle",
                key=request_key)
    tracer.wrap(procworker_mod, "encode_frame", "wire.encode")
    tracer.wrap(procworker_mod, "decode_frame", "wire.decode")
    tracer.wrap(FileChangelogStore, "append", "storage.append")
    tracer.wrap(ViewManager, "on_commit", "views.on_commit")
    tracer.count(state_mod.DictStateBackend, "pin_view", "state.slot_pin")
    tracer.count(state_mod.CowStateBackend, "pin_view", "state.slot_pin")
    tracer.count(procworker_mod.ProcessWorkerProxy, "replicate_writes",
                 "proxy.replicate")
    tracer.count(Simulation, "schedule", "kernel.schedule")
    tracer.count(WallClock, "_push", "kernel.schedule")


def layer_metrics(tracer: Tracer, before: dict, after: dict, txns: int,
                  gc_window: tuple[int, int, int],
                  kernel_latencies: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced window (``txns`` completed in it).
    Worker CPU, snapshot bytes and the trace overhead are filled in by
    the caller, which owns the process lifetime."""
    d = {name: after[name] - before[name] for name in after}
    txns = max(txns, 1)
    batches = max(d["aria.batches"], 1)
    attempts = d["aria.transactions"] + d["aria.single_key"]
    take = tracer.stats.get("snap.take")
    gc_count, gc_ns, gc_max_ns = gc_window
    return {
        "ingress.submit_us": tracer.self_us("ingress.submit"),
        "kafka.produce_calls": tracer.calls("kafka.produce") / txns,
        "kafka.produce_us": tracer.self_us("kafka.produce"),
        "network.send_calls": d["network.sends"] / txns,
        "kernel.events": d["kernel.events"] / txns,
        "kernel.schedule_calls": tracer.counts["kernel.schedule"] / txns,
        "kernel.vt_p50_ms": percentile(kernel_latencies, 50),
        "kernel.vt_p99_ms": percentile(kernel_latencies, 99),
        "coord.on_request_us": tracer.self_us("coord.on_request"),
        "coord.on_txn_report_us": tracer.self_us("coord.on_txn_report"),
        "coord.txns_per_batch": txns / batches,
        "coord.stall_ms_per_batch": d["aria.stall_ms"] / batches,
        "coord.cpu_ms": d["cpu.self_ms"] / txns,
        "aria.decide_us": tracer.self_us("aria.decide"),
        "aria.commit_ratio": ((d["aria.commits"] + d["aria.single_key"])
                              / attempts if attempts else 0.0),
        "aria.aborts": d["aria.aborts"] / txns,
        "aria.fallback_runs": d["aria.fallback_runs"] / txns,
        "state.slot_pins": tracer.counts["state.slot_pin"] / batches,
        "state.pin_view_us": tracer.self_us("state.pin_view"),
        "state.apply_writes_us": tracer.self_us("state.apply_writes"),
        "state.snapshot_ms": tracer.self_us("state.capture") / 1e3,
        "exec.handle_calls": tracer.calls("exec.handle") / txns,
        "exec.handle_us": tracer.self_us("exec.handle"),
        "wire.frames": d["wire.frames"] / txns,
        "wire.bytes": d["wire.bytes"] / txns,
        "wire.encode_us": tracer.self_us("wire.encode"),
        "wire.decode_us": tracer.self_us("wire.decode"),
        "proxy.replicate_calls": tracer.counts["proxy.replicate"] / txns,
        "snap.cuts": d["snap.cuts"],
        "snap.take_ms_max": take.max_ns / 1e6 if take else 0.0,
        "storage.fsyncs_per_batch": d["storage.fsyncs"] / batches,
        "storage.fsync_ms_per_batch": d["storage.fsync_ms"] / batches,
        "storage.append_us": tracer.self_us("storage.append"),
        "storage.bytes_per_txn": d["storage.bytes"] / txns,
        "views.on_commit_us": tracer.self_us("views.on_commit"),
        "views.keys_applied": (d["views.keys"] / d["views.commits"]
                               if d["views.commits"] else 0.0),
        "gc.gen2_count": gc_count,
        "gc.gen2_pause_ms": gc_ns / 1e6,
        "gc.gen2_pause_max_ms": gc_max_ns / 1e6,
    }


def snapshot_bytes_per_cut(runtime: StateflowRuntime) -> float:
    """Mean cut size from the store's ledger; stores that do not measure
    footprints (full mode) are measured once on their latest cut."""
    snapshots = runtime.coordinator.snapshots
    sized = [cut.bytes for cut in snapshots.cut_log if cut.bytes]
    if sized:
        return statistics.fmean(sized)
    latest = snapshots.latest()
    if latest is None or latest.state is None:
        return 0.0
    return float(state_mod.payload_footprint(latest.state)[1])


@dataclass
class Window:
    """One measured stretch of a run."""

    start_wall: float
    end_wall: float
    before: dict
    after: dict
    gc: tuple[int, int, int]


def measure_window(runtime: StateflowRuntime, duration_ms: float,
                   gc_watch: GcWatch) -> Window:
    kernel = runtime.sim
    gc_before = gc_watch.reading()
    gc_watch.reset_max()
    before = read_counters(runtime)
    start = time.perf_counter()
    kernel.run(until=kernel.now + duration_ms)
    end = time.perf_counter()
    after = read_counters(runtime)
    gc_after = gc_watch.reading()
    return Window(start, end, before, after,
                  (gc_after[0] - gc_before[0], gc_after[1] - gc_before[1],
                   gc_after[2]))


def window_stats(requests: list, window: Window) -> dict[str, Any]:
    """Throughput and latency of the requests in one window.

    Both are medians over 1 s buckets of the window: completions per
    bucket, and each latency percentile per bucket of sent requests.  A
    gen-2 collection pause lands in one or two buckets, so it moves the
    per-layer ``gc.*`` metrics rather than these."""
    span = window.end_wall - window.start_wall
    count = max(1, int(round(span / BUCKET_S)))
    done_in = [0] * count
    sent_in: list[list[float]] = [[] for _ in range(count)]
    latencies, kernel_latencies = [], []
    for request in requests:
        done = request.done_wall
        if done is None:
            continue
        index = int((done - window.start_wall) / BUCKET_S)
        if 0 <= index < count and done < window.end_wall:
            done_in[index] += 1
        index = int((request.sent_wall - window.start_wall) / BUCKET_S)
        if 0 <= index < count and request.sent_wall < window.end_wall:
            latency = (done - request.sent_wall) * 1e3
            sent_in[index].append(latency)
            latencies.append(latency)
            kernel_latencies.append(request.done_kernel
                                    - request.sent_kernel)
    filled = [bucket for bucket in sent_in if bucket]

    def bucketed(pct: float) -> float:
        return statistics.median(percentile(bucket, pct)
                                 for bucket in filled) if filled else 0.0

    return {
        "tput_tps": statistics.median(done_in) / BUCKET_S,
        "tput_mean_tps": sum(done_in) / span if span > 0 else 0.0,
        "completed": sum(done_in),
        "latency_samples": len(latencies),
        "p50_ms": bucketed(50),
        "p95_ms": bucketed(95),
        "p99_ms": percentile(latencies, 99),
        "kernel_latencies": kernel_latencies,
    }


def _rss_mb(pid: int | str) -> float:
    with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE / 2**20


def rss_now_mb() -> float:
    """Resident memory now: this process plus its largest live child.

    Read at the end of the measured window, before the output checks
    allocate copies of the whole store (a peak taken over the whole run
    measures the checks, not the program)."""
    children = [_rss_mb(child.pid)
                for child in multiprocessing.active_children()]
    return _rss_mb("self") + max(children, default=0.0)


def peak_rss_mb() -> float:
    """Peak RSS over the whole run (checks included) of this process plus
    the largest reaped child; Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------------
# process workloads
# ---------------------------------------------------------------------------

@dataclass
class Session:
    """One built runtime plus the generator state feeding it."""

    runtime: StateflowRuntime
    workload: YcsbWorkload
    initial: dict[str, int]
    durability_dir: Path | None
    setup_s: float


def _probe(runtime: StateflowRuntime, workload: YcsbWorkload,
           timeout_ms: float) -> None:
    """Submit one read and run the kernel until it commits: the end of
    set-up."""
    replies: list = []
    runtime.submit(workload.ref(0), "read", (), on_reply=replies.append)
    if not runtime.sim.run_until(lambda: bool(replies),
                                 max_time=runtime.sim.now + timeout_ms):
        raise RuntimeError("set-up probe got no reply")
    if replies[0].error is not None:
        raise RuntimeError(f"set-up probe failed: {replies[0].error}")


def build_session(spec: WorkloadSpec, seed: int,
                  durability_dir: Path | None) -> Session:
    started = time.perf_counter()
    workload = YcsbWorkload(spec.mix, record_count=spec.records,
                            distribution=spec.distribution, seed=seed,
                            initial_balance=INITIAL_BALANCE)
    program = compile_program([Account])
    knobs: dict[str, Any] = {}
    if durability_dir is not None:
        knobs = {"durability_dir": str(durability_dir),
                 "snapshot_mode": "incremental"}
    if spec.substrate == "process":
        knobs = process_stateflow_overrides(workers=1, **knobs)
    config = StateflowConfig(**knobs)
    kernel = make_spawner(config.spawner).make_kernel(seed)
    runtime = StateflowRuntime(program, sim=kernel, config=config)
    rows = workload.dataset_rows()
    runtime.preload(Account, rows)
    runtime.start()
    if spec.views:
        engine = QueryEngine(runtime)
        for view in view_specs():
            engine.register_view(view)
    _probe(runtime, workload, DRAIN_MS)
    return Session(runtime, workload, dict(rows), durability_dir,
                   time.perf_counter() - started)


def committed_state(runtime: StateflowRuntime) -> dict:
    return materialize_snapshot(runtime.committed.snapshot())


def reopen_digest(directory: Path) -> str:
    """Cold start over the surviving files: newest recoverable cut plus
    the changelog suffix after it."""
    snapshots = FileSnapshotStore(directory, mode="incremental")
    changelog = FileChangelogStore(directory)
    try:
        snapshot, payload = snapshots.latest_recoverable(changelog)
        records = changelog.records_between(snapshot.changelog_seq,
                                            changelog.head_seq)
        if records is None:
            raise RuntimeError("changelog suffix after the latest cut has "
                               "a gap")
        for record in records:
            payload = apply_flat_writes(payload, record.writes)
        return checks.state_digest(materialize_snapshot(payload))
    finally:
        changelog.close()


def close_session(session: Session) -> None:
    session.runtime.close()
    changelog = session.runtime.coordinator.changelog
    if hasattr(changelog, "close"):
        changelog.close()


def run_process(spec: WorkloadSpec, seed: int, seconds: int, trace: bool,
                workdir: Path) -> dict[str, Any]:
    setups: list[float] = []
    session = None
    for index in range(SETUPS):
        directory = None
        if spec.durable:
            directory = workdir / f"durable-{index}"
            shutil.rmtree(directory, ignore_errors=True)
            directory.mkdir(parents=True)
        if index == SETUPS - 1:
            children_cpu_before = _cpu_ms(resource.RUSAGE_CHILDREN)
        gc.collect()  # free the previous set-up before timing the next
        session = build_session(spec, seed, directory)
        setups.append(session.setup_s)
        if index < SETUPS - 1:
            close_session(session)
            if directory is not None:
                shutil.rmtree(directory, ignore_errors=True)
    assert session is not None
    runtime = session.runtime
    loop = ClosedLoop(runtime, session.workload.next_operation, OUTSTANDING)
    windows: dict[str, Window] = {}
    tracer = Tracer() if trace else None
    with GcWatch() as gc_watch:
        loop.start()
        runtime.sim.run(until=runtime.sim.now + WARMUP_MS)
        windows["untraced"] = measure_window(runtime, seconds * 1e3,
                                             gc_watch)
        memory = rss_now_mb()

        if tracer is not None:
            install_tracer(tracer)
            try:
                windows["traced"] = measure_window(runtime, seconds * 1e3,
                                                   gc_watch)
            finally:
                tracer.uninstall()
        loop.stop()
        loop.drain(DRAIN_MS)
    requests = loop.requests
    problems = checks.check_exactly_once(requests)
    state = committed_state(runtime)
    if spec.mix == "T":
        problems += checks.check_transfer_ledger(state, session.initial,
                                                 requests)
    else:
        problems += checks.check_reads(requests, INITIAL_BALANCE)
        problems += checks.check_last_writes(state, requests)
    snap_bytes = snapshot_bytes_per_cut(runtime) if tracer else 0.0
    close_session(session)
    if spec.durable:
        problems += checks.check_digests(checks.state_digest(state),
                                         reopen_digest(
                                             session.durability_dir))
        shutil.rmtree(session.durability_dir, ignore_errors=True)
    worker_cpu = _cpu_ms(resource.RUSAGE_CHILDREN) - children_cpu_before
    failed = sum(1 for r in requests if r.replies == 0
                 or r.error is not None)
    main = window_stats(requests, windows["untraced"])
    result: dict[str, Any] = {
        "correct": not problems,
        "problems": problems,
        "attempted": len(requests),
        "failed": failed,
        "end_to_end": {
            "tput_tps": main["tput_tps"],
            "p50_ms": main["p50_ms"],
            "p95_ms": main["p95_ms"],
            "rss_mb": memory,
            "setup_s": statistics.median(setups),
        },
        "detail": {
            "setup_s_samples": setups,
            "window_s": seconds,
            "warmup_s": WARMUP_MS / 1e3,
            "outstanding": OUTSTANDING,
            "completed_in_window": main["completed"],
            "latency_samples": main["latency_samples"],
            "tput_mean_tps": main["tput_mean_tps"],
            "p99_ms": main["p99_ms"],
            "failed_share": failed / max(len(requests), 1),
            "gc_gen2_in_window": windows["untraced"].gc[0],
            "gc_gen2_pause_ms_in_window": windows["untraced"].gc[1] / 1e6,
            "peak_rss_mb": peak_rss_mb(),
        },
    }
    if tracer is not None:
        traced_window = windows["traced"]
        traced = window_stats(requests, traced_window)
        layers = layer_metrics(tracer, traced_window.before,
                               traced_window.after, traced["completed"],
                               traced_window.gc, traced["kernel_latencies"])
        lifetime_txns = sum(1 for r in requests if r.replies) + 1
        layers["worker.cpu_ms"] = worker_cpu / lifetime_txns
        layers["snap.bytes_per_cut"] = snap_bytes
        _overhead(layers, main["tput_tps"], traced["tput_tps"])
        result["per_layer"] = layers
        result["tracer"] = tracer
    return result


def _overhead(layers: dict, untraced: float, traced: float) -> None:
    layers["trace.tput_untraced_tps"] = untraced
    layers["trace.tput_traced_tps"] = traced
    layers["trace.overhead_pct"] = ((1.0 - traced / untraced) * 100.0
                                    if untraced else 0.0)


# ---------------------------------------------------------------------------
# simulator workload
# ---------------------------------------------------------------------------

def view_specs() -> list[ViewSpec]:
    return [
        ViewSpec("gainers", "Account", "count",
                 where=lambda row: row["balance"] > INITIAL_BALANCE),
        ViewSpec("balance-by-suffix", "Account", "sum", field="balance",
                 group_by=lambda row: row["account_id"][-1]),
        ViewSpec("top10", "Account", "top_k", field="balance", k=10),
    ]


def sim_schedule(seed: int, start_ms: float) -> list[float]:
    """Poisson arrivals at ``SIM_RPS`` as absolute due times."""
    rng = random.Random(seed * 7919 + 1)
    due, now = [], 0.0
    while True:
        now += rng.expovariate(SIM_RPS) * 1e3
        if now >= SIM_JOB_MS:
            return due
        due.append(start_ms + now)


def sim_job(spec: WorkloadSpec, seed: int,
            tracer: Tracer | None) -> dict[str, Any]:
    """Build, run the fixed virtual-time job, check it."""
    session = build_session(spec, seed, None)
    runtime, workload = session.runtime, session.workload
    kernel = runtime.sim
    due = sim_schedule(seed, kernel.now + 1.0)
    ops = workload.operations(len(due))
    loop = OpenLoop(runtime, ops, due)
    with GcWatch() as gc_watch:
        before = read_counters(runtime)
        if tracer is not None:
            install_tracer(tracer)
        started = time.perf_counter()
        try:
            loop.start()
            loop.drain(SIM_JOB_MS + DRAIN_MS)
        finally:
            wall = time.perf_counter() - started
            if tracer is not None:
                tracer.uninstall()
        after = read_counters(runtime)
        gc_window = gc_watch.reading()
    memory = rss_now_mb()
    requests = loop.requests
    cutoff = due[0] + SIM_JOB_MS * SIM_WARMUP_SHARE
    measured_vt = [r.done_kernel - r.due_kernel for r in requests
                   if r.done_kernel is not None and r.due_kernel >= cutoff]
    vt_latencies = [r.done_kernel - r.due_kernel for r in requests
                    if r.done_kernel is not None]
    problems = checks.check_exactly_once(requests)
    state = committed_state(runtime)
    problems += checks.check_transfer_ledger(state, session.initial,
                                             requests)
    names = runtime.views.names()
    problems += checks.check_views(
        {name: runtime.views.read(name).value for name in names},
        {name: runtime.views.expected(name) for name in names})
    fingerprint = {
        "kernel.events": after["kernel.events"],
        "vt_latencies": checks.digest(vt_latencies),
        "replies": checks.digest([(r.payload, r.error) for r in requests]),
        "state": checks.state_digest(state),
    }
    completed = sum(1 for r in requests if r.replies)
    result: dict[str, Any] = {
        "problems": problems,
        "attempted": len(requests),
        "failed": sum(1 for r in requests if r.replies == 0
                      or r.error is not None),
        "tput_tps": completed * 1e3 / (
            max((r.done_kernel for r in requests if r.replies),
                default=due[-1]) - due[0]),
        "wall_tput_tps": completed / wall,
        "wall_s": wall,
        "p50_ms": percentile(measured_vt, 50),
        "p95_ms": percentile(measured_vt, 95),
        "vt_p50_ms": percentile(vt_latencies, 50),
        "vt_p99_ms": percentile(vt_latencies, 99),
        "late_ms_max": loop.late_ms_max,
        "setup_s": session.setup_s,
        "rss_mb": memory,
        "fingerprint": fingerprint,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, before, after, completed, gc_window,
                               vt_latencies)
        layers["worker.cpu_ms"] = 0.0  # workers are in this process
        layers["snap.bytes_per_cut"] = snapshot_bytes_per_cut(runtime)
        result["per_layer"] = layers
    runtime.close()
    return result


def run_simulator(spec: WorkloadSpec, seed: int, seconds: int, trace: bool,
                  workdir: Path) -> dict[str, Any]:
    jobs: list[dict[str, Any]] = []
    started = time.perf_counter()
    while (len(jobs) < SIM_MIN_REPEATS
           or time.perf_counter() - started < seconds):
        gc.collect()  # free the previous job before timing the next
        jobs.append(sim_job(spec, seed, None))
    traced_jobs: list[dict[str, Any]] = []
    tracer = None
    if trace:
        for _ in range(2):
            gc.collect()
            tracer = Tracer()
            traced_jobs.append(sim_job(spec, seed, tracer))
    problems = [p for job in jobs + traced_jobs for p in job["problems"]]
    problems += checks.check_repeats([job["fingerprint"]
                                      for job in jobs + traced_jobs])
    exact_mismatch = []
    if traced_jobs:
        first, second = (job["per_layer"] for job in traced_jobs)
        exact_mismatch = [name for name in EXACT_ON_SIM
                          if first[name] != second[name]]
        problems += [f"per-layer count {name} differs between two traced "
                     f"repeats: {first[name]} != {second[name]}"
                     for name in exact_mismatch]

    def med(field: str) -> float:
        return statistics.median(job[field] for job in jobs)

    result: dict[str, Any] = {
        "correct": not problems,
        "problems": problems,
        "attempted": sum(job["attempted"] for job in jobs + traced_jobs),
        "failed": sum(job["failed"] for job in jobs + traced_jobs),
        "end_to_end": {
            "tput_tps": med("tput_tps"),
            "p50_ms": med("p50_ms"),
            "p95_ms": med("p95_ms"),
            "rss_mb": med("rss_mb"),
            "setup_s": statistics.median(
                job["setup_s"] for job in jobs + traced_jobs),
        },
        "detail": {
            "repeats": len(jobs),
            "job_virtual_ms": SIM_JOB_MS,
            "offered_rps": SIM_RPS,
            "requests_per_job": jobs[0]["attempted"],
            "wall_s_per_job": [job["wall_s"] for job in jobs],
            "setup_s_samples": [job["setup_s"] for job in jobs],
            "vt_p50_ms": jobs[0]["vt_p50_ms"],
            "vt_p99_ms": jobs[0]["vt_p99_ms"],
            "generator_late_ms_max": max(job["late_ms_max"] for job in jobs),
            "failed_share": sum(job["failed"] for job in jobs)
            / max(sum(job["attempted"] for job in jobs), 1),
            "kernel_events_per_job": jobs[0]["fingerprint"]["kernel.events"],
            "wall_tput_tps": med("wall_tput_tps"),
            "peak_rss_mb": peak_rss_mb(),
        },
    }
    if traced_jobs:
        layers = dict(traced_jobs[-1]["per_layer"])
        _overhead(layers, med("wall_tput_tps"),
                  statistics.median(job["wall_tput_tps"]
                                    for job in traced_jobs))
        result["per_layer"] = layers
        result["exact"] = [name for name in EXACT_ON_SIM
                           if name not in exact_mismatch]
        result["tracer"] = tracer
    return result


def run(name: str, seed: int, seconds: int, trace: bool,
        workdir: Path) -> dict[str, Any]:
    spec = WORKLOADS[name]
    runner = run_process if spec.substrate == "process" else run_simulator
    return runner(spec, seed, seconds, trace, workdir)

