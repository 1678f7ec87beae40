"""Tests of the benchmark itself: its declared metrics, its output checks
(each must fail on tampered state) and a short smoke run per workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q          # fast part
    PYTHONPATH=src python -m pytest perfbench/tests -q -m slow  # smokes
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from sfbench import checks, workloads  # noqa: E402
from sfbench.loadgen import ClosedLoop, OpenLoop, Request  # noqa: E402

from repro.core.refs import EntityRef  # noqa: E402
from repro.workloads import Operation  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- the declared metrics ------------------------------------------------

def test_metric_names_and_units_match_the_benchmark_file():
    spec = manifest()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in workloads.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in workloads.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_benchmark_file_keeps_the_contract_limits():
    spec = manifest()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= spec["run_seconds"] <= 60


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "txn-transfer",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- the output checks, on small simulator runs ---------------------------

def small_run(mix: str, *, records: int = 40, requests: int = 300,
              durability_dir: Path | None = None, views: bool = False):
    spec = replace(workloads.WORKLOADS["sim-mixed-views"], mix=mix,
                   records=records, distribution="uniform", views=views)
    session = workloads.build_session(spec, 5, durability_dir)
    runtime = session.runtime
    start = runtime.sim.now + 1.0
    loop = OpenLoop(runtime, session.workload.operations(requests),
                    [start + 2.0 * i for i in range(requests)])
    loop.start()
    assert loop.drain(60_000.0)
    return session, loop.requests, workloads.committed_state(runtime)


def test_transfer_ledger_fails_on_an_edited_balance():
    session, requests, state = small_run("T")
    assert checks.check_exactly_once(requests) == []
    assert checks.check_transfer_ledger(state, session.initial,
                                        requests) == []
    tampered = copy.deepcopy(state)
    row = next(iter(tampered.values()))
    row["balance"] += 1
    problems = checks.check_transfer_ledger(tampered, session.initial,
                                            requests)
    assert any("not conserved" in p for p in problems)
    # A balance moved between two accounts conserves the total but not
    # the ledger.
    tampered = copy.deepcopy(state)
    first, second = list(tampered.values())[:2]
    first["balance"] -= 1
    second["balance"] += 1
    assert checks.check_transfer_ledger(tampered, session.initial,
                                        requests)


def test_exactly_once_fails_on_a_lost_or_doubled_reply():
    _, requests, _ = small_run("T", requests=50)
    requests[0].replies = 0
    requests[1].replies = 2
    problems = checks.check_exactly_once(requests)
    assert len(problems) == 2


def test_last_write_and_reads_fail_on_tampered_state():
    session, requests, state = small_run("A", records=400)
    assert checks.check_last_writes(state, requests) == []
    assert checks.check_reads(requests, workloads.INITIAL_BALANCE) == []
    written = next(r.op.ref.key for r in requests if r.op.method == "write")
    tampered = copy.deepcopy(state)
    tampered[("Account", written)]["payload"] = "value-stale"
    assert checks.check_last_writes(tampered, requests)
    unwritten = {r.op.ref.key for r in requests if r.op.method == "write"}
    key = next(k for (_, k) in state if k not in unwritten)
    tampered = copy.deepcopy(state)
    tampered[("Account", key)]["payload"] = "phantom"
    assert checks.check_last_writes(tampered, requests)
    read = next(r for r in requests if r.op.method == "read")
    read.payload += 1
    assert checks.check_reads(requests, workloads.INITIAL_BALANCE)


def synthetic_write(value: str, sent: int, done: int) -> Request:
    request = Request(Operation("update", EntityRef("Account", "k"),
                                "write", (value,)))
    request.sent_seq, request.done_seq, request.replies = sent, done, 1
    return request


def test_last_write_allows_any_of_overlapping_writes():
    state = {("Account", "k"): {"payload": "a"}}
    overlapping = [synthetic_write("a", 1, 3), synthetic_write("b", 2, 4)]
    assert checks.check_last_writes(state, overlapping) == []
    in_order = [synthetic_write("a", 1, 2), synthetic_write("b", 3, 4)]
    assert checks.check_last_writes(state, in_order)


def test_cold_reopen_digest_matches_and_detects_tampering(tmp_path):
    session, requests, state = small_run("A", durability_dir=tmp_path)
    workloads.close_session(session)
    live = checks.state_digest(state)
    assert checks.check_digests(live, workloads.reopen_digest(tmp_path)) \
        == []
    tampered = copy.deepcopy(state)
    next(iter(tampered.values()))["payload"] = "edited after the run"
    assert checks.check_digests(checks.state_digest(tampered),
                                workloads.reopen_digest(tmp_path))


def test_views_match_the_oracle_and_fail_when_tampered():
    session, requests, _ = small_run("M", views=True)
    views = session.runtime.views
    values = {name: views.read(name).value for name in views.names()}
    expected = {name: views.expected(name) for name in views.names()}
    assert len(values) == 3
    assert checks.check_views(values, expected) == []
    values["gainers"] += 1
    assert checks.check_views(values, expected)


def test_repeats_check_needs_identical_fingerprints():
    fingerprint = {"kernel.events": 10, "vt_latencies": "ab"}
    assert checks.check_repeats([fingerprint, dict(fingerprint)]) == []
    assert checks.check_repeats([fingerprint])
    assert checks.check_repeats([fingerprint,
                                 {**fingerprint, "kernel.events": 11}])


def test_closed_loop_keeps_a_fixed_number_outstanding():
    session, _, _ = small_run("A", requests=1)
    runtime = session.runtime
    loop = ClosedLoop(runtime, session.workload.next_operation, 8)
    loop.start()
    runtime.sim.run(until=runtime.sim.now + 500.0)
    assert loop.inflight == 8
    loop.stop()
    assert loop.drain(60_000.0)
    assert len(loop.requests) > 8
    assert checks.check_exactly_once(loop.requests) == []


# -- one short run per workload ------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    catalogue = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert set(result["metrics"]) == set(catalogue)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
