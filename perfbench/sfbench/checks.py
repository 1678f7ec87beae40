"""Output checks.  Each returns a list of problems; empty means it passed.

They take plain data (the committed store flattened to
``{(entity, key): state}`` and the generator's request records), so the
benchmark's tests can run them on tampered copies.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Any, Iterable

State = dict[tuple[str, Any], dict]


def digest(value: Any) -> str:
    """Digest of a value's ``repr`` (lists of floats, reply tuples)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def state_digest(state: State) -> str:
    """Order-independent digest of a flattened committed store."""
    hasher = hashlib.sha256()
    for key in sorted(state, key=repr):
        hasher.update(repr((key, sorted(state[key].items()))).encode())
    return hasher.hexdigest()


def check_exactly_once(requests: Iterable[Any]) -> list[str]:
    """Every request the generator sent got exactly one reply."""
    missing = duplicated = 0
    for request in requests:
        if request.replies == 0:
            missing += 1
        elif request.replies > 1:
            duplicated += 1
    problems = []
    if missing:
        problems.append(f"{missing} requests never got a reply")
    if duplicated:
        problems.append(f"{duplicated} requests got more than one reply")
    return problems


def expected_balances(initial: dict[str, int],
                      requests: Iterable[Any]) -> dict[str, int]:
    """Replay every acknowledged transfer (reply ``True``) over the
    initial balances.  Transfers replying ``False`` moved nothing."""
    balances = dict(initial)
    for request in requests:
        op = request.op
        if op.method != "transfer" or request.error is not None \
                or request.payload is not True:
            continue
        amount, other = op.args
        balances[op.ref.key] -= amount
        balances[other.key] += amount
    return balances


def check_transfer_ledger(state: State, initial: dict[str, int],
                          requests: Iterable[Any]) -> list[str]:
    """Total balance is conserved, and every account holds exactly what
    the acknowledged transfers leave it."""
    problems = []
    live = {key: row["balance"] for (entity, key), row in state.items()
            if entity == "Account"}
    if set(live) != set(initial):
        problems.append(f"committed store has {len(live)} accounts, "
                        f"expected {len(initial)}")
        return problems
    total, want = sum(live.values()), sum(initial.values())
    if total != want:
        problems.append(f"total balance {total} != {want} (not conserved)")
    expected = expected_balances(initial, requests)
    wrong = [key for key in expected if live[key] != expected[key]]
    if wrong:
        problems.append(f"{len(wrong)} accounts differ from the replayed "
                        f"ledger, e.g. {wrong[0]}: {live[wrong[0]]} != "
                        f"{expected[wrong[0]]}")
    return problems


def check_reads(requests: Iterable[Any], balance: int) -> list[str]:
    """On a mix without transfers every read returns the initial balance."""
    wrong = sum(1 for request in requests
                if request.op.method == "read" and request.error is None
                and request.replies and request.payload != balance)
    return [f"{wrong} reads returned a balance other than {balance}"] \
        if wrong else []


def check_last_writes(state: State, requests: Iterable[Any]) -> list[str]:
    """Each key's committed ``payload`` is the last acknowledged write.

    Writes to one key may overlap in time (several clients can hit a hot
    key at once); then any of the overlapping writes may be last.  The
    rule is real-time order: a write acknowledged before another write to
    the same key was sent cannot be the final value."""
    writes: dict[Any, list[Any]] = defaultdict(list)
    for request in requests:
        if request.op.method == "write":
            writes[request.op.ref.key].append(request)
    problems = []
    stale = 0
    example = ""
    for (entity, key), row in state.items():
        if entity != "Account":
            continue
        mine = writes.get(key)
        if not mine:
            if row["payload"] != "":
                stale += 1
                example = example or f"{key} never written, holds " \
                    f"{row['payload']!r}"
            continue
        last_sent = max(request.sent_seq for request in mine)
        allowed = {request.op.args[0] for request in mine
                   if request.error is None and request.replies
                   and request.done_seq > last_sent}
        if row["payload"] not in allowed:
            stale += 1
            example = example or (f"{key} holds {row['payload']!r}, "
                                  f"allowed {sorted(allowed)}")
    if stale:
        problems.append(f"{stale} keys do not hold their last "
                        f"acknowledged write, e.g. {example}")
    return problems


def check_digests(live: str, reopened: str) -> list[str]:
    """A cold reopen of the durability directory reproduces the store."""
    if live != reopened:
        return [f"cold reopen digest {reopened[:12]} != live "
                f"{live[:12]}"]
    return []


def check_views(values: dict[str, Any],
                expected: dict[str, Any]) -> list[str]:
    """Every maintained view equals its full-scan oracle."""
    return [f"view {name!r} = {values.get(name)!r}, expected "
            f"{expected[name]!r}"
            for name in sorted(expected) if values.get(name) != expected[name]]


def check_repeats(fingerprints: list[dict[str, Any]]) -> list[str]:
    """Repeats of one seed on the simulator are identical in every
    fingerprinted field (virtual latencies, kernel events, replies)."""
    problems = []
    if len(fingerprints) < 2:
        return ["need at least two repeats to check determinism"]
    first = fingerprints[0]
    for index, other in enumerate(fingerprints[1:], start=1):
        for field in sorted(first):
            if other.get(field) != first[field]:
                problems.append(f"repeat {index} differs in {field}: "
                                f"{other.get(field)!r} != {first[field]!r}")
    return problems
