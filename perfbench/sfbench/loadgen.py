"""The benchmark's own load generators.

``repro.workloads.WorkloadDriver`` schedules each arrival relative to
the moment the previous one fired.  On the wall clock that moment is
already late, so the lateness accumulates: asked for 1000 rps for 8 s it
sends about 6.9-7.1k requests.  These generators avoid that:

* :class:`ClosedLoop` keeps a fixed number of requests outstanding; each
  reply immediately issues the next request, so there is no schedule to
  fall behind.
* :class:`OpenLoop` fires request *i* at its precomputed absolute due
  time and times its latency from that due time, so a stall is charged
  to every request it delays.  It records how late it ran.

Both record, per request, the operation, the wall clock and the runtime
kernel's clock at submit and at reply, the reply itself, and a global
sequence number for each submit and each reply (the real-time order the
output checks use).
"""

from __future__ import annotations

import time
from typing import Any, Callable

_wall = time.perf_counter


class Request:
    """One generated request and what came back for it."""

    __slots__ = ("op", "due_kernel", "sent_wall", "sent_kernel",
                 "sent_seq", "done_wall", "done_kernel", "done_seq",
                 "payload", "error", "replies")

    def __init__(self, op: Any) -> None:
        self.op = op
        self.due_kernel = 0.0
        self.sent_wall = 0.0
        self.sent_kernel = 0.0
        self.sent_seq = 0
        self.done_wall: float | None = None
        self.done_kernel: float | None = None
        self.done_seq = 0
        self.payload: Any = None
        self.error: str | None = None
        self.replies = 0


class _Loop:
    def __init__(self, runtime: Any) -> None:
        self.runtime = runtime
        self.kernel = runtime.sim
        self.requests: list[Request] = []
        self.inflight = 0
        self._seq = 0

    def _submit(self, request: Request) -> None:
        self._seq += 1
        request.sent_seq = self._seq
        request.sent_kernel = self.kernel.now
        request.sent_wall = _wall()
        self.requests.append(request)
        self.inflight += 1
        op = request.op
        self.runtime.submit(op.ref, op.method, op.args,
                            on_reply=lambda reply: self._on_reply(request,
                                                                  reply))

    def _on_reply(self, request: Request, reply: Any) -> None:
        request.replies += 1
        if request.replies > 1:
            return  # a duplicate: the exactly-once check reports it
        self._seq += 1
        request.done_seq = self._seq
        request.done_wall = _wall()
        request.done_kernel = self.kernel.now
        request.payload = reply.payload
        request.error = reply.error
        self.inflight -= 1
        self._replied(request)

    def _replied(self, request: Request) -> None:
        """Hook for the loop discipline."""

    def settled(self) -> bool:
        """Nothing left to send and nothing outstanding."""
        return self.inflight == 0

    def drain(self, timeout_ms: float) -> bool:
        """Run the kernel until the loop has settled (or the timeout, in
        kernel milliseconds, passes)."""
        return self.kernel.run_until(self.settled,
                                     max_time=self.kernel.now + timeout_ms)


class ClosedLoop(_Loop):
    """``outstanding`` clients, each sending its next request as soon as
    its previous one replies."""

    def __init__(self, runtime: Any, next_op: Callable[[], Any],
                 outstanding: int) -> None:
        super().__init__(runtime)
        self.next_op = next_op
        self.outstanding = outstanding
        self.open = False

    def start(self) -> None:
        self.open = True
        for _ in range(self.outstanding):
            self._submit(Request(self.next_op()))

    def stop(self) -> None:
        """Stop issuing; requests already sent still complete."""
        self.open = False

    def _replied(self, request: Request) -> None:
        if self.open:
            self._submit(Request(self.next_op()))


class OpenLoop(_Loop):
    """Requests fired at absolute due times on the kernel's clock."""

    def __init__(self, runtime: Any, ops: list[Any],
                 due_ms: list[float]) -> None:
        super().__init__(runtime)
        if len(ops) != len(due_ms):
            raise ValueError("one due time per operation")
        self._ops = ops
        self._due = due_ms
        #: Largest (fire time - due time) seen, kernel milliseconds.
        self.late_ms_max = 0.0

    def start(self) -> None:
        if self._ops:
            self.kernel.schedule_at(self._due[0], lambda: self._fire(0))

    def settled(self) -> bool:
        return self.inflight == 0 and len(self.requests) == len(self._ops)

    def _fire(self, index: int) -> None:
        request = Request(self._ops[index])
        request.due_kernel = self._due[index]
        self.late_ms_max = max(self.late_ms_max,
                               self.kernel.now - request.due_kernel)
        self._submit(request)
        following = index + 1
        if following < len(self._ops):
            self.kernel.schedule_at(self._due[following],
                                    lambda: self._fire(following))
