"""Open-loop read/write generator for the serve phase.

One thread walks one schedule.  Reads are sent at their due times without
waiting for earlier answers; every read is timed from its due time, so a
stall of the service's event loop is charged to every read it delays,
including reads the generator could only send late.  (The service's own
``loadgen.run_open_loop`` times from admission and would hide exactly
those stalls.)

A write is ``ServiceHandle.mutate_workload`` -- a blocking call -- followed
at once by a query pinned to the new version; update->answer runs from
the write call to that answer.  Because the generator issues everything
from one thread and the write is synchronous, every read resolves to a
known stream version, so each answer can be checked against
``repro.run`` on the same version.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

#: a generator that falls further behind its schedule than this has not
#: delivered the offered load; the run is reported as not correct
MAX_LATE_S = 2.0
#: how long the generator waits for the last answers after the window
DRAIN_TIMEOUT_S = 60.0
#: largest shift of a read off its grid slot, in read intervals
JITTER = 0.4


@dataclass
class Op:
    due: float
    kind: str  # "read" | "write"
    stream: str
    #: writes applied to the stream before a read, or including a write
    version: int
    batch: object = None
    sent: float = 0.0
    done: float = 0.0
    response: object = None
    error: str | None = None


def schedule(streams: list[str], writes: dict[str, list], window_s: float,
             read_rate: float, write_period_s: float, rng) -> list[Op]:
    """Reads at ``read_rate`` on random streams; one write per period,
    round robin over the streams.  Each read is shifted off its grid
    slot by a seeded jitter: on an exact grid, reads meet every periodic
    stall at the same phase each second and pile up into clusters that
    the 95th percentile jumps between."""
    n_reads = int(window_s * read_rate)
    jitter = rng.uniform(-JITTER, JITTER, size=n_reads)
    read_streams = rng.integers(0, len(streams), size=n_reads)
    ops = [Op((k + 0.5 + j) / read_rate, "read", streams[int(s)], 0)
           for k, (j, s) in enumerate(zip(jitter, read_streams))]
    next_batch = {name: 0 for name in streams}
    for w in range(int(window_s / write_period_s)):
        name = streams[w % len(streams)]
        k = next_batch[name]
        next_batch[name] = k + 1
        ops.append(Op((w + 0.5) * write_period_s, "write", name, 0,
                      batch=writes[name][k]))
    ops.sort(key=lambda op: op.due)
    version = {name: 0 for name in streams}
    for op in ops:
        if op.kind == "write":
            version[op.stream] += 1
        op.version = version[op.stream]
    return ops


def drive(handle, ops: list[Op], base_version: dict[str, int],
          tracer=None) -> dict:
    """Send ``ops`` on schedule and wait for every answer.

    ``base_version`` is each stream's version when it was registered.
    Returns the generator's worst lateness and the sending window.
    """

    def idle(name):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span("idle", name)

    def finish(op):
        def callback(future):
            op.done = time.perf_counter()
            try:
                op.response = future.result()
            except Exception as exc:  # recorded as a failed op
                op.error = repr(exc)
        return callback

    futures = []
    late_max = 0.0
    start = time.perf_counter() + 0.05
    for op in ops:
        op.due += start
        delay = op.due - time.perf_counter()
        if delay > 0:
            with idle("loadgen.sleep"):
                time.sleep(delay)
        op.sent = time.perf_counter()
        late_max = max(late_max, op.sent - op.due)
        if op.kind == "read":
            future = handle.submit(op.stream)
        else:
            try:
                delta = handle.mutate_workload(op.stream, op.batch)
            except Exception as exc:
                op.error = repr(exc)
                continue
            expected = base_version[op.stream] + op.version
            if delta.version_to != expected:
                op.error = (f"write made version {delta.version_to}, "
                            f"expected {expected}")
                continue
            future = handle.submit(op.stream, version=delta.version_to)
        future.add_done_callback(finish(op))
        futures.append(future)
    end = time.perf_counter()
    with idle("loadgen.drain"):
        for future in futures:
            with contextlib.suppress(Exception):
                future.result(timeout=DRAIN_TIMEOUT_S)
    return {"late_s_max": late_max, "window_s": end - start}
