"""Micro-batching: coalesce pending requests into batches.

A collection window's worth of pending requests is grouped by
:meth:`Request.batch_key` — workload fingerprint, template, engine,
device, params — and each group becomes one :class:`Batch`: **one** plan
build and **one** executor pass whose summary answers every member.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.service.request import Request
from repro.service.workers import BatchSpec

__all__ = ["Batch", "coalesce"]


@dataclass
class Batch:
    """One coalesced unit of execution plus the futures awaiting it."""

    key: tuple
    spec: BatchSpec
    requests: list[Request] = field(default_factory=list)
    futures: list = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def priority(self) -> str:
        """The batch's priority class (homogeneous: part of the key)."""
        return self.requests[0].priority if self.requests else "normal"

    @property
    def deadline_at(self) -> float | None:
        """Tightest absolute member deadline (None when none carries one)."""
        deadlines = [r.deadline_at for r in self.requests
                     if getattr(r, "deadline_at", None) is not None]
        return min(deadlines) if deadlines else None


def coalesce(pending: list[tuple]) -> list[Batch]:
    """Coalesce pending ``(request, future)`` pairs into batches.

    Batches come back in first-arrival order of their first member,
    so dispatch order tracks admission order.
    """
    batches: dict[tuple, Batch] = {}
    for request, future in pending:
        key = request.batch_key()
        batch = batches.get(key)
        if batch is None:
            spec = BatchSpec(
                template=(
                    request.template
                    if isinstance(request.template, str)
                    else request.template_obj
                ),
                workload=request.workload,
                kind=request.kind,
                device=request.device,
                params=request.params,
                engine=request.engine,
                backend=request.backend,
            )
            batch = batches[key] = Batch(key=key, spec=spec)
        batch.requests.append(request)
        batch.futures.append(future)
    return list(batches.values())
