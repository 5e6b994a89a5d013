"""Non-blocking request objects returned by the simulated MPI calls."""

from __future__ import annotations

import typing as _t

from repro.des import Simulator
from repro.des.event import Event


class Request:
    """Base class: a pending non-blocking MPI operation.

    A request owns a DES :attr:`event` that fires at the operation's
    completion time.  ``test()`` is the *host-side* observation: it
    returns True only if the completion time has been reached — calling
    it is how a rank "progresses" MPI in the sense of the paper.
    """

    def __init__(self, sim: Simulator, kind: str, tag: int):
        self.sim = sim
        self.kind = kind
        self.tag = tag
        # unnamed: ``repr(request)`` shows kind and tag, built on demand
        self.event: Event = sim.event()
        self.posted_at = sim.now

    @property
    def complete(self) -> bool:
        """Whether the operation has finished (event fired)."""
        return self.event.triggered

    def test(self) -> bool:
        """Non-blocking completion probe, like ``MPI_Test``."""
        return self.complete

    @property
    def value(self) -> object:
        """The operation's result (payload for receives, reduced value
        for collectives); only valid once complete."""
        if not self.complete:
            raise RuntimeError(f"{self!r} is not complete")
        return self.event.value

    def __repr__(self) -> str:
        state = "complete" if self.complete else "pending"
        return f"<{self.__class__.__name__} {self.kind} tag={self.tag} {state}>"


class SendRequest(Request):
    """A pending ``isend``."""

    def __init__(self, sim: Simulator, dest: int, tag: int, nbytes: int, source: int = 0):
        super().__init__(sim, "isend", tag)
        self.source = source
        self.dest = dest
        self.nbytes = nbytes


class RecvRequest(Request):
    """A pending ``irecv``; its value is the sent payload."""

    def __init__(self, sim: Simulator, source: int, tag: int):
        super().__init__(sim, "irecv", tag)
        self.source = source


class CollectiveRequest(Request):
    """A pending non-blocking collective (allreduce / barrier)."""

    def __init__(self, sim: Simulator, kind: str, epoch: int):
        super().__init__(sim, kind, tag=epoch)
        self.epoch = epoch


def all_complete(requests: _t.Iterable[Request]) -> bool:
    """True if every request in ``requests`` is complete (``MPI_Testall``)."""
    return all(r.complete for r in requests)


def completed_subset(requests: _t.Iterable[Request]) -> list[Request]:
    """The completed subset of ``requests`` (``MPI_Testsome``)."""
    return [r for r in requests if r.complete]
