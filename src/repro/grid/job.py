"""Grid job records and their state machine."""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.errors import JobError
from repro.grid.rsl import JobDescription
from repro.simkernel.events import Event

__all__ = ["JobState", "GridJob"]


class JobState(enum.Enum):
    """Lifecycle of a grid job (GRAM-style)."""

    UNSUBMITTED = "unsubmitted"
    STAGE_IN = "stage_in"
    PENDING = "pending"      # queued at the local resource manager
    ACTIVE = "active"        # running on compute nodes
    STAGE_OUT = "stage_out"
    DONE = "done"
    FAILED = "failed"
    CANCELED = "canceled"


#: Legal transitions.  Terminal states have no successors.
_TRANSITIONS: Dict[JobState, frozenset] = {
    JobState.UNSUBMITTED: frozenset({JobState.STAGE_IN, JobState.PENDING,
                                     JobState.FAILED, JobState.CANCELED}),
    JobState.STAGE_IN: frozenset({JobState.PENDING, JobState.FAILED,
                                  JobState.CANCELED}),
    JobState.PENDING: frozenset({JobState.ACTIVE, JobState.FAILED,
                                 JobState.CANCELED}),
    JobState.ACTIVE: frozenset({JobState.STAGE_OUT, JobState.DONE,
                                JobState.FAILED, JobState.CANCELED}),
    JobState.STAGE_OUT: frozenset({JobState.DONE, JobState.FAILED,
                                   JobState.CANCELED}),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELED: frozenset(),
}

TERMINAL_STATES = frozenset({JobState.DONE, JobState.FAILED,
                             JobState.CANCELED})


class GridJob:
    """One submitted job: description + state + timing + results.

    Once terminal and done with, the site *retires* the record
    (:meth:`retire`): it keeps what a later lookup reads — state,
    output, times, failure reason — and lets the parsed description,
    the state history and the completion event go.
    """

    __slots__ = ("job_id", "description", "owner", "state", "history",
                 "runtime", "started_at", "finished_at", "output",
                 "output_size", "failure_reason", "completion")

    def __init__(self, job_id: str, description: JobDescription,
                 owner: str, submitted_at: float):
        self.job_id = job_id
        self.description: Optional[JobDescription] = description
        self.owner = owner
        self.state = JobState.UNSUBMITTED
        #: Timestamps of every state entry (state -> simulated time).
        self.history: Dict[JobState, float] = {
            JobState.UNSUBMITTED: submitted_at}
        #: Actual runtime, decided when the job starts executing.
        self.runtime: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Final output bytes (available once DONE).
        self.output: bytes = b""
        #: Total size the output will have (known while ACTIVE, for
        #: partial-output polling).
        self.output_size: int = 0
        self.failure_reason: str = ""
        #: Fires with this job once it is terminal (set by the site that
        #: runs it; dropped when the record is retired).
        self.completion: Optional[Event] = None

    # -- state machine --------------------------------------------------------

    def transition(self, new_state: JobState, now: float,
                   reason: str = "") -> None:
        """Move to *new_state*; raises :class:`JobError` if illegal."""
        if new_state not in _TRANSITIONS[self.state]:
            raise JobError(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}")
        self.state = new_state
        self.history[new_state] = now
        if new_state is JobState.ACTIVE:
            self.started_at = now
        if new_state in TERMINAL_STATES:
            self.finished_at = now
            if reason:
                self.failure_reason = reason

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def retire(self) -> None:
        """Drop what no lookup of a terminal job reads."""
        if not self.is_terminal:
            raise JobError(f"job {self.job_id} is still {self.state.value}")
        self.description = None
        self.history = None
        self.completion = None

    # -- progress ------------------------------------------------------------------

    def progress(self, now: float) -> float:
        """Execution progress in [0, 1] (0 before ACTIVE, 1 when DONE)."""
        if self.state is JobState.DONE:
            return 1.0
        if self.started_at is None or self.runtime in (None, 0):
            return 0.0
        return max(0.0, min(1.0, (now - self.started_at) / self.runtime))

    def output_available(self, now: float) -> int:
        """Bytes of output written so far (drives tentative polling)."""
        return int(self.output_size * self.progress(now))

    def queue_wait(self) -> Optional[float]:
        """Seconds spent PENDING, once the job has started (None before,
        and once the record is retired)."""
        if (self.started_at is None or not self.history
                or JobState.PENDING not in self.history):
            return None
        return self.started_at - self.history[JobState.PENDING]

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<GridJob {self.job_id} {self.state.value}>"
