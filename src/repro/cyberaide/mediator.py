"""The Cyberaide mediator: task queueing between clients and the agent.

In the Cyberaide architecture the mediator sits between user-facing
interfaces and the agent, queueing work and bounding concurrency so one
user's burst cannot monopolize the agent.  onServe's stress scenarios
(§VIII.D "multiple simultaneous requests") run through it.
"""

from __future__ import annotations

import enum
import inspect
import itertools
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.core.context import RequestContext, span
from repro.errors import ReproError
from repro.simkernel.events import Event
from repro.simkernel.kernel import Simulator
from repro.simkernel.resources import Resource

__all__ = ["TaskState", "Task", "Mediator"]


class TaskState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class Task:
    """One queued unit of work."""

    __slots__ = ("task_id", "label", "state", "submitted_at", "started_at",
                 "finished_at", "result", "error", "done_event", "ctx")

    def __init__(self, task_id: int, label: str, submitted_at: float,
                 done_event: Event,
                 ctx: Optional[RequestContext] = None):
        self.task_id = task_id
        self.label = label
        self.state = TaskState.QUEUED
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.done_event = done_event
        #: The task's request context (queue wait + run are spans of it).
        self.ctx = ctx

    @property
    def queue_wait(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<Task #{self.task_id} {self.label!r} {self.state.value}>"


class Mediator:
    """A concurrency-bounded task runner."""

    def __init__(self, sim: Simulator, max_concurrent: int = 4,
                 name: str = "mediator"):
        self.sim = sim
        self.name = name
        self._slots = Resource(sim, capacity=max_concurrent,
                               name=f"{name}-slots")
        self._counter = itertools.count(1)
        self.tasks: List[Task] = []

    def submit(self, factory: Callable[..., Generator], label: str = "",
               ctx: Optional[RequestContext] = None) -> Task:
        """Queue a task; *factory* builds its process generator when a
        concurrency slot frees up.

        The mediator is a request-fabric entry point: each task gets a
        :class:`RequestContext` (a child of *ctx* when one is passed, so
        the parent request is recorded in its baggage).  A *factory*
        declaring a parameter receives the task's context.

        The task's ``done_event`` fires with the task itself once it
        finishes (success or failure — inspect ``state``/``error``).
        """
        if ctx is not None:
            task_ctx = ctx.child()
        else:
            task_ctx = RequestContext.create(self.sim, principal=self.name)
        task = Task(next(self._counter), label or f"task-{self.name}",
                    self.sim.now, self.sim.event(), ctx=task_ctx)
        self.tasks.append(task)
        # Only factories that *ask* for the context (a parameter named
        # "ctx") receive it — default-argument lambdas stay untouched.
        wants_ctx = "ctx" in inspect.signature(factory).parameters

        def runner() -> Generator[Event, None, None]:
            request = self._slots.request()
            with span(task_ctx, "mediator:queued"):
                yield request
            task.state = TaskState.RUNNING
            task.started_at = self.sim.now
            try:
                with span(task_ctx, "mediator:run", task=task.task_id):
                    generator = factory(ctx=task_ctx) if wants_ctx \
                        else factory()
                    task.result = yield self.sim.process(
                        generator, name=f"mediator:{task.label}")
                task.state = TaskState.DONE
            except ReproError as exc:
                task.state = TaskState.FAILED
                task.error = exc
            finally:
                task.finished_at = self.sim.now
                self._slots.release(request)
                task.done_event.succeed(task)

        self.sim.process(runner(), name=f"mediator-run:{task.label}")
        return task

    def wait_all(self) -> Event:
        """An event firing once every submitted task has finished."""
        pending = [t.done_event for t in self.tasks
                   if t.state in (TaskState.QUEUED, TaskState.RUNNING)]
        return self.sim.all_of(pending)

    def stats(self) -> Dict[str, Any]:
        done = [t for t in self.tasks if t.state is TaskState.DONE]
        failed = [t for t in self.tasks if t.state is TaskState.FAILED]
        waits = [t.queue_wait for t in self.tasks
                 if t.queue_wait is not None]
        return {
            "submitted": len(self.tasks),
            "done": len(done),
            "failed": len(failed),
            "mean_queue_wait": sum(waits) / len(waits) if waits else 0.0,
        }
