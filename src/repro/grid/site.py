"""A grid site: head node, storage area, compute partition, LRM.

The head node is a full simulated :class:`~repro.hardware.host.Host`
(transfers land on its NIC and disk); the compute partition is a
:class:`~repro.grid.node.NodePool` driven by the
:class:`~repro.grid.scheduler.BatchScheduler`.  The storage area is a
real ``path -> bytes`` store: staged executables are actual payloads,
and job outputs are actual profile-computed bytes.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.errors import GridError, JobError, JobNotFound, TransferSuperseded
from repro.grid.job import GridJob, JobState
from repro.grid.node import ComputeNode, NodePool
from repro.grid.rsl import JobDescription
from repro.grid.scheduler import BatchScheduler
from repro.hardware.host import Host, HostSpec
from repro.hardware.network import Network
from repro.security.gsi import GsiAcceptor
from repro.simkernel.events import Event
from repro.simkernel.kernel import Simulator
from repro.workloads.executables import get_profile, parse_payload

__all__ = ["GridSite", "QueuePolicy"]


class QueuePolicy:
    """Submission rules of one batch queue.

    Lower *priority* is served earlier — debug queues jump the line but
    cap walltime hard, exactly like production LRM configurations.
    """

    __slots__ = ("name", "max_walltime", "priority")

    DEFAULTS = {
        "debug": (1800, 0),        # 30 min cap, served first
        "normal": (24 * 3600, 10),
        "long": (7 * 24 * 3600, 20),
    }

    def __init__(self, name: str, max_walltime: int, priority: int):
        self.name = name
        self.max_walltime = max_walltime
        self.priority = priority

    @classmethod
    def default(cls, name: str) -> "QueuePolicy":
        max_walltime, priority = cls.DEFAULTS.get(name, (24 * 3600, 10))
        return cls(name, max_walltime, priority)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<QueuePolicy {self.name} wall<={self.max_walltime} "
                f"prio={self.priority}>")


class GridSite:
    """One supercomputing centre in the testbed."""

    def __init__(self, sim: Simulator, name: str, network: Network,
                 nodes: int = 16, cores_per_node: int = 8,
                 head_spec: Optional[HostSpec] = None,
                 queues: tuple = ("normal", "debug"),
                 node_speed: float = 1.0):
        self.sim = sim
        self.name = name
        self.head = Host(sim, f"{name}-head", network, head_spec or HostSpec(
            cores=8))
        self.pool = NodePool([
            ComputeNode(f"{name}-n{i:03d}", cores_per_node,
                        speed_factor=node_speed)
            for i in range(nodes)
        ])
        self.scheduler = BatchScheduler(sim, self.pool, name=f"{name}-lrm")
        #: queue name -> policy; plain names get the standard defaults.
        self.queues: Dict[str, QueuePolicy] = {
            q.name if isinstance(q, QueuePolicy) else q:
                q if isinstance(q, QueuePolicy) else QueuePolicy.default(q)
            for q in queues
        }
        #: The site's GSI endpoint; testbed wiring adds trusted CAs.
        self.acceptor = GsiAcceptor(f"{name}-gk")
        #: Storage area: absolute path -> bytes (real payloads/outputs).
        self.storage: Dict[str, bytes] = {}
        #: Ranged uploads still short of their file: (path, transfer id)
        #: -> the (offset, bytes) ranges landed so far.  Nothing here is
        #: visible to ``has_file`` / ``read_file`` / a job.
        self.incoming: Dict[Tuple[str, str], List[Tuple[int, bytes]]] = {}
        #: path -> id of the ranged transfer whose bytes are visible.
        self._visible_as: Dict[str, str] = {}
        #: path -> transfer id of the newest PUT commanded there (None:
        #: a whole file); only that transfer's ranges may land.
        self._writing: Dict[str, Optional[str]] = {}
        #: Ranges refused because a newer PUT was commanded at their
        #: path since their own (:meth:`begin_put`); a whole file counts
        #: as its one range.
        self.refused_ranges = 0
        self._jobs: Dict[str, GridJob] = {}
        self._job_counter = itertools.count(1)

    # -- storage -----------------------------------------------------------

    def begin_put(self, path: str, transfer: Optional[str] = None) -> None:
        """A PUT of *path* was commanded — one range of *transfer*, or a
        whole file.  It is now the path's current one: an unfinished
        transfer of other bytes there is dropped, and its late ranges
        are refused when they land (:meth:`store_file`)."""
        current = self._writing.get(path)
        if current is not None and current != transfer:
            self.incoming.pop((path, current), None)
        self._writing[path] = transfer

    def store_file(self, path: str, data: bytes, offset: int = 0,
                   total: Optional[int] = None,
                   transfer: Optional[str] = None) -> None:
        """Land *data* at *path*: a whole file, visible at once, or —
        with a *transfer* id — the bytes at *offset* of a *total*-byte
        file that becomes visible when the ranges carrying that id
        cover all of it.

        The id names the content (callers pass its digest), so ranges
        of one id are ranges of the same bytes whoever sends them and
        however often: a re-sent range, a second staging of the same
        bytes and a range arriving after its file became visible are
        all absorbed, and ranges of different ids never mix.

        Newest command wins: a range whose id is no longer the path's
        current one — its bytes were republished and a PUT of the new
        ones commanded since — and a whole file commanded before a
        ranged PUT of the path are refused with
        :class:`~repro.errors.TransferSuperseded`, so no sender takes
        them as landed; a refused range never opens a transfer.  Whole
        files among themselves keep "last to land wins" (the faithful
        re-upload of the same bytes).
        """
        if transfer is None:
            if self._writing.get(path) is not None:
                self._refuse(path, "a whole file")
            self.storage[path] = data
            self._visible_as.pop(path, None)
            return
        if total is None or offset < 0 or offset + len(data) > total:
            raise GridError(
                f"{self.name}: range {offset}+{len(data)} does not fit a "
                f"{total}-byte file ({path!r})")
        if self._writing.get(path, transfer) != transfer:
            self._refuse(path, f"a range of {transfer[:12]}")
        if self._visible_as.get(path) == transfer:
            return
        ranges = self.incoming.setdefault((path, transfer), [])
        ranges.append((offset, data))
        covered = 0
        for start, part in sorted(ranges, key=lambda r: r[0]):
            if start > covered:
                return
            covered = max(covered, start + len(part))
        if covered < total:
            return
        del self.incoming[(path, transfer)]
        self.storage[path] = _assemble(ranges, total)
        self._visible_as[path] = transfer

    def _refuse(self, path: str, what: str) -> None:
        self.refused_ranges += 1
        raise TransferSuperseded(
            f"{self.name}: {what} of {path!r} was refused: a newer PUT "
            f"was commanded there since")

    def transfer_of(self, path: str) -> Optional[str]:
        """The id of the ranged transfer whose bytes *path* shows (None:
        a whole file, or no file)."""
        return self._visible_as.get(path)

    def read_file(self, path: str) -> bytes:
        try:
            return self.storage[path]
        except KeyError:
            raise GridError(f"{self.name}: no file {path!r}") from None

    def has_file(self, path: str) -> bool:
        return path in self.storage

    def delete_file(self, path: str) -> None:
        self.storage.pop(path, None)
        self._visible_as.pop(path, None)

    # -- jobs --------------------------------------------------------------------

    def create_job(self, description: JobDescription, owner: str) -> GridJob:
        """Register a new job record (UNSUBMITTED).

        Enforces queue policy: the job's walltime request must fit the
        queue's cap.
        """
        policy = self.queues.get(description.queue)
        if policy is None:
            raise GridError(
                f"{self.name}: no queue {description.queue!r} "
                f"(have {sorted(self.queues)})")
        if description.max_wall_time > policy.max_walltime:
            raise GridError(
                f"{self.name}: queue {policy.name!r} caps walltime at "
                f"{policy.max_walltime}s (asked {description.max_wall_time}s)")
        job_id = f"{self.name}-job-{next(self._job_counter):05d}"
        job = GridJob(job_id, description, owner, self.sim.now)
        self._jobs[job_id] = job
        return job

    def get_job(self, job_id: str) -> GridJob:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise JobNotFound(f"{self.name}: unknown job {job_id!r}") from None

    def run_job(self, job: GridJob) -> Event:
        """Stage-in, queue and eventually execute *job*.

        Returns an event that fires with the job once it is terminal
        and its record retired; until then the record keeps the event as
        ``job.completion``.  The executable must already be in the site
        storage area (GridFTP put happens before submission — the JSE
        contract).  The profile gets the job's own random stream,
        ``sim.rng.one_shot(f"job:{job_id}")``, seeded on its first draw:
        the built-in profiles never draw, so a job seeds nothing.
        """
        path = job.description.executable
        job.transition(JobState.STAGE_IN, self.sim.now)
        if not self.has_file(path):
            job.transition(JobState.FAILED, self.sim.now,
                           reason=f"executable {path!r} not staged")
            return self._finish(job, f"job-failed:{job.job_id}")
        try:
            profile_name, options = parse_payload(self.read_file(path))
            profile = get_profile(profile_name)
            # Never retained, and seeded only if the profile draws.
            rng = self.sim.rng.lazy(f"job:{job.job_id}")
            runtime = profile.runtime(job.description.arguments,
                                      job.description.count, options, rng)
            job.output_size = profile.output_size(
                job.description.arguments, job.description.count, options)
        except JobError as exc:
            job.transition(JobState.FAILED, self.sim.now, reason=str(exc))
            return self._finish(job, f"job-failed:{job.job_id}")

        job.transition(JobState.PENDING, self.sim.now)
        policy = self.queues[job.description.queue]
        done = self.scheduler.submit(job, runtime, priority=policy.priority)
        finished = job.completion = self.sim.event(f"job-final:{job.job_id}")

        def _on_done(event: Event) -> None:
            finished_job: GridJob = event.value
            if finished_job.state is JobState.DONE:
                output = profile.compute_output(
                    finished_job.description.arguments,
                    finished_job.description.count, options)
                finished_job.output = output
                self.store_file(finished_job.description.stdout, output)
            finished_job.retire()
            finished.succeed(finished_job)

        done.add_callback(_on_done)
        return finished

    def _finish(self, job: GridJob, name: str) -> Event:
        """Retire a job that ended before reaching the LRM; its
        completion fires now."""
        job.retire()
        return self.sim.event(name).succeed(job)

    def completion(self, job_id: str) -> Event:
        """The event that fires with job *job_id* once it is terminal —
        for a retired record, a fresh one firing with it now."""
        job = self.get_job(job_id)
        if job.completion is not None:
            return job.completion
        return self.sim.event(f"job-final:{job_id}").succeed(job)

    def drop_job(self, job_id: str) -> None:
        """Forget a job record entirely (the lost-job fault).

        The handle stays with the caller, but every later lookup raises
        :class:`~repro.errors.JobNotFound` — modelling an LRM that
        accepted a submission and then lost it.
        """
        self._jobs.pop(job_id, None)

    def cancel_job(self, job_id: str) -> None:
        job = self.get_job(job_id)
        if job.is_terminal:
            raise JobError(f"job {job_id} already {job.state.value}")
        if job.state in (JobState.PENDING, JobState.ACTIVE):
            self.scheduler.cancel(job_id)
        else:
            job.transition(JobState.CANCELED, self.sim.now)

    def partial_output(self, job_id: str) -> bytes:
        """The output bytes written so far (placeholder until DONE).

        This is what the tentative output polling of §VIII.B reads: for a
        running job it returns a prefix-sized placeholder; once DONE it
        returns the real output.
        """
        job = self.get_job(job_id)
        if job.state is JobState.DONE:
            return job.output
        available = job.output_available(self.sim.now)
        return b"\x00" * available

    def fail_node(self, node_name: str) -> List[str]:
        """Kill a compute node; returns the job ids the failure took out."""
        return self.scheduler.fail_node(node_name)

    # -- capacity info (for MDS) --------------------------------------------------

    def info(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "total_cores": self.pool.total_cores,
            "free_cores": self.pool.free_cores,
            "queued_jobs": self.scheduler.queued_jobs,
            "running_jobs": self.scheduler.running_jobs,
            "queues": sorted(self.queues),
        }

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<GridSite {self.name!r} cores={self.pool.total_cores}>"


def _assemble(ranges: List[Tuple[int, bytes]], total: int) -> bytes:
    """The *total*-byte file that *ranges* cover.

    A striped stage sends zero-copy views of one ``bytes`` object, and a
    site-to-site copy sends the source's file itself as one range; when
    every range is that object, or a view of it equal to it at its
    offset, the object itself is the file and nothing is copied.
    """
    first = ranges[0][1]
    whole = first if type(first) is bytes else getattr(first, "obj", None)
    if (type(whole) is bytes and len(whole) == total
            and all(part is whole
                    or (getattr(part, "obj", None) is whole
                        and whole.startswith(part, start))  # a memcmp
                    for start, part in ranges)):
        return whole
    buffer = bytearray(total)
    for start, part in ranges:
        buffer[start:start + len(part)] = part
    return bytes(buffer)
