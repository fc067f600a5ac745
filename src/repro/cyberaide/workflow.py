"""Workflow management over the Cyberaide agent.

The Cyberaide toolkit's flagship use case is "Experiment and Workflow
Management" (paper ref [36]): DAGs of grid jobs where an edge means
"downstream must not start before upstream finished".  This engine runs
such DAGs through the agent's web methods — upload once per distinct
executable, submit every node whose dependencies are satisfied (maximal
parallelism), and collect every node's output for the caller.

Nodes fail independently: a failed node poisons exactly its descendants;
independent branches keep running (an experiment's surviving arms still
produce data).
"""

from __future__ import annotations

import enum
from typing import Dict, Generator, Optional, Sequence, Set

from repro.cyberaide.jobspec import CyberaideJobSpec
from repro.errors import JobError, ReproError
from repro.simkernel.events import Event
from repro.simkernel.process import Process

__all__ = ["WorkflowNode", "Workflow", "NodeState", "WorkflowRunner"]


class NodeState(enum.Enum):
    WAITING = "waiting"
    READY = "ready"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    POISONED = "poisoned"   # an upstream dependency failed


class WorkflowNode:
    """One job in the DAG."""

    def __init__(self, name: str, spec: CyberaideJobSpec, payload: bytes,
                 depends_on: Sequence[str] = ()):
        if not name:
            raise ReproError("workflow node needs a name")
        self.name = name
        self.spec = spec
        self.payload = payload
        self.depends_on = tuple(depends_on)
        self.state = NodeState.WAITING
        self.job_id: str = ""
        self.output: bytes = b""
        self.error: str = ""
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<WorkflowNode {self.name!r} {self.state.value}>"


class Workflow:
    """A named DAG of :class:`WorkflowNode`."""

    def __init__(self, name: str):
        self.name = name
        self.nodes: Dict[str, WorkflowNode] = {}

    def add(self, node: WorkflowNode) -> WorkflowNode:
        if node.name in self.nodes:
            raise ReproError(f"duplicate workflow node {node.name!r}")
        self.nodes[node.name] = node
        return node

    def validate(self) -> None:
        """Check the DAG: known dependencies, no cycles."""
        for node in self.nodes.values():
            for dep in node.depends_on:
                if dep not in self.nodes:
                    raise ReproError(
                        f"node {node.name!r} depends on unknown {dep!r}")
        state: Dict[str, int] = {}  # 0 visiting, 1 done

        def visit(name: str, chain: tuple) -> None:
            s = state.get(name)
            if s == 1:
                return
            if s == 0:
                raise ReproError(
                    f"workflow cycle: {' -> '.join(chain + (name,))}")
            state[name] = 0
            for dep in self.nodes[name].depends_on:
                visit(dep, chain + (name,))
            state[name] = 1

        for name in self.nodes:
            visit(name, ())

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self.nodes.values():
            counts[node.state.value] = counts.get(node.state.value, 0) + 1
        return counts


class WorkflowRunner:
    """Executes a workflow through an agent stub.

    Parameters
    ----------
    sim:
        The simulator.
    agent_stub:
        A wsimport-generated CyberaideAgent stub (see
        :func:`repro.ws.client.generate_stub`).
    site:
        Target grid site for every node (a single-site experiment; the
        engine's unit of placement is the workflow, like early DAGMan
        deployments).
    poll_interval:
        The tentative-polling period used to detect node completion —
        workflows inherit the same agent limitation onServe works
        around.
    """

    def __init__(self, sim, agent_stub, site: str,
                 poll_interval: float = 5.0,
                 max_node_seconds: float = 6 * 3600.0):
        self.sim = sim
        self.agent = agent_stub
        self.site = site
        self.poll_interval = poll_interval
        self.max_node_seconds = max_node_seconds

    def run(self, workflow: Workflow, username: str,
            passphrase: str) -> Process:
        """Execute the whole DAG; the process-event's value is the workflow."""
        workflow.validate()

        def op() -> Generator[Event, None, Workflow]:
            session = yield from self.agent.authenticate(
                username=username, passphrase=passphrase)
            # Upload each distinct executable once.
            uploaded: Set[str] = set()
            for node in workflow.nodes.values():
                path = node.spec.staged_path()
                if path not in uploaded:
                    yield from self.agent.uploadExecutable(
                        session=session, site=self.site, path=path,
                        data=node.payload)
                    uploaded.add(path)

            running: Dict[str, Process] = {}
            while True:
                self._promote(workflow)
                for node in workflow.nodes.values():
                    if node.state is NodeState.READY:
                        node.state = NodeState.RUNNING
                        node.started_at = self.sim.now
                        running[node.name] = self.sim.process(
                            self._run_node(session, node),
                            name=f"wf:{workflow.name}:{node.name}")
                if not running:
                    break
                finished = yield self.sim.any_of(list(running.values()))
                for name, proc in list(running.items()):
                    if proc in finished:
                        del running[name]
            return workflow

        return self.sim.process(op(), name=f"workflow:{workflow.name}")

    # -- internals ------------------------------------------------------------

    def _promote(self, workflow: Workflow) -> None:
        """WAITING -> READY/POISONED based on dependency outcomes."""
        changed = True
        while changed:
            changed = False
            for node in workflow.nodes.values():
                if node.state is not NodeState.WAITING:
                    continue
                deps = [workflow.nodes[d] for d in node.depends_on]
                if any(d.state in (NodeState.FAILED, NodeState.POISONED)
                       for d in deps):
                    node.state = NodeState.POISONED
                    node.error = "upstream dependency failed"
                    changed = True
                elif all(d.state is NodeState.DONE for d in deps):
                    node.state = NodeState.READY
                    changed = True

    def _run_node(self, session: str,
                  node: WorkflowNode) -> Generator[Event, None, None]:
        try:
            tag = f"wf-{node.name}"
            rsl = node.spec.to_rsl(job_tag=tag)
            node.job_id = yield from self.agent.submitJob(
                session=session, site=self.site, rsl=rsl)
            stdout_path = node.spec.stdout_path(tag)
            deadline = self.sim.now + self.max_node_seconds
            while True:
                ready = yield from self.agent.outputReady(
                    session=session, site=self.site, path=stdout_path)
                if ready:
                    break
                if self.sim.now >= deadline:
                    raise JobError(f"node {node.name!r} exceeded "
                                   f"{self.max_node_seconds:.0f}s")
                yield self.sim.timeout(self.poll_interval)
            output = yield from self.agent.fetchOutput(
                session=session, site=self.site, jobId=node.job_id)
            if output and set(output) == {0}:
                raise JobError(f"node {node.name!r} produced no output "
                               f"(failed on the grid)")
            node.output = output
            node.state = NodeState.DONE
        except ReproError as exc:
            node.state = NodeState.FAILED
            node.error = str(exc)
        finally:
            node.finished_at = self.sim.now
