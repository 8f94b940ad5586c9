"""Task scheduling policies: which runnable task takes a free slot.

The scheduler answers one question, posed by the driver each time a slot on
executor *E* becomes available: *which runnable task (if any) should run on
E right now?*  Returning None leaves the slot idle — the delay-scheduling
bet that a local task will claim it soon.

Policies also expose :meth:`next_wakeup`, the earliest future time at which
a currently-ineligible task would become eligible (its locality wait
expiring), so the driver can re-dispatch exactly then.

Every policy answers from the driver's :class:`RunnableQueue`: each rule
below is "the FIFO-first task with property P", and the queue keeps a heap
per property, so a pick costs a few heap tops instead of a scan of the
runnable tasks.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Set, Tuple

from repro.cluster.topology import Topology
from repro.hdfs.namenode import NameNode
from repro.scheduling.queue import Accept, Entry, RunnableQueue
from repro.workload.task import Task

__all__ = [
    "TaskScheduler",
    "DelayScheduler",
    "HintedDelayScheduler",
    "LocalityFirstScheduler",
    "FifoScheduler",
]


class TaskScheduler(abc.ABC):
    """Strategy interface for in-application task placement."""

    @abc.abstractmethod
    def pick_task(
        self,
        runnable: RunnableQueue,
        node_id: str,
        now: float,
        namenode: NameNode,
        executor_id: Optional[str] = None,
    ) -> Optional[Task]:
        """Choose the task to launch on a free slot at ``node_id``, or None.

        ``executor_id`` identifies the specific executor offering the slot —
        only hint-aware policies use it; locality is node-level.
        """

    def next_wakeup(self, runnable: RunnableQueue, now: float) -> Optional[float]:
        """Earliest future time a scheduling decision could change, or None."""
        return None

    def accepts_offer(
        self,
        runnable: RunnableQueue,
        node_id: str,
        now: float,
        namenode: NameNode,
    ) -> bool:
        """Offer-model hook (Mesos): would this app use a slot on ``node_id``?"""
        return self.pick_task(runnable, node_id, now, namenode) is not None


def _earliest(*entries: Optional[Entry]) -> Optional[Task]:
    """The FIFO-first task among heap tops (None entries ignored)."""
    best: Optional[Entry] = None
    for entry in entries:
        if entry is not None and (best is None or entry[0] < best[0]):
            best = entry
    return best[1] if best is not None else None


class DelayScheduler(TaskScheduler):
    """Delay scheduling [22] with Spark's locality-wait ladder.

    FIFO over runnable tasks.  An input task prefers a **node-local** slot;
    with ``rack_wait`` and a topology configured it accepts a **rack-local**
    slot after waiting ``wait`` seconds since submission, and **any** slot
    after ``wait + rack_wait``.  Without a topology the ladder collapses to
    the two-level node→any scheme (any slot after ``wait``).  Shuffle tasks
    carry no locality preference and run anywhere immediately.  ``wait``
    defaults to 3 s — Spark's ``spark.locality.wait``.

    A pick is: the first node-local input task; else, on the ladder, the
    first rack-local task whose ``wait`` ran out; else the first of the
    shuffle tasks and the input tasks whose (whole) wait ran out.
    """

    def __init__(
        self,
        wait: float = 3.0,
        *,
        rack_wait: Optional[float] = None,
        topology: Optional[Topology] = None,
    ):
        if wait < 0:
            raise ValueError(f"wait must be >= 0, got {wait}")
        if rack_wait is not None and rack_wait < 0:
            raise ValueError(f"rack_wait must be >= 0, got {rack_wait}")
        if rack_wait is not None and topology is None:
            raise ValueError("rack_wait requires a topology")
        self.wait = wait
        self.rack_wait = rack_wait
        self.topology = topology

    def pick_task(
        self,
        runnable: RunnableQueue,
        node_id: str,
        now: float,
        namenode: NameNode,
        executor_id: Optional[str] = None,
    ) -> Optional[Task]:
        return self._pick(runnable, node_id, now, namenode, None)

    def _pick(
        self,
        runnable: RunnableQueue,
        node_id: str,
        now: float,
        namenode: NameNode,
        accept: Accept,
    ) -> Optional[Task]:
        local = runnable.first_local(node_id, namenode, accept)
        if local is not None:
            return local[1]
        if self.rack_wait is not None and self.topology is not None:
            rack_local = runnable.first_expired_in_rack(
                self.wait, now, node_id, self.topology, namenode, accept
            )
            if rack_local is not None:
                return rack_local[1]
            expired = runnable.first_expired(self.wait + self.rack_wait, now, accept)
        else:
            expired = runnable.first_expired(self.wait, now, accept)
        return _earliest(expired, runnable.first_shuffle(accept))

    def next_wakeup(self, runnable: RunnableQueue, now: float) -> Optional[float]:
        offsets: Tuple[float, ...] = (self.wait,)
        if self.rack_wait is not None and self.topology is not None:
            offsets = (self.wait, self.rack_wait)
        return runnable.next_expiry(offsets, now)


class LocalityFirstScheduler(TaskScheduler):
    """Hard locality constraint: input tasks only ever run locally.

    The Sparrow-style [23] constraint policy; used in ablations to measure
    the best locality any scheduler could reach on a given executor set (it
    may deadlock a job whose data the app's executors simply do not hold, so
    production use pairs it with a manager that guarantees coverage).
    """

    def pick_task(
        self,
        runnable: RunnableQueue,
        node_id: str,
        now: float,
        namenode: NameNode,
        executor_id: Optional[str] = None,
    ) -> Optional[Task]:
        return _earliest(
            runnable.first_local(node_id, namenode), runnable.first_shuffle()
        )


class HintedDelayScheduler(DelayScheduler):
    """Delay scheduling that honours Custody's per-task executor hints.

    Custody's allocator knows which executor it granted *for* which task
    (the z^u_ijk assignments); §V notes the suggestions could be submitted
    alongside the executor list.  This policy enforces them: a task hinted
    to executor *E* runs on E when E offers a slot, and other executors
    leave it alone until its delay wait expires (the hint acts as a
    reservation with the usual delay-scheduling escape hatch).
    """

    def __init__(
        self,
        wait: float = 3.0,
        *,
        rack_wait: Optional[float] = None,
        topology: Optional[Topology] = None,
    ):
        super().__init__(wait, rack_wait=rack_wait, topology=topology)
        self.hints: dict = {}
        #: executor id → ids of the tasks hinted to it
        self._hinted_to: Dict[str, Set[str]] = {}

    def set_hints(self, mapping: dict) -> None:
        """Merge task-id → executor-id hints from the latest allocation."""
        for task_id, executor_id in mapping.items():
            previous = self.hints.get(task_id)
            if previous is not None and previous != executor_id:
                self._hinted_to[previous].discard(task_id)
            self.hints[task_id] = executor_id
            self._hinted_to.setdefault(executor_id, set()).add(task_id)

    def _reserved_elsewhere(self, task: Task, executor_id: Optional[str], now: float) -> bool:
        hint = self.hints.get(task.task_id)
        if hint is None or hint == executor_id:
            return False
        # Reserved for another executor; the reservation lapses with the wait.
        if task.submitted_at is None:
            return True
        return now - task.submitted_at < self.wait

    def pick_task(
        self,
        runnable: RunnableQueue,
        node_id: str,
        now: float,
        namenode: NameNode,
        executor_id: Optional[str] = None,
    ) -> Optional[Task]:
        if executor_id is not None:
            queued = [runnable.get(t) for t in self._hinted_to.get(executor_id, ())]
            hinted = _earliest(*((runnable.seq_of(t), t) for t in queued if t is not None))
            if hinted is not None:
                return hinted
        return self._pick(
            runnable,
            node_id,
            now,
            namenode,
            lambda task: not self._reserved_elsewhere(task, executor_id, now),
        )


class FifoScheduler(TaskScheduler):
    """Zero-wait FIFO: take the oldest runnable task, locality be damned."""

    def pick_task(
        self,
        runnable: RunnableQueue,
        node_id: str,
        now: float,
        namenode: NameNode,
        executor_id: Optional[str] = None,
    ) -> Optional[Task]:
        return _earliest(runnable.first())
