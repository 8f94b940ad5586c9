"""RunnableQueue: one driver's runnable tasks, indexed for the task schedulers.

Every policy in :mod:`repro.scheduling.policies` asks the same kind of
question on each free slot: *which is the first task, in FIFO order, that is
node-local to this node / a shuffle task / an input task whose locality wait
has run out (and, on the rack ladder, is rack-local)?*  A list scan answers
it with one NameNode lookup per runnable task per free slot.  This queue
keeps one heap per predicate, so each answer is a heap top.

Invariants (DESIGN.md §5):

* **Sequence order.**  :meth:`RunnableQueue.push` stamps a task with the
  next value of a monotone counter.  FIFO order is sequence order; a
  requeued task goes to the back with a fresh number.  Every heap is keyed
  on that number (or on a time, then the number), so a heap's live top is
  the FIFO-first task with its property.
* **Lazy deletion.**  :meth:`RunnableQueue.remove` only forgets the task's
  number.  A heap entry ``(..., seq, task)`` is live iff ``task`` is queued
  under ``seq``; dead entries are dropped when they reach a top, and every
  heap is compacted once removals outnumber the live tasks, so memory stays
  O(live entries) and each operation O(log n) amortized.
* **NameNode version.**  The node index and the per-rack indices hold the
  serving locations of one :attr:`NameNode.version`.  A locality query
  against any other version (replica loss, re-replication, cache churn) or
  another NameNode rebuilds them first.
* **Exact wait comparisons.**  An input task's wait ``w`` has run out at
  ``now`` iff ``now - submitted_at >= w``, and a wake-up is the least expiry
  ``submitted_at + wait (+ rack_wait)`` with ``expiry > now`` — the float
  expressions of the original list scan.  Both tests are monotone in
  ``submitted_at`` and in ``now``, so a heap ordered by ``submitted_at``
  (by expiry) is drained from the top as time advances.  Should ``now`` go
  backwards, the affected structure is rebuilt from the live tasks.
* **Change count.**  :attr:`RunnableQueue.changes` grows on every push and
  on every promotion of a task from a rung's waiting heap to its expired
  heap; a rung rebuilt because ``now`` went backwards counts too.  Removals
  never grow it: every query is "the FIFO-first queued task with property
  P", and dropping tasks cannot turn a None answer into a task.  So a
  policy's None for one slot stays None while ``changes``, the NameNode
  version and the policy's hints stay put — the driver's quiet set rests
  on this (DESIGN.md §5).
* A task's ``submitted_at`` must not change while it is queued.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.workload.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Topology
    from repro.hdfs.namenode import NameNode

__all__ = ["Entry", "RunnableQueue"]

#: ``(seq, task)``: a task under its enqueue sequence number.
Entry = Tuple[int, Task]
Accept = Optional[Callable[[Task], bool]]

#: Dead entries tolerated beyond the live count before a compaction.
_SLACK = 256


class _Rung:
    """Input tasks split by one locality wait: still waiting, or expired."""

    __slots__ = ("wait", "now", "waiting", "expired", "racks", "unracked", "topology")

    def __init__(self, wait: float, waiting: List[Tuple[float, int, Task]]):
        self.wait = wait
        #: the latest ``now`` promoted to
        self.now = float("-inf")
        #: ``(submitted_at, seq, task)``, wait not yet run out
        self.waiting = waiting
        heapify(waiting)
        #: ``(seq, task)``, wait run out
        self.expired: List[Entry] = []
        #: rack id → expired tasks a node of that rack serves (rack ladder
        #: only; None until first asked, and after a NameNode change)
        self.racks: Optional[Dict[str, List[Entry]]] = None
        #: expired since ``racks`` was last brought up to date
        self.unracked: List[Entry] = []
        self.topology: Optional["Topology"] = None


class _Expiries:
    """Wake-up times ``submitted_at + offsets[0] (+ offsets[1] ...)``."""

    __slots__ = ("offsets", "now", "heap")

    def __init__(self, offsets: Tuple[float, ...]):
        self.offsets = offsets
        #: the latest ``now`` drained to
        self.now = float("-inf")
        #: ``(expiry, seq, task)``
        self.heap: List[Tuple[float, int, Task]] = []

    def add(self, submitted_at: float, seq: int, task: Task) -> None:
        expiry = submitted_at
        for offset in self.offsets:
            expiry = expiry + offset
            heappush(self.heap, (expiry, seq, task))


class RunnableQueue:
    """FIFO queue of runnable tasks with O(1) remove/contains and heap
    indices by node, rack, task kind and locality-wait expiry."""

    def __init__(self, tasks: Iterable[Task] = ()) -> None:
        #: queued task → its sequence number; insertion order is FIFO order
        self._seq: Dict[Task, int] = {}
        self._ids: Dict[str, Task] = {}
        self._counter = 0
        #: pushes + promotions so far (see the module docstring)
        self.changes = 0
        self._dead = 0
        self._head: List[Entry] = []
        self._shuffle: List[Entry] = []
        self._rungs: Dict[float, _Rung] = {}
        self._expiries: Dict[Tuple[float, ...], _Expiries] = {}
        # Location index, valid for (_namenode, _version).
        self._namenode: Optional["NameNode"] = None
        self._version = -1
        self._holders: Dict[str, List[str]] = {}
        self._by_node: Dict[str, List[Entry]] = {}
        #: input tasks pushed since the node index was last brought up to date
        self._unindexed: List[Entry] = []
        for task in tasks:
            self.push(task)

    # ------------------------------------------------------------ container
    def __len__(self) -> int:
        return len(self._seq)

    def __contains__(self, task: object) -> bool:
        return task in self._seq

    def __iter__(self) -> Iterator[Task]:
        """Queued tasks in FIFO order."""
        return iter(self._seq)

    def get(self, task_id: str) -> Optional[Task]:
        """The queued task with id ``task_id``, or None."""
        return self._ids.get(task_id)

    def seq_of(self, task: Task) -> Optional[int]:
        """``task``'s sequence number, or None when it is not queued."""
        return self._seq.get(task)

    def push(self, task: Task) -> None:
        """Append ``task`` at the back of the FIFO order."""
        if task in self._seq:
            raise ValueError(f"task {task.task_id} is already queued")
        seq = self._counter
        self._counter += 1
        self.changes += 1
        self._seq[task] = seq
        self._ids[task.task_id] = task
        entry = (seq, task)
        heappush(self._head, entry)
        if not task.is_input:
            heappush(self._shuffle, entry)
            return
        self._unindexed.append(entry)
        submitted_at = task.submitted_at
        if submitted_at is None:
            return
        for rung in self._rungs.values():
            heappush(rung.waiting, (submitted_at, seq, task))
        for expiries in self._expiries.values():
            expiries.add(submitted_at, seq, task)

    def remove(self, task: Task) -> None:
        """Take ``task`` out of the queue (O(1); its heap entries go dead)."""
        if self._seq.pop(task, None) is None:
            raise ValueError(f"task {task.task_id} is not queued")
        if self._ids.get(task.task_id) is task:
            del self._ids[task.task_id]
        self._dead += 1
        if self._dead > len(self._seq) + _SLACK:
            self._compact()

    # -------------------------------------------------------------- queries
    def first(self) -> Optional[Entry]:
        """The FIFO-first task."""
        return self._first(self._head)

    def first_shuffle(self, accept: Accept = None) -> Optional[Entry]:
        """The FIFO-first shuffle task (no locality preference)."""
        return self._first(self._shuffle, accept)

    def first_local(
        self, node_id: str, namenode: "NameNode", accept: Accept = None
    ) -> Optional[Entry]:
        """The FIFO-first input task whose block ``node_id`` serves."""
        if (
            self._unindexed
            or namenode is not self._namenode
            or namenode.version != self._version
        ):
            self._sync(namenode)
        return self._first(self._by_node.get(node_id), accept)

    def first_expired(
        self, wait: float, now: float, accept: Accept = None
    ) -> Optional[Entry]:
        """The FIFO-first input task with ``now - submitted_at >= wait``."""
        return self._first(self._promote(wait, now).expired, accept)

    def first_expired_in_rack(
        self,
        wait: float,
        now: float,
        node_id: str,
        topology: "Topology",
        namenode: "NameNode",
        accept: Accept = None,
    ) -> Optional[Entry]:
        """The FIFO-first expired input task that a node in ``node_id``'s
        rack serves."""
        rung = self._promote(wait, now)
        if self._first(rung.expired) is None:
            return None
        self._sync(namenode)
        if rung.racks is None or rung.topology is not topology:
            rung.racks = {}
            rung.topology = topology
            rung.unracked = [e for e in rung.expired if self._seq.get(e[1]) == e[0]]
        if rung.unracked:
            for entry in rung.unracked:
                if self._seq.get(entry[1]) != entry[0]:
                    continue
                racks = {
                    topology.rack_of(holder)
                    for holder in self._holders_of(namenode, entry[1].block.block_id)
                }
                for rack in racks:
                    heappush(rung.racks.setdefault(rack, []), entry)
            rung.unracked = []
        return self._first(rung.racks.get(topology.rack_of(node_id)), accept)

    def advance(self, now: float) -> int:
        """Promote every rung asked about so far to ``now``; return
        :attr:`changes`."""
        for wait in self._rungs:
            self._promote(wait, now)
        return self.changes

    def next_expiry(self, offsets: Tuple[float, ...], now: float) -> Optional[float]:
        """Least wake-up ``submitted_at + offsets[0] (+ offsets[1])`` over
        the queued input tasks that is ``> now``, or None."""
        expiries = self._expiries.get(offsets)
        if expiries is None or now < expiries.now:
            expiries = _Expiries(offsets)
            for task, seq in self._seq.items():
                if task.is_input and task.submitted_at is not None:
                    expiries.add(task.submitted_at, seq, task)
            self._expiries[offsets] = expiries
        expiries.now = now
        heap, seqs = expiries.heap, self._seq
        while heap:
            expiry, seq, task = heap[0]
            if expiry > now and seqs.get(task) == seq:
                return expiry
            heappop(heap)
        return None

    # ------------------------------------------------------------ internals
    def _first(self, heap: Optional[list], accept: Accept = None) -> Optional[Entry]:
        """Live top of a ``(seq, task)`` heap that ``accept`` admits.

        Dead entries on the way are dropped; live ones ``accept`` rejects
        are set aside and pushed back.
        """
        if not heap:
            return None
        seqs = self._seq
        rejected: List[Entry] = []
        found: Optional[Entry] = None
        while heap:
            entry = heap[0]
            if seqs.get(entry[1]) != entry[0]:
                heappop(heap)
            elif accept is None or accept(entry[1]):
                found = entry
                break
            else:
                rejected.append(heappop(heap))
        for entry in rejected:
            heappush(heap, entry)
        return found

    def _holders_of(self, namenode: "NameNode", block_id: str) -> List[str]:
        """``block_id``'s serving nodes, read once per NameNode version."""
        holders = self._holders.get(block_id)
        if holders is None:
            holders = namenode.serving_locations(block_id)
            self._holders[block_id] = holders
        return holders

    def _sync(self, namenode: "NameNode") -> None:
        """Bring the node index up to ``namenode``'s current version."""
        if namenode is not self._namenode or namenode.version != self._version:
            self._namenode = namenode
            self._version = namenode.version
            self._holders = {}
            self._by_node = {}
            self._unindexed = [(seq, t) for t, seq in self._seq.items() if t.is_input]
            for rung in self._rungs.values():
                rung.racks = None
        if not self._unindexed:
            return
        seqs, by_node = self._seq, self._by_node
        for entry in self._unindexed:
            seq, task = entry
            if seqs.get(task) != seq:
                continue
            for node in self._holders_of(namenode, task.block.block_id):
                heap = by_node.get(node)
                if heap is None:
                    by_node[node] = [entry]
                else:
                    heappush(heap, entry)
        self._unindexed = []

    def _promote(self, wait: float, now: float) -> _Rung:
        """The rung for ``wait``, with every task expired at ``now`` moved
        from ``waiting`` to ``expired``."""
        rung = self._rungs.get(wait)
        if rung is None or now < rung.now:
            if rung is not None:
                self.changes += 1  # rebuilt for an earlier ``now``
            rung = _Rung(
                wait,
                [
                    (t.submitted_at, seq, t)
                    for t, seq in self._seq.items()
                    if t.is_input and t.submitted_at is not None
                ],
            )
            self._rungs[wait] = rung
        rung.now = now
        waiting, seqs = rung.waiting, self._seq
        track_racks = rung.racks is not None
        while waiting:
            submitted_at, seq, task = waiting[0]
            if seqs.get(task) != seq:
                heappop(waiting)
            elif now - submitted_at >= wait:
                heappop(waiting)
                heappush(rung.expired, (seq, task))
                self.changes += 1
                if track_racks:
                    rung.unracked.append((seq, task))
            else:
                break
        return rung

    def _compact(self) -> None:
        """Drop every dead entry from every index."""
        seqs = self._seq

        def live(heap: list) -> list:
            kept = [e for e in heap if seqs.get(e[-1]) == e[-2]]
            heapify(kept)
            return kept

        self._head = live(self._head)
        self._shuffle = live(self._shuffle)
        self._unindexed = live(self._unindexed)
        self._by_node = {n: h for n, h in ((n, live(h)) for n, h in self._by_node.items()) if h}
        for rung in self._rungs.values():
            rung.waiting = live(rung.waiting)
            rung.expired = live(rung.expired)
            rung.unracked = live(rung.unracked)
            if rung.racks is not None:
                rung.racks = {r: live(h) for r, h in rung.racks.items()}
        for expiries in self._expiries.values():
            expiries.heap = live(expiries.heap)
        self._dead = 0
