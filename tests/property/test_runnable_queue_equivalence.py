"""RunnableQueue-backed policies pick exactly what a scan of the runnable list picks.

The oracle below is the list scan every policy used before the indexed
queue: walk the runnable tasks in FIFO order and return the first node-local
input task, else the first rack- or any-eligible one.  Hypothesis drives one
queue and one list through the same random history — enqueues, launches,
requeues that keep their old ``submitted_at``, KMN cancels, time advances,
replica add/loss, cache add/evict, hints — and after every step compares the
pick on every node (and executor), the Mesos offer answer and the next
wake-up.  A second property pins the driver's quiet-set rule over the same
histories: a None pick stays None until the queue's change count, the
NameNode version or the hints move.
"""

from __future__ import annotations

from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import Topology
from repro.hdfs.blocks import Block
from repro.hdfs.namenode import FileEntry, NameNode
from repro.scheduling.policies import (
    DelayScheduler,
    FifoScheduler,
    HintedDelayScheduler,
    LocalityFirstScheduler,
    TaskScheduler,
)
from repro.scheduling.queue import RunnableQueue
from repro.workload.task import Task, TaskKind

NODES = [f"n{i}" for i in range(6)]
EXECUTORS = [None, "e0", "e1", "e2"]
BLOCKS = 6
TASKS = 12  # t0..t8 read blocks, t9..t11 are shuffle tasks
# Steps chosen so that sums of them round (0.1 + 0.2 != 0.3): the exact
# float comparisons are what is under test.
STEPS = [0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.9, 3.0]


# ----------------------------------------------------------------- the oracle
def _is_local(task: Task, node_id: str, namenode: NameNode) -> bool:
    return node_id in namenode.serving_locations(task.block.block_id)


def _is_rack_local(sched, task, node_id, namenode) -> bool:
    rack = sched.topology.rack_of(node_id)
    return any(
        sched.topology.rack_of(holder) == rack
        for holder in namenode.serving_locations(task.block.block_id)
    )


def _scan_delay(sched, runnable, node_id, now, namenode) -> Optional[Task]:
    rack_fallback = None
    any_fallback = None
    laddered = sched.rack_wait is not None and sched.topology is not None
    for task in runnable:
        if not task.is_input:
            if any_fallback is None:
                any_fallback = task
            continue
        if _is_local(task, node_id, namenode):
            return task
        if task.submitted_at is None:
            continue
        waited = now - task.submitted_at
        if laddered:
            if (
                rack_fallback is None
                and waited >= sched.wait
                and _is_rack_local(sched, task, node_id, namenode)
            ):
                rack_fallback = task
            if any_fallback is None and waited >= sched.wait + sched.rack_wait:
                any_fallback = task
        elif any_fallback is None and waited >= sched.wait:
            any_fallback = task
    return rack_fallback if rack_fallback is not None else any_fallback


def scan_pick(sched, runnable, node_id, now, namenode, executor_id=None):
    """The list-scan ``pick_task`` of every policy."""
    if isinstance(sched, FifoScheduler):
        return runnable[0] if runnable else None
    if isinstance(sched, LocalityFirstScheduler):
        for task in runnable:
            if not task.is_input or _is_local(task, node_id, namenode):
                return task
        return None
    if isinstance(sched, HintedDelayScheduler):
        if executor_id is not None:
            for task in runnable:
                if sched.hints.get(task.task_id) == executor_id:
                    return task

        def reserved(task):
            hint = sched.hints.get(task.task_id)
            if hint is None or hint == executor_id:
                return False
            if task.submitted_at is None:
                return True
            return now - task.submitted_at < sched.wait

        runnable = [t for t in runnable if not reserved(t)]
    return _scan_delay(sched, runnable, node_id, now, namenode)


def scan_wakeup(sched, runnable, now) -> Optional[float]:
    """The list-scan ``next_wakeup`` (None for the wait-free policies)."""
    if not isinstance(sched, DelayScheduler):
        return None
    laddered = sched.rack_wait is not None and sched.topology is not None
    earliest = None
    for task in runnable:
        if task.is_input and task.submitted_at is not None:
            for expiry in (
                task.submitted_at + sched.wait,
                task.submitted_at + sched.wait + (sched.rack_wait or 0.0)
                if laddered
                else None,
            ):
                if expiry is not None and expiry > now:
                    if earliest is None or expiry < earliest:
                        earliest = expiry
    return earliest


# ------------------------------------------------------------------ the model
def make_topology() -> Topology:
    topo = Topology()
    for i, node in enumerate(NODES):
        topo.add_node(node, f"r{i // 2}")
    return topo


def make_namenode(replicas) -> NameNode:
    nn = NameNode()
    blocks = [Block(f"b{i}", path="/f", index=i, size=1.0) for i in range(BLOCKS)]
    nn.register_file(FileEntry(path="/f", size=float(BLOCKS), blocks=blocks))
    for b, n in replicas:
        nn.add_replica(f"b{b}", NODES[n])
    return nn


def make_tasks() -> List[Task]:
    tasks = []
    for i in range(TASKS):
        if i < 9:
            b = i % BLOCKS  # t0/t6, t1/t7, t2/t8 share a block
            tasks.append(Task(
                f"t{i}", job_id="j", app_id="a", stage_index=0,
                kind=TaskKind.INPUT, cpu_time=1.0,
                block=Block(f"b{b}", path="/f", index=b, size=1.0),
            ))
        else:
            tasks.append(Task(
                f"t{i}", job_id="j", app_id="a", stage_index=1,
                kind=TaskKind.SHUFFLE, cpu_time=1.0, shuffle_bytes=1.0,
            ))
    return tasks


def make_scheduler(kind: str, wait: float, rack_wait: float) -> TaskScheduler:
    topo = make_topology()
    if kind == "delay":
        return DelayScheduler(wait)
    if kind == "delay-ladder":
        return DelayScheduler(wait, rack_wait=rack_wait, topology=topo)
    if kind == "hinted":
        return HintedDelayScheduler(wait)
    if kind == "hinted-ladder":
        return HintedDelayScheduler(wait, rack_wait=rack_wait, topology=topo)
    if kind == "locality-first":
        return LocalityFirstScheduler()
    return FifoScheduler()


task_ix = st.integers(0, TASKS - 1)
block_ix = st.integers(0, BLOCKS - 1)
node_ix = st.integers(0, len(NODES) - 1)
ops = st.one_of(
    st.tuples(st.just("enqueue"), task_ix),
    st.tuples(st.just("requeue"), task_ix),
    st.tuples(st.just("launch"), node_ix, st.sampled_from(EXECUTORS)),
    st.tuples(st.just("cancel"), task_ix),
    st.tuples(st.just("advance"), st.sampled_from(STEPS)),
    st.tuples(st.just("add_replica"), block_ix, node_ix),
    st.tuples(st.just("lose_replica"), block_ix, node_ix),
    st.tuples(st.just("cache"), block_ix, node_ix),
    st.tuples(st.just("evict"), block_ix, node_ix),
    st.tuples(st.just("hint"), task_ix, st.sampled_from(EXECUTORS[1:])),
)


def check_all(sched, queue, runnable, now, namenode) -> None:
    assert list(queue) == runnable
    assert len(queue) == len(runnable)
    for node in NODES:
        for executor in EXECUTORS:
            expected = scan_pick(sched, runnable, node, now, namenode, executor)
            got = sched.pick_task(queue, node, now, namenode, executor_id=executor)
            assert got is expected, (node, executor, now)
        assert sched.accepts_offer(queue, node, now, namenode) == (
            scan_pick(sched, runnable, node, now, namenode) is not None
        )
    assert sched.next_wakeup(queue, now) == scan_wakeup(sched, runnable, now)


KINDS = ["delay", "delay-ladder", "hinted", "hinted-ladder", "locality-first", "fifo"]


class World:
    """One queue and one list driven through the same history."""

    def __init__(self, kind, wait, rack_wait, replicas):
        self.sched = make_scheduler(kind, wait, rack_wait)
        self.namenode = make_namenode(replicas)
        self.tasks = make_tasks()
        self.queue = RunnableQueue()
        self.runnable: List[Task] = []
        self.now = 0.0
        #: ``set_hints`` calls so far
        self.hints = 0

    def apply(self, op) -> None:
        sched, namenode, tasks = self.sched, self.namenode, self.tasks
        queue, runnable = self.queue, self.runnable
        name = op[0]
        if name in ("enqueue", "requeue"):
            task = tasks[op[1]]
            if task in runnable:
                return
            if name == "enqueue":
                task.submitted_at = self.now
            queue.push(task)
            runnable.append(task)
        elif name == "launch":
            node, executor = NODES[op[1]], op[2]
            task = scan_pick(sched, runnable, node, self.now, namenode, executor)
            got = sched.pick_task(queue, node, self.now, namenode, executor_id=executor)
            assert got is task
            if task is not None:
                queue.remove(task)
                runnable.remove(task)
        elif name == "cancel":
            task = tasks[op[1]]
            if task in runnable:
                queue.remove(task)
                runnable.remove(task)
        elif name == "advance":
            self.now += op[1]
        elif name == "add_replica":
            namenode.add_replica(f"b{op[1]}", NODES[op[2]])
        elif name == "lose_replica":
            namenode.remove_replica(f"b{op[1]}", NODES[op[2]])
        elif name == "cache":
            namenode.add_cached_replica(f"b{op[1]}", NODES[op[2]])
        elif name == "evict":
            namenode.remove_cached_replica(f"b{op[1]}", NODES[op[2]])
        elif name == "hint" and isinstance(sched, HintedDelayScheduler):
            sched.set_hints({tasks[op[1]].task_id: op[2]})
            self.hints += 1


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=120, deadline=None)
@given(
    wait=st.sampled_from([0.0, 0.2, 1.0, 3.0]),
    rack_wait=st.sampled_from([0.0, 0.1, 2.0]),
    replicas=st.lists(st.tuples(block_ix, node_ix), max_size=10),
    history=st.lists(ops, max_size=40),
)
def test_queue_picks_match_list_scan(kind, wait, rack_wait, replicas, history):
    world = World(kind, wait, rack_wait, replicas)
    for op in history:
        world.apply(op)
        check_all(world.sched, world.queue, world.runnable, world.now, world.namenode)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=120, deadline=None)
@given(
    wait=st.sampled_from([0.0, 0.2, 1.0, 3.0]),
    rack_wait=st.sampled_from([0.0, 0.1, 2.0]),
    replicas=st.lists(st.tuples(block_ix, node_ix), max_size=10),
    history=st.lists(ops, max_size=40),
)
def test_quiet_pick_stays_none_until_its_key_moves(
    kind, wait, rack_wait, replicas, history
):
    """The driver's quiet-set rule: an executor whose pick was None under
    the key ``(queue.advance(now), NameNode.version, hints)`` gets None
    again for as long as that key holds — whatever else happened (launches
    elsewhere, cancels, time passing without a promotion)."""
    world = World(kind, wait, rack_wait, replicas)
    quiet = {}  # (node, executor) → key its last None pick was made under
    for op in history:
        world.apply(op)
        for node in NODES:
            for executor in EXECUTORS[1:]:
                key = (
                    world.queue.advance(world.now),
                    world.namenode.version,
                    world.hints,
                )
                pick = world.sched.pick_task(
                    world.queue, node, world.now, world.namenode, executor_id=executor
                )
                if quiet.get((node, executor)) == key:
                    assert pick is None, (node, executor, world.now)
                if pick is None:
                    quiet[(node, executor)] = key
                else:
                    quiet.pop((node, executor), None)


@settings(max_examples=60, deadline=None)
@given(
    replicas=st.lists(st.tuples(block_ix, node_ix), min_size=1, max_size=10),
    times=st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.0, 3.0, 3.1, 6.0]), min_size=2, max_size=6),
)
def test_queries_out_of_time_order(replicas, times):
    """Asking about an earlier instant than the last one still matches."""
    namenode = make_namenode(replicas)
    tasks = make_tasks()
    for i, task in enumerate(tasks):
        task.submitted_at = 0.1 * i
    runnable = list(tasks)
    for sched in (
        DelayScheduler(1.0),
        DelayScheduler(1.0, rack_wait=2.0, topology=make_topology()),
    ):
        queue = RunnableQueue(runnable)
        for now in times:
            check_all(sched, queue, runnable, now, namenode)
