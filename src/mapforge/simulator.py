"""Deterministic bulk-synchronous cost model for mapped applications.

One iteration is modeled as: assign every launch point to a processor
through its index-mapping function (block distribution over the base
grid when none is given), place every region argument (first fit down
its memory preference list, per node), check layout requirements, then
charge

    compute(proc) = sum over tasks of
        waves * launch_overhead + points * flops / rate * penalties
    comm(link)    = sum over transfers of bytes / bandwidth

and take ``wall_time = iterations * (max compute + max comm)``.

Waves model concurrent task instances: a processor runs its points for
one task in ceil(points / width) batches, where the width is the
processor kind's concurrency capped by any InstanceLimit for the task.
Penalties capture the layout and memory trade-offs: AOS data on a GPU,
under-aligned data, and GPU compute out of zero-copy memory are slower.
Transfers between points on the same processor are free, as are
same-node transfers within one node-shared memory (anything but FBMEM,
which is private to each GPU).

Each mapping function runs once per task over all of its launch points
(see :mod:`mapforge.evaluator`), and each exchange's point pairs are
generated and charged as arrays of row-major point indices, in chunks.
Sums of floats are still taken one term at a time in the order of a
loop over the points and pairs, so results are the same to the bit.

A search run passes a :class:`SimMemo`, because its candidates share
most decisions.  A task's points depend only on its processor kind, its
mapping function and the closure that function runs in (the table's
bindings and functions, compared as syntax trees, so a text parsed
afresh finds the closure of an equal earlier one), and the link totals
only on the exchanging tasks' points and their regions' memories per
node.  So a run maps each task once per distinct such input, and
charges the exchanges once per distinct sequence of them.  A miss
computes from zero, and a hit returns what that miss computed, kept
read-only, so a call gives the same result and error text to the bit
with a fresh memo (what a call without one uses) as with a shared one.

The model is not event-driven and knows nothing about network topology
or load imbalance over time; it exists to rank mappers deterministically.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import numpy as np

from .binder import MappingDecisionTable
from .configs import ApplicationDescriptor, CostParams, ExchangeRule, TaskSpec
from .evaluator import EvalEnv, EvalError, TaskHandle, build_env, eval_launch
from .machine import MachineModel, ProcIndex, SpaceError
from .ast import FuncDef, MapperProgram

# Memories shared by all processors of a node; FBMEM is per-GPU, so
# moving data between two GPUs' framebuffers costs bandwidth even on
# one node.
NODE_SHARED_MEMS = frozenset({"SYSMEM", "ZCMEM", "RDMEM", "SOCKMEM"})

# Alignment guarantees (bytes) below which compute pays the
# misalignment penalty.
PREFERRED_ALIGN = {"GPU": 64, "CPU": 16, "OMP": 16}


# --------------------------------------------------------------------------
# Results and errors
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SimResult:
    wall_time: float
    throughput: float  # flops/s for gflops apps, iterations/s otherwise
    per_task_compute: Mapping[str, float]
    comm_time: float
    peak_memory: Mapping[tuple[int, str], float]
    inter_node_bytes: float


@dataclass(frozen=True)
class OutOfMemory:
    node: int
    mem: str
    requested: float
    capacity: float

    def render(self) -> str:
        return (f"Failed allocation of {self.requested:.0f} bytes in "
                f"{self.mem} memory on node {self.node} "
                f"(capacity {self.capacity:.0f} bytes)")


@dataclass(frozen=True)
class LayoutMismatch:
    task: str
    region: str
    kind: str = "stride"  # "stride" | "dgemm"

    def render(self) -> str:
        if self.kind == "dgemm":
            return "DGEMM parameter number 8 had an illegal value"
        return "Assertion failed: stride does not match expected value."


@dataclass(frozen=True)
class MappingError:
    text: str

    def render(self) -> str:
        return self.text


SimError = Union[OutOfMemory, LayoutMismatch, MappingError]


@dataclass
class SimMemo:
    """What ``simulate`` reuses within one run, for one app on one machine.

    ``closures`` maps a table's closure, its bindings and functions
    compared as ASTs, so that equal statements from separate parses share
    one entry, to (closure id, its environment or MappingError).
    ``tasks`` maps (task, processor kind, function name, closure id or
    None without a function) to the task's (N, 2) processor rows or its
    MappingError.
    ``links`` maps the exchange inputs, each exchange's task key and
    per-node memories in rule order, to the read-only link totals.
    Nothing is evicted: the memo grows with the distinct keys, by an
    (N, 2) array per task key, so it is kept for one run only.
    """
    closures: dict = field(default_factory=dict)
    tasks: dict = field(default_factory=dict)
    links: dict = field(default_factory=dict)

    def closure(self, table: MappingDecisionTable, machine: MachineModel,
                ) -> tuple[int, EvalEnv | MappingError]:
        statements = table.bindings + tuple(table.functions.values())
        entry = self.closures.get(statements)
        if entry is None:
            entry = self.closures[statements] = (len(self.closures),
                                                 _env(table, machine))
        return entry


# --------------------------------------------------------------------------
# Penalties
# --------------------------------------------------------------------------


def _layout_penalty(table: MappingDecisionTable, task: TaskSpec, proc: str,
                    params: CostParams) -> float:
    penalty = 1.0
    for arg in task.args:
        layout = table.region_layout[(task.name, arg.region)]
        factor = 1.0
        if proc == "GPU" and layout.aos_or_soa == "AOS":
            factor *= params.aos_gpu_penalty
        if layout.align is not None and layout.align[1] < PREFERRED_ALIGN[proc]:
            factor *= params.misalign_penalty
        penalty = max(penalty, factor)
    return penalty


def _memory_penalty(placement, task: TaskSpec, proc: str,
                    params: CostParams) -> float:
    if proc != "GPU":
        return 1.0
    penalty = 1.0
    for arg in task.args:
        mems = placement.get((task.name, arg.region), {})
        if any(m == "ZCMEM" for m in mems.values()):
            penalty = max(penalty, params.zcmem_gpu_penalty)
    return penalty


# --------------------------------------------------------------------------
# Point-to-processor assignment
# --------------------------------------------------------------------------


def _launch_domain(task: TaskSpec) -> tuple[int, ...]:
    return task.domain if task.launch == "index" else (1,) * len(task.domain)


def _default_block(domain: tuple[int, ...], machine: MachineModel,
                   kind: str) -> np.ndarray:
    """Block distribution of the row-major points over the base grid."""
    count = machine.count(kind)
    points = math.prod(domain)
    # Point i goes to linear processor i * P // N of the P processors.
    linear = np.arange(points) * (machine.nodes * count) // points
    procs = np.empty((points, 2), dtype=np.int64)
    np.divmod(linear, count, out=(procs[:, 0], procs[:, 1]))
    return procs


def _env(table: MappingDecisionTable, machine: MachineModel) -> EvalEnv | MappingError:
    """The environment of a table's closure: its bindings and functions."""
    program = MapperProgram(table.bindings + tuple(table.functions.values()))
    try:
        return build_env(program, machine)
    except (EvalError, SpaceError) as exc:
        return MappingError(str(exc))


def _assign(app: ApplicationDescriptor, table: MappingDecisionTable,
            machine: MachineModel, memo: SimMemo,
            ) -> tuple[dict[str, np.ndarray], dict[str, tuple]] | MappingError:
    """Map every launch point of every task to a processor: for each task,
    an (N, 2) array of (node, local) rows in row-major point order, and
    its key in ``memo.tasks``.  Each mapping function runs once per task
    over all of its points, and once per memo for each task key."""
    closure, env = memo.closure(table, machine)
    if isinstance(env, MappingError):
        return env
    assignment: dict[str, np.ndarray] = {}
    keys: dict[str, tuple] = {}
    for task in app.tasks:
        kind = table.task_proc[task.name]
        func_name = (table.index_map.get(task.name) if task.launch == "index"
                     else table.single_map.get(task.name))
        func = table.functions.get(func_name) if func_name else None
        key = keys[task.name] = (task.name, kind, func_name,
                                 None if func is None else closure)
        procs = memo.tasks.get(key)
        if procs is None:
            procs = memo.tasks[key] = _assign_task(task, kind, func_name, func,
                                                   machine, env)
            if isinstance(procs, np.ndarray):
                procs.flags.writeable = False
        if isinstance(procs, MappingError):
            return procs
        assignment[task.name] = procs
    return assignment, keys


def _assign_task(task: TaskSpec, kind: str, func_name: Optional[str],
                 func: Optional[FuncDef], machine: MachineModel,
                 env: EvalEnv) -> np.ndarray | MappingError:
    """One task's (N, 2) processor rows, by ``func`` or by the default
    block distribution when there is none."""
    domain = _launch_domain(task)
    if func is None:
        if machine.count(kind) < 1:
            return MappingError(f"no {kind} processors on machine {machine.name}")
        return _default_block(domain, machine, kind)
    root = TaskHandle("__root__", (0,), (1,), processor=ProcIndex(0, 0))
    procs, error = eval_launch(func, task.name, domain, env, parent=root)
    bad = ((procs < 0).any(axis=1) | (procs[:, 0] >= machine.nodes)
           | (procs[:, 1] >= machine.count(kind)))
    if bad.any():
        node, local = procs[np.argmax(bad)].tolist()
        return MappingError(
            f"Slice processor index out of bound: mapping function "
            f"{func_name} produced ({node}, {local}) for "
            f"{machine.nodes} nodes with {machine.count(kind)} "
            f"{kind} processors each")
    if error is not None:
        return MappingError(str(error))
    return procs


def assign_points(app: ApplicationDescriptor, table: MappingDecisionTable,
                  machine: MachineModel,
                  ) -> dict[str, dict[tuple[int, ...], ProcIndex]] | MappingError:
    """Map every launch point of every task to a concrete processor."""
    assigned = _assign(app, table, machine, SimMemo())
    if isinstance(assigned, MappingError):
        return assigned
    assignment, _ = assigned
    return {
        task.name: dict(zip(
            itertools.product(*map(range, _launch_domain(task))),
            itertools.starmap(ProcIndex, assignment[task.name].tolist())))
        for task in app.tasks}


# --------------------------------------------------------------------------
# Memory placement
# --------------------------------------------------------------------------


def _place_regions(app: ApplicationDescriptor, table: MappingDecisionTable,
                   machine: MachineModel, assignment,
                   ) -> Union[tuple[dict, dict], OutOfMemory]:
    """First-fit placement of each (task, region argument) per node.

    Returns (placement, peak): placement maps (task, region) ->
    {node: mem}, and peak maps (node, mem) -> the most bytes placed there
    at once.
    """
    usage: dict[tuple[int, str], float] = {}
    peak: dict[tuple[int, str], float] = {}
    placement: dict[tuple[str, str], dict[int, str]] = {}
    node_share: dict[tuple[str, str, int], float] = {}

    def bump(node: int, mem: str, amount: float):
        key = (node, mem)
        usage[key] = usage.get(key, 0.0) + amount
        peak[key] = max(peak.get(key, 0.0), usage[key])

    for task in app.tasks:
        nodes = assignment[task.name][:, 0]
        total = len(nodes)
        per_node = {node: n for node, n in enumerate(np.bincount(nodes).tolist()) if n}
        for arg in task.args:
            region = app.region(arg.region)
            prefs = table.region_mem[(task.name, arg.region)]
            placed: dict[int, str] = {}
            for node in sorted(per_node):
                share = region.footprint * per_node[node] / total
                chosen = None
                for mem in prefs:
                    capacity = machine.mem_capacity.get(mem, 0.0)
                    if usage.get((node, mem), 0.0) + share <= capacity:
                        chosen = mem
                        break
                if chosen is None:
                    first = prefs[0]
                    return OutOfMemory(node, first, share,
                                       machine.mem_capacity.get(first, 0.0))
                bump(node, chosen, share)
                placed[node] = chosen
                node_share[(task.name, arg.region, node)] = share
            placement[(task.name, arg.region)] = placed
        # Collected regions are freed once their task's phase completes.
        for arg in task.args:
            if (task.name, arg.region) in table.collect:
                for node, mem in placement[(task.name, arg.region)].items():
                    usage[(node, mem)] -= node_share[(task.name, arg.region, node)]
    return placement, peak


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def simulate(app: ApplicationDescriptor, table: MappingDecisionTable,
             machine: MachineModel, params: CostParams,
             memo: Optional[SimMemo] = None) -> SimResult | SimError:
    """Simulate ``app`` mapped by ``table`` on ``machine``.  A memo, kept
    for one app on one machine, reuses the point assignments and link
    totals of earlier calls; without one the call uses a fresh memo."""
    memo = SimMemo() if memo is None else memo
    assigned = _assign(app, table, machine, memo)
    if isinstance(assigned, MappingError):
        return assigned
    assignment, keys = assigned

    placed = _place_regions(app, table, machine, assignment)
    if isinstance(placed, OutOfMemory):
        return placed
    placement, peak = placed

    # Layout requirements of the chosen variants.
    for task in app.tasks:
        variant = task.variant_for(table.task_proc[task.name])
        for arg in task.args:
            layout = table.region_layout[(task.name, arg.region)]
            if variant.layout != "any" and variant.layout != layout.aos_or_soa:
                return LayoutMismatch(task.name, arg.region, "stride")
            if variant.order != "any" and variant.order != layout.order:
                kind = "dgemm" if app.metric == "gflops" else "stride"
                return LayoutMismatch(task.name, arg.region, kind)

    # Compute time per processor; a processor is (kind, node, local).
    # Each task's total sums its processors in the order its row-major
    # points first reach them (Counter keeps first-insertion order).
    proc_time: dict[tuple[str, int, int], float] = {}
    per_task: dict[str, float] = {}
    for task in app.tasks:
        kind = table.task_proc[task.name]
        lay_pen = _layout_penalty(table, task, kind, params)
        mem_pen = _memory_penalty(placement, task, kind, params)
        point_time = task.flops_per_point / machine.compute_rate[kind] * lay_pen * mem_pen
        width = machine.concurrency.get(kind, 1)
        limit = table.instance_limit.get(task.name)
        if limit is not None:
            width = min(width, limit)
        count = machine.count(kind)
        points_per_proc = Counter(_proc_ids(assignment[task.name], count).tolist())
        task_total = 0.0
        for proc, n_points in points_per_proc.items():
            waves = -(-n_points // width)
            t = waves * machine.latency[kind] + n_points * point_time
            key = (kind, proc // count, proc % count)
            proc_time[key] = proc_time.get(key, 0.0) + t
            task_total += t
        per_task[task.name] = task_total

    # Communication time per link from the exchange rules.
    key = tuple((keys[rule.task],
                 tuple(placement.get((rule.task, rule.region), {}).items()))
                for rule in app.exchanges)
    totals = memo.links.get(key)
    if totals is None:
        # Slot a * nodes + b holds link (a, b), a <= b; the last slot
        # holds the inter-node bytes.
        totals = memo.links[key] = np.zeros(machine.nodes * machine.nodes + 1)
        for rule in app.exchanges:
            task = app.task(rule.task)
            mems = placement.get((task.name, rule.region), {})
            count = machine.count(table.task_proc[task.name])
            _charge_exchange(rule, task.domain, assignment[task.name], count,
                             mems, machine, totals)
        totals.flags.writeable = False
    link_time = totals[:-1].tolist()
    inter_node_bytes = float(totals[-1])

    compute = max(proc_time.values(), default=0.0)
    comm = max(link_time, default=0.0)
    wall = app.iterations * (compute + comm)
    if wall <= 0.0:
        wall = 1e-12
    if app.metric == "gflops":
        flops = sum(t.flops_per_point * t.points for t in app.tasks) * app.iterations
        throughput = flops / wall
    else:
        throughput = app.iterations / wall
    for name, value in (("wall time", wall), ("throughput", throughput)):
        if not math.isfinite(value):
            return MappingError(f"Simulation produced a non-finite {name}: {value}")
    return SimResult(
        wall_time=wall,
        throughput=throughput,
        per_task_compute={t: per_task[t] for t in sorted(per_task)},
        comm_time=app.iterations * comm,
        peak_memory={k: peak[k] for k in sorted(peak)},
        inter_node_bytes=app.iterations * inter_node_bytes,
    )


# --------------------------------------------------------------------------
# Exchanges
# --------------------------------------------------------------------------

# Exchange pairs are generated and charged in chunks of about this many,
# so that memory stays flat on large launch domains.
PAIR_CHUNK = 1 << 14


def _proc_ids(procs: np.ndarray, count: int) -> np.ndarray:
    """One integer per point for its processor: node * count + local."""
    return procs[:, 0] * count + procs[:, 1]


def _pair_chunks(rule: ExchangeRule, domain: tuple[int, ...]):
    """Yield (source, destination) arrays of row-major point indices for
    the ordered pairs of one exchange, in chunks: destinations in
    row-major order, and for each its offsets in rule order (stencil) or
    the other points along the axis in increasing order (all-to-all)."""
    rank = len(domain)
    strides = [math.prod(domain[k + 1:]) for k in range(rank)]
    if rule.pattern == "stencil":
        shifts = np.array(rule.offsets).reshape(-1, rank)
    else:  # all-to-all: the axis coordinate is replaced, not shifted
        shifts = np.zeros((domain[rule.axis], rank), dtype=np.int64)
        shifts[:, rule.axis] = np.arange(domain[rule.axis])
    masked = rule.pattern == "alltoall" or not rule.wrap
    size = math.prod(domain)
    step = max(1, PAIR_CHUNK // len(shifts))
    for start in range(0, size, step):
        dst = np.arange(start, min(start + step, size))
        src = np.zeros((len(dst), len(shifts)), dtype=np.int64)
        keep = np.ones(src.shape, dtype=bool) if masked else None
        for k in range(rank):
            coord = (dst // strides[k] % domain[k])[:, None]
            if rule.pattern == "alltoall" and k == rule.axis:
                moved = np.broadcast_to(shifts[:, k], src.shape)
                keep &= moved != coord
            else:
                moved = coord + shifts[:, k]
                if rule.wrap:
                    moved %= domain[k]
                elif keep is not None:
                    keep &= (moved >= 0) & (moved < domain[k])
            src += moved * strides[k]
        if keep is None:
            yield src.ravel(), np.repeat(dst, len(shifts))
        else:
            yield src[keep], np.broadcast_to(dst[:, None], src.shape)[keep]


def _charge_exchange(rule: ExchangeRule, domain: tuple[int, ...],
                     procs: np.ndarray, count: int, mems: Mapping[int, str],
                     machine: MachineModel, totals: np.ndarray) -> None:
    """Add one exchange's link times and inter-node bytes to ``totals``.

    Pairs on one processor are free, as are same-node pairs within one
    node-shared memory.  Every other pair adds bytes / bandwidth to its
    link, and an inter-node pair also adds its bytes to the inter-node
    total.  ``np.add.at`` adds onto the running sums one pair at a time
    in pair order, as a loop over the pairs does, so the sums are the
    same to the bit.
    """
    ids = _proc_ids(procs, count)
    nodes = machine.nodes
    # Per route (source node * nodes + destination node): the link time
    # of one pair and its slot in ``totals``, -1 for a free route.
    route_time = np.zeros(nodes * nodes)
    route_slot = np.full(nodes * nodes, -1)
    known: set[int] = set()
    for src, dst in _pair_chunks(rule, domain):
        src, dst = ids[src], ids[dst]
        moved = src != dst
        src_node, dst_node = src[moved] // count, dst[moved] // count
        routes = src_node * nodes + dst_node
        for route in set(np.flatnonzero(np.bincount(routes)).tolist()) - known:
            route_time[route], route_slot[route] = _route_weight(
                rule, divmod(route, nodes), mems, machine)
            known.add(route)
        slot = route_slot[routes]
        charged = slot >= 0
        np.add.at(totals, slot[charged], route_time[routes[charged]])
        inter = np.count_nonzero(src_node != dst_node)
        np.add.at(totals, np.full(inter, len(totals) - 1), rule.bytes_per_point)


def _route_weight(rule: ExchangeRule, route: tuple[int, int],
                  mems: Mapping[int, str], machine: MachineModel,
                  ) -> tuple[float, int]:
    """(link time, link slot) of one pair from node ``src`` to ``dst``;
    slot -1 when the pair shares one buffer and costs nothing."""
    src, dst = route
    same_node = src == dst
    src_mem = mems.get(src, "SYSMEM")
    dst_mem = mems.get(dst, "SYSMEM")
    if same_node and src_mem == dst_mem and src_mem in NODE_SHARED_MEMS:
        return 0.0, -1
    bw = machine.bandwidth[(src_mem, dst_mem, same_node)]
    return rule.bytes_per_point / bw, min(src, dst) * machine.nodes + max(src, dst)
