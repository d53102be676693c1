"""Output checks computed apart from mapforge.

Each function returns a list of problems (empty when the outputs are
right).  The references are built from the descriptors' YAML, from the
formulas documented in ``corpus/builtins/*.dsl`` and in the simulator's
docstring, and with numpy: none of them calls the code under test.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

from inputs import LARGE_GPUS, LARGE_NODES, LargeDescriptor

# --------------------------------------------------------------------------
# large-domains: point assignment and inter-node bytes
# --------------------------------------------------------------------------


def reference_assignment(formula: str, domain: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(node, local) arrays of shape ``domain`` for one mapping formula on
    the 2-node x 4-GPU grid."""
    nodes, per_node = LARGE_NODES, LARGE_GPUS
    pts = np.indices(domain).reshape(len(domain), -1).T.astype(np.int64)
    extent = np.asarray(domain, dtype=np.int64)
    if formula == "block2D":      # idx = ipoint * m.size / ispace
        idx = pts * np.array([nodes, per_node]) // extent
        node, local = idx[:, 0], idx[:, 1]
    elif formula == "cyclic2D":   # idx = ipoint % m.size
        idx = pts % np.array([nodes, per_node])
        node, local = idx[:, 0], idx[:, 1]
    elif formula == "block3d":
        # m_6d = m.split(0, 2).split(1, 1).split(3, 1).split(4, 2) has size
        # (2, 1, 1, 1, 2, 2); walking the splits back gives node = n0 and
        # local = g1 + 2 * g2, with n0 = x*2/X, g1 = y*2/Y, g2 = z*2/Z.
        n0 = pts[:, 0] * 2 // extent[0]
        g1 = pts[:, 1] * 2 // extent[1]
        g2 = pts[:, 2] * 2 // extent[2]
        node, local = n0, g1 + 2 * g2
    elif formula == "default":
        # Block over the row-major linearization of the launch domain.
        total = nodes * per_node
        linear = np.arange(len(pts), dtype=np.int64) * total // len(pts)
        linear = np.minimum(linear, total - 1)
        node, local = linear // per_node, linear % per_node
    else:
        raise ValueError(formula)
    return node.reshape(domain), local.reshape(domain)


def reference_inter_node_bytes(d: LargeDescriptor, variant: str) -> float:
    """Cross-node exchange pairs x bytes per pair x iterations."""
    total = 0
    for ex in d.exchanges:
        node, _ = reference_assignment(d.formulas[variant][ex["task"]],
                                       d.domains[ex["task"]])
        if ex["pattern"] == "stencil":
            # Wrapped offset: the source of destination p is p + offset.
            src = node
            for axis, off in enumerate(ex["offset"]):
                src = np.roll(src, -off, axis=axis)
            pairs = int((src != node).sum())
        else:  # all-to-all along one axis: every ordered pair i != j
            axis = ex["axis"]
            pairs = 0
            for i in range(node.shape[axis]):
                for j in range(node.shape[axis]):
                    if i != j:
                        pairs += int((np.take(node, i, axis=axis)
                                      != np.take(node, j, axis=axis)).sum())
        total += pairs * ex["bytes"]
    return float(total * d.iterations)


def check_large(d: LargeDescriptor, variant: str, result, assignment=None) -> list[str]:
    """``result`` is the simulator's result for one (descriptor, variant);
    ``assignment`` (optional) is ``assign_points``' task -> point -> proc map."""
    problems = []
    where = f"{d.name}/{variant}"
    expected = reference_inter_node_bytes(d, variant)
    if result.inter_node_bytes != expected:
        problems.append(f"{where}: inter_node_bytes {result.inter_node_bytes!r} "
                        f"!= reference {expected!r}")
    if assignment is None:
        return problems
    for task, domain in d.domains.items():
        points = assignment.get(task, {})
        node, local = reference_assignment(d.formulas[variant][task], domain)
        if len(points) != node.size:
            problems.append(f"{where}: task {task} assigned {len(points)} of "
                            f"{node.size} launch points")
            continue
        for ipoint in np.ndindex(*domain):
            proc = points.get(ipoint)
            if proc is None:
                problems.append(f"{where}: point {ipoint} of {task} unassigned")
                break
            if not (0 <= proc.node < LARGE_NODES and 0 <= proc.local < LARGE_GPUS):
                problems.append(f"{where}: point {ipoint} of {task} on "
                                f"out-of-range processor {proc}")
                break
            if (proc.node, proc.local) != (node[ipoint], local[ipoint]):
                problems.append(f"{where}: point {ipoint} of {task} on {proc}, "
                                f"formula gives ({node[ipoint]}, {local[ipoint]})")
                break
    return problems


def check_block_beats_cyclic(d: LargeDescriptor, results: dict) -> list[str]:
    """block2D moves fewer inter-node bytes than cyclic2D.  On solomonik
    both exchanges run along axes the node split does not cut, so there
    the two only have to tie."""
    block = results["expert"].inter_node_bytes
    cyclic = results["cyclic"].inter_node_bytes
    strict = d.name.startswith("cannon")
    if (block < cyclic) if strict else (block <= cyclic):
        return []
    return [f"{d.name}: block2D moved {block!r} inter-node bytes, cyclic2D {cyclic!r}"]


# --------------------------------------------------------------------------
# Search trajectories
# --------------------------------------------------------------------------


def app_totals(path: Path) -> tuple[str, int, float]:
    """(metric, iterations, flops of one iteration) read from a .app file."""
    data = yaml.safe_load(path.read_text())
    flops = 0.0
    for task in data["tasks"]:
        points = math.prod(task["domain"]) if task.get("launch", "index") == "index" else 1
        flops += task["flops_per_point"] * points
    return data.get("metric", "time"), data.get("iterations", 1), flops


def check_throughput_identity(result, totals, where: str) -> list[str]:
    """time apps: throughput x wall_time = iterations; gflops apps:
    throughput x wall_time = flops x iterations."""
    metric, iterations, flops = totals
    expected = iterations if metric == "time" else flops * iterations
    got = result.throughput * result.wall_time
    if math.isclose(got, expected, rel_tol=1e-9):
        return []
    return [f"{where}: throughput x wall_time = {got!r}, expected {expected!r}"]


def check_best_so_far(records, where: str) -> list[str]:
    """best_so_far is the running maximum of the scores, so it never
    decreases."""
    best = None
    for record in records:
        if record.score is not None and (best is None or record.score > best):
            best = record.score
        if record.best_so_far != best:
            return [f"{where}: iteration {record.index} best_so_far "
                    f"{record.best_so_far!r}, running maximum {best!r}"]
    return []
