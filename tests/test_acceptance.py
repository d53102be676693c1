"""Acceptance suite: one test per acceptance criterion.

Each test prints a single ``ACCEPTANCE <n> PASS/FAIL`` line (visible
with ``pytest -s``).  Tolerances are exact unless stated otherwise in
the criterion text.
"""

import itertools
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mapforge.binder import (
    decision_dimensions, resolve, table_from_choices,
)
from mapforge.evaluator import corpus_path
from mapforge.feedback import (
    LEVEL_EXPLAIN, LEVEL_FULL, LEVEL_SYSTEM, FeedbackReport, default_rules,
    enhance, render,
)
from mapforge.machine import ProcessorSpace
from mapforge.parser import parse
from mapforge.printer import print_program
from mapforge.search import ObjectiveSpec, run
from mapforge.simulator import simulate
from mapforge.validator import validate

from conftest import APP_NAMES, corpus_dsl_files, expert_source, load_app_named


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {text}")
        raise
    print(f"\nACCEPTANCE {number} PASS: {text}")


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mapforge.cli", *args],
        capture_output=True, text=True)


# ---------------------------------------------------------------------------
# 1. Transformation algebra: every split/merge/swap/slice chain of length
#    <= 3 over bases with extents in {1, 2, 4, 8}, verified by brute-force
#    enumeration against an independent implementation of the index rules.
# ---------------------------------------------------------------------------

EXTENTS = (1, 2, 4, 8)

_idx_memo = {}


def _all_idx(dims):
    arr = _idx_memo.get(dims)
    if arr is None:
        total = int(np.prod(dims))
        arr = np.indices(dims).reshape(len(dims), total).T.astype(np.int64)
        _idx_memo[dims] = arr
    return arr


_oracle_memo = {}


def _oracle_gather(parent_dims, op):
    """Independent statement of the transformation index rules: for each
    child index (row-major order), the flat parent index it resolves to."""
    key = (parent_dims, op)
    hit = _oracle_memo.get(key)
    if hit is not None:
        return hit
    kind = op[0]
    if kind == "split":
        _, i, d = op
        child = parent_dims[:i] + (d, parent_dims[i] // d) + parent_dims[i + 1:]
        A = _all_idx(child)
        B = np.concatenate(
            [A[:, :i], (A[:, i] + A[:, i + 1] * d)[:, None], A[:, i + 2:]],
            axis=1)
    elif kind == "merge":
        _, p, q = op
        inner = parent_dims[p]
        child = list(parent_dims)
        child[p] = parent_dims[p] * parent_dims[q]
        del child[q]
        child = tuple(child)
        A = _all_idx(child)
        cols = []
        for t in range(len(parent_dims)):
            if t == p:
                cols.append(A[:, p] % inner)
            elif t == q:
                cols.append(A[:, p] // inner)
            elif t < q:
                cols.append(A[:, t])
            else:
                cols.append(A[:, t - 1])
        B = np.stack(cols, axis=1)
    elif kind == "swap":
        _, p, q = op
        child = list(parent_dims)
        child[p], child[q] = child[q], child[p]
        child = tuple(child)
        A = _all_idx(child)
        B = A.copy()
        B[:, p] = A[:, q]
        B[:, q] = A[:, p]
    else:  # slice
        _, i, low, high = op
        child = list(parent_dims)
        child[i] = high - low + 1
        child = tuple(child)
        A = _all_idx(child)
        B = A.copy()
        B[:, i] = A[:, i] + low
    g = np.ravel_multi_index(tuple(B.T), parent_dims)
    _oracle_memo[key] = (child, g)
    return _oracle_memo[key]


_lib_memo = {}


def _library_gather(space, child_space):
    step = child_space.chain[-1]
    key = (space.dims, step)
    g = _lib_memo.get(key)
    if g is None:
        parent_cols = step.to_parent_columns(list(_all_idx(child_space.dims).T))
        g = np.ravel_multi_index(tuple(parent_cols), space.dims)
        _lib_memo[key] = g
    return g


def _step_ops(dims):
    ops = []
    for i, e in enumerate(dims):
        for d in range(1, e + 1):
            if e % d == 0:
                ops.append(("split", i, d))
    r = len(dims)
    for p in range(r):
        for q in range(p + 1, r):
            ops.append(("merge", p, q))
            ops.append(("swap", p, q))
    for i, e in enumerate(dims):
        for low in range(e):
            for high in range(low, e):
                ops.append(("slice", i, low, high))
    return ops


def _apply_lib(space, op):
    kind = op[0]
    if kind == "split":
        return space.split(op[1], op[2])
    if kind == "merge":
        return space.merge(op[1], op[2])
    if kind == "swap":
        return space.swap(op[1], op[2])
    return space.slice(op[1], op[2], op[3])


def test_criterion_1_transformation_algebra():
    with criterion(1, "transformation algebra verified on all chains of "
                      "length <= 3 over extents {1,2,4,8}"):
        start = time.monotonic()
        checked = 0
        sampled = 0
        for n0, n1 in itertools.product(EXTENTS, EXTENTS):
            base_total = n0 * n1
            root = ProcessorSpace("GPU", (n0, n1), (n0, n1))
            identity = np.arange(base_total, dtype=np.int64)
            stack = [(root, identity, identity, False, 0)]
            while stack:
                space, ours_flat, oracle_flat, sliced, depth = stack.pop()
                if depth == 3:
                    continue
                for op in _step_ops(space.dims):
                    child_dims, g_oracle = _oracle_gather(space.dims, op)
                    child_oracle = oracle_flat[g_oracle]
                    child_space = _apply_lib(space, op)
                    assert child_space.dims == child_dims, (space.dims, op)
                    child_ours = ours_flat[_library_gather(space, child_space)]
                    assert np.array_equal(child_ours, child_oracle), \
                        (space.dims, op)
                    checked += 1
                    if checked % 31 == 0:
                        # Bind the public lookup path to the same values.
                        full = child_space.lookup_all(_all_idx(child_dims))
                        assert np.array_equal(
                            full[:, 0] * n1 + full[:, 1], child_oracle)
                        sampled += 1
                    child_sliced = sliced or op[0] == "slice"
                    unique = np.count_nonzero(
                        np.bincount(child_oracle, minlength=base_total))
                    if child_sliced:
                        # Chains containing a slice stay injective.
                        assert unique == child_oracle.size, (space.dims, op)
                    else:
                        # Pure split/merge/swap chains are bijections onto
                        # the base space and conserve the processor count.
                        assert unique == base_total == child_oracle.size, \
                            (space.dims, op)
                    stack.append((child_space, child_ours, child_oracle,
                                  child_sliced, depth + 1))

        # split(i, d) then merge(i, i+1) is the identity map, pointwise.
        for n0, n1 in itertools.product(EXTENTS, EXTENTS):
            for i in (0, 1):
                extent = (n0, n1)[i]
                for d in (x for x in EXTENTS if extent % x == 0):
                    chain = (ProcessorSpace("GPU", (n0, n1), (n0, n1))
                             .split(i, d).merge(i, i + 1))
                    full = chain.lookup_all(_all_idx((n0, n1)))
                    assert np.array_equal(full, _all_idx((n0, n1)))

        # swap(p, q) twice is the identity map.
        for n0, n1 in itertools.product(EXTENTS, EXTENTS):
            chain = (ProcessorSpace("GPU", (n0, n1), (n0, n1))
                     .swap(0, 1).swap(0, 1))
            full = chain.lookup_all(_all_idx((n0, n1)))
            assert np.array_equal(full, _all_idx((n0, n1)))

        elapsed = time.monotonic() - start
        assert checked > 1_000_000 and sampled > 10_000
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Corpus round-trip: every bundled mapper parses, validates, and
#    survives parse -> print -> parse structural equality.
# ---------------------------------------------------------------------------


def test_criterion_2_corpus_round_trip(machine):
    with criterion(2, "bundled mapper corpus parses, validates, and "
                      "round-trips exactly"):
        start = time.monotonic()
        files = corpus_dsl_files()
        names = {p.name for p in files}
        assert {f"{i:02d}.dsl" for i in range(1, 11)} <= names
        assert {"circuit_iter2.dsl", "circuit_iter10.dsl",
                "solomonik_iter2.dsl", "solomonik_iter10.dsl"} <= names
        assert {"intro_gpu_cyclic.dsl", "common_mappings.dsl",
                "matmul_mappings.dsl", "block3d.dsl"} <= names
        for path in files:
            program = parse(path.read_text())
            assert not isinstance(program, list), path.name
            problems = validate(program)
            assert not problems, (path.name, [d.message for d in problems])
            reparsed = parse(print_program(program))
            assert reparsed == program, path.name
        # Repeated IndexTaskMap statements resolve by last-wins, making
        # the generated-mapper corpus well-defined.
        program = parse(corpus_path("generated", "solomonik_iter10.dsl").read_text())
        table = resolve(program, load_app_named("solomonik"), machine)
        assert table.index_map["task_1"] == "linearize2D"
        assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 3. Search-space count: the stencil descriptor's space is exactly 2^38.
# ---------------------------------------------------------------------------


def test_criterion_3_stencil_space_is_2_to_38():
    with criterion(3, "space subcommand reports exactly 2^38 for stencil"):
        result = cli("space", "--app", str(corpus_path("apps", "stencil.app")))
        assert result.returncode == 0
        assert result.stdout.strip() == "274877906944 (2^38)"
        assert "2^38" in result.stdout
        assert 274877906944 == 2 ** 38


# ---------------------------------------------------------------------------
# 4. Feedback fixtures: all nine reference rows reproduce their
#    explanation/suggestion texts verbatim, and levels nest as prefixes.
# ---------------------------------------------------------------------------

FEEDBACK_ROWS = [
    ("CompileError", "Syntax error, unexpected :, expecting {",
     None, "There should be no colon : in function definition."),
    ("CompileError", "IndexTaskMap's function undefined",
     None, "Define the IndexTaskMap function first before using it."),
    ("CompileError", "mgpu not found",
     None, "Include mgpu = Machine(GPU); in the generated code."),
    ("ExecutionError", "Assertion failed: stride does not match expected value.",
     "Memory layout is unexpected.",
     "Adjust the layout constraints or move tasks to different processor types."),
    ("ExecutionError", "DGEMM parameter number 8 had an illegal value",
     "Memory layout is unexpected.", "Adjust the layout constraint."),
    ("ExecutionError", "Slice processor index out of bound",
     "IndexTaskMap statements cause error.",
     "Ensure that the first index of mgpu ends with % mgpu.size[0], "
     "and the second element ends with % mgpu.size[1]."),
    ("ExecutionError", "Assertion 'event.exists()' failed",
     "InstanceLimit statements cause error.",
     "Avoid generating InstanceLimit statements."),
    ("PerformanceMetric", "Execution time is 0.03s.",
     None, "Move more tasks to GPU to reduce execution time."),
    ("PerformanceMetric", "Achieved throughput = 4877 GFLOPS",
     None, "Try using different IndexTaskMap or SingleTaskMap statements "
     "to maximize throughput."),
]


def test_criterion_4_feedback_fixtures():
    with criterion(4, "all 9 feedback fixture rows reproduce verbatim and "
                      "levels nest as prefixes"):
        rules = default_rules()
        assert len(FEEDBACK_ROWS) == 9
        for kind, message, explain, suggest in FEEDBACK_ROWS:
            report = FeedbackReport(kind, message)
            full = enhance(report, rules, LEVEL_FULL)
            assert full.explain == explain, message
            assert full.suggest == suggest, message
            rendered_system = render(enhance(report, rules, LEVEL_SYSTEM))
            rendered_explain = render(enhance(report, rules, LEVEL_EXPLAIN))
            rendered_full = render(full)
            assert rendered_explain.startswith(rendered_system)
            assert rendered_full.startswith(rendered_explain)


# ---------------------------------------------------------------------------
# 5. Oracle equivalence: exhaustive search equals independent brute-force
#    enumeration on decision spaces of size 16, 256, and 4096.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_optima(machine, costs):
    optima = {}
    for name in ("toy16", "toy256", "toy4096"):
        app = load_app_named(name)
        dims = decision_dimensions(app)
        best = None
        argmax = set()
        for choices in itertools.product(*(d.options for d in dims)):
            result = simulate(app, table_from_choices(app, list(choices)),
                              machine, costs)
            score = result.throughput
            if best is None or score > best + 1e-12:
                best, argmax = score, {choices}
            elif abs(score - best) <= 1e-12:
                argmax.add(choices)
        optima[name] = (best, argmax)
    return optima


def test_criterion_5_exhaustive_matches_brute_force(machine, costs, toy_optima):
    with criterion(5, "exhaustive search equals brute-force enumeration on "
                      "spaces of size 16, 256, 4096"):
        start = time.monotonic()
        for name, size in (("toy16", 16), ("toy256", 256), ("toy4096", 4096)):
            app = load_app_named(name)
            dims = decision_dimensions(app)
            assert [len(d.options) for d in dims] and \
                np.prod([len(d.options) for d in dims]) == size
            best, argmax = toy_optima[name]
            trajectory = run(app, machine, costs, "exhaustive",
                             ObjectiveSpec(budget=size), seed=0)
            assert trajectory.best_score == pytest.approx(best, abs=0.0), name
            assert tuple(trajectory.best_candidate.choices) in argmax, name
        assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 6. Search quality: hill climbing at budget 200 reaches within 5% of the
#    exhaustive optimum in at least 80% of 20 seeded runs on the 2^12 space.
# ---------------------------------------------------------------------------


def test_criterion_6_hill_climbing_quality(machine, costs, toy_optima):
    with criterion(6, "hill climbing reaches within 5% of the optimum in "
                      ">= 80% of 20 seeded runs on the 2^12 space"):
        best, _ = toy_optima["toy4096"]
        app = load_app_named("toy4096")
        hits = 0
        for seed in range(20):
            trajectory = run(app, machine, costs, "hillclimb",
                             ObjectiveSpec(budget=200), seed=seed)
            if trajectory.best_score is not None and \
                    trajectory.best_score >= 0.95 * best:
                hits += 1
        assert hits >= 16, f"only {hits}/20 runs reached 95% of optimum"


# ---------------------------------------------------------------------------
# 7. Qualitative ordering: the expert mapper is at least 5x the median of
#    10 seeded random mappers on every bundled application, and block2D
#    moves strictly fewer inter-node bytes than cyclic2D on the Cannon
#    descriptor.  (Directions are exact; magnitudes are configuration.)
# ---------------------------------------------------------------------------


def test_criterion_7_qualitative_ordering(machine, costs):
    with criterion(7, "expert >= 5x median random on every app; block2D "
                      "moves fewer inter-node bytes than cyclic2D"):
        for name in APP_NAMES:
            app = load_app_named(name)
            program = parse(expert_source(name))
            table = resolve(program, app, machine)
            expert = simulate(app, table, machine, costs)
            scores = []
            for seed in range(10):
                trajectory = run(app, machine, costs, "random",
                                 ObjectiveSpec(budget=1), seed=seed)
                scores.append(trajectory.records[0].score or 0.0)
            median = statistics.median(scores)
            assert expert.throughput >= 5 * median, \
                f"{name}: expert {expert.throughput:.4g} vs median {median:.4g}"

        cannon = load_app_named("cannon")
        dims = decision_dimensions(cannon)
        byte_counts = {}
        for option in ("block2D", "cyclic2D"):
            choices = []
            for dim in dims:
                if dim.dim_id[0] == "proc":
                    choices.append("GPU")
                elif dim.dim_id[0] == "imap":
                    choices.append(option)
                else:
                    choices.append(dim.options[0])
            result = simulate(cannon, table_from_choices(cannon, choices),
                              machine, costs)
            byte_counts[option] = result.inter_node_bytes
        assert byte_counts["block2D"] < byte_counts["cyclic2D"], byte_counts


# ---------------------------------------------------------------------------
# 8. Determinism: simulate and seeded optimize runs are byte-identical
#    when repeated.
# ---------------------------------------------------------------------------


def test_criterion_8_byte_identical_reruns(tmp_path):
    with criterion(8, "simulate and seeded optimize produce byte-identical "
                      "outputs when rerun"):
        sim_args = ("simulate",
                    "--app", str(corpus_path("apps", "circuit.app")),
                    "--mapper", str(corpus_path("experts", "circuit.dsl")),
                    "--machine", str(corpus_path("machines",
                                                 "p100-cluster.machine")),
                    "--costs", str(corpus_path("costs", "default.costs")))
        first = cli(*sim_args)
        second = cli(*sim_args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr

        outputs = []
        for rerun in range(2):
            rerun_dir = tmp_path / f"rerun{rerun}"
            rerun_dir.mkdir()
            out_csv = rerun_dir / "trajectory.csv"
            svg = rerun_dir / "curve.svg"
            result = cli("optimize",
                         "--app", str(corpus_path("apps", "circuit.app")),
                         "--machine", str(corpus_path("machines",
                                                      "p100-cluster.machine")),
                         "--costs", str(corpus_path("costs", "default.costs")),
                         "--strategy", "hillclimb", "--iters", "8",
                         "--seeds", "3", "--out", str(out_csv),
                         "--baseline", str(corpus_path("experts", "circuit.dsl")),
                         "--svg", str(svg))
            assert result.returncode == 0
            outputs.append((out_csv.read_bytes(), svg.read_bytes(),
                            result.stdout.replace(str(rerun_dir), "")))
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# 9. Ablation harness: the three feedback levels differ exactly by the
#    presence of Explanation/Suggestion lines in the rendered feedback.
# ---------------------------------------------------------------------------


def _strip(rendered, prefixes):
    return "\n".join(line for line in rendered.splitlines()
                     if not line.startswith(prefixes))


def test_criterion_9_ablation_levels(machine, costs):
    with criterion(9, "feedback levels differ exactly by Explanation/"
                      "Suggestion lines across whole trajectories"):
        saw_explanation = False
        for app_name in ("circuit", "cannon", "cosma"):
            app = load_app_named(app_name)
            runs = {
                level: run(app, machine, costs, "random",
                           ObjectiveSpec(budget=8), feedback_level=level,
                           seed=1)
                for level in (LEVEL_SYSTEM, LEVEL_EXPLAIN, LEVEL_FULL)
            }
            by_level = {level: t.records for level, t in runs.items()}
            for i in range(8):
                system = by_level[LEVEL_SYSTEM][i].rendered_feedback
                explain = by_level[LEVEL_EXPLAIN][i].rendered_feedback
                full = by_level[LEVEL_FULL][i].rendered_feedback
                # identical candidates and scores at every level
                assert by_level[LEVEL_EXPLAIN][i].score == \
                    by_level[LEVEL_SYSTEM][i].score
                assert by_level[LEVEL_FULL][i].candidate.program_text == \
                    by_level[LEVEL_SYSTEM][i].candidate.program_text
                assert "Explanation:" not in system
                assert "Suggestion:" not in system
                assert "Suggestion:" not in explain
                assert _strip(full, ("Suggestion:",)) == explain
                assert _strip(full, ("Suggestion:", "Explanation:")) == system
                saw_explanation |= "Explanation:" in full
        assert saw_explanation  # at least one error path exercised Explain
