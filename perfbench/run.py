#!/usr/bin/env python3
"""Benchmark of mapforge's mapper-search loop, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload hillclimb-corpus --seed 1 --seconds 20 --trace 0

Workloads, each a closed loop with one client (the next candidate is
proposed only after the previous candidate's feedback is in):

* ``hillclimb-corpus``: ``search.run(..., "hillclimb")`` over circuit,
  stencil, pennant, solomonik and cannon.
* ``external-text``: ``search.run`` with the ``external`` strategy over
  the subprocess transport; the optimizer replays seeded mutations of
  bundled circuit and solomonik mappers as ``blocks`` DSL text.
* ``large-domains``: ``search.evaluate_program`` on descriptors scaled
  from cannon and solomonik to 256..4096 launch points.

An operation is one candidate evaluation.  A run repeats rounds of the
same shape until ``--seconds`` of measured time have passed (round 0
always runs), checks the outputs, and prints one JSON object as its
last line: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
README.md in this directory describes the metrics and the inputs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shlex
import statistics
import sys
import time
import typing
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402

MODULES = ("ast", "machine", "parser", "printer", "validator", "evaluator",
           "configs", "binder", "simulator", "feedback", "adapter", "search")
SETUP_REPEATS = 15
MACHINE = inputs.CORPUS / "machines" / "p100-cluster.machine"
COSTS = inputs.CORPUS / "costs" / "default.costs"
SIMULATED = ("PerformanceMetric", "ExecutionError")   # outcomes that ran the simulator


class Mapforge:
    """The mapforge modules of one import, by short name."""

    def __init__(self, tracer):
        for name in [n for n in sys.modules if n == "mapforge" or n.startswith("mapforge.")]:
            del sys.modules[name]
        self.modules = {name: importlib.import_module(f"mapforge.{name}")
                        for name in MODULES}
        if tracer is not None:
            tracer.install(self.modules)
        for name, module in self.modules.items():
            setattr(self, name, module)


class Stats:
    """What the timed loop observed, over every round and for round 0."""

    def __init__(self):
        self.candidate_s: list[float] = []
        self.points = 0
        self.failed = 0
        self.r0_candidates = 0
        self.r0_distinct = 0
        self.r0_kinds: Counter = Counter()

    @property
    def attempted(self) -> int:
        return len(self.candidate_s)

    @property
    def measured_s(self) -> float:
        return sum(self.candidate_s)

    def add(self, round_index: int, durations, kinds, points_each, texts_distinct):
        self.candidate_s.extend(durations)
        self.points += sum(points_each for kind in kinds if kind in SIMULATED)
        if round_index == 0:
            self.r0_candidates += len(kinds)
            self.r0_distinct += texts_distinct
            self.r0_kinds.update(kinds)


def candidate_durations(start, stamps, end, n):
    """A candidate's time runs from its proposal to the next proposal; the
    first starts when ``search.run`` is entered, the last ends when it
    returns."""
    if len(stamps) != n:
        raise RuntimeError(f"{len(stamps)} proposals stamped for {n} candidates: "
                           "search.run no longer calls its strategy once per iteration")
    bounds = [start] + stamps[1:] + [end]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def stamped(strategy, stamps, tracer):
    """The strategy, recording when each proposal starts (and, traced, a
    ``search.propose`` span)."""
    def propose(history, dims, seed):
        stamps.append(time.perf_counter())
        if tracer is None:
            return strategy(history, dims, seed)
        tracer.candidate += 1
        return tracer.call("search.propose", strategy, history, dims, seed)
    propose.__name__ = getattr(strategy, "__name__", "propose")
    return propose


def app_points(app) -> int:
    return sum(t.points for t in app.tasks)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class HillclimbCorpus:
    name = "hillclimb-corpus"

    def __init__(self, seed):
        self.seed = seed
        self.ratios: list[float] = []   # best found / expert, per trajectory

    def generate(self, round_index):
        pass   # the round's inputs are its search seeds

    def setup(self, mf):
        self.mf = mf
        self.machine = mf.configs.load_machine(MACHINE)
        self.costs = mf.configs.load_costs(COSTS)
        self.apps = {name: mf.configs.load_app(inputs.CORPUS / "apps" / f"{name}.app")
                     for name in inputs.HILLCLIMB_APPS}
        self.rules = mf.feedback.default_rules()
        self.expert = {}
        for name, app in self.apps.items():
            text = (inputs.CORPUS / "experts" / f"{name}.dsl").read_text()
            result, _ = mf.search.evaluate_program(text, app, self.machine, self.costs)
            self.expert[name] = result.throughput

    def run_round(self, round_index, stats, tracer):
        search = self.mf.search
        hill_climb = search.STRATEGIES["hillclimb"]
        seeds = inputs.hillclimb_seeds(self.seed, round_index)
        trajectories = []
        for name in inputs.HILLCLIMB_APPS:
            app = self.apps[name]
            stamps = []
            search.STRATEGIES["hillclimb"] = stamped(hill_climb, stamps, tracer)
            try:
                start = time.perf_counter()
                trajectory = search.run(
                    app, self.machine, self.costs, "hillclimb",
                    search.ObjectiveSpec(budget=inputs.HILLCLIMB_BUDGET),
                    seed=seeds[name], rules=self.rules)
                end = time.perf_counter()
            finally:
                search.STRATEGIES["hillclimb"] = hill_climb
            records = trajectory.records
            stats.add(round_index,
                      candidate_durations(start, stamps, end, len(records)),
                      [r.feedback.kind for r in records], app_points(app),
                      len({r.candidate.program_text for r in records}))
            # A vector candidate always names a complete decision table, so
            # a compile error on one is a fault of the program.
            stats.failed += sum(1 for r in records if r.candidate.choices is not None
                                and r.feedback.kind == "CompileError")
            if trajectory.best_score is not None:
                self.ratios.append(trajectory.best_score / self.expert[name])
            trajectories.append((name, trajectory))
        return trajectories

    def best_ratios(self):
        return self.ratios

    def check_round(self, round_index, trajectories):
        mf, problems = self.mf, []
        results = {}
        for name, trajectory in trajectories:
            where = f"round {round_index} {name} seed {trajectory.seed}"
            problems += checks.check_best_so_far(trajectory.records, where)
            app = self.apps[name]
            totals = checks.app_totals(inputs.CORPUS / "apps" / f"{name}.app")
            for record in trajectory.records:
                choices = record.candidate.choices
                if (choices is not None and record.feedback.kind == "CompileError"
                        and not (name == "cannon" and inputs.CLOSURE_FAULT_MAPS & set(choices))):
                    problems.append(f"{where}: vector candidate {record.index} failed: "
                                    f"{record.feedback.system_message}")
                if round_index > 0:
                    continue
                # Round 0 in depth: the text round trip and the throughput
                # identities.
                if choices is not None:
                    program = mf.parser.parse(record.candidate.program_text)
                    table = (program if isinstance(program, list)
                             else mf.binder.resolve(program, app, self.machine))
                    if table != mf.binder.table_from_choices(app, list(choices)):
                        problems.append(f"{where}: iteration {record.index}: resolve(parse("
                                        "text)) differs from table_from_choices(choices)")
                if record.score is None:
                    continue
                key = (name, record.candidate.program_text)
                if key not in results:
                    results[key], _ = mf.search.evaluate_program(
                        key[1], app, self.machine, self.costs)
                    problems += checks.check_throughput_identity(
                        results[key], totals, f"{where}: iteration {record.index}")
                if results[key].throughput != record.score:
                    problems.append(f"{where}: iteration {record.index} scored "
                                    f"{record.score!r}, its text {results[key].throughput!r}")
        return problems


class ExternalText:
    name = "external-text"

    def __init__(self, seed):
        self.seed = seed
        self.directory = inputs.seed_dir(seed)
        self.generator = inputs.ExternalTextGenerator(seed)
        self.ratios: list[float] = []   # best found / expert, per (app, round)
        self.expected = None   # (app, source) -> (kind, score) of the unmutated text

    @staticmethod
    def command(script: Path) -> str:
        return shlex.join([sys.executable, str(HERE / "replay_adapter.py"), str(script)])

    def generate(self, round_index):
        self.scripts = self.generator.round(round_index)
        self.paths = inputs.write_external_round(self.directory, round_index, self.scripts)
        if round_index == 0:
            self.setup_script = self.directory / "external-setup.json"
            expert = (inputs.CORPUS / "experts" / "circuit.dsl").read_text()
            self.setup_script.write_text(json.dumps([inputs.source_blocks(expert)]))

    def setup(self, mf):
        self.mf = mf
        self.machine = mf.configs.load_machine(MACHINE)
        self.costs = mf.configs.load_costs(COSTS)
        self.apps = {name: mf.configs.load_app(inputs.CORPUS / "apps" / f"{name}.app")
                     for name in inputs.EXTERNAL_APPS}
        self.rules = mf.feedback.default_rules()
        self.expert = {}
        for name, app in self.apps.items():
            text = (inputs.CORPUS / "experts" / f"{name}.dsl").read_text()
            result, _ = mf.search.evaluate_program(text, app, self.machine, self.costs)
            self.expert[name] = result.throughput
        # Adapter start: spawn the optimizer and complete one round trip.
        app = self.apps["circuit"]
        with mf.adapter.AdapterClient(self.command(self.setup_script)) as client:
            client.propose(mf.adapter.build_request(
                app.name, self.machine.name, mf.binder.decision_dimensions(app), [], None))

    def run_round(self, round_index, stats, tracer):
        search = self.mf.search
        trajectories = []
        for name in inputs.EXTERNAL_APPS:
            app = self.apps[name]
            stamps = []
            client = self.mf.adapter.AdapterClient(self.command(self.paths[name]))
            try:
                strategy = stamped(search.external_strategy(client, app.name, self.machine.name),
                                   stamps, tracer)
                start = time.perf_counter()
                trajectory = search.run(
                    app, self.machine, self.costs, strategy,
                    search.ObjectiveSpec(budget=inputs.EXTERNAL_BUDGET),
                    seed=round_index, rules=self.rules)
                end = time.perf_counter()
            finally:
                client.close()
            records = trajectory.records
            stats.add(round_index,
                      candidate_durations(start, stamps, end, len(records)),
                      [r.feedback.kind for r in records], app_points(app),
                      len({r.candidate.program_text for r in records}))
            # An empty program marks a proposal the adapter failed to deliver.
            stats.failed += sum(1 for r in records if not r.candidate.program_text)
            if trajectory.best_score is not None:
                self.ratios.append(trajectory.best_score / self.expert[name])
            trajectories.append((name, trajectory))
        return trajectories

    def best_ratios(self):
        return self.ratios

    def check_round(self, round_index, trajectories):
        mf, problems = self.mf, []
        if self.expected is None:
            self.expected = {}
            for name in inputs.EXTERNAL_APPS:
                for source in inputs.EXTERNAL_SOURCES[name]:
                    text = inputs.assemble(inputs.source_blocks(
                        (inputs.CORPUS / source).read_text()))
                    _, report = mf.search.evaluate_program(
                        text, self.apps[name], self.machine, self.costs)
                    self.expected[(name, source)] = (report.kind, report.score)
        for name, trajectory in trajectories:
            problems += checks.check_best_so_far(trajectory.records,
                                                 f"round {round_index} {name}")
            for record, entry in zip(trajectory.records, self.scripts[name]):
                where = f"round {round_index} {name} iteration {record.index} ({entry.op})"
                if not record.candidate.program_text:
                    continue  # counted as failed
                if record.candidate.program_text != entry.text:
                    problems.append(f"{where}: program differs from the blocks sent")
                got = (record.feedback.kind, record.score)
                want = self.expected[(name, entry.source)]
                if entry.op in inputs.MEANING_PRESERVING and got != want:
                    problems.append(f"{where}: {got}, but {entry.source} gives {want}")
                elif entry.op.startswith("break") and got[0] != "CompileError":
                    problems.append(f"{where}: syntax-breaking mutation gave {got[0]}")
        return problems


class LargeDomains:
    name = "large-domains"
    VARIANTS = ("expert", "default", "cyclic")

    def __init__(self, seed):
        self.seed = seed
        self.directory = inputs.seed_dir(seed)
        self.ratios: list[float] = []   # best of the mappers / expert, per descriptor

    def generate(self, round_index):
        self.descriptors = inputs.large_round(self.seed, round_index)
        self.paths = inputs.write_large_round(self.directory, round_index, self.descriptors)

    def load_round(self, round_index):
        self.apps = {name: self.mf.configs.load_app(path) for name, path in self.paths.items()}

    def setup(self, mf):
        self.mf = mf
        self.machine = mf.configs.load_machine(MACHINE)
        self.costs = mf.configs.load_costs(COSTS)
        self.load_round(0)

    def run_round(self, round_index, stats, tracer):
        evaluate = self.mf.search.evaluate_program
        results = {}   # (descriptor, variant) -> result
        for d in self.descriptors:
            app = self.apps[d.name]
            for variant in self.VARIANTS:
                if tracer is not None:
                    tracer.candidate += 1
                start = time.perf_counter()
                result, report = evaluate(d.mappers[variant], app, self.machine, self.costs)
                end = time.perf_counter()
                stats.add(round_index, [end - start], [report.kind], d.points, 1)
                if result is None:
                    stats.failed += 1
                else:
                    results[(d.name, variant)] = result
            if (d.name, "expert") in results:
                best = max(results[(d.name, v)].throughput for v in self.VARIANTS
                           if (d.name, v) in results)
                self.ratios.append(best / results[(d.name, "expert")].throughput)
        return results

    def best_ratios(self):
        return self.ratios

    def check_round(self, round_index, results):
        mf, problems = self.mf, []
        for d in self.descriptors:
            app = self.apps[d.name]
            for variant in self.VARIANTS:
                result = results.get((d.name, variant))
                if result is None:
                    continue  # counted as failed
                assignment = None
                if round_index == 0:
                    table = mf.binder.resolve(mf.parser.parse(d.mappers[variant]),
                                              app, self.machine)
                    assignment = mf.simulator.assign_points(app, table, self.machine)
                problems += checks.check_large(d, variant, result, assignment)
            if all((d.name, v) in results for v in ("expert", "cyclic")):
                problems += checks.check_block_beats_cyclic(
                    d, {v: results[(d.name, v)] for v in ("expert", "cyclic")})
        return problems


WORKLOADS = {w.name: w for w in (HillclimbCorpus, ExternalText, LargeDomains)}


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(stats, workload, setup_s) -> dict:
    ms = [1e3 * s for s in stats.candidate_s]
    deciles = statistics.quantiles(ms, n=10, method="inclusive") if len(ms) > 1 else ms * 9
    return {
        "candidates_per_s": (stats.attempted / stats.measured_s, "candidates/s"),
        "candidate_ms_p50": (statistics.median(ms), "ms"),
        "candidate_ms_p90": (deciles[8], "ms"),
        "points_per_s": (stats.points / stats.measured_s, "points/s"),
        "best_vs_expert": (geomean(workload.best_ratios()), "ratio"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


LOOP_LAYERS = (
    ("evaluator.builtin_program_ms", "evaluator.builtin_program"),
    ("binder.table_from_choices_ms", "binder.table_from_choices"),
    ("binder.emit_ms", "binder.emit"),
    ("printer.print_program_ms", "printer.print_program"),
    ("parser.parse_ms", "parser.parse"),
    ("validator.validate_ms", "validator.validate"),
    ("binder.resolve_ms", "binder.resolve"),
    ("simulator.assign_points_ms", "simulator.assign_points"),
    ("simulator.simulate_ms", "simulator.simulate"),
    ("feedback.classify_ms", "feedback.classify"),
    ("feedback.enhance_ms", "feedback.enhance"),
    ("search.propose_ms", "search.propose"),
    ("search.evaluate_ms", "search.evaluate"),
    ("adapter.round_ms", "adapter.round"),
)


def per_layer(stats, tracer, setup_layers) -> dict:
    n = stats.attempted
    n0 = stats.r0_candidates

    def r0(name):
        return tracer.counts.get((0, name), 0.0) / n0

    points = sum(v for (r, name), v in tracer.counts.items()
                 if r >= 0 and name == "simulator.points")
    metrics = {name: (1e3 * tracer.self_s.get(layer, 0.0) / n, "ms")
               for name, layer in LOOP_LAYERS}
    metrics.update({
        "evaluator.builtin_program_calls": (r0("evaluator.builtin_program_calls"), "count"),
        "parser.kb_per_candidate": (r0("parser.bytes") / 1024, "KB"),
        "simulator.us_per_point": (1e6 * tracer.simulate_inclusive_s / points
                                   if points else 0.0, "us"),
        "simulator.points_per_candidate": (r0("simulator.points"), "count"),
        "machine.spaces_per_candidate": (r0("machine.spaces"), "count"),
        "adapter.request_kb": (r0("adapter.bytes") / 1024, "KB"),
        "search.unique_text_ratio": (stats.r0_distinct / n0, "ratio"),
        "search.outcome.compile_error": (stats.r0_kinds["CompileError"], "count"),
        "search.outcome.execution_error": (stats.r0_kinds["ExecutionError"], "count"),
        "search.outcome.performance_metric": (stats.r0_kinds["PerformanceMetric"], "count"),
        "configs.load_ms": (1e3 * statistics.median(setup_layers["configs.load"]), "ms"),
        "feedback.default_rules_ms": (1e3 * statistics.median(
            setup_layers["feedback.default_rules"]), "ms"),
        "trace.candidates_per_s": (n / stats.measured_s, "candidates/s"),
        "trace.coverage": (sum(tracer.self_s.get(layer, 0.0) for _, layer in LOOP_LAYERS)
                           / stats.measured_s, "ratio"),
    })
    return metrics


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def set_up(workload, tracer, setup_s, setup_layers) -> None:
    """One timed set-up; traced, the set-up layers' self times are kept
    apart from the candidates'.  Earlier imports are collected first, so
    that set-ups do not pile up in memory: typing's caches would otherwise
    keep their classes, and so their modules, alive."""
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()
    if tracer is None:
        start = time.perf_counter()
        workload.setup(Mapforge(None))
        setup_s.append(time.perf_counter() - start)
        return
    with tracer.paused():
        tracer.reset_times()
        start = time.perf_counter()
        workload.setup(Mapforge(tracer))
        setup_s.append(time.perf_counter() - start)
        for layer, values in setup_layers.items():
            values.append(tracer.self_s.get(layer, 0.0))


def run(workload, seconds: float, tracer) -> dict:
    workload.generate(0)   # input generation is not part of set-up
    setup_s = []
    setup_layers = {"configs.load": [], "feedback.default_rules": []}

    def set_up_until(done_share):
        # The host's speed drifts over tens of seconds, so the set-ups are
        # spread over the run rather than made back to back.
        while len(setup_s) < min(
                SETUP_REPEATS, 1 + math.floor((SETUP_REPEATS - 1) * done_share)):
            set_up(workload, tracer, setup_s, setup_layers)

    set_up_until(0.0)
    stats = Stats()
    problems = []
    round_index = 0
    while round_index == 0 or stats.measured_s < seconds:
        if round_index > 0:
            workload.generate(round_index)
            if hasattr(workload, "load_round"):
                workload.load_round(round_index)
        if tracer is not None:
            tracer.round = round_index
        outputs = workload.run_round(round_index, stats, tracer)
        if tracer is None:
            problems += workload.check_round(round_index, outputs)
        else:
            with tracer.paused():   # the checks are not measured
                problems += workload.check_round(round_index, outputs)
        round_index += 1
        set_up_until(stats.measured_s / seconds)
    set_up_until(1.0)
    if tracer is not None:
        metrics = per_layer(stats, tracer, setup_layers)
        tracer.write(inputs.WORK / "traces" / f"{workload.name}-seed{workload.seed}.jsonl")
    else:
        metrics = end_to_end(stats, workload, setup_s)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{workload.name}: {round_index} rounds, {stats.attempted} candidates, "
          f"{stats.measured_s:.2f}s measured, {len(problems)} check failures",
          file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mapforge" / "__init__.py").is_file():
        print(f"error: no mapforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  third-party imports stay out of set-up time
    import yaml  # noqa: F401
    import mapforge
    if Path(mapforge.__file__).resolve().parent != (SRC / "mapforge").resolve():
        print(f"error: imported mapforge from {mapforge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    result = run(WORKLOADS[args.workload](args.seed), args.seconds, tracer)
    out = inputs.WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
