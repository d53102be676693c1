#!/usr/bin/env python3
"""Compare expert, random, and hill-climbing mappers on the bundled apps.

For each application this runs the bundled expert mapper, 10 seeded
random mappers, and a 5-seed hill-climbing search, then prints a table
of throughputs normalized to the expert and writes one trajectory CSV
(and optional SVG curve) per application.

Usage:
    python3 scripts/run_mapper_comparison.py --outdir results [--svg]
"""

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mapforge.cli import _write_svg
from mapforge.configs import load_app, load_costs, load_machine
from mapforge.evaluator import corpus_path
from mapforge.search import (
    ObjectiveSpec, aggregate, evaluate_program, run, write_csv,
)

APPS = ["stencil", "circuit", "pennant", "cannon", "summa", "pumma",
        "johnson", "solomonik", "cosma"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--apps", nargs="*", default=APPS)
    parser.add_argument("--iters", type=int, default=10)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--strategy", default="hillclimb")
    parser.add_argument("--svg", action="store_true")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    machine = load_machine(corpus_path("machines", "p100-cluster.machine"))
    costs = load_costs(corpus_path("costs", "default.costs"))

    print(f"{'app':10s} {'expert':>12s} {'random(med)':>12s} "
          f"{'search best':>12s} {'normalized':>10s}")
    for name in args.apps:
        app = load_app(corpus_path("apps", f"{name}.app"))
        expert_text = corpus_path("experts", f"{name}.dsl").read_text()
        expert = evaluate_program(expert_text, app, machine, costs)[0].throughput

        random_scores = [
            run(app, machine, costs, "random", ObjectiveSpec(budget=1),
                seed=s).records[0].score or 0.0
            for s in range(10)]

        trajectories = [
            run(app, machine, costs, args.strategy,
                ObjectiveSpec(budget=args.iters), seed=s)
            for s in range(args.seeds)]
        report = aggregate(trajectories, baseline_score=expert)
        write_csv(trajectories, outdir / f"{name}_{args.strategy}.csv", expert)
        if args.svg:
            _write_svg(str(outdir / f"{name}_{args.strategy}.svg"), report,
                       normalized=True)

        print(f"{name:10s} {expert:12.4g} "
              f"{statistics.median(random_scores):12.4g} "
              f"{report.best_score:12.4g} {report.best_normalized:10.3f}")


if __name__ == "__main__":
    main()
