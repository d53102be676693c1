"""Command-line entry points.

Subcommands: ``check`` a mapper, ``simulate`` a mapper on an
application/machine, ``optimize`` a mapper with a search strategy, and
``space`` to report an application's decision-space size.

Exit codes partition outcomes: 0 success, 1 user error (diagnostics,
bad arguments, invalid descriptors), 2 I/O error, 3 simulated execution
error.  All output is timestamp-free so identical invocations produce
byte-identical results.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from . import binder, search
from .adapter import AdapterClient
from .configs import CostParams, load_app, load_costs, load_machine
from .feedback import LEVEL_FULL, LEVELS, default_rules, enhance, load_rules, render

EXIT_OK = 0
EXIT_USER = 1
EXIT_IO = 2
EXIT_EXEC = 3


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise _CliFailure(EXIT_USER, f"invalid mapper {path}: {exc}")


def _report(diagnostics, path: str) -> int:
    for diagnostic in diagnostics:
        print(diagnostic.render(path), file=sys.stderr)
    return EXIT_USER


def _load(loader, path: str, what: str):
    if not Path(path).exists():
        raise _CliFailure(EXIT_IO, f"cannot read {path}: no such file")
    result = loader(path)
    if isinstance(result, list):
        messages = "; ".join(d.message for d in result)
        raise _CliFailure(EXIT_USER, f"invalid {what} {path}: {messages}")
    return result


def _rules_for(args):
    if not getattr(args, "rules", None):
        return default_rules()
    try:
        return load_rules(args.rules)
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot read {args.rules}: {exc.strerror}")
    except ValueError as exc:
        raise _CliFailure(EXIT_USER, f"invalid rules {args.rules}: {exc}")


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_check(args) -> int:
    program = search.compile_program(_read_text(args.mapper))
    if isinstance(program, list):
        return _report(program, args.mapper)
    print(f"{args.mapper}: OK ({len(program.statements)} statements)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    app = _load(load_app, args.app, "application")
    machine = _load(load_machine, args.machine, "machine")
    costs = _load(load_costs, args.costs, "costs") if args.costs else CostParams()
    program = search.compile_program(_read_text(args.mapper))
    if isinstance(program, list):
        return _report(program, args.mapper)
    evaluated = search.simulate_program(program, app, machine, costs)
    if isinstance(evaluated, list):
        return _report(evaluated, args.mapper)
    outcome, report = evaluated
    print(render(enhance(report, _rules_for(args), args.feedback_level)))
    if outcome is None:
        return EXIT_EXEC
    print(f"wall_time={outcome.wall_time!r}")
    print(f"throughput={outcome.throughput!r}")
    print(f"comm_time={outcome.comm_time!r}")
    print(f"inter_node_bytes={outcome.inter_node_bytes!r}")
    for task, seconds in outcome.per_task_compute.items():
        print(f"compute[{task}]={seconds!r}")
    for (node, mem), peak in outcome.peak_memory.items():
        print(f"peak_memory[{node},{mem}]={peak!r}")
    return EXIT_OK


def cmd_space(args) -> int:
    app = _load(load_app, args.app, "application")
    size = binder.search_space_size(app)
    if size > 0 and size & (size - 1) == 0:
        print(f"{size} (2^{size.bit_length() - 1})")
    else:
        print(size)
    return EXIT_OK


def cmd_optimize(args) -> int:
    app = _load(load_app, args.app, "application")
    machine = _load(load_machine, args.machine, "machine")
    costs = _load(load_costs, args.costs, "costs") if args.costs else CostParams()
    rules = _rules_for(args)

    baseline_score = None
    if args.baseline:
        name = f"baseline mapper {args.baseline}"
        program = search.compile_program(_read_text(args.baseline))
        if isinstance(program, list):
            raise _CliFailure(EXIT_USER, f"{name} has errors")
        evaluated = search.simulate_program(program, app, machine, costs)
        if isinstance(evaluated, list):
            raise _CliFailure(EXIT_USER, f"{name} does not resolve")
        if evaluated[0] is None:
            raise _CliFailure(EXIT_USER, f"{name} fails to execute")
        baseline_score = evaluated[0].throughput

    if args.strategy == "external":
        endpoint = args.adapter_url or os.environ.get("MAPFORGE_ADAPTER")
        if not endpoint:
            raise _CliFailure(
                EXIT_USER,
                "external strategy needs --adapter-url or MAPFORGE_ADAPTER")
    elif args.strategy not in search.STRATEGIES:
        raise _CliFailure(EXIT_USER, f"unknown strategy {args.strategy}")

    def run_seed(seed: int):
        with contextlib.ExitStack() as stack:
            strategy = args.strategy
            if strategy == "external":
                client = stack.enter_context(AdapterClient(endpoint))
                strategy = search.external_strategy(client, app.name, machine.name)
            return search.run(app, machine, costs, strategy,
                              search.ObjectiveSpec(budget=args.iters),
                              args.level, seed, rules)

    seeds = list(range(args.seeds))
    trajectories = [run_seed(s) for s in seeds]

    search.write_csv(trajectories, args.out, baseline_score)
    print(f"wrote {args.out}: {sum(len(t.records) for t in trajectories)} rows "
          f"({len(seeds)} seeds x {args.iters} iterations)")
    scores = [t.best_score for t in trajectories if t.best_score is not None]
    if scores:
        best = max(scores)
        print(f"best_throughput={best!r}")
        if baseline_score:
            print(f"best_normalized={best / baseline_score!r}")
    else:
        print("no candidate executed successfully")
    if args.svg:
        report = search.aggregate(trajectories, baseline_score or 1.0)
        _write_svg(args.svg, report,
                   normalized=baseline_score is not None)
        print(f"wrote {args.svg}")
    return EXIT_OK


# --------------------------------------------------------------------------
# Minimal SVG line chart (mean best-so-far vs iteration)
# --------------------------------------------------------------------------


def _write_svg(path: str, report, normalized: bool) -> None:
    width, height, margin = 480, 320, 48
    xs = [row.iteration for row in report.rows]
    ys = [row.mean_normalized_best for row in report.rows]
    top = max(max(ys), 1.0 if normalized else max(ys) or 1.0) * 1.05 or 1.0
    span_x = max(max(xs), 1)

    def px(x):
        return margin + (width - 2 * margin) * x / span_x

    def py(y):
        return height - margin - (height - 2 * margin) * y / top

    points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
    ylabel = "mean normalized best" if normalized else "mean best throughput"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="2"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">iteration</text>',
        f'<text x="14" y="{height / 2:.0f}" font-size="12" '
        f'transform="rotate(-90 14 {height / 2:.0f})" text-anchor="middle">'
        f'{ylabel}</text>',
    ]
    if normalized:
        y1 = py(1.0)
        parts.append(f'<line x1="{margin}" y1="{y1:.1f}" x2="{width - margin}" '
                     f'y2="{y1:.1f}" stroke="#888" stroke-dasharray="4 3"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapforge",
        description="Mapper DSL tools: check, simulate, optimize, space.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and validate a mapper")
    p_check.add_argument("mapper")
    p_check.set_defaults(fn=cmd_check)

    p_sim = sub.add_parser("simulate", help="run a mapper through the cost model")
    p_sim.add_argument("--app", required=True)
    p_sim.add_argument("--mapper", required=True)
    p_sim.add_argument("--machine", required=True)
    p_sim.add_argument("--costs")
    p_sim.add_argument("--rules")
    p_sim.add_argument("--feedback-level", choices=LEVELS, default=LEVEL_FULL)
    p_sim.set_defaults(fn=cmd_simulate)

    p_opt = sub.add_parser("optimize", help="search for a better mapper")
    p_opt.add_argument("--app", required=True)
    p_opt.add_argument("--machine", required=True)
    p_opt.add_argument("--costs")
    p_opt.add_argument("--rules")
    p_opt.add_argument("--strategy", default="hillclimb")
    p_opt.add_argument("--iters", type=int, default=search.DEFAULT_BUDGET)
    p_opt.add_argument("--seeds", type=int, default=search.DEFAULT_SEEDS)
    p_opt.add_argument("--level", choices=LEVELS, default=LEVEL_FULL)
    p_opt.add_argument("--out", required=True)
    p_opt.add_argument("--baseline")
    p_opt.add_argument("--svg")
    p_opt.add_argument("--adapter-url")
    p_opt.set_defaults(fn=cmd_optimize)

    p_space = sub.add_parser("space", help="print an application's decision-space size")
    p_space.add_argument("--app", required=True)
    p_space.set_defaults(fn=cmd_space)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "iters", 1) < 1 or getattr(args, "seeds", 1) < 1:
        print("error: --iters and --seeds must be positive", file=sys.stderr)
        return EXIT_USER
    try:
        return args.fn(args)
    except _CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
