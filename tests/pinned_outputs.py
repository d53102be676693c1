"""Simulator outputs pinned bit for bit in ``tests/data/simulate_pinned.json``.

Each case is one (application, mapper file, machine): every bundled
application, in its own size and with every index-launch extent scaled
by four, against every bundled ``.dsl`` file that resolves for it.  The
outcome is ``repr`` of the :class:`SimResult`, or the error's class name
and rendered text, so a changed float bit or error message shows.

The file was written by the per-point simulator that preceded the
array-based one.  Regenerate it only for an intended change to the cost
model or to an error text::

    PYTHONPATH=src python tests/pinned_outputs.py
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from mapforge.binder import resolve
from mapforge.configs import load_app, load_costs, load_machine
from mapforge.evaluator import corpus_path
from mapforge.parser import parse_valid
from mapforge.simulator import SimResult, simulate

PINNED = Path(__file__).with_name("data") / "simulate_pinned.json"
SCALE = 4


def _scaled(app):
    tasks = tuple(replace(t, domain=tuple(SCALE * e for e in t.domain))
                  if t.launch == "index" else t for t in app.tasks)
    return replace(app, name=f"{app.name}x{SCALE}", tasks=tasks)


def machines():
    cluster = load_machine(corpus_path("machines", "p100-cluster.machine"))
    single = load_machine(corpus_path("machines", "single-node.machine"))
    return {"p100-cluster": cluster, "single-node": single,
            "p100-cluster-4": replace(cluster, name="p100-cluster-4", nodes=4)}


def cases():
    """Yield (key, app, table, machine) for every case that resolves."""
    apps = [load_app(p) for p in sorted(corpus_path("apps").glob("*.app"))]
    programs = [(p.relative_to(corpus_path()).as_posix(), parse_valid(p.read_text()))
                for p in sorted(corpus_path().rglob("*.dsl"))]
    models = machines()
    plan = [(app, ("p100-cluster", "single-node")) for app in apps]
    plan += [(_scaled(app), ("p100-cluster-4",)) for app in apps]
    for app, machine_names in plan:
        for machine_name in machine_names:
            machine = models[machine_name]
            for file, program in programs:
                table = resolve(program, app, machine)
                if isinstance(table, list):
                    continue
                yield f"{app.name}|{file}|{machine_name}", app, table, machine


def outcome(app, table, machine, costs) -> str:
    result = simulate(app, table, machine, costs)
    if isinstance(result, SimResult):
        return repr(result)
    return f"{type(result).__name__}: {result.render()}"


def compute() -> dict[str, str]:
    costs = load_costs(corpus_path("costs", "default.costs"))
    return {key: outcome(app, table, machine, costs)
            for key, app, table, machine in cases()}


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
