"""Per-layer self-time tracing, installed on mapforge from outside.

``Tracer.install`` replaces each traced public function with a wrapper
in every mapforge module that holds it (so ``from .parser import parse``
copies are covered too), and patches two class members:
``AdapterClient.propose`` (one adapter round trip) and
``ProcessorSpace.__init__`` (a count of spaces built).  A wrapper
records a span; a layer's self time is its spans' duration minus the
time of the traced spans nested in them.  Counters are kept per round,
so the benchmark can report counts of its first round, which every run
completes, while times are averaged over every round.

Spans of the first round are kept in memory (name, start, end, parent,
candidate) and written out by ``write``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (layer, module, attribute): public functions and the layer they count to.
FUNCTION_LAYERS = (
    ("evaluator.builtin_program", "evaluator", "builtin_program"),
    ("binder.table_from_choices", "binder", "table_from_choices"),
    ("binder.emit", "binder", "emit"),
    ("printer.print_program", "printer", "print_program"),
    ("parser.parse", "parser", "parse"),
    ("parser.parse", "parser", "parse_valid"),
    ("validator.validate", "validator", "validate"),
    ("binder.resolve", "binder", "resolve"),
    ("simulator.simulate", "simulator", "simulate"),
    ("simulator.assign_points", "simulator", "assign_points"),
    ("feedback.classify", "feedback", "classify"),
    ("feedback.enhance", "feedback", "enhance"),
    ("feedback.enhance", "feedback", "render"),
    ("search.evaluate", "search", "evaluate_program"),
    ("configs.load", "configs", "load_app"),
    ("configs.load", "configs", "load_machine"),
    ("configs.load", "configs", "load_costs"),
    ("feedback.default_rules", "feedback", "default_rules"),
)
PARSER_LAYER = "parser.parse"
KEEP_SPANS_ROUNDS = 1


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.round = 0
        self.candidate = -1
        self.simulate_inclusive_s = 0.0
        self.spans: list[tuple] = []
        self._next_id = 0
        self._stack: list[list] = []   # [child seconds, span id]
        self._parser_depth = 0

    # -- spans ------------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.round, name)] += amount

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` as one span of ``layer``."""
        span_id = -1
        if 0 <= self.round < KEEP_SPANS_ROUNDS:
            span_id = self._next_id
            self._next_id += 1
        parent = self._stack[-1][1] if self._stack else -1
        entry = [0.0, span_id]
        self._stack.append(entry)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_s[layer] += duration - entry[0]
            if self._stack:
                self._stack[-1][0] += duration
            if span_id >= 0:
                self.spans.append((span_id, parent, layer, start, end,
                                   self.candidate))

    def reset_times(self) -> None:
        self.self_s.clear()
        self.simulate_inclusive_s = 0.0

    @contextmanager
    def paused(self):
        """Calls made inside are not measured: their times are dropped and
        their counts go to no round."""
        saved = (dict(self.self_s), self.simulate_inclusive_s, self.round)
        self.round = -2
        try:
            yield
        finally:
            self.self_s.clear()
            self.self_s.update(saved[0])
            self.simulate_inclusive_s, self.round = saved[1], saved[2]

    # -- installation -----------------------------------------------------

    def _wrapper(self, layer: str, fn, attr: str):
        tracer = self

        if layer == PARSER_LAYER:
            def traced(*args, **kwargs):
                # Bytes are counted at the outermost parser call only, so
                # parse_valid -> parse counts its text once.
                if tracer._parser_depth == 0 and args and isinstance(args[0], str):
                    tracer.count("parser.bytes", len(args[0].encode()))
                tracer._parser_depth += 1
                try:
                    return tracer.call(layer, fn, *args, **kwargs)
                finally:
                    tracer._parser_depth -= 1
        elif layer == "simulator.simulate":
            def traced(app, *args, **kwargs):
                points = sum(t.points for t in app.tasks)
                tracer.count("simulator.calls")
                tracer.count("simulator.points", points)
                start = time.perf_counter()
                try:
                    return tracer.call(layer, fn, app, *args, **kwargs)
                finally:
                    tracer.simulate_inclusive_s += time.perf_counter() - start
        elif layer == "evaluator.builtin_program":
            def traced(*args, **kwargs):
                tracer.count("evaluator.builtin_program_calls")
                return tracer.call(layer, fn, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return tracer.call(layer, fn, *args, **kwargs)
        traced.__name__ = getattr(fn, "__name__", attr)
        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Wrap the traced functions of freshly imported mapforge modules."""
        for layer, module_name, attr in FUNCTION_LAYERS:
            module = modules.get(module_name)
            original = getattr(module, attr, None) if module else None
            if original is None:
                continue
            wrapper = self._wrapper(layer, original, attr)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

        client = getattr(modules.get("adapter"), "AdapterClient", None)
        if client is not None:
            tracer = self
            propose = client.propose

            def traced_propose(self_, request):
                return tracer.call("adapter.round", propose, self_, request)
            client.propose = traced_propose
            round_trip = getattr(client, "_subprocess_round", None)
            if round_trip is not None:
                def counted_round(self_, payload):
                    tracer.count("adapter.bytes", len(payload.encode()))
                    return round_trip(self_, payload)
                client._subprocess_round = counted_round

        space = getattr(modules.get("machine"), "ProcessorSpace", None)
        if space is not None:
            tracer = self
            init = space.__init__

            def counted_init(self_, *args, **kwargs):
                tracer.counts[(tracer.round, "machine.spaces")] += 1
                init(self_, *args, **kwargs)
            space.__init__ = counted_init

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the first round's spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, parent, layer, start, end, candidate in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": layer,
                    "start": start, "end": end, "candidate": candidate}) + "\n")
