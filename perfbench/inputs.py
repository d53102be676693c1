#!/usr/bin/env python3
"""Seeded inputs of the benchmark workloads.

Everything the workloads feed to mapforge is made here from the
benchmark seed and the round index, without calling mapforge:

* ``hillclimb_seeds``: the search seed of each corpus app in a round.
* ``ExternalTextGenerator``: replay scripts for the external-text
  workload, i.e. ``blocks`` responses whose DSL text is a seeded
  mutation of a bundled circuit or solomonik mapper.
* ``large_round``: application descriptors scaled from cannon and
  solomonik to launch domains of 256 to 4096 points, each with three
  mapper variants and the documented mapping formula of every task.

Regenerate the inputs of a seed (written under ``perfbench/.work/``)::

    python3 perfbench/inputs.py --seed 3 --rounds 2
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "src" / "mapforge" / "corpus"
WORK = HERE / ".work"

# --------------------------------------------------------------------------
# hillclimb-corpus
# --------------------------------------------------------------------------

HILLCLIMB_APPS = ("circuit", "stencil", "pennant", "solomonik", "cannon")
HILLCLIMB_BUDGET = 100
# cannon's vector candidates that name block1D_*/cyclic1D_* hit the
# binder closure fault.  How many a trajectory proposes depends on its
# search seed, so cannon keeps one seed in every round and every run:
# the failed share of a run then does not depend on --seed or on how
# many rounds fit in the run.
CANNON_SEARCH_SEED = 0
CLOSURE_FAULT_MAPS = frozenset({"block1D_x", "block1D_y", "cyclic1D_x", "cyclic1D_y"})


def hillclimb_seeds(seed: int, round_index: int) -> dict[str, int]:
    """Search seed of each corpus app in one round."""
    rng = random.Random(f"hillclimb:{seed}:{round_index}")
    return {app: CANNON_SEARCH_SEED if app == "cannon" else rng.randrange(1 << 30)
            for app in HILLCLIMB_APPS}


# --------------------------------------------------------------------------
# external-text: a DSL lexer and text mutator independent of mapforge
# --------------------------------------------------------------------------

EXTERNAL_APPS = ("circuit", "solomonik")
EXTERNAL_BUDGET = 200
EXTERNAL_SOURCES = {
    "circuit": ("experts/circuit.dsl",)
    + tuple(f"strategies/{i:02d}.dsl" for i in range(1, 11))
    + ("generated/circuit_iter2.dsl", "generated/circuit_iter10.dsl"),
    "solomonik": ("experts/solomonik.dsl", "generated/solomonik_iter2.dsl",
                  "generated/solomonik_iter10.dsl"),
}

# Mutation operators and their shares (percent).  The first three keep
# the token stream, so the meaning; "swap" replaces one keyword by
# another of its class; the "break_*" operators always make the text
# fail to parse.  The shares are chosen, not measured from an optimizer;
# README.md shows that the per-layer split barely moves with them.
OPERATORS = (
    ("reflow", 15), ("comment", 15), ("rename", 15), ("swap", 35),
    ("break_brace", 5), ("break_paren", 5), ("break_truncate", 5),
    ("break_char", 5),
)
MEANING_PRESERVING = frozenset({"reflow", "comment", "rename"})
SWAP_CLASSES = (
    ("CPU", "GPU", "OMP"),
    ("SYSMEM", "FBMEM", "ZCMEM", "RDMEM", "SOCKMEM"),
    ("SOA", "AOS"),
    ("C_order", "F_order"),
)
# The protocol's block names in assembly order (docs/adapter_protocol.md).
BLOCK_ORDER = ("task", "region", "layout", "instance_limit",
               "index_task_map", "single_task_map")
_BLOCK_OF = {"Task": "task", "Region": "region", "Layout": "layout",
             "InstanceLimit": "instance_limit", "Instancelimit": "instance_limit",
             "SingleTaskMap": "single_task_map"}
_KEYWORDS = frozenset({"Task", "Region", "Layout", "IndexTaskMap", "SingleTaskMap",
                       "InstanceLimit", "Instancelimit", "CollectMemory",
                       "GarbageCollect", "def", "return", "Machine", "Tuple", "int",
                       "Align", "No_Align"})
_LEX = re.compile(r"(?P<comment>#[^\n]*)|(?P<ws>\s+)"
                  r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*|\d+)"
                  r"|(?P<op>==|!=|<=|>=|[;,(){}\[\].?:=<>+\-*/%])")
_TWO_CHAR = frozenset({"==", "!=", "<=", ">="})


def lex(text: str) -> list[tuple[str, str]]:
    """(kind, text) tokens of DSL source; kind is comment, word or op."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _LEX.match(text, pos)
        if m is None:
            raise ValueError(f"cannot lex {text[pos:pos + 20]!r}")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group()))
        pos = m.end()
    return tokens


def split_statements(tokens):
    """Top-level statements; comments travel with the next statement."""
    statements, current, depth = [], [], 0
    for tok in tokens:
        current.append(tok)
        if tok[0] != "op":
            continue
        if tok[1] == "{":
            depth += 1
        elif tok[1] == "}":
            depth -= 1
            if depth == 0:
                statements.append(current)
                current = []
        elif tok[1] == ";" and depth == 0:
            statements.append(current)
            current = []
    if current:
        if statements:
            statements[-1].extend(current)  # trailing comments
        else:
            statements.append(current)
    return statements


def _block_of(statement) -> str:
    first = next((t[1] for t in statement if t[0] != "comment"), "")
    return _BLOCK_OF.get(first, "index_task_map")


def _separator(left, right, rng) -> str:
    if left[0] == "comment":
        return rng.choice(("\n", "\n    ", "\n\n")) if rng else "\n"
    if rng is None:
        return "\n" if left == ("op", ";") or left == ("op", "}") else " "
    glued_ok = ((left[0] == "op" or right[0] == "op")
                and left[1] + right[1] not in _TWO_CHAR and right[0] != "comment")
    choices = [" ", "  ", "\t", "\n", "\n    "] + (["", ""] if glued_ok else [])
    return rng.choice(choices)


def render(tokens, rng=None) -> str:
    """Token list back to text: one statement per line, or (with an rng)
    with random whitespace between tokens."""
    if not tokens:
        return ""
    parts = [tokens[0][1]]
    for left, right in zip(tokens, tokens[1:]):
        parts.append(_separator(left, right, rng))
        parts.append(right[1])
    if tokens[-1][0] == "comment":
        parts.append("\n")
    return "".join(parts)


def assemble(blocks: dict[str, str]) -> str:
    """The program text a ``blocks`` response stands for (protocol order)."""
    return "\n".join(blocks[name] for name in BLOCK_ORDER if name in blocks)


@dataclass
class ScriptEntry:
    source: str          # corpus path of the mutated mapper
    op: str              # mutation operator
    blocks: dict[str, str]

    @property
    def text(self) -> str:
        return assemble(self.blocks)


def _blocks_from(statements, rng=None) -> dict[str, str]:
    grouped: dict[str, list] = {}
    for statement in statements:
        grouped.setdefault(_block_of(statement), []).extend(statement)
    return {name: render(grouped[name], rng) for name in BLOCK_ORDER if name in grouped}


def ordered_statements(text: str):
    """Statements of a source mapper in block-assembly order."""
    statements = split_statements(lex(text))
    return sorted(statements, key=lambda s: BLOCK_ORDER.index(_block_of(s)))


def source_blocks(text: str) -> dict[str, str]:
    """The unmutated source as the replay adapter would send it."""
    return _blocks_from(ordered_statements(text))


def _mutate(statements, op: str, rng: random.Random):
    """Apply one operator; returns (statements, rng for rendering or None)."""
    statements = [list(s) for s in statements]
    words = [(i, j) for i, s in enumerate(statements)
             for j, t in enumerate(s) if t[0] == "word"]
    if op == "reflow":
        return statements, rng
    if op == "comment":
        if rng.random() < 0.5:
            statements = [[t for t in s if t[0] != "comment"] for s in statements]
        for _ in range(rng.randint(1, 4)):
            s = rng.choice(statements)
            note = ("# " + rng.choice(("tuned", "try", "keep", "note", "todo"))
                    + f" {rng.randrange(10_000)}")
            s.insert(rng.randrange(len(s) + 1), ("comment", note))
        return statements, None
    if op == "rename":
        # A function, or else a top-level binding, renamed everywhere.
        code = [[t for t in s if t[0] != "comment"] for s in statements]
        names = sorted({s[1][1] for s in code if s[0] == ("word", "def")}
                       or {s[0][1] for s in code if s[1:2] == [("op", "=")]})
        if not names:
            return statements, rng
        taken = {t[1] for s in statements for t in s if t[0] == "word"}
        old = rng.choice(names)
        new = old
        while new in taken or new in _KEYWORDS:
            new = f"{old}_{rng.randrange(1000)}"
        statements = [[("word", new) if t == ("word", old) else t for t in s]
                      for s in statements]
        return statements, None
    if op == "swap":
        swappable = [(i, j) for i, j in words
                     if any(statements[i][j][1] in c for c in SWAP_CLASSES)]
        i, j = rng.choice(swappable)
        cls = next(c for c in SWAP_CLASSES if statements[i][j][1] in c)
        statements[i][j] = ("word", rng.choice([w for w in cls if w != statements[i][j][1]]))
        return statements, None
    if op == "break_brace":
        closes = [(i, j) for i, s in enumerate(statements)
                  for j, t in enumerate(s) if t == ("op", "}")]
        if closes:
            i, j = rng.choice(closes)
            del statements[i][j]
            return statements, None
        op = "break_paren"
    if op == "break_paren":
        semis = [(i, j) for i, s in enumerate(statements)
                 for j, t in enumerate(s) if t == ("op", ";")]
        i, j = rng.choice(semis)
        statements[i].insert(j, ("op", ")"))
        return statements, None
    if op == "break_truncate":
        # A non-empty proper prefix of the final statement never parses.
        last = [t for t in statements[-1] if t[0] != "comment"]
        statements[-1] = last[:rng.randrange(1, len(last))]
        return statements, None
    if op == "break_char":
        i = rng.randrange(len(statements))
        statements[i].insert(rng.randrange(len(statements[i]) + 1),
                             ("op", rng.choice(("$", "@", "!", "`"))))
        return statements, None
    raise ValueError(op)


@dataclass
class ExternalTextGenerator:
    """Replay scripts for consecutive rounds; no text repeats in a run
    (``seen`` holds a digest of every text generated so far)."""
    seed: int
    seen: set = field(default_factory=set)
    _sources: dict = field(default_factory=dict)

    def source(self, path: str):
        if path not in self._sources:
            self._sources[path] = ordered_statements((CORPUS / path).read_text())
        return self._sources[path]

    def round(self, round_index: int) -> dict[str, list[ScriptEntry]]:
        names = [name for name, _ in OPERATORS]
        weights = [w for _, w in OPERATORS]
        scripts = {}
        for app in EXTERNAL_APPS:
            rng = random.Random(f"external:{self.seed}:{round_index}:{app}")
            entries = []
            while len(entries) < EXTERNAL_BUDGET:
                path = rng.choice(EXTERNAL_SOURCES[app])
                op = rng.choices(names, weights)[0]
                statements, layout_rng = _mutate(self.source(path), op, rng)
                blocks = _blocks_from(statements, layout_rng)
                digest = hashlib.blake2b(assemble(blocks).encode(), digest_size=16).digest()
                if digest in self.seen:
                    continue
                self.seen.add(digest)
                entries.append(ScriptEntry(path, op, blocks))
            scripts[app] = entries
        return scripts


# --------------------------------------------------------------------------
# large-domains: scaled cannon and solomonik descriptors
# --------------------------------------------------------------------------

# A round has one descriptor per slot; the seed picks each descriptor's
# shape inside its slot's range of launch points, its iteration count
# and its cost parameters.  The slots spread the candidates' times over
# a continuous range, so the time percentiles do not jump between a few
# fixed sizes, and they hold a round's host work near the same total.
CANNON_SLOTS = ((256, 512), (512, 1024), (1024, 1536), (1536, 2304),
                (2304, 3072), (3072, 4097))              # shift_multiply points
SOLOMONIK_SLOTS = ((512, 1536), (1536, 4097))            # task_1 points
SIDES = (8, 12, 16, 24, 32, 48, 64, 96, 128, 256)
LARGE_NODES, LARGE_GPUS = 2, 4   # block3d.dsl's split chain is written for this grid
BYTES_UNIT = 100                 # exchange bytes are integral, so sums are exact


def _scaled(rng, total: float, count: int, unit: float = 1.0) -> float:
    """A per-point (or per-pair) quantity that keeps the source app's
    total over ``count`` points, times a seeded factor in [0.75, 1.5],
    rounded to a multiple of ``unit``."""
    return unit * max(1, round(total / count * rng.uniform(0.75, 1.5) / unit))

_CANNON_APP = """\
# Scaled from corpus/apps/cannon.app.
name: {name}
metric: gflops
iterations: {iterations}
regions:
  - {{name: a_tile, element_size: 8, footprint: 5.0e+08, mem_options: [[FBMEM], [ZCMEM]]}}
  - {{name: b_tile, element_size: 8, footprint: 5.0e+08, mem_options: [[FBMEM], [ZCMEM]]}}
  - {{name: c_tile, element_size: 8, footprint: 5.0e+08, mem_options: [[FBMEM], [ZCMEM]]}}
tasks:
  - name: shift_multiply
    launch: index
    domain: [{x}, {y}]
    flops_per_point: {flops}
    proc_options: [GPU, CPU]
    variants:
      GPU: {{}}
      CPU: {{}}
    args:
      - {{region: a_tile, bytes_per_point: {arg_bytes}}}
      - {{region: b_tile, bytes_per_point: {arg_bytes}}}
      - {{region: c_tile, bytes_per_point: {arg_bytes}}}
    map_options: [block2D, cyclic2D, blockcyclic]
exchanges:
  - {{task: shift_multiply, region: a_tile, pattern: stencil, offsets: [[0, 1]], wrap: true, bytes_per_point: {bytes_a}}}
  - {{task: shift_multiply, region: b_tile, pattern: stencil, offsets: [[1, 0]], wrap: true, bytes_per_point: {bytes_b}}}
"""

_SOLOMONIK_APP = """\
# Scaled from corpus/apps/solomonik.app.
name: {name}
metric: gflops
iterations: {iterations}
regions:
  - {{name: a_repl, element_size: 8, footprint: 4.0e+08, mem_options: [[FBMEM], [ZCMEM]]}}
  - {{name: b_repl, element_size: 8, footprint: 4.0e+08, mem_options: [[FBMEM], [ZCMEM]]}}
  - {{name: c_repl, element_size: 8, footprint: 4.0e+08, mem_options: [[FBMEM], [ZCMEM]]}}
tasks:
  - name: task_1
    launch: index
    domain: [{x}, {y}, {z}]
    flops_per_point: {flops}
    proc_options: [GPU, CPU]
    variants:
      GPU: {{}}
      CPU: {{}}
    args:
      - {{region: a_repl, bytes_per_point: {arg_bytes}}}
      - {{region: b_repl, bytes_per_point: {arg_bytes}}}
      - {{region: c_repl, bytes_per_point: {arg_bytes}}}
    map_options: [block3d, linearize_cyclic]
  - name: task_2
    launch: index
    domain: [{x}, {y}]
    flops_per_point: {flops2}
    proc_options: [GPU, CPU]
    variants:
      GPU: {{}}
      CPU: {{}}
    args:
      - {{region: c_repl, bytes_per_point: {arg_bytes}}}
    map_options: [block2D, cyclic2D]
exchanges:
  - {{task: task_1, region: c_repl, pattern: alltoall, axis: 2, bytes_per_point: {bytes_a}}}
  - {{task: task_2, region: c_repl, pattern: stencil, offsets: [[0, 1]], wrap: true, bytes_per_point: {bytes_b}}}
"""


@dataclass
class LargeDescriptor:
    """One scaled descriptor, its mapper variants and, per variant, the
    documented formula each task's points are mapped by."""
    name: str
    app_yaml: str
    iterations: int
    domains: dict[str, tuple[int, ...]]
    exchanges: list[dict]                       # task, pattern, bytes, offsets/axis
    mappers: dict[str, str] = field(default_factory=dict)
    formulas: dict[str, dict[str, str]] = field(default_factory=dict)

    @property
    def points(self) -> int:
        return sum(math.prod(domain) for domain in self.domains.values())


def _mapper_variants(expert: str) -> dict[str, str]:
    """expert, default (IndexTaskMap dropped) and cyclic (cyclic2D in
    place of block2D) variants of an expert mapper."""
    default, n_maps = re.subn(r"^IndexTaskMap[^\n]*\n?", "", expert, flags=re.M)
    cyclic, n_body = re.subn(r"ipoint \* m\.size / ispace", "ipoint % m.size", expert)
    cyclic, n_name = re.subn(r"\bblock2D\b", "cyclic2D", cyclic)
    if not (n_maps and n_body and n_name):
        raise ValueError("expert mapper no longer has the expected block2D form")
    return {"expert": expert, "default": default, "cyclic": cyclic}


def _shapes(rank: int, low: int, high: int) -> list[tuple[int, ...]]:
    """Domains of ``rank`` sides from SIDES with low <= points < high (the
    third side of a 3D domain, the all-to-all axis, is 8 or 16)."""
    thirds = (8, 16) if rank == 3 else (1,)
    shapes = []
    for x in SIDES:
        for y in SIDES:
            for z in thirds:
                if low <= x * y * z < high:
                    shapes.append((x, y, z) if rank == 3 else (x, y))
    return shapes


def large_round(seed: int, round_index: int) -> list[LargeDescriptor]:
    rng = random.Random(f"large:{seed}:{round_index}")
    cannon_expert = (CORPUS / "experts" / "cannon.dsl").read_text()
    solomonik_expert = (CORPUS / "experts" / "solomonik.dsl").read_text()
    descriptors = []
    for slot, (low, high) in enumerate(CANNON_SLOTS):
        x, y = rng.choice(_shapes(2, low, high))
        points = x * y
        # cannon.app: 16 points of 8e9 flops, 16 pairs of 1.5e6 bytes per shift.
        params = dict(name=f"cannon{slot}_{x}x{y}", iterations=rng.randint(2, 6), x=x, y=y,
                      flops=_scaled(rng, 16 * 8e9, points, 1e6),
                      arg_bytes=_scaled(rng, 16 * 3.1e7, points, BYTES_UNIT),
                      bytes_a=int(_scaled(rng, 16 * 1.5e6, points, BYTES_UNIT)),
                      bytes_b=int(_scaled(rng, 16 * 1.5e6, points, BYTES_UNIT)))
        d = LargeDescriptor(
            params["name"], _CANNON_APP.format(**params), params["iterations"],
            {"shift_multiply": (x, y)},
            [{"task": "shift_multiply", "pattern": "stencil", "offset": (0, 1),
              "bytes": params["bytes_a"]},
             {"task": "shift_multiply", "pattern": "stencil", "offset": (1, 0),
              "bytes": params["bytes_b"]}])
        d.mappers = _mapper_variants(cannon_expert)
        d.formulas = {"expert": {"shift_multiply": "block2D"},
                      "default": {"shift_multiply": "default"},
                      "cyclic": {"shift_multiply": "cyclic2D"}}
        descriptors.append(d)
    for slot, (low, high) in enumerate(SOLOMONIK_SLOTS):
        x, y, z = rng.choice(_shapes(3, low, high))
        points = x * y * z
        # solomonik.app: task_1 has 64 points of 2e9 flops and 64 * 3
        # all-to-all pairs of 4e6 bytes; task_2 has 16 points of 1e9 flops
        # and 16 stencil pairs of 1.5e6 bytes.
        plane = points // z
        params = dict(name=f"solomonik{slot}_{x}x{y}x{z}", iterations=rng.randint(2, 6),
                      x=x, y=y, z=z,
                      flops=_scaled(rng, 64 * 2e9, points, 1e6),
                      flops2=_scaled(rng, 16 * 1e9, plane, 1e6),
                      arg_bytes=_scaled(rng, 16 * 7.8e6, points, BYTES_UNIT),
                      bytes_a=int(_scaled(rng, 64 * 3 * 4e6, points * (z - 1), BYTES_UNIT)),
                      bytes_b=int(_scaled(rng, 16 * 1.5e6, plane, BYTES_UNIT)))
        d = LargeDescriptor(
            params["name"], _SOLOMONIK_APP.format(**params), params["iterations"],
            {"task_1": (x, y, z), "task_2": (x, y)},
            [{"task": "task_1", "pattern": "alltoall", "axis": 2,
              "bytes": params["bytes_a"]},
             {"task": "task_2", "pattern": "stencil", "offset": (0, 1),
              "bytes": params["bytes_b"]}])
        d.mappers = _mapper_variants(solomonik_expert)
        d.formulas = {"expert": {"task_1": "block3d", "task_2": "block2D"},
                      "default": {"task_1": "default", "task_2": "default"},
                      "cyclic": {"task_1": "block3d", "task_2": "cyclic2D"}}
        descriptors.append(d)
    return descriptors


# --------------------------------------------------------------------------
# Files
# --------------------------------------------------------------------------


def seed_dir(seed: int) -> Path:
    return WORK / "inputs" / f"seed-{seed}"


def write_external_round(directory: Path, round_index: int,
                         scripts: dict[str, list[ScriptEntry]]) -> dict[str, Path]:
    """Writes one replay script per app (the adapter's input) plus the
    operator and source of every entry; returns the script paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for app, entries in scripts.items():
        path = directory / f"external-r{round_index}-{app}.json"
        path.write_text(json.dumps([e.blocks for e in entries]))
        (directory / f"external-r{round_index}-{app}.ops.json").write_text(
            json.dumps([{"source": e.source, "op": e.op} for e in entries], indent=0))
        paths[app] = path
    return paths


def write_large_round(directory: Path, round_index: int,
                      descriptors: list[LargeDescriptor]) -> dict[str, Path]:
    """Writes each scaled descriptor and its mapper variants; returns the
    descriptor paths by name."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for d in descriptors:
        path = directory / f"large-r{round_index}-{d.name}.app"
        path.write_text(d.app_yaml)
        for variant, text in d.mappers.items():
            (directory / f"large-r{round_index}-{d.name}-{variant}.dsl").write_text(text)
        paths[d.name] = path
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    directory = seed_dir(args.seed)
    generator = ExternalTextGenerator(args.seed)
    rounds = {}
    for r in range(args.rounds):
        rounds[r] = {"hillclimb_seeds": hillclimb_seeds(args.seed, r)}
        write_external_round(directory, r, generator.round(r))
        write_large_round(directory, r, large_round(args.seed, r))
    (directory / "hillclimb-seeds.json").write_text(json.dumps(rounds, indent=1))
    print(f"wrote {directory}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
