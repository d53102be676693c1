"""Application, machine, and cost-parameter descriptors and their loaders.

All three are YAML files with fixed schemas (see docs/file_formats.md):

* ``.app``      application descriptor: tasks, region arguments, launch
                domains, variants, exchange rules, search-option domains
* ``.machine``  machine model: nodes, processor kinds, memories, bandwidth
* ``.costs``    cost parameters: penalty factors (machine rates,
                latencies and bandwidths live in the machine model)

Loaders validate eagerly and report problems as Diagnostics whose
messages carry the offending field path.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import yaml

from .ast import (
    DIM_ORDERS, FIELD_LAYOUTS, IDENT, MEM_ALIASES, MEM_KINDS, PROC_KINDS, Diagnostic,
)
from .machine import MachineModel


# --------------------------------------------------------------------------
# Descriptor dataclasses
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionSpec:
    name: str
    element_size: int
    footprint: float  # total bytes
    mem_options: tuple[tuple[str, ...], ...] = ()  # memory preference lists


@dataclass(frozen=True)
class VariantSpec:
    proc: str
    layout: str = "any"  # required SOA/AOS, or "any"
    order: str = "any"   # required C_order/F_order, or "any"


@dataclass(frozen=True)
class TaskArg:
    region: str
    bytes_per_point: float


@dataclass(frozen=True)
class TaskSpec:
    name: str
    launch: str  # "index" | "single"
    domain: tuple[int, ...]
    flops_per_point: float
    variants: tuple[VariantSpec, ...]
    args: tuple[TaskArg, ...]
    proc_options: tuple[str, ...]
    map_options: tuple[str, ...] = ()

    @property
    def points(self) -> int:
        return math.prod(self.domain) if self.launch == "index" else 1

    def variant_for(self, proc: str) -> Optional[VariantSpec]:
        for v in self.variants:
            if v.proc == proc:
                return v
        return None


@dataclass(frozen=True)
class ExchangeRule:
    task: str
    region: str
    pattern: str  # "stencil" | "alltoall"
    bytes_per_point: float
    offsets: tuple[tuple[int, ...], ...] = ()
    axis: int = 0
    wrap: bool = False


@dataclass(frozen=True)
class ApplicationDescriptor:
    name: str
    metric: str  # "time" | "gflops"
    iterations: int
    regions: tuple[RegionSpec, ...]
    tasks: tuple[TaskSpec, ...]
    exchanges: tuple[ExchangeRule, ...] = ()

    def region(self, name: str) -> RegionSpec:
        for r in self.regions:
            if r.name == name:
                return r
        raise KeyError(name)

    def task(self, name: str) -> TaskSpec:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(name)


@dataclass(frozen=True)
class CostParams:
    aos_gpu_penalty: float = 4.0
    misalign_penalty: float = 2.0
    zcmem_gpu_penalty: float = 8.0


# --------------------------------------------------------------------------
# Schema walking helpers
# --------------------------------------------------------------------------


class _SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)


# What a loader turns into a diagnostic: a file that cannot be read, is
# not UTF-8 or YAML, or does not fit the schema.
_LOAD_ERRORS = (_SchemaError, OSError, UnicodeDecodeError)


def _diag(exc: Exception) -> list[Diagnostic]:
    return [Diagnostic("error", 1, 1, str(exc))]


def _require(mapping: dict, key: str, path: str):
    if not isinstance(mapping, dict) or key not in mapping:
        where = f"{path}.{key}" if path else key
        raise _SchemaError("", f"missing required field: {where}")
    return mapping[key]


def _check_known(mapping: dict, known: tuple[str, ...], path: str):
    if not isinstance(mapping, dict):
        raise _SchemaError(path, "expected a mapping")
    for key in mapping:
        if key not in known:
            where = f"{path}.{key}" if path else key
            raise _SchemaError("", f"unknown field: {where}")


def _as_str(value, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise _SchemaError(path, "expected a string")
    if choices and value not in choices:
        raise _SchemaError(path, f"must be one of {', '.join(choices)}")
    return value


_IDENT = re.compile(IDENT + r"\Z")


def _as_name(value, path: str) -> str:
    # Task and region names appear in mapper programs, so they must be
    # DSL identifiers.
    name = _as_str(value, path)
    if not _IDENT.match(name):
        raise _SchemaError(path, f"{name!r} is not a valid identifier")
    return name


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _SchemaError(path, "expected a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise _SchemaError(path, "expected a finite number")
    if value <= 0:
        raise _SchemaError(path, "must be positive")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise _SchemaError(path, "number out of range") from None


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise _SchemaError(path, "expected true or false")
    return value


def _as_int(value, path: str, positive: bool = True) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _SchemaError(path, "expected an integer")
    if positive and value <= 0:
        raise _SchemaError(path, "must be positive")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise _SchemaError(path, "expected a list")
    return value


def _mem_kind(value, path: str) -> str:
    name = _as_str(value, path)
    name = MEM_ALIASES.get(name, name)
    if name not in MEM_KINDS:
        raise _SchemaError(path, f"unknown memory kind {value}")
    return name


def _proc_kind(value, path: str) -> str:
    name = _as_str(value, path)
    if name not in PROC_KINDS:
        raise _SchemaError(path, f"unknown processor kind {value}")
    return name


# libyaml's loader where PyYAML was built with it: the same data, faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(path: Union[str, Path]):
    """The data in a YAML file.

    Raises OSError when the file cannot be read, and ValueError when it
    is not UTF-8 or not YAML; a YAML error is one line, ``line L,
    column C: problem``, or ``invalid value: problem`` for a scalar the
    loader cannot build, such as the date ``2001-13-45``.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except ValueError as exc:  # raised while building a value; no position
        raise _SchemaError("", f"invalid value: {exc}") from None
    except yaml.MarkedYAMLError as exc:
        mark, problem = exc.problem_mark, exc.problem
        line, column = mark.line + 1, mark.column + 1
    except yaml.reader.ReaderError as exc:  # a character YAML never allows
        at = text.index(chr(exc.character))
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        problem = f"character #x{exc.character:04x} is not allowed"
    raise _SchemaError("", f"line {line}, column {column}: {problem}")


def _load_mapping(path: Union[str, Path]) -> dict:
    data = load_yaml(path)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise _SchemaError("", "top level must be a mapping")
    return data


# --------------------------------------------------------------------------
# Application descriptor
# --------------------------------------------------------------------------

_APP_FIELDS = ("name", "metric", "iterations", "regions", "tasks", "exchanges")
_REGION_FIELDS = ("name", "element_size", "footprint", "mem_options")
_TASK_FIELDS = ("name", "launch", "domain", "flops_per_point", "proc_options",
                "variants", "args", "map_options")
_EXCHANGE_FIELDS = ("task", "region", "pattern", "bytes_per_point", "offsets",
                    "axis", "wrap")


def _parse_region(data: dict, path: str) -> RegionSpec:
    _check_known(data, _REGION_FIELDS, path)
    name = _as_name(_require(data, "name", path), f"{path}.name")
    element_size = _as_int(_require(data, "element_size", path), f"{path}.element_size")
    footprint = _as_number(_require(data, "footprint", path), f"{path}.footprint")
    options = []
    for i, opt in enumerate(_as_list(data.get("mem_options", []), f"{path}.mem_options")):
        prefs = _as_list(opt, f"{path}.mem_options[{i}]")
        if not prefs:
            raise _SchemaError(f"{path}.mem_options[{i}]", "preference list is empty")
        options.append(tuple(_mem_kind(m, f"{path}.mem_options[{i}][{j}]")
                             for j, m in enumerate(prefs)))
    return RegionSpec(name, element_size, footprint, tuple(options))


def _parse_task(data: dict, path: str, regions: dict[str, RegionSpec]) -> TaskSpec:
    _check_known(data, _TASK_FIELDS, path)
    name = _as_name(_require(data, "name", path), f"{path}.name")
    launch = _as_str(data.get("launch", "index"), f"{path}.launch",
                     ("index", "single"))
    domain = tuple(
        _as_int(v, f"{path}.domain[{i}]")
        for i, v in enumerate(_as_list(_require(data, "domain", path), f"{path}.domain")))
    if not domain:
        raise _SchemaError(f"{path}.domain", "launch domain must be nonempty")
    flops = _as_number(_require(data, "flops_per_point", path),
                       f"{path}.flops_per_point")
    procs = tuple(_proc_kind(p, f"{path}.proc_options[{i}]")
                  for i, p in enumerate(_as_list(_require(data, "proc_options", path),
                                                 f"{path}.proc_options")))
    if not procs:
        raise _SchemaError(f"{path}.proc_options", "must list at least one kind")
    variants = []
    vdata = _require(data, "variants", path)
    if not isinstance(vdata, dict):
        raise _SchemaError(f"{path}.variants", "expected a mapping of proc kinds")
    for proc, spec in vdata.items():
        vpath = f"{path}.variants.{proc}"
        _proc_kind(proc, vpath)
        spec = spec or {}
        _check_known(spec, ("layout", "order"), vpath)
        variants.append(VariantSpec(
            proc,
            _as_str(spec.get("layout", "any"), f"{vpath}.layout",
                    FIELD_LAYOUTS + ("any",)),
            _as_str(spec.get("order", "any"), f"{vpath}.order", DIM_ORDERS + ("any",)),
        ))
    variant_procs = {v.proc for v in variants}
    for proc in procs:
        if proc not in variant_procs:
            raise _SchemaError(f"{path}.proc_options",
                               f"option {proc} has no matching variant")
    args = []
    for i, arg in enumerate(_as_list(data.get("args", []), f"{path}.args")):
        apath = f"{path}.args[{i}]"
        _check_known(arg, ("region", "bytes_per_point"), apath)
        region = _as_str(_require(arg, "region", apath), f"{apath}.region")
        if region not in regions:
            raise _SchemaError(f"{apath}.region", f"unknown region {region}")
        args.append(TaskArg(region, _as_number(
            _require(arg, "bytes_per_point", apath), f"{apath}.bytes_per_point")))
    map_options = tuple(
        _as_str(v, f"{path}.map_options[{i}]")
        for i, v in enumerate(_as_list(data.get("map_options", []),
                                       f"{path}.map_options")))
    return TaskSpec(name, launch, domain, flops, tuple(variants), tuple(args),
                    procs, map_options)


def _parse_exchange(data: dict, path: str,
                    tasks: dict[str, TaskSpec]) -> ExchangeRule:
    _check_known(data, _EXCHANGE_FIELDS, path)
    task = _as_str(_require(data, "task", path), f"{path}.task")
    if task not in tasks:
        raise _SchemaError(f"{path}.task", f"unknown task {task}")
    region = _as_str(_require(data, "region", path), f"{path}.region")
    if region not in {a.region for a in tasks[task].args}:
        raise _SchemaError(f"{path}.region",
                           f"task {task} has no region argument {region}")
    pattern = _as_str(_require(data, "pattern", path), f"{path}.pattern",
                      ("stencil", "alltoall"))
    bytes_pp = _as_number(_require(data, "bytes_per_point", path),
                          f"{path}.bytes_per_point")
    offsets = tuple(
        tuple(_as_int(v, f"{path}.offsets[{i}][{j}]", positive=False)
              for j, v in enumerate(_as_list(off, f"{path}.offsets[{i}]")))
        for i, off in enumerate(_as_list(data.get("offsets", []), f"{path}.offsets")))
    spec = tasks[task]
    if spec.launch == "single" and math.prod(spec.domain) > 1:
        raise _SchemaError(path, f"task {task} has a single launch, so its "
                                 f"exchanges need a one-point domain, not "
                                 f"{math.prod(spec.domain)} points")
    rank = len(spec.domain)
    if pattern == "stencil":
        if not offsets:
            raise _SchemaError(f"{path}.offsets", "stencil pattern needs offsets")
        for i, off in enumerate(offsets):
            if len(off) != rank:
                raise _SchemaError(f"{path}.offsets[{i}]",
                                   f"offset rank {len(off)} != domain rank {rank}")
    axis = _as_int(data.get("axis", 0), f"{path}.axis", positive=False)
    if pattern == "alltoall" and not 0 <= axis < rank:
        raise _SchemaError(f"{path}.axis", f"axis {axis} out of range for rank {rank}")
    wrap = _as_bool(data.get("wrap", False), f"{path}.wrap")
    return ExchangeRule(task, region, pattern, bytes_pp, offsets, axis, wrap)


def load_app(path: Union[str, Path]) -> ApplicationDescriptor | list[Diagnostic]:
    try:
        data = _load_mapping(path)
        _check_known(data, _APP_FIELDS, "")
        name = _as_str(_require(data, "name", ""), "name")
        metric = _as_str(data.get("metric", "time"), "metric", ("time", "gflops"))
        iterations = _as_int(data.get("iterations", 1), "iterations")
        regions = {}
        for i, rdata in enumerate(_as_list(data.get("regions", []), "regions")):
            region = _parse_region(rdata, f"regions[{i}]")
            if region.name in regions:
                raise _SchemaError(f"regions[{i}].name",
                                   f"duplicate region {region.name}")
            regions[region.name] = region
        task_list = _as_list(_require(data, "tasks", ""), "tasks")
        if not task_list:
            raise _SchemaError("tasks", "must list at least one task")
        tasks = {}
        for i, tdata in enumerate(task_list):
            task = _parse_task(tdata, f"tasks[{i}]", regions)
            if task.name in tasks:
                raise _SchemaError(f"tasks[{i}].name", f"duplicate task {task.name}")
            tasks[task.name] = task
        exchanges = tuple(
            _parse_exchange(edata, f"exchanges[{i}]", tasks)
            for i, edata in enumerate(_as_list(data.get("exchanges", []), "exchanges")))
        return ApplicationDescriptor(name, metric, iterations,
                                     tuple(regions.values()), tuple(tasks.values()),
                                     exchanges)
    except _LOAD_ERRORS as exc:
        return _diag(exc)


# --------------------------------------------------------------------------
# Machine model
# --------------------------------------------------------------------------

_MACHINE_FIELDS = ("name", "nodes", "procs", "memories", "defaults", "bandwidth")
_BANDWIDTH_FIELDS = ("src", "dst", "same_node", "rate")


def load_machine(path: Union[str, Path]) -> MachineModel | list[Diagnostic]:
    try:
        data = _load_mapping(path)
        _check_known(data, _MACHINE_FIELDS, "")
        name = _as_str(_require(data, "name", ""), "name")
        nodes = _as_int(_require(data, "nodes", ""), "nodes")
        proc_counts: dict[str, int] = {}
        latency: dict[str, float] = {}
        rate: dict[str, float] = {}
        concurrency: dict[str, int] = {}
        procs = _require(data, "procs", "")
        if not isinstance(procs, dict):
            raise _SchemaError("procs", "expected a mapping of processor kinds")
        for kind, spec in procs.items():
            ppath = f"procs.{kind}"
            _proc_kind(kind, ppath)
            _check_known(spec, ("count", "compute_rate", "latency", "concurrency"),
                         ppath)
            proc_counts[kind] = _as_int(_require(spec, "count", ppath),
                                        f"{ppath}.count", positive=False)
            if proc_counts[kind] < 0:
                raise _SchemaError(f"{ppath}.count", "must be nonnegative")
            if proc_counts[kind] > 0:
                rate[kind] = _as_number(_require(spec, "compute_rate", ppath),
                                        f"{ppath}.compute_rate")
                latency[kind] = _as_number(_require(spec, "latency", ppath),
                                           f"{ppath}.latency")
                concurrency[kind] = _as_int(spec.get("concurrency", 1),
                                            f"{ppath}.concurrency")
        mem_capacity: dict[str, float] = {}
        memories = _require(data, "memories", "")
        if not isinstance(memories, dict):
            raise _SchemaError("memories", "expected a mapping of memory kinds")
        for mem, spec in memories.items():
            mpath = f"memories.{mem}"
            canonical = _mem_kind(mem, mpath)
            _check_known(spec, ("capacity",), mpath)
            mem_capacity[canonical] = _as_number(_require(spec, "capacity", mpath),
                                                 f"{mpath}.capacity")
        defaults = data.get("defaults", {})
        _check_known(defaults, ("same_node_bandwidth", "cross_node_bandwidth"),
                     "defaults")
        table: dict[tuple[str, str, bool], float] = {}
        for same, key in ((True, "same_node_bandwidth"), (False, "cross_node_bandwidth")):
            if defaults.get(key) is not None:
                value = _as_number(defaults[key], f"defaults.{key}")
                table.update(((src, dst, same), value)
                             for src in mem_capacity for dst in mem_capacity)
        for i, entry in enumerate(_as_list(data.get("bandwidth", []), "bandwidth")):
            epath = f"bandwidth[{i}]"
            _check_known(entry, _BANDWIDTH_FIELDS, epath)
            src = _mem_kind(_require(entry, "src", epath), f"{epath}.src")
            dst = _mem_kind(_require(entry, "dst", epath), f"{epath}.dst")
            same = _as_bool(_require(entry, "same_node", epath), f"{epath}.same_node")
            value = _as_number(_require(entry, "rate", epath), f"{epath}.rate")
            table[(src, dst, same)] = table[(dst, src, same)] = value  # symmetric
        return MachineModel(name, nodes, proc_counts, mem_capacity, table,
                            latency, rate, concurrency)
    except _LOAD_ERRORS as exc:
        return _diag(exc)


# --------------------------------------------------------------------------
# Cost parameters
# --------------------------------------------------------------------------

_COST_FIELDS = ("aos_gpu_penalty", "misalign_penalty", "zcmem_gpu_penalty")


def load_costs(path: Union[str, Path]) -> CostParams | list[Diagnostic]:
    try:
        data = _load_mapping(path)
        _check_known(data, _COST_FIELDS, "")
        penalties = {}
        for key in _COST_FIELDS:
            if key not in data:
                continue
            value = _as_number(data[key], key)
            if value < 1:
                raise _SchemaError(key, "penalty factors must be >= 1")
            penalties[key] = value
        return CostParams(**penalties)
    except _LOAD_ERRORS as exc:
        return _diag(exc)
