import copy
import re
from pathlib import Path

import hypothesis.strategies as st
import pytest
import yaml
from hypothesis import given, settings

from mapforge.configs import (
    ApplicationDescriptor, CostParams, load_app, load_costs, load_machine, load_yaml,
)
from mapforge.evaluator import corpus_path
from mapforge.feedback import load_rules
from mapforge.machine import MachineModel

DOCS = Path(__file__).resolve().parents[1] / "docs" / "file_formats.md"

APP = corpus_path("apps", "stencil.app")
MACHINE = corpus_path("machines", "p100-cluster.machine")
COSTS = corpus_path("costs", "default.costs")

LOADERS = {load_app: ApplicationDescriptor, load_machine: MachineModel,
           load_costs: CostParams}


def load_edited(loader, base, path, edit):
    """Load the descriptor ``base`` after ``edit`` changed its data."""
    data = load_yaml(base)
    edit(data)
    path.write_text(yaml.safe_dump(data))
    return loader(path)


def messages(result):
    assert isinstance(result, list), result
    return [d.message for d in result]


# -- the documented examples ----------------------------------------------------


def test_every_documented_yaml_example_loads(tmp_path):
    # Each ```yaml block is loaded by the loader of the section it is in.
    loaders = {"`.app`": load_app, "`.machine`": load_machine,
               "`.costs`": load_costs, "`feedback_rules.cfg`": load_rules}
    loaded = []
    for section in re.split(r"^## ", DOCS.read_text(), flags=re.M):
        for block in re.findall(r"^```yaml\n(.*?)^```", section, flags=re.M | re.S):
            heading = section.splitlines()[0]
            loader = next(f for key, f in loaders.items() if key in heading)
            path = tmp_path / "example.yaml"
            path.write_text(block)
            result = loader(path)  # load_rules raises on a bad file
            assert isinstance(result, {**LOADERS, load_rules: list}[loader]), result
            loaded.append(loader)
    assert sorted(f.__name__ for f in loaded) == sorted(f.__name__ for f in loaders.values())


def test_an_unsigned_exponent_is_not_a_number(tmp_path):
    path = tmp_path / "x.costs"
    path.write_text("aos_gpu_penalty: 1.0e9\n")
    assert messages(load_costs(path)) == ["aos_gpu_penalty: expected a number"]
    path.write_text("aos_gpu_penalty: 1.0e+9\n")
    assert load_costs(path) == CostParams(aos_gpu_penalty=1e9)


# -- schema errors ----------------------------------------------------------------


@pytest.mark.parametrize("field", ["compute_rate", "latency", "bandwidth"])
def test_costs_do_not_override_the_machine(tmp_path, field):
    result = load_edited(load_costs, COSTS, tmp_path / "x.costs",
                         lambda data: data.update({field: {}}))
    assert messages(result) == [f"unknown field: {field}"]


def _set(*keys, value):
    def edit(data):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] = value
    return edit


@pytest.mark.parametrize("loader, base, edit, where", [
    (load_machine, MACHINE, _set("procs", "GPU", value=4), "procs.GPU"),
    (load_machine, MACHINE, _set("memories", "SYSMEM", value=5), "memories.SYSMEM"),
    (load_machine, MACHINE, _set("defaults", value=5), "defaults"),
    (load_machine, MACHINE, _set("bandwidth", value=[5]), "bandwidth[0]"),
    (load_app, APP, _set("regions", value=[5]), "regions[0]"),
    (load_app, APP, _set("tasks", value=[5]), "tasks[0]"),
    (load_app, APP, _set("tasks", 0, "args", value=[5]), "tasks[0].args[0]"),
    (load_app, APP, _set("tasks", 0, "variants", "GPU", value=5), "tasks[0].variants.GPU"),
    (load_app, APP, _set("exchanges", value=[7]), "exchanges[0]"),
])
def test_a_non_mapping_where_a_mapping_belongs(tmp_path, loader, base, edit, where):
    result = load_edited(loader, base, tmp_path / "x.yaml", edit)
    assert messages(result) == [f"{where}: expected a mapping"]


def _append_copy(key):
    def edit(data):
        data[key].append(copy.deepcopy(data[key][0]))
    return edit


@pytest.mark.parametrize("loader, base, edit, message", [
    (load_app, APP, _set("metric", value="speed"), "metric: must be one of time, gflops"),
    (load_app, APP, _set("tasks", 0, "proc_options", 0, value="TPU"),
     "tasks[0].proc_options[0]: unknown processor kind TPU"),
    (load_app, APP, _set("tasks", 0, "domain", value=[]),
     "tasks[0].domain: launch domain must be nonempty"),
    (load_app, APP, _set("tasks", 0, "proc_options", value=[]),
     "tasks[0].proc_options: must list at least one kind"),
    (load_app, APP, lambda data: data["tasks"][0]["variants"].pop("GPU"),
     "tasks[0].proc_options: option GPU has no matching variant"),
    (load_app, APP, _set("tasks", 0, "args", 0, "region", value="nope"),
     "tasks[0].args[0].region: unknown region nope"),
    (load_app, APP, _set("exchanges", 0, "task", value="nope"),
     "exchanges[0].task: unknown task nope"),
    (load_app, APP, _append_copy("regions"), "regions[6].name: duplicate region grid_a"),
    (load_app, APP, _append_copy("tasks"), "tasks[2].name: duplicate task apply_stencil"),
    (load_app, APP, _set("tasks", value=[]), "tasks: must list at least one task"),
    (load_machine, MACHINE, _set("procs", value=5),
     "procs: expected a mapping of processor kinds"),
    (load_machine, MACHINE, _set("procs", "GPU", "count", value=-1),
     "procs.GPU.count: must be nonnegative"),
    (load_machine, MACHINE, _set("memories", value=5),
     "memories: expected a mapping of memory kinds"),
    (load_app, corpus_path("apps", "cosma.app"), _set("exchanges", 0, "axis", value=7),
     "exchanges[0].axis: axis 7 out of range for rank 3"),
], ids=["metric", "proc_kind", "empty_domain", "no_proc_options", "no_variant",
        "unknown_region", "unknown_exchange_task", "duplicate_region",
        "duplicate_task", "no_tasks", "procs_not_a_mapping", "negative_count",
        "memories_not_a_mapping", "exchange_axis"])
def test_descriptor_errors(tmp_path, loader, base, edit, message):
    result = load_edited(loader, base, tmp_path / "x.yaml", edit)
    assert messages(result) == [message]


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_flags_take_only_true_or_false(tmp_path, value):
    result = load_edited(load_app, APP, tmp_path / "x.app",
                         _set("exchanges", 0, "wrap", value=value))
    assert messages(result) == ["exchanges[0].wrap: expected true or false"]
    result = load_edited(load_machine, MACHINE, tmp_path / "x.machine",
                         _set("bandwidth", 0, "same_node", value=value))
    assert messages(result) == ["bandwidth[0].same_node: expected true or false"]


def test_an_integer_past_the_float_range(tmp_path):
    result = load_edited(load_costs, COSTS, tmp_path / "x.costs",
                         _set("misalign_penalty", value=10 ** 400))
    assert messages(result) == ["misalign_penalty: number out of range"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("loader, base, keys, where", [
    (load_machine, MACHINE, ("procs", "GPU", "compute_rate"), "procs.GPU.compute_rate"),
    (load_app, APP, ("tasks", 0, "flops_per_point"), "tasks[0].flops_per_point"),
    (load_costs, COSTS, ("aos_gpu_penalty",), "aos_gpu_penalty"),
])
def test_numbers_must_be_finite(tmp_path, loader, base, keys, where, value):
    result = load_edited(loader, base, tmp_path / "x.yaml", _set(*keys, value=value))
    assert messages(result) == [f"{where}: expected a finite number"]


# -- totality ---------------------------------------------------------------------

_KEYS = st.sampled_from(["name", "tasks", "regions", "procs", "memories", "GPU",
                         "SYSMEM", "args", "variants", "bandwidth", "wrap"])
_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | _KEYS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_KEYS | st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


def _paths(node, prefix=()):
    yield prefix
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _assert_total(loader, data, path):
    path.write_text(yaml.safe_dump(data))
    result = loader(path)
    assert isinstance(result, (list, LOADERS[loader])), result


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(LOADERS)), _TREES)
def test_a_random_tree_loads_or_is_diagnosed(tmp_path_factory, loader, tree):
    _assert_total(loader, tree, tmp_path_factory.getbasetemp() / "tree.yaml")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(load_app, load_yaml(p))
                        for p in sorted(corpus_path("apps").glob("*.app"))]
                       + [(load_machine, load_yaml(MACHINE)),
                          (load_costs, load_yaml(COSTS))]),
       st.data())
def test_a_descriptor_with_a_random_subtree_loads_or_is_diagnosed(
        tmp_path_factory, base, data):
    loader, tree = base
    tree = copy.deepcopy(tree)
    keys = data.draw(st.sampled_from(list(_paths(tree))[1:]))
    node = tree
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = data.draw(_TREES)
    _assert_total(loader, tree, tmp_path_factory.getbasetemp() / "mutant.yaml")
