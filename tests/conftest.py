import pytest

from mapforge.ast import MEM_KINDS
from mapforge.configs import load_app, load_costs, load_machine
from mapforge.evaluator import corpus_path
from mapforge.machine import MachineModel

APP_NAMES = ("stencil", "circuit", "pennant", "cannon", "summa", "pumma",
             "johnson", "solomonik", "cosma")
TOY_NAMES = ("toy16", "toy256", "toy4096")


def load_app_named(name):
    app = load_app(corpus_path("apps", f"{name}.app"))
    assert not isinstance(app, list), app
    return app


def expert_source(name):
    return corpus_path("experts", f"{name}.dsl").read_text()


def corpus_dsl_files():
    return sorted(corpus_path().rglob("*.dsl"))


def default_machine(nodes: int = 2, gpus: int = 4, cpus: int = 4) -> MachineModel:
    """A small fixed machine for tests."""
    return MachineModel(
        name="default",
        nodes=nodes,
        proc_counts={"CPU": cpus, "GPU": gpus, "OMP": cpus},
        mem_capacity={m: 16e9 for m in MEM_KINDS},
        bandwidth={},
        latency={"CPU": 1e-6, "GPU": 1e-5, "OMP": 2e-6},
        compute_rate={"CPU": 1e11, "GPU": 5e12, "OMP": 4e11},
        concurrency={"CPU": 1, "GPU": 8, "OMP": 1},
    )


@pytest.fixture(scope="session")
def machine():
    model = load_machine(corpus_path("machines", "p100-cluster.machine"))
    assert not isinstance(model, list), model
    return model


@pytest.fixture(scope="session")
def single_node_machine():
    model = load_machine(corpus_path("machines", "single-node.machine"))
    assert not isinstance(model, list), model
    return model


@pytest.fixture(scope="session")
def costs():
    params = load_costs(corpus_path("costs", "default.costs"))
    assert not isinstance(params, list), params
    return params


@pytest.fixture(scope="session")
def stencil_app():
    return load_app_named("stencil")


@pytest.fixture(scope="session")
def circuit_app():
    return load_app_named("circuit")


@pytest.fixture(scope="session")
def cannon_app():
    return load_app_named("cannon")
