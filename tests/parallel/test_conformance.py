"""Machine conformance: every machine runs the same spec round alike.

One ``(fn, args, kwargs)`` round on each machine — serial, simulated,
threads, a process pool over pickle and over shared memory, the
resilience wrapper over a pool and the chaos wrapper over serial —
must return its results in spec order, count its round and tasks, name
the index of a task whose own error fails the round, and (on machines
whose tasks run in this process) treat the transport surface as
identities and no-ops.
"""

import warnings

import numpy as np
import pytest

from repro.parallel import (
    ChaosMachine,
    FaultPolicy,
    ProcessMachine,
    ResilientMachine,
    SerialMachine,
    SimulatedMachine,
    ThreadMachine,
    shared_memory_available,
)

needs_shm = pytest.mark.skipif(not shared_memory_available(), reason="no shared memory")

MACHINES = [
    pytest.param(SerialMachine, id="serial"),
    pytest.param(lambda: SimulatedMachine(workers=2), id="simulated"),
    pytest.param(lambda: ThreadMachine(2), id="threads"),
    pytest.param(lambda: ProcessMachine(2, transport="pickle"), id="processes-pickle"),
    pytest.param(
        lambda: ProcessMachine(2, transport="shm"), id="processes-shm", marks=needs_shm
    ),
    pytest.param(
        lambda: ResilientMachine(
            ProcessMachine(2), FaultPolicy(max_retries=1, backoff_base=0.0),
            sleep=lambda s: None,
        ),
        id="resilient-processes",
    ),
    pytest.param(lambda: ChaosMachine(SerialMachine(), seed=0), id="chaos-serial"),
]
IN_PROCESS = [p for p in MACHINES if p.id in ("serial", "simulated", "threads", "chaos-serial")]


@pytest.fixture(params=MACHINES)
def machine(request):
    m = request.param()
    yield m
    m.close()


@pytest.fixture(params=IN_PROCESS)
def local_machine(request):
    m = request.param()
    yield m
    m.close()


def _scaled(arr, k=1):
    return np.asarray(arr) * k


def _fail(message):
    raise ValueError(message)


def _specs():
    return [(_scaled, (np.arange(4) + i,), {"k": i}) for i in range(5)]


def _backend(m):
    """The machine that counts rounds (a wrapper's inner machine)."""
    return getattr(m, "inner", m)


def test_results_in_spec_order(machine):
    out = machine.run_round(_specs())
    assert len(out) == 5
    for i, got in enumerate(out):
        assert np.array_equal(machine.localize(got), (np.arange(4) + i) * i)
    machine.release_arrays(out)


def test_rounds_and_tasks_counted(machine):
    backend = _backend(machine)
    rounds, tasks = backend.rounds, backend.tasks
    machine.run_round(_specs())
    machine.run_round(_specs()[:2])
    assert backend.rounds - rounds == 2
    assert backend.tasks - tasks == 7
    assert machine.elapsed > 0


def test_task_error_names_its_index(machine):
    specs = _specs()[:2] + [(_fail, ("boom",), {})]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the resilient wrapper degrades
        with pytest.raises(ValueError, match="boom") as info:
            machine.run_round(specs)
    notes = getattr(info.value, "__notes__", [])
    assert any("task 2 of a 3-task round" in note for note in notes), notes


def test_items_do_not_change_results(machine):
    assert machine.run_round([(int, ("7",), {})], items=[3]) == [7]


def test_transport_surface_is_identity_in_process(local_machine):
    m = local_machine
    x, y = np.arange(5), np.ones(3)
    bx, by = m.broadcast(x, y)
    assert bx is x and by is y
    assert m.localize(x) is x
    assert m.release_arrays([x, y]) is None
    slab = m.slab((2, 3), np.int32)
    assert slab.shape == (2, 3) and slab.dtype == np.int32
    assert m.recycle_slabs([slab]) is None
    assert m.transport_stats() == {}
    assert not m.remote_tasks
    m.rebuild()
    assert m.run_round([(int, ("1",), {})]) == [1]
