"""Golden digests of simulated schedules at the paper shape.

The paper figures are simulated-executor output, so a change to the
executor machinery must not move a single simulated record.  Each case
builds a cost-only B-Par training graph at the paper's shape (input 1024,
hidden 128, 2 layers, T=100, B=32), simulates it on the 2-socket Xeon
8160 model, and hashes every record's ``(tid, core, start, end)`` in trace
order plus the makespan.  The expected digests were recorded before the
executors were refactored onto one dispatch core; a mismatch means the
simulated schedule changed.
"""

import hashlib

import pytest

from repro.compile.compiler import compile_graph
from repro.core.graph_builder import build_brnn_graph
from repro.models.spec import BRNNSpec
from repro.runtime.simexec import SimulatedExecutor
from repro.simarch.presets import xeon_8160_2s

#: (cell, mbs, cores, mode) -> sha256 of the simulated trace
GOLDEN = {
    ("lstm", 1, 8, "locality"): "1b3cc43d9a38dc185bb0db5cb56bb52f01090d2c29936b543d945ee5ae5ffeeb",
    ("lstm", 1, 8, "replay"): "6172cbbfde55f00af60ceede1f6cfb6fc6b8dceddbce84a789c66453d862f2ab",
    ("lstm", 1, 48, "locality"): "7a018514a77a43239d78a74941c1e582f268c924aa3bd2c6625c848aef96e8fa",
    ("lstm", 1, 48, "replay"): "2a255dc99fdc8d45646fcdf978726a7b9d09c6617b7f5a2fbf0c14cb6d4ccd6c",
    ("lstm", 4, 8, "locality"): "bc637c7a3568c7f854970b160c9820c9fd6a4923320b78a53eb9d54e6a5f8f7f",
    ("lstm", 4, 8, "replay"): "cc61054e348a65914016460ad52a9263a7501e19be964f7336ec77a1383e1514",
    ("lstm", 4, 48, "locality"): "49f9dec1c72d239e4eb21f6b9fe03dba9b7229b0de5a868635a810263564003b",
    ("lstm", 4, 48, "replay"): "4cd916a8e48df88b9d0186cb71fd281c53d328d820f534dceea258a87e74639e",
    ("gru", 1, 8, "locality"): "cdc2cd7802497e3c7f6da319e452d6128bcffa1e9c14466a0c5e37c6ec786de1",
    ("gru", 1, 8, "replay"): "1c75abb3200e3ae59f6b851f17c8eb2fec461d05b881d8a1eceffca46f42875f",
    ("gru", 1, 48, "locality"): "5780d72b2e9a0060a5a1563b731a6868edde84cd830ef818edcd1ab92d910377",
    ("gru", 1, 48, "replay"): "e894168611af28c9781b794210d67f9ff641a643611a64d2274881d21f710190",
    ("gru", 4, 8, "locality"): "13c4e4dbd9c216f95278f43c3037e083897ed20190b6f7bd60d67bf1fcd87f9b",
    ("gru", 4, 8, "replay"): "59ed3fe3c6d093f9e60fea99a8fdd3d47b893b2b3327cd5fa9bcb207d8e59ee7",
    ("gru", 4, 48, "locality"): "ae2b321d217860f0b419a0be7161a1ac3fbe8ef01a92ab2e87782a2f1c64ea97",
    ("gru", 4, 48, "replay"): "dbdfb0d7464208ae24917a92963e24a4e8e02240844dde224498a686902b27a0",
}


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for r in trace.records:
        h.update(f"{r.tid},{r.core},{r.start!r},{r.end!r};".encode())
    h.update(f"makespan={trace.makespan!r}".encode())
    return h.hexdigest()


def simulate(cell: str, mbs: int, cores: int, mode: str):
    spec = BRNNSpec(cell=cell, input_size=1024, hidden_size=128, num_layers=2)
    graph = build_brnn_graph(spec, seq_len=100, batch=32, mbs=mbs, training=True).graph
    machine = xeon_8160_2s()
    plan = compile_graph(graph, cores, machine=machine) if mode == "replay" else None
    executor = SimulatedExecutor(machine, n_cores=cores, scheduler="locality")
    return executor.run(graph, plan=plan)


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_simulated_trace_matches_golden(case):
    assert trace_digest(simulate(*case)) == GOLDEN[case]
