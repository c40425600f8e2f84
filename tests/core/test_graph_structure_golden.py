"""Golden digests of the B-Par task-graph structure.

Each case builds a small cost-only graph and hashes everything the
executors, the cost model and the analyses read from it: per task the
tid, name, kind and flops, its ordered ``in``/``out``/``inout`` region
keys with their byte sizes, and its cost meta (``reuse``, ``fusion``,
effective ``gemm_calls`` with absent = 1), then the dependence edge list.
The expected digests were recorded before the per-step cell builders were
folded into the chain-tile builders; a mismatch means a builder change
moved the graph.
"""

import hashlib

import pytest

from repro.core.graph_builder import build_brnn_graph
from repro.models.spec import BRNNSpec

HEADS = {"m2o": "many_to_one", "m2m": "many_to_many"}

#: case id -> sha256 of the graph structure
GOLDEN = {
    "gru-m2m-infer-proj_off-gates": "027476c3d9c8702c753108e735656745d3aa72888dd661d8fd110e980781df76",
    "gru-m2m-infer-proj_off-gates+act": "c76ce2591027e572218b7f9b3c4650fea8c637c9e36088dd9a1c034b901e4dbc",
    "gru-m2m-infer-proj_off-off": "f1dbfb969b63b019fd862db91b24ec94e503bbcea61177d52da4cd4cf7f73a89",
    "gru-m2m-infer-proj_on-gates": "d123a9001e7223be02e1d82ce53149c034e630d11f9c096a2adc1074524e5c17",
    "gru-m2m-infer-proj_on-gates+act": "ee6b7853d1324d4f678d5567ca445ce66187ee061f546366ecd74d277766b3a4",
    "gru-m2m-infer-proj_on-off": "f1dbfb969b63b019fd862db91b24ec94e503bbcea61177d52da4cd4cf7f73a89",
    "gru-m2m-train-proj_off-gates": "b0d818f7d8267908162b3c1e9a78bf0b431def924613399244301da639bc2341",
    "gru-m2m-train-proj_off-gates+act": "004977540421ecab1c853c6dec4415198c0dc72c58802fff61068ce2d5848c5a",
    "gru-m2m-train-proj_off-off": "fdef5c183b9e218054e1470e41b61953762c7e87a95d1a613f763aaa1752fceb",
    "gru-m2m-train-proj_on-gates": "8ab4af74b345f4450cf99dba5282e3655334802bf8e1c4f8e58d7a661b0b694c",
    "gru-m2m-train-proj_on-gates+act": "24311b56e3d78aa8846d9ff98b77431fa4a7db419d11d704994c33eee17dbb24",
    "gru-m2m-train-proj_on-off": "fdef5c183b9e218054e1470e41b61953762c7e87a95d1a613f763aaa1752fceb",
    "gru-m2o-infer-proj_off-gates": "6fbb99be1f4f99d800ab2de6c71f2ffb695917bf4530d716ef4509211b5e1d50",
    "gru-m2o-infer-proj_off-gates+act": "583fb7721fe3dd1f7596787ed35e164c1b5f66bc5da504f17358f52d99863923",
    "gru-m2o-infer-proj_off-off": "fe6d1eddaac774ef8cd55f21b566a8084bad1946e58363c176f439f6e1fc5a2a",
    "gru-m2o-infer-proj_on-gates": "423ede21fc6296091932a5d267dc77b8b49d0ad1f74aa45d5ca01f3b76715b2b",
    "gru-m2o-infer-proj_on-gates+act": "1cc672bf7209c58fdeb67127b2de628120b1ac1ec17b17e4bb62042afcf1cce0",
    "gru-m2o-infer-proj_on-off": "fe6d1eddaac774ef8cd55f21b566a8084bad1946e58363c176f439f6e1fc5a2a",
    "gru-m2o-train-proj_off-gates": "e8abdf9261957b1bf5c1003014b76356f10b52dd9637824f906536b7afc40e73",
    "gru-m2o-train-proj_off-gates+act": "d252754c139cfcab0c2cc2b086459341a3d8220b64d93971ed5f9fb2a9dfab83",
    "gru-m2o-train-proj_off-off": "c9850b1fb80c830193fb72cad66c429b068583d9409419b864b6802873128f17",
    "gru-m2o-train-proj_on-gates": "7ed1901828609d3f07d31a464e3fae9ca8f7ab741ac602b3f660e81a96d100be",
    "gru-m2o-train-proj_on-gates+act": "0b4e0b5fa6dc5248bdedb0f5114dd1dc7ec0f3aef431e64368b39447af26ed55",
    "gru-m2o-train-proj_on-gates+act-bseq": "eeaa81c8184ee9c43603ebab9237c1cb1f3c3d7ae7a256804ef0960faed67c4e",
    "gru-m2o-train-proj_on-off": "c9850b1fb80c830193fb72cad66c429b068583d9409419b864b6802873128f17",
    "lstm-m2m-infer-proj_off-gates": "a10e60ece7ae7ab5d73d78da69abd675a0dac85cc832c4099a07162ffc50c986",
    "lstm-m2m-infer-proj_off-gates+act": "40f76ab6ef788cc2e4474014218220c3664e1a201f955123ddb4c7c2aa6baf28",
    "lstm-m2m-infer-proj_off-off": "c137a0247fc0b0df6398404bc5940a97a0c6bd565c0657171d77ebf497fe3c75",
    "lstm-m2m-infer-proj_on-gates": "5b0b01f90a3c6f563c577c966c9c72c7c33e581892ad98a472a84b76e7f04485",
    "lstm-m2m-infer-proj_on-gates+act": "0b3fac303ba1472fb3929d5c5024b488c0043e03c266dd5aaf6f1578be371352",
    "lstm-m2m-infer-proj_on-off": "c137a0247fc0b0df6398404bc5940a97a0c6bd565c0657171d77ebf497fe3c75",
    "lstm-m2m-train-proj_off-gates": "c237e7e46ecf6be948c5dac1ebe33a2dfd77a875fa1e1694be82382fe5f06172",
    "lstm-m2m-train-proj_off-gates+act": "2ffc7eeacceb4e058a4fdb415d796d7ded2b240314b04131fdaccfca1328cf60",
    "lstm-m2m-train-proj_off-off": "6c54ce8d96bf553c7d25fc5f0d21a0212d40c2655bdad1d3d03e10c7e9970a32",
    "lstm-m2m-train-proj_on-gates": "d03bee3822dea4fb84ecd0e0c2d02ba528fe6bc778553fbdf9cd6d2e5eb26ced",
    "lstm-m2m-train-proj_on-gates+act": "0f8c8349fb5d4ce0f0547236a820d1bcb22415c8ff8988e453d5507823790e17",
    "lstm-m2m-train-proj_on-gates-barriered": "442bcea78075a8b7caceb31908b6c7f5dbc77100b2bc67ad2fa45c6f8bc8e464",
    "lstm-m2m-train-proj_on-off": "6c54ce8d96bf553c7d25fc5f0d21a0212d40c2655bdad1d3d03e10c7e9970a32",
    "lstm-m2o-infer-proj_off-gates": "09015db4c15f90e28a678d2d5e890a4366742e022b2e4fde8601cbbb14c06713",
    "lstm-m2o-infer-proj_off-gates+act": "689df3dbdbc9a39933736ed7c3545b2d80fe32a85e60ad5da8ac65bb41311353",
    "lstm-m2o-infer-proj_off-off": "eba544b53e2a29d7791e5a198d64fb39809ca1d46ab03afe6d96052a2aa1663e",
    "lstm-m2o-infer-proj_on-gates": "9967f3f3d109677096c90d093afd790b74ea30cc1fb94ec7d415289ae5636739",
    "lstm-m2o-infer-proj_on-gates+act": "54610a3f2b0b3a772fc896e857a2a92c93fa97af07e743af8504d7cd29846927",
    "lstm-m2o-infer-proj_on-off": "eba544b53e2a29d7791e5a198d64fb39809ca1d46ab03afe6d96052a2aa1663e",
    "lstm-m2o-train-proj_off-gates": "0cafed5193e1fbdbd73166a8ac31ef23474481b969f09a2a199519209c5e7b78",
    "lstm-m2o-train-proj_off-gates+act": "985b23f3aa9fae962dcb226e7a88c120c75e0b2e806e5cf561e6427575832d2e",
    "lstm-m2o-train-proj_off-off": "e4b6d708d7dd2df4218f21d1818fb16d2d278e0694d037fc0b9b52b5972c5998",
    "lstm-m2o-train-proj_on-gates": "8c2803a2e93b4374a0d057b53e9443678ceadda1dc4a6c268ca991c8e7c14304",
    "lstm-m2o-train-proj_on-gates+act": "5a9c1c62c401bd85561845a511c4929b51001cea394578a49c81400763747120",
    "lstm-m2o-train-proj_on-off": "e4b6d708d7dd2df4218f21d1818fb16d2d278e0694d037fc0b9b52b5972c5998",
}


def structure_digest(graph) -> str:
    h = hashlib.sha256()
    for task in graph:
        regions = [
            [(repr(r.key), r.nbytes) for r in group]
            for group in (task.ins, task.outs, task.inouts)
        ]
        meta = task.meta
        cost = (meta.get("reuse"), meta.get("fusion"), meta.get("gemm_calls", 1))
        h.update(
            f"{task.tid}|{task.name}|{task.kind}|{task.flops!r}|{regions}|{cost!r};".encode()
        )
    h.update(repr(list(graph.edges())).encode())
    return h.hexdigest()


def build_case(case: str):
    cell, head, mode, proj, fusion, *extra = case.split("-")
    spec = BRNNSpec(
        cell=cell, input_size=6, hidden_size=5, num_layers=3, head=HEADS[head], num_classes=4
    )
    return build_brnn_graph(
        spec,
        seq_len=5,
        batch=6,
        mbs=2,
        training=mode == "train",
        fused_input_projection=proj.split("_")[1],
        proj_block=2,
        fusion=fusion,
        barrier_free="barriered" not in extra,
        serialize_chunks="bseq" in extra,
    ).graph


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_graph_structure_matches_golden(case):
    assert structure_digest(build_case(case)) == GOLDEN[case]


if __name__ == "__main__":  # print the table for a deliberate re-record
    for case in sorted(GOLDEN):
        print(f'    "{case}": "{structure_digest(build_case(case))}",')
