"""The benchmark's workloads and the metrics they report.

Every workload drives the public API (``BParEngine``, ``FleetServer``)
with engines built from ``ExecutionConfig(executor=...)`` and every other
field at its library default, and checks every output against the
sequential oracle :mod:`repro.models.reference`.  Inputs come only from
the seed.  Why each workload exists is in ``README.md`` next to this file.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.compile.cache
import repro.core.bpar
import repro.runtime.executor
import repro.runtime.mpexec
import repro.serve.batcher
import repro.serve.engine
import repro.serve.fleet
from repro import BParEngine, BRNNSpec, ExecutionConfig, FleetServer, ServeConfig
from repro.compile.warmup import plan_warmup_shapes
from repro.models.reference import reference_forward, reference_train_step
from repro.serve.loadgen import WorkloadConfig, poisson_workload
from repro.serve.request import InferenceRequest

from measure import (
    live_children, matmul_gflops, median, p50, peak_rss_mb, shm_segments,
    smooth_percentile, tail,
)
from spans import Tracer

# -- metric tables (BENCHMARK.json lists the same names; a self-test checks) --

#: (name, unit, better) of every end-to-end metric, reported by --trace 0
END_TO_END: List[Tuple[str, str, str]] = [
    ("samples_per_s", "samples/s", "higher"),
    ("batch_ms_p50", "ms", "lower"),
    ("batch_ms_tail", "ms", "lower"),
    ("vs_oracle", "ratio", "lower"),
    ("req_ms_p50", "ms", "lower"),
    ("req_ms_tail", "ms", "lower"),
    ("slo_attain", "fraction", "higher"),
    ("serve_rps", "req/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: task kinds the graph builder emits; each gets busy/tasks/gflops
TASK_KINDS = (
    "cell", "cell_bwd", "merge", "merge_bwd", "head", "head_bwd", "loss",
    "weight_update", "proj", "proj_bwd",
)

#: (name, unit, better) of every per-layer metric, reported by --trace 1.
#: A layer a workload does not use reports 0.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("graph_builder.build_ms", "ms", "lower"),
    ("graph_builder.tasks", "count", "lower"),
    ("graph_builder.share", "fraction", "lower"),
    ("runtime.run_ms", "ms", "lower"),
    ("runtime.dispatch_us_per_task", "us", "lower"),
    ("runtime.parallel_eff", "fraction", "higher"),
    *[(f"kernels.{k}.{m}", u, b) for k in TASK_KINDS for m, u, b in (
        ("busy_ms", "ms", "lower"), ("tasks", "count", "lower"),
        ("gflops", "GFLOP/s", "higher"))],
    ("roofline.cell_gflops", "GFLOP/s", "higher"),
    ("roofline.fullbatch_gflops", "GFLOP/s", "higher"),
    ("kernels.cell.roofline_frac", "fraction", "higher"),
    ("kernels.cell_bwd.roofline_frac", "fraction", "higher"),
    ("mpexec.transport_us_per_task", "us", "lower"),
    ("shm.leaked_segments", "count", "lower"),
    ("compile.warmup_s", "s", "lower"),
    ("compile.plans", "count", "lower"),
    ("compile.hit_rate", "fraction", "higher"),
    ("compile.lookup_us", "us", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.service_ms_p50", "ms", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.padding_frac", "fraction", "lower"),
    ("serve.busy_frac", "fraction", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.loop_overhead_frac", "fraction", "lower"),
    ("oracle.batch_ms", "ms", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]

# -- model shapes and checking tolerances ----------------------------------------

PAPER = BRNNSpec(cell="lstm", input_size=1024, hidden_size=128, num_layers=2,
                 head="many_to_one", num_classes=11)
SMALL = BRNNSpec(cell="lstm", input_size=64, hidden_size=32, num_layers=2,
                 head="many_to_one", num_classes=11)

LR = 0.05
#: lockstep training loss tolerance when mbs > 1 splits the batch reduction
LOSS_RTOL = 1e-5
#: a served row against the oracle run on that request alone (batch of 1,
#: zero-padded to the batch's padded_len): BLAS may round a 1-row GEMM
#: differently from an 8-row one, so this check has a float32 tolerance
REQUEST_RTOL, REQUEST_ATOL = 1e-4, 1e-5
#: distinct input batches a closed loop cycles through
INPUT_POOL = 4
#: percentile of served batch service times reported as ``batch_ms_tail``.
#: On a shared 2-vCPU host, 2-16% of a run's batches (varying run to run
#: with the host) took one preemption longer than their shape's median; a
#: tail above p90 counts how many did, and spread 0.27-0.36 over ten seeds
#: against 0.17 at p90
SERVE_BATCH_TAIL_P = 90.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)


def install_spans(tracer: Tracer) -> None:
    """Wrap each layer's public entry point (see README.md, traced run).

    Each served batch is one operation: ``InferenceEngine.execute`` starts
    it, so its spans are recorded on even-numbered batches.
    """
    tracer.wrap(repro.core.bpar, "build_brnn_graph", "graph_builder.build")
    tracer.wrap(repro.serve.engine, "build_brnn_graph", "graph_builder.build")
    tracer.wrap(repro.runtime.executor.ThreadedExecutor, "run", "runtime.run", executor=True)
    tracer.wrap(repro.runtime.mpexec.MultiprocessExecutor, "run", "runtime.run", executor=True)
    tracer.wrap(repro.serve.engine, "compile_graph", "compile.compile_graph")
    tracer.wrap(repro.compile.cache.PlanCache, "get", "compile.plan_get")
    tracer.wrap(repro.serve.engine.InferenceEngine, "execute", "serve.execute",
                before=lambda args: tracer.begin_op(f"batch{args[1].batch_id}",
                                                    args[1].batch_id),
                root=True)
    tracer.wrap(repro.serve.batcher.DynamicBatcher, "next_batch", "serve.next_batch",
                root=True)
    tracer.wrap(repro.serve.fleet.FleetServer, "run", "serve.run", root=True)


def _parity_overhead(walls: List[float]) -> float:
    """Traced (even index) over untraced (odd index) median, minus one."""
    traced, plain = walls[0::2], walls[1::2]
    if not traced or not plain:
        return 0.0
    return median(traced) / median(plain) - 1.0


def engine_layers(tracer: Tracer, spec: BRNNSpec, seq_len: int, batch: int,
                  root: str) -> Dict[str, float]:
    """Per-layer metrics of the graph builder, runtime and kernels.

    Read from the timed phase's spans and the ``ExecutionTrace`` each
    executor run returned; ``root`` names the span of one batch.
    """
    out: Dict[str, float] = {}
    builds = tracer.durations("graph_builder.build", phase=None)
    runs = tracer.select("runtime.run")
    roots = tracer.durations(root, traced_only=True)
    if builds:
        out["graph_builder.build_ms"] = median(builds) * 1e3
    out["graph_builder.share"] = (
        sum(tracer.durations("graph_builder.build")) / sum(roots) if roots else 0.0
    )
    if runs:
        traces = [s.result for s in runs]
        tasks = sum(len(t.records) for t in traces)
        busy = sum(t.total_task_time for t in traces)
        slots = sum(s.workers * s.duration for s in runs)
        out["graph_builder.tasks"] = median([len(t.records) for t in traces])
        out["runtime.run_ms"] = median([s.duration for s in runs]) * 1e3
        out["runtime.dispatch_us_per_task"] = (slots - busy) / tasks * 1e6
        out["runtime.parallel_eff"] = busy / slots
        for kind in TASK_KINDS:
            recs = [r for t in traces for r in t.records if r.kind == kind]
            k_busy = sum(r.duration for r in recs)
            out[f"kernels.{kind}.busy_ms"] = k_busy / len(runs) * 1e3
            out[f"kernels.{kind}.tasks"] = len(recs) / len(runs)
            out[f"kernels.{kind}.gflops"] = (
                sum(r.flops for r in recs) / k_busy / 1e9 if k_busy > 0 else 0.0
            )
    # np.matmul rate at the layer-0 input GEMM of one cell and of the whole
    # sequence at once (the full-batch T*B shape)
    gates = 4 if spec.cell == "lstm" else 3
    k, n = spec.input_size, gates * spec.hidden_size
    out["roofline.cell_gflops"] = matmul_gflops(batch, k, n)
    out["roofline.fullbatch_gflops"] = matmul_gflops(seq_len * batch, k, n)
    for kind in ("cell", "cell_bwd"):
        out[f"kernels.{kind}.roofline_frac"] = (
            out.get(f"kernels.{kind}.gflops", 0.0) / out["roofline.cell_gflops"]
        )
    oracle = tracer.durations("bench.oracle")
    if oracle:
        out["oracle.batch_ms"] = median(oracle) * 1e3
    return out


def _hygiene(out: Outcome, before: set) -> None:
    """Count shm segments and worker processes the run left behind."""
    leaked = shm_segments() - before
    children = live_children()
    out.layers["shm.leaked_segments"] = float(len(leaked))
    out.notes["leftover_children"] = children
    if leaked:
        out.failures.append(f"leaked shm segments: {sorted(leaked)}")
    if children:
        out.failures.append(f"{children} child processes still alive")


# -- closed loop: one caller, one BParEngine ----------------------------------------


@dataclass(frozen=True)
class ClosedLoop:
    """One caller that sends its next batch when the previous one returns."""

    spec: BRNNSpec
    seq_len: int
    batch: int
    executor: str
    train: bool
    #: latency limit for ``slo_attain``, fixed per workload
    slo_ms: float
    setup_reps: int
    #: timed oracle calls per timed batch (set-up checks call it once);
    #: more where B-Par batches are few
    oracle_reps: int = 1

    def inputs(self, seed: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng(seed)
        shape = (self.seq_len, self.batch, self.spec.input_size)
        return [
            (rng.standard_normal(shape, dtype=np.float32),
             rng.integers(0, self.spec.num_classes, size=self.batch))
            for _ in range(INPUT_POOL)
        ]

    def _oracle(self, weights, x, labels, tracer: Tracer, reps: int):
        """``reps`` timed oracle calls; returns (first result, median s).

        Training updates the weights it is given, so each call gets its own
        copy; the first call's updated copy comes back with its loss.
        """
        spec, times, first = self.spec, [], None
        for _ in range(reps):
            w = weights.copy() if self.train else weights
            t0 = time.perf_counter()
            if self.train:
                ref = tracer.call("bench.oracle", reference_train_step, spec, w, x,
                                  labels, LR, root=True)
            else:
                ref = tracer.call("bench.oracle", reference_forward, spec, w, x,
                                  root=True)[0]
            times.append(time.perf_counter() - t0)
            first = first or (ref, w)
        return first, median(times)

    def _step(self, engine: BParEngine, x, labels, tracer: Tracer, oracle_reps: int = 1):
        """One B-Par call, then the oracle on identical inputs and weights.

        Returns ``(bpar_s, oracle_s, mismatch or None)``.
        """
        weights = engine.params.copy() if self.train else engine.params  # pre-step
        t0 = time.perf_counter()
        if self.train:
            got = tracer.call("bench.batch", engine.train_batch, x, labels, LR, root=True)
        else:
            got = tracer.call("bench.batch", engine.forward, x, root=True)
        bpar_s = time.perf_counter() - t0
        (ref, updated), oracle_s = self._oracle(weights, x, labels, tracer, oracle_reps)
        if not self.train:
            same = np.array_equal(got, ref)
        elif engine.mbs == 1:
            same = got == ref and all(
                np.array_equal(a, b)
                for (_, a), (_, b) in zip(engine.params.arrays(), updated.arrays())
            )
        else:
            same = math.isclose(got, ref, rel_tol=LOSS_RTOL)
        bad = None if same else "output differs from the oracle" + (
            f" (loss {got!r} vs {ref!r}, or updated weights)" if self.train
            else f" (max abs {np.max(np.abs(got - ref)):.3g})"
        )
        return bpar_s, oracle_s, bad

    def run(self, seed: int, seconds: float, tracer: Tracer) -> Outcome:
        out = Outcome()
        shm_before = shm_segments()
        data = self.inputs(seed)
        config = ExecutionConfig(executor=self.executor)
        setups = []
        for rep in range(self.setup_reps):
            tracer.begin_op(f"setup{rep}", rep)
            t0 = time.perf_counter()
            engine = BParEngine(self.spec, config=config)
            _, _, bad = self._step(engine, *data[0], tracer)
            setups.append(time.perf_counter() - t0)
            out.attempted += 1
            if bad:
                out.failures.append(f"setup{rep}: {bad}")

        gc.collect()  # the set-up engines' garbage is not the timed loop's cost
        tracer.phase = "timed"
        walls: List[float] = []
        oracle: List[float] = []
        timed = 0
        t_end = time.perf_counter() + seconds
        while timed == 0 or time.perf_counter() < t_end:
            tracer.begin_op(f"batch{timed}", timed)
            x, labels = data[(timed + 1) % INPUT_POOL]
            timed += 1
            try:
                wall, owall, bad = self._step(engine, x, labels, tracer, self.oracle_reps)
            except Exception as exc:  # a failed batch must not end the run
                out.failures.append(f"batch{timed - 1}: {exc!r}")
                continue
            if bad:
                out.failures.append(f"batch{timed - 1}: {bad}")
            walls.append(wall)
            oracle.append(owall)
        out.attempted += timed
        if not walls:
            raise RuntimeError("every timed batch failed: " + "; ".join(out.failures[:3]))

        ms = [w * 1e3 for w in walls]
        tail_ms, tail_label = tail(ms)
        per_call = p50(walls)
        # per-batch ratio: the oracle runs right after its B-Par call, so
        # host drift between runs cancels
        vs_oracle = median([w / o for w, o in zip(walls, oracle)])
        out.metrics = {
            "samples_per_s": self.batch * len(walls) / sum(walls),
            "batch_ms_p50": per_call * 1e3,
            "batch_ms_tail": tail_ms,
            "vs_oracle": vs_oracle,
            # one caller: a request is one call, so request latency is call wall
            "req_ms_p50": per_call * 1e3,
            "req_ms_tail": tail_ms,
            "slo_attain": sum(v <= self.slo_ms for v in ms) / timed,
            "serve_rps": len(walls) / sum(walls),
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        out.notes.update(
            batch_tail=tail_label, req_tail=tail_label, slo_ms=self.slo_ms,
            setup_reps=self.setup_reps,
            setup_s_all=setups, bpar_ms_all=ms, oracle_ms_all=[o * 1e3 for o in oracle],
            loop="closed, one caller", mbs=engine.mbs,
            workers=engine.executor.n_workers,
        )
        if tracer.active:
            out.layers.update(engine_layers(
                tracer, self.spec, self.seq_len, self.batch, "bench.batch"))
            if self.executor == "process":
                out.layers["mpexec.transport_us_per_task"] = \
                    out.layers["runtime.dispatch_us_per_task"]
            out.layers["trace.overhead_frac"] = _parity_overhead(walls)
        _hygiene(out, shm_before)
        return out


# -- open loop: Poisson arrivals into a FleetServer -----------------------------------


@dataclass(frozen=True)
class OpenLoop:
    """Independent users arriving as a Poisson process, served by a fleet."""

    spec: BRNNSpec
    rate_hz: float
    seq_range: Tuple[int, int]
    #: latency limit for ``slo_attain``
    slo_ms: float
    setup_reps: int

    def requests(self, seed: int, seconds: float) -> List[InferenceRequest]:
        """``seconds`` of arrivals.  The server clock never sleeps, so a
        run's wall time is only the busy share of this span."""
        return poisson_workload(
            WorkloadConfig(
                rate_hz=self.rate_hz,
                duration_s=seconds,
                seq_len_range=self.seq_range,
                features=self.spec.input_size,
            ),
            seed=seed,
        )

    def serve(self, server: FleetServer, reqs, tracer: Tracer, out: Outcome):
        """Serve ``reqs``, running the oracle on each batch right after it.

        The oracle sees the batch exactly as executed (zero-padded to its
        ``padded_len``) and every row must match bitwise.  It runs between
        batches, outside the service time the server clock uses, and its
        wall is taken out of the loop's.  Afterwards each request is also
        run alone through the oracle (see :meth:`check_alone`).

        Returns ``(stats, loop wall s, oracle s per batch, bad rids)``.
        """
        spec, params = self.spec, server.pool.params
        oracle_s: List[float] = []
        bad: set = set()
        hooked = [0.0]

        def then_oracle(execute):
            def run_batch(batch):
                result = execute(batch)
                t0 = time.perf_counter()
                xb = batch.padded_input()
                t1 = time.perf_counter()
                ref, _ = tracer.call("bench.oracle", reference_forward, spec, params,
                                     xb, root=True)
                oracle_s.append(time.perf_counter() - t1)
                for j, req in enumerate(batch.requests):  # many-to-one: row j
                    if not np.array_equal(result.logits[j], ref[j]):
                        bad.add(req.rid)
                        out.failures.append(f"request {req.rid}: row differs from batch oracle")
                hooked[0] += time.perf_counter() - t0
                return result
            return run_batch

        engines = server.pool.engines
        for engine in engines:
            engine.execute = then_oracle(engine.execute)
        try:
            t0 = time.perf_counter()
            stats = server.run(reqs)
            wall = time.perf_counter() - t0 - hooked[0]
        finally:
            for engine in engines:
                del engine.execute
        self.check_alone(server, stats, reqs, out, bad)
        if len(oracle_s) != len(stats.batches):
            raise RuntimeError("the oracle did not see every executed batch")
        return stats, wall, oracle_s, bad

    def check_alone(self, server: FleetServer, stats, reqs, out: Outcome, bad: set) -> None:
        """Each request alone, zero-padded to its batch's ``padded_len``,
        within the stated tolerance; every request must be answered."""
        spec, params = self.spec, server.pool.params
        by_rid = {r.rid: r for r in reqs}
        for c in stats.completed:
            x = np.zeros((c.padded_len, 1, spec.input_size), np.float32)
            x[: c.seq_len, 0] = by_rid[c.rid].x
            alone, _ = reference_forward(spec, params, x)
            if not np.allclose(c.result, alone[0], rtol=REQUEST_RTOL, atol=REQUEST_ATOL):
                bad.add(c.rid)
                out.failures.append(f"request {c.rid}: differs from oracle run alone")
        answered = {c.rid for c in stats.completed} | {r.rid for r in stats.shed}
        for rid in sorted(set(by_rid) - answered):
            bad.add(rid)
            out.failures.append(f"request {rid}: never completed or shed")

    def run(self, seed: int, seconds: float, tracer: Tracer) -> Outcome:
        out = Outcome()
        shm_before = shm_segments()
        reqs = self.requests(seed, seconds)
        first = reqs[0]
        serve_cfg = ServeConfig()
        execution = ExecutionConfig(executor="threaded", compile="on")
        shapes = plan_warmup_shapes(
            range(self.seq_range[0], self.seq_range[1] + 1),
            bucket_width=serve_cfg.bucket_width,
            max_batch_size=serve_cfg.max_batch_size,
        )
        setups = []
        for rep in range(self.setup_reps):
            tracer.begin_op(f"setup{rep}", rep)
            t0 = time.perf_counter()
            server = FleetServer.build(self.spec, serve_cfg, execution=execution)
            # spanned here, not on the class: FleetServer.run re-warms the
            # already warm pool, a no-op that would halve the median
            tracer.call("compile.warmup", server.pool.warmup, shapes)
            probe = InferenceRequest(rid=first.rid, seq_len=first.seq_len,
                                     arrival_time=0.0, x=first.x)
            self.serve(server, [probe], tracer, out)
            setups.append(time.perf_counter() - t0)
            out.attempted += 1

        gc.collect()  # the set-up fleets' garbage is not the timed run's cost
        tracer.phase = "timed"
        tracer.begin_op("run", 0)
        stats, run_s, oracle_s, bad = self.serve(server, reqs, tracer, out)
        out.attempted += len(reqs)

        lat = [c.latency * 1e3 for c in stats.completed]
        svc = [b.service_time * 1e3 for b in stats.batches]
        lat_tail, lat_label = tail(lat)
        svc_tail = smooth_percentile(svc, SERVE_BATCH_TAIL_P)
        svc_label = f"p{SERVE_BATCH_TAIL_P:g} of n={len(svc)}"
        busy_s = sum(b.service_time for b in stats.batches)
        # batch times form one cluster per padded length, and the 50% point
        # falls between the 32- and 48-step clusters: the raw p50 moved ~30%
        # with the seed's shape mix.  Scaled to the mean request length,
        # the times form one cluster.
        mean_len = sum(self.seq_range) / 2
        scaled = [b.service_time * 1e3 * mean_len / b.padded_len for b in stats.batches]
        out.metrics = {
            "samples_per_s": len(stats.completed) / busy_s,
            "batch_ms_p50": p50(scaled),
            "batch_ms_tail": svc_tail,
            # per-batch ratio, the oracle right after its batch
            "vs_oracle": median([b.service_time / o
                                 for b, o in zip(stats.batches, oracle_s)]),
            "req_ms_p50": p50(lat),
            "req_ms_tail": lat_tail,
            "slo_attain": sum(
                c.latency * 1e3 <= self.slo_ms
                for c in stats.completed if c.rid not in bad
            ) / len(reqs),
            "serve_rps": len(stats.completed) / run_s,
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        out.notes.update(
            req_tail=lat_label, batch_tail=svc_label, slo_ms=self.slo_ms,
            batch_p50=f"service time scaled to {mean_len:g} padded steps",
            setup_reps=self.setup_reps, setup_s_all=setups, sent=len(reqs),
            batches=len(stats.batches), run_wall_s=run_s,
            batch_shapes=[b.shape for b in stats.batches],
            bpar_ms_all=svc, oracle_ms_all=[o * 1e3 for o in oracle_s],
            loop=f"open, Poisson {self.rate_hz:g} Hz over "
                 f"{reqs[-1].arrival_time:.1f} s of arrivals",
            generator_lateness_s=0.0,
            lateness_note="FleetServer admits each request at its scheduled "
                          "arrival time on its own clock, so lateness is 0 by "
                          "construction",
        )
        if tracer.active:
            batch_size = serve_cfg.max_batch_size
            out.layers.update(engine_layers(
                tracer, self.spec, self.seq_range[1], batch_size, "serve.execute"))
            cache = server.pool.engines[0].plan_cache
            warmups = tracer.durations("compile.warmup", phase="setup")
            lookups = tracer.durations("compile.plan_get")
            execute = tracer.durations("serve.execute")
            out.layers.update({
                "compile.warmup_s": median(warmups) if warmups else 0.0,
                "compile.plans": float(len(cache)),
                "compile.hit_rate": stats.warm_hit_rate() or 0.0,
                "compile.lookup_us": median(lookups) * 1e6 if lookups else 0.0,
                "serve.queue_wait_ms_p50": p50(
                    [c.queue_wait * 1e3 for c in stats.completed]),
                "serve.service_ms_p50": p50(execute) * 1e3,
                "serve.batch_size_mean": stats.mean_batch_size(),
                "serve.padding_frac": stats.padding_overhead(),
                "serve.busy_frac": stats.engine_busy_fraction(),
                "serve.shed": float(len(stats.shed)),
                "serve.loop_overhead_frac": (run_s - busy_s) / run_s,
                "trace.overhead_frac": _parity_overhead(scaled),
            })
        _hygiene(out, shm_before)
        return out


WORKLOADS: Dict[str, Any] = {
    # GEMM-bound: kernels and BLAS threading dominate worker time
    "train-paper": ClosedLoop(PAPER, seq_len=100, batch=32, executor="threaded",
                              train=True, slo_ms=2000.0, setup_reps=3),
    # tiny GEMMs: graph build and dynamic dispatch dominate
    "infer-small": ClosedLoop(SMALL, seq_len=50, batch=8, executor="threaded",
                              train=False, slo_ms=50.0, setup_reps=9),
    # the same runtime behind queue, batcher and compiled-plan replay
    "serve-poisson": OpenLoop(SMALL, rate_hz=40.0, seq_range=(10, 60), slo_ms=50.0,
                              setup_reps=9),
    # the only workload through runtime.mpexec / runtime.shm
    "infer-paper-process": ClosedLoop(PAPER, seq_len=100, batch=32, executor="process",
                                      train=False, slo_ms=20000.0, setup_reps=3,
                                      oracle_reps=5),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workload: Optional[Any] = None) -> Tuple[Outcome, Tracer]:
    """Run one workload (``workload`` overrides the named shape, for tests)."""
    wl = workload if workload is not None else WORKLOADS[name]
    tracer = Tracer()
    if trace:
        install_spans(tracer)
    try:
        out = wl.run(seed, seconds, tracer)
    finally:
        tracer.uninstall()
    if trace:
        out.layers = {m: float(out.layers.get(m, 0.0)) for m, _, _ in PER_LAYER}
    return out, tracer
