"""In-process workloads: ``sweep-distinct``, ``sweep-repeat``, ``refine-scale``.

Runs as a fresh child of ``run.py``::

    PYTHONPATH=src python bench/inproc.py WORKLOAD --seed N --seconds S [--trace 0|1]
        [--setup-only] [--smoke] [--oracles PATH]

It loads and compiles every circuit of the workload through the
default ``backend="auto"`` path, makes one warm-up call per circuit at
the workload's call shape (the check call itself), prints ``READY`` and
then measures rounds of calls for ``--seconds``.  The last stdout line
is one JSON object with the measured values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time

import numpy as np

import common
import layers

import repro
from repro import obs

SERVE_ONLY = (
    "serve.transport_frac", "serve.batcher.mean_batch_size", "serve.batcher.batches",
    "serve.batcher.dedup", "serve.pool.engines_created", "serve.pool.resident",
    "core.rcache.hit_rate", "core.rcache.bytes", "bench.client.late_frac",
)


def plan_of(workload):
    return common.REFINE_CALLS if workload == "refine-scale" else common.SWEEP_CALLS


def repeat_batch(rng, unique_specs):
    """Each unique spec ``SWEEP_K // len(unique)`` times, seeded shuffle."""
    copies = common.SWEEP_K // len(unique_specs)
    order = rng.permutation(len(unique_specs) * copies)
    return [unique_specs[i % len(unique_specs)] for i in order]


def check_call(workload, circuit):
    """The check calls of one circuit.

    Sweeps make one K=64 call with the check scenarios in fixed slots
    (each repeated 4x in ``sweep-repeat``) around seed-independent
    filler; ``refine-scale`` makes one single-scenario call per check
    scenario.  Returns ``(calls, labels)`` where ``labels[c][slot]`` is
    the check label answered in that slot, or ``None`` for filler.
    """
    checks = common.check_specs(circuit.inputs)
    if workload == "refine-scale":
        return [[spec] for _, spec in checks], [[label] for label, _ in checks]
    filler_rng = np.random.default_rng(20240601)
    if workload == "sweep-distinct":
        specs = common.random_specs(filler_rng, circuit.inputs, common.SWEEP_K)
        labels = [None] * common.SWEEP_K
        for (label, spec), slot in zip(checks, (0, common.SWEEP_K // 2, common.SWEEP_K - 1)):
            specs[slot] = spec
            labels[slot] = label
        return [specs], [labels]
    unique = [spec for _, spec in checks] + common.random_specs(
        filler_rng, circuit.inputs, common.SWEEP_REPEAT_UNIQUE - len(checks)
    )
    tags = [label for label, _ in checks] + [None] * (len(unique) - len(checks))
    order = filler_rng.permutation(common.SWEEP_K)
    n = len(unique)
    return [[unique[i % n] for i in order]], [[tags[i % n] for i in order]]


def timed_round(workload, circuits, rng, smoke, digest):
    """Scenario batches of one round: ``[(name, [InputModel, ...]), ...]``.

    A ``--smoke`` round makes one call per circuit.  The first scenario
    of every call is fed to ``digest``, which identifies the timed
    inputs of a run."""
    calls = []
    for name, count in plan_of(workload).items():
        inputs = circuits[name].inputs
        for _ in range(1 if smoke else count):
            if workload == "sweep-distinct":
                specs = common.random_specs(rng, inputs, common.SWEEP_K)
            elif workload == "sweep-repeat":
                specs = repeat_batch(
                    rng, common.random_specs(rng, inputs, common.SWEEP_REPEAT_UNIQUE)
                )
            else:
                specs = common.random_specs(rng, inputs, 1, start=len(calls))
            digest.update(common.canonical(specs[0]).encode())
            calls.append((name, [common.spec_model(s) for s in specs]))
    return calls


def invoke(model, models, refine):
    """One public call at the workload's shape; returns the estimates."""
    if refine:
        return [model.query(models[0])]
    return model.query_many(models)


def valid(result) -> bool:
    """Finite, non-negative, normalized 4-state distributions."""
    values = np.concatenate(list(result.distributions.values()))
    n = len(result.distributions)
    return bool(
        np.isfinite(values).all()
        and values.min() >= -1e-9
        and abs(values.sum() - n) <= 1e-6 * n
    )


def counters(models):
    """Summed engine work counters of every compiled model."""
    total = {}
    for model in models.values():
        work = model.estimator.propagation_counters()
        for key, value in (("messages", work.messages), *work.as_dict().items()):
            total[key] = total.get(key, 0) + value
    return total


def setup(workload, tracer):
    refine = workload == "refine-scale"
    options = {"refine": common.REFINE_ITERATIONS} if refine else {}
    circuits, models, checks = {}, {}, {}
    for name in plan_of(workload):
        with tracer.span("bench.load", circuit=name):
            circuits[name] = common.load_circuit(name)
        with tracer.span("bench.compile", circuit=name):
            models[name] = repro.compile_model(circuits[name], cache=None, **options)
        calls, labels = check_call(workload, circuits[name])
        first = [common.spec_model(s) for s in calls[0]]
        with tracer.span("bench.warmup", circuit=name):
            checks[name] = {"first": invoke(models[name], first, refine), "labels": labels, "calls": calls}
    return circuits, models, checks


def same(a, b) -> bool:
    """Two estimates agree on every line to 1e-12 (a warm engine takes
    the dirty-path route, which may differ from a fresh pass by ulps)."""
    return all(
        np.allclose(a.distributions[line], b.distributions[line], rtol=0.0, atol=1e-12)
        for line in a.distributions
    )


def run_check(workload, models, checks, entries, smoke):
    """Compare check-call answers with the oracle ``entries``.

    Returns ``(errors, failures, attempted)`` where ``errors`` maps each
    circuit to every ``|activity - oracle|`` of its check lines.  The
    first check call was answered during set-up; outside ``--smoke`` the
    remaining ones are made now, and a sweep repeats its one call to
    check that the warm batch engine reproduces the set-up answer.
    """
    refine = workload == "refine-scale"
    errors, failures, attempted = {}, [], 0
    for name, info in checks.items():
        answers = [info["first"]]
        if not smoke:
            answers += [
                invoke(models[name], [common.spec_model(s) for s in call], refine)
                for call in info["calls"][1:]
            ]
            if not refine:
                again = invoke(models[name], [common.spec_model(s) for s in info["calls"][0]], refine)
                attempted += len(again)
                if not all(same(a, b) for a, b in zip(again, info["first"])):
                    failures.append(f"{name}: repeated check call changed its answer")
        seen = {}
        for call_answers, call_labels in zip(answers, info["labels"]):
            for result, label in zip(call_answers, call_labels):
                attempted += 1
                if not valid(result):
                    failures.append(f"{name}: invalid distribution")
                elif label in seen:
                    if not same(seen[label], result):
                        failures.append(f"{name}/{label}: duplicate scenarios answered differently")
                elif label is not None:
                    seen[label] = result
                    common.check_answer(
                        name, label, result.method, result.switching,
                        entries[name, label], errors, failures,
                    )
    return errors, failures, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("sweep-distinct", "sweep-repeat", "refine-scale"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--oracles", default=str(common.ORACLES_PATH))
    args = parser.parse_args(argv)
    workload, refine, trace = args.workload, args.workload == "refine-scale", bool(args.trace)

    oracles = common.load_oracles(args.oracles)
    tracer = obs.get_tracer()
    if trace:
        obs.enable()
    with tracer.span("bench.setup"):
        circuits, models, checks = setup(workload, tracer)
    try:
        entries = common.oracle_entries(oracles, circuits)
    except common.StaleOracle as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 3
    obs.disable()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    rng = np.random.default_rng([args.seed, 1])
    timed_digest = hashlib.sha256()
    latencies = {name: [] for name in models}
    rounds = []  # (scenarios, seconds, traced)
    attempted = failed = 0
    work = {}
    cpu0, wall0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    round_index = 0
    while round_index < (2 if trace else 1) or time.perf_counter() - wall0 < args.seconds:
        calls = timed_round(workload, circuits, rng, args.smoke, timed_digest)
        traced = trace and round_index % 2 == 1
        if traced:
            obs.enable(reset=False)
            before = counters(models)
        busy = 0.0
        scenarios = 0
        with tracer.span("bench.round", index=round_index) as round_span:
            for name, batch in calls:
                attempted += len(batch)
                try:
                    with tracer.span("bench.call", circuit=name, scenarios=len(batch)):
                        start = time.perf_counter()
                        results = invoke(models[name], batch, refine)
                        elapsed = time.perf_counter() - start
                except Exception as exc:  # a failed call counts, the run goes on
                    print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    failed += len(batch)
                    continue
                busy += elapsed
                scenarios += len(batch)
                latencies[name].append(elapsed)
                failed += sum(not valid(r) for r in results)
            round_span.annotate(scenarios=scenarios)
        if traced:
            obs.disable()
            for key, value in counters(models).items():
                work[key] = work.get(key, 0) + value - before.get(key, 0)
        rounds.append((scenarios, busy, traced))
        round_index += 1
    cpu1, wall1 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()

    errors, failures, check_attempted = run_check(workload, models, checks, entries, args.smoke)
    for message in failures[:10]:
        print(f"check: {message}", file=sys.stderr)

    untraced = [(s, t) for s, t, traced in rounds if not traced]
    result = {
        "workload": workload,
        "correct": not failures,
        "attempted": attempted + check_attempted,
        "failed": failed + len(failures),
        "rounds": len(rounds),
        "metrics": {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "scenarios_per_s": statistics.median([s / t for s, t in untraced]),
            "latency_p50_ms": common.latency_p50_ms(latencies),
            **common.error_summary(errors),
        },
        "max_abs_error_by_circuit": {name: max(e) for name, e in errors.items()},
        "round_scenarios_per_s": [s / t for s, t, _ in rounds],
        "timed_digest": timed_digest.hexdigest(),
        "check_digest": hashlib.sha256(
            "".join(
                common.canonical(spec)
                for info in checks.values()
                for call in info["calls"]
                for spec in call
            ).encode()
        ).hexdigest(),
        "call_latency": common.latency_detail(latencies),
    }
    if trace:
        traced_rounds = [(s, t) for s, t, traced in rounds if traced]
        phases = layers.summarize(
            tracer.roots, lambda name: "setup" if name == "bench.setup" else "query"
        )
        per_layer = layers.layer_metrics(phases)
        per_layer.update(layers.work_metrics(
            work, phases["query"]["scenarios"], obs.snapshot()["gauges"]
        ))
        per_layer.update({
            "workload.unique_frac": (
                common.SWEEP_REPEAT_UNIQUE / common.SWEEP_K if workload == "sweep-repeat" else 1.0
            ),
            "core.inputs.cpds_ms": common.cpds_ms(rng, circuits, plan_of(workload)),
            "process.cpu_util": (
                (cpu1.ru_utime + cpu1.ru_stime - cpu0.ru_utime - cpu0.ru_stime) / (wall1 - wall0)
            ),
            # layers only the serving workload exercises
            **{name: 0.0 for name in SERVE_ONLY},
            "trace.overhead_frac": (
                statistics.median([t / s for s, t in traced_rounds])
                / statistics.median([t / s for s, t in untraced]) - 1.0
            ),
        })
        result["per_layer"] = per_layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
