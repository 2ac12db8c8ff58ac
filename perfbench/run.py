"""sdfreach benchmark: control-step latency and trial throughput on reaching workloads.

Run from the repository root:

    python3 perfbench/run.py --workload bookshelf-fine --seed 1 --seconds 20 --trace 0

Each workload is a fixed list of scenario seeds. A pass generates and runs
every trial of the list once, in an order drawn from ``--seed``; trials run
one after another in this process (closed loop, one client, BLAS pinned to
one thread). The fork pool of ``bench.run_benchmark`` is left out on
purpose: two workers on a shared two-core machine would mostly measure the
scheduler.

Trials are deterministic, so step k of a seed does the same work in every
pass. Step latency is therefore taken per step as the median over the
passes, and trial time per seed likewise; this filters the bursts of a
shared machine without dropping any step.

``--trace 0`` makes at least three passes, and more while the next still
fits in ``--seconds``, and prints the end-to-end metrics. ``--trace 1``
makes two rounds in which every trial runs once untraced and once traced,
back to back, and prints the per-layer metrics; see ``tracing.py``. The last stdout line is the result object; the
line before it records the environment, the outcome digest and every check
that failed.
"""

from __future__ import annotations

import os

# Must precede the numpy import: OpenBLAS reads these when it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import ExitStack, nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, patched, summarize  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3
TRACE_ROUNDS = 2
SETUP_PROBES = 5
WARMUP_STEPS = 25
ACCOUNTING_TOLERANCE_PCT = 2.0


@dataclass(frozen=True)
class Workload:
    kind: str
    rep: str
    aware: bool    # collision constraints and active cost on
    seeds: range   # fixed, so outcome metrics and digests repeat exactly


WORKLOADS = {
    # Collision-query bound: 9476 tracked and 37904 audit points per step and
    # QPs of hundreds of rows. Seed 13 ends in a local minimum, whose stalled
    # steps next to the shelf carry the most collision rows.
    "bookshelf-fine": Workload("bookshelf", "points-fine", True, range(8, 14)),
    # QP, controller and kinematics bound: 82 spheres, small SDF batches, and
    # rejection-sampled table scenes. Seed 23 times out and seed 24 ends in a
    # local minimum after the only fallback solve among seeds 0-39.
    "table-spheres": Workload("table", "spheres", True, range(18, 25)),
    # The paper's no-awareness baseline: short trials, 7 of 16 collide, so
    # per-trial costs (scenario generation, first full-set evaluation)
    # dominate and the incremental refresh path barely runs.
    "table-coarse-baseline": Workload("table", "points-coarse", False,
                                      range(16)),
}


class StepClock:
    """Timestamps run_trial's loop at the tracked-set refresh.

    ``run_trial`` refreshes the tracked set exactly once per loop iteration,
    so consecutive stamps bound one control step (refreshes, controller step,
    integration); the benchmark closes the last step at ``run_trial``'s
    return.
    """

    def __init__(self, tracked_rep):
        self.tracked_rep = tracked_rep
        self.stamps: list[float] = []

    def wrapper(self, refresh):
        @functools.wraps(refresh)
        def timed(cache, *args, **kwargs):
            if cache.rep is self.tracked_rep:
                self.stamps.append(time.perf_counter())
            return refresh(cache, *args, **kwargs)
        return timed

    def take(self) -> list[float]:
        stamps, self.stamps = self.stamps, []
        return stamps


@dataclass
class Pass:
    """One run of every trial in a workload's seed list, keyed by seed."""

    records: dict = field(default_factory=dict)   # TrialRecord
    failures: dict = field(default_factory=dict)  # traceback text
    step_ms: dict = field(default_factory=dict)   # wall ms of each step
    trial_s: dict = field(default_factory=dict)   # generation + trial seconds
    clock_errors: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.records) + len(self.failures)


def run_pass(wl: Workload, model, setup, order, tracer: Tracer | None = None,
             out: Pass | None = None) -> Pass:
    """Generate and run each trial of ``order`` into ``out``; one trial's
    error never aborts the pass, it is recorded against its seed."""
    from sdfreach import bench

    out = Pass() if out is None else out
    clock = StepClock(setup.rep)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with ExitStack() as stack:
        if tracer is not None:
            tracer.install(stack, setup.audit)
        # outermost, so a traced step's interval includes the tracing cost
        stack.enter_context(patched(bench.CachedDistances, "refresh",
                                    clock.wrapper))
        for seed in order:
            clock.take()
            t_start = time.perf_counter()
            try:
                with span("bench.generate_scenario"):
                    scenario = bench.generate_scenario(wl.kind, seed, model)
                with span("bench.run_trial"):
                    record = bench.run_trial(scenario, setup)
                t_end = time.perf_counter()
            except Exception:
                out.failures[seed] = traceback.format_exc()
                print(f"trial seed {seed} raised:\n{out.failures[seed]}",
                      file=sys.stderr)
                continue
            stamps = clock.take()
            if len(stamps) != record.steps:
                out.clock_errors.append((seed, len(stamps), record.steps))
            out.step_ms[seed] = np.diff(np.append(stamps, t_end)) * 1e3
            out.trial_s[seed] = t_end - t_start
            out.records[seed] = record
    return out


def pass_order(wl: Workload, seed: int, index: int) -> list[int]:
    rng = np.random.default_rng([seed, index])
    return [int(s) for s in rng.permutation(np.array(wl.seeds))]


def step_medians(passes: list[Pass]) -> np.ndarray:
    """Each step's median wall ms over the passes, all trials concatenated.

    A trial whose step count differs between passes (already a failed
    check) contributes every pass's steps instead.
    """
    out = []
    for seed, steps in passes[0].step_ms.items():
        runs = [p.step_ms[seed] for p in passes if seed in p.step_ms]
        if all(r.shape == steps.shape for r in runs):
            out.append(np.median(runs, axis=0))
        else:
            out.extend(runs)
    return np.concatenate(out)


def setup_seconds(wl: Workload) -> list[float]:
    """Fresh-process set-up times: import, model load, ``make_trial_config``."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), wl.rep,
             "1" if wl.aware else "0"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def outcome_key(record) -> tuple:
    return (record.outcome.value, record.steps, record.min_distance,
            record.min_audit_distance)


def outcome_digest(first: Pass, wl: Workload) -> str:
    """Hash of (seed, outcome, steps) over the seed list."""
    rows = [[s, first.records[s].outcome.value, first.records[s].steps]
            if s in first.records else [s, "error", 0] for s in wl.seeds]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def audit_margin(wl: Workload, setup, first: Pass) -> float:
    """Least audit distance over the trials that did not collide, minus the
    bound the configuration promises: d_s - eta_c*dt with constraints on,
    0 (no contact) with them off."""
    from sdfreach import bench

    cfg = setup.controller
    bound = cfg.stop_distance - cfg.collision_damper_gain * setup.dt \
        if wl.aware else 0.0
    kept = [r.min_audit_distance for r in first.records.values()
            if r.outcome != bench.Outcome.COLLISION]
    return min(kept) - bound if kept else float("nan")


def check_passes(wl: Workload, setup, passes: list[Pass]) -> list[str]:
    """Correctness checks on the trial records; returns what failed."""
    from sdfreach import bench

    problems = []
    first = passes[0]
    for p in passes:
        for seed, rec in p.records.items():
            if not (1 <= rec.steps <= setup.max_steps
                    and np.isfinite(rec.min_distance)
                    and np.isfinite(rec.min_audit_distance)):
                problems.append(f"seed {seed}: implausible record {rec!r}")
            if seed in first.records and \
                    outcome_key(rec) != outcome_key(first.records[seed]):
                problems.append(f"seed {seed}: record differs between passes")
        problems += [f"seed {s}: {n} step stamps for {steps} steps"
                     for s, n, steps in p.clock_errors]
    margin = audit_margin(wl, setup, first)
    if math.isnan(margin):
        problems.append("no trial ended without collision")
    if wl.aware:
        problems += [f"seed {s}: collision with constraints on"
                     for s, r in first.records.items()
                     if r.outcome == bench.Outcome.COLLISION]
        if margin <= 0.0:
            problems.append(f"audit margin {margin} m: below d_s - eta_c*dt")
    return problems


def end_to_end(wl, setup, passes, setup_times) -> dict:
    from sdfreach import bench

    first = passes[0]
    p50, p99 = np.percentile(step_medians(passes), [50, 99])
    trial_s = [np.median([p.trial_s[s] for p in passes if s in p.trial_s])
               for s in first.trial_s]
    done = sum(len(p.records) for p in passes)
    outcomes = [r.outcome for r in first.records.values()]
    n = first.attempted
    return {
        "setup_s": statistics.median(setup_times),
        "step_ms_p50": float(p50),
        "step_ms_p99": float(p99),
        "trials_per_min": 60.0 * len(trial_s) / float(np.sum(trial_s)),
        "success_pct": 100.0 * outcomes.count(bench.Outcome.SUCCESS) / n,
        "collision_free_pct":
            100.0 * (len(outcomes) - outcomes.count(bench.Outcome.COLLISION)) / n,
        "min_audit_margin_m": audit_margin(wl, setup, first),
        "completed_trial_pct":
            100.0 * done / sum(p.attempted for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, traced: list[Pass], untraced: list[Pass]) -> dict:
    """Per-layer metrics from the spans of the traced passes.

    Times are per control step; counts are per pass (the passes repeat the
    same trials, so they divide exactly).
    """
    layers, solves = summarize(tracer.spans)
    n_pass = len(traced)
    steps = sum(r.steps for p in traced for r in p.records.values())
    step_s = sum(float(s.sum()) for p in traced for s in p.step_ms.values()) / 1e3

    def run(name):
        return layers[("bench.run_trial", name)]

    def per_step_ms(seconds):
        return 1e3 * seconds / steps

    def info(name, k=None):
        return np.array([v if k is None else v[k] for v in run(name).info],
                        float)

    gen = layers[("bench.generate_scenario", "bench.generate_scenario")]
    dist_pts = info("sdf.distance").sum()
    tracked = info("bench.refresh_tracked", 0), info("bench.refresh_tracked", 1)
    audit = info("bench.refresh_audit", 0), info("bench.refresh_audit", 1)
    iters, rows = info("qp.solve", 1), info("qp.solve", 2)
    statuses = [v[0] for v in run("qp.solve").info]
    step_rows = info("controller.step", 0)
    step_status = [v[1] for v in run("controller.step").info]
    traced_p50 = float(np.median(step_medians(traced)))
    untraced_p50 = float(np.median(step_medians(untraced)))
    accounted = sum(layer.self_time for (root, _), layer in layers.items()
                    if root == "bench.run_trial")
    return {
        "sdf.distance.ms_per_step": per_step_ms(run("sdf.distance").self_time),
        "sdf.distance.points_per_step": dist_pts / steps,
        "sdf.distance.ns_per_point": 1e9 * run("sdf.distance").total / dist_pts,
        "sdf.distance_and_gradient.ms_per_step":
            per_step_ms(run("sdf.distance_and_gradient").self_time),
        "sdf.distance_and_gradient.points_per_step":
            info("sdf.distance_and_gradient").sum() / steps,
        "bench.refresh_tracked.self_ms_per_step":
            per_step_ms(run("bench.refresh_tracked").self_time),
        "bench.refresh_tracked.exact_ratio": tracked[0].sum() / tracked[1].sum(),
        "bench.refresh_audit.self_ms_per_step":
            per_step_ms(run("bench.refresh_audit").self_time),
        "bench.refresh_audit.exact_ratio": audit[0].sum() / audit[1].sum(),
        "bench.generate_scenario.ms_per_scenario": 1e3 * gen.total / gen.calls,
        "bench.integrate.ms_per_step": per_step_ms(run("bench.integrate").self_time),
        "bench.loop.self_ms_per_step":
            per_step_ms(run("bench.run_trial").self_time),
        "qp.solve.ms_per_step": per_step_ms(run("qp.solve").self_time),
        "qp.solve.iterations_mean": float(iters.mean()),
        "qp.solve.iterations_max": float(iters.max()),
        "qp.solve.rows_mean": float(rows.mean()),
        "qp.solve.rows_max": float(rows.max()),
        "qp.solve.status.optimal": statuses.count("optimal") / n_pass,
        "qp.solve.status.max_iterations":
            statuses.count("max_iterations") / n_pass,
        "qp.solve.status.infeasible": statuses.count("infeasible") / n_pass,
        "controller.step.self_ms_per_step":
            per_step_ms(run("controller.step").self_time),
        "controller.distance_jacobians.ms_per_step":
            per_step_ms(run("controller.distance_jacobians").total),
        "controller.distance_jacobians.self_ms_per_step":
            per_step_ms(run("controller.distance_jacobians").self_time),
        "controller.collision_rows.mean": float(step_rows.mean()),
        "controller.collision_rows.max": float(step_rows.max()),
        "controller.fallback_solves": sum(1 for n in solves if n > 1) / n_pass,
        "controller.infeasible_steps": step_status.count("infeasible") / n_pass,
        "kinematics.fk.calls_per_step": run("kinematics.fk").calls / steps,
        "kinematics.fk.ms_per_step": per_step_ms(run("kinematics.fk").self_time),
        "kinematics.point_jacobians.ms_per_step":
            per_step_ms(run("kinematics.point_jacobians").self_time),
        "kinematics.point_jacobians.rows_per_step":
            info("kinematics.point_jacobians").sum() / steps,
        "kinematics.manipulability_jacobian.ms_per_step":
            per_step_ms(run("kinematics.manipulability_jacobian").self_time),
        "kinematics.ee_jacobian.ms_per_step":
            per_step_ms(run("kinematics.ee_jacobian").total),
        "kinematics.ee_jacobian.self_ms_per_step":
            per_step_ms(run("kinematics.ee_jacobian").self_time),
        "robot_shape.sample_points.s":
            layers[("setup", "robot_shape.sample_points")].total,
        "robot_shape.sphere_distances.calls_per_scenario":
            layers[("bench.generate_scenario",
                    "robot_shape.sphere_distances")].calls / gen.calls,
        "trace.step_ms_p50": traced_p50,
        "trace.overhead_ms_per_step": traced_p50 - untraced_p50,
        "trace.accounted_pct": 100.0 * accounted / step_s,
    }


def self_time_table(metrics: dict, step_ms: float) -> str:
    """Where a traced step's time goes, largest share first."""
    rows = sorted(((v, k) for k, v in metrics.items()
                   if k.endswith("self_ms_per_step")
                   or (k.endswith(".ms_per_step")
                       and k.rsplit(".", 1)[0] + ".self_ms_per_step"
                       not in metrics)), reverse=True)
    lines = [f"{'layer (self time)':<48}{'ms/step':>9}{'share':>8}"]
    lines += [f"{k:<48}{v:>9.4f}{100 * v / step_ms:>7.1f}%" for v, k in rows]
    return "\n".join(lines)


def environment(seed: int) -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
        "parallelism": 1,
    }


def declared_units(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "sdfreach" / "__init__.py").is_file():
        print(f"error: no sdfreach package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from sdfreach import bench, kinematics

    wl = WORKLOADS[args.workload]
    units = declared_units("per_layer" if args.trace else "end_to_end")
    tracer = Tracer() if args.trace else None
    setup_times = [] if args.trace else setup_seconds(wl)

    with ExitStack() as stack:
        if tracer is not None:
            tracer.install(stack, audit_rep=None)
        with tracer.span("setup") if tracer is not None else nullcontext():
            model = kinematics.load_default_model()
            setup = bench.make_trial_config(model, wl.rep, constraints=wl.aware,
                                            active_cost=wl.aware)
    warm = bench.generate_scenario(wl.kind, wl.seeds[0], model)
    bench.run_trial(warm, setup, max_steps=WARMUP_STEPS)

    passes = []
    if args.trace:
        # Each trial runs untraced and traced back to back, in alternating
        # order, so machine drift cancels out of the tracing overhead.
        untraced = [Pass() for _ in range(TRACE_ROUNDS)]
        traced = [Pass() for _ in range(TRACE_ROUNDS)]
        for r in range(TRACE_ROUNDS):
            for i, seed in enumerate(pass_order(wl, args.seed, r)):
                pair = [(None, untraced[r]), (tracer, traced[r])]
                for t, out in pair[::-1] if (i + r) % 2 else pair:
                    run_pass(wl, model, setup, [seed], t, out)
            passes += [untraced[r], traced[r]]
    else:
        t_begin = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append(run_pass(wl, model, setup,
                                   pass_order(wl, args.seed, len(passes))))
            now = time.perf_counter()
            if len(passes) >= MIN_PASSES and \
                    now - t_begin + (now - t_pass) > args.seconds:
                break

    problems = check_passes(wl, setup, passes)
    if args.trace:
        metrics = per_layer(tracer, traced, untraced)
        if abs(metrics["trace.accounted_pct"] - 100.0) > ACCOUNTING_TOLERANCE_PCT:
            problems.append("layer self times do not add up to the traced "
                            "step time")
        traced_mean = float(np.mean(np.concatenate(
            [s for p in traced for s in p.step_ms.values()])))
        print(self_time_table(metrics, traced_mean), file=sys.stderr)
    else:
        metrics = end_to_end(wl, setup, passes, setup_times)
    if set(metrics) != set(units):
        raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    with open(HERE / "digests.json") as f:
        expected = json.load(f).get(args.workload)
    digest = outcome_digest(passes[0], wl)
    details = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "scenario_seeds": list(wl.seeds),
        "passes": len(passes),
        "step_samples": int(sum(s.size for p in passes
                                for s in p.step_ms.values())),
        "pass_step_ms_p50": [float(np.median(np.concatenate(
            list(p.step_ms.values())))) for p in passes],
        "pass_s": [sum(p.trial_s.values()) for p in passes],
        "setup_s_samples": setup_times,
        "outcomes": {s: r.outcome.value
                     for s, r in sorted(passes[0].records.items())},
        "failures": {s: e.strip().splitlines()[-1]
                     for p in passes for s, e in p.failures.items()},
        "outcome_digest": {"expected": expected, "actual": digest,
                           "match": digest == expected},
        "check_failures": problems,
    }
    if digest != expected:
        print(f"outcome digest mismatch on {args.workload}: expected "
              f"{expected}, got {digest}; a speed-up counts only with "
              "unchanged outcomes", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - sum(len(p.records) for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
