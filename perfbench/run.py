"""Run one benchmark workload on the filtcoh checkout in the current directory.

    python3 perfbench/run.py --workload torus-einf --seed 1 --seconds 20 --trace 0

One closed-loop client in this process runs whole rounds of jobs until the
jobs have taken --seconds in total; each round is the workload's fixed list
of job kinds, with new inputs drawn from the seed and the round number and
in an order drawn from them. A job is a filtcoh CLI pipeline called
in-process through ``filtcoh.cli.run`` with stdin, stdout and stderr in
memory, so interpreter start-up is outside it; start-up is timed apart, by
spawning fresh interpreters between rounds. Every output is checked against
an independent computation (checks.py). The last line of stdout is one JSON
object: correct, attempted, failed and the metrics.

The host drifts (hostspeed.py), so a fixed piece of reference work is timed
after every job, and each round's job times are divided by that round's
speed factor before jobs_per_s and job_s.p50 are taken from them. The
unscaled figures and the factors are printed above the result.

With --trace 1 each round runs twice, once plain and once with every filtcoh
layer wrapped in spans (spans.py), and the metrics are per-layer figures per
round; the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads
from spans import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_SPAWNS = 9
SETUP_CHILD = "import time; import filtcoh.cli; print(time.monotonic())"
SETUP_CHILD_TRACED = (
    "import time; t0 = time.monotonic(); import numpy; t1 = time.monotonic(); "
    "import filtcoh.cli; print(t0, t1, time.monotonic())"
)


def spawn_setup(src: str, code: str) -> list[float]:
    """Run a fresh interpreter that imports filtcoh.cli; returns the spawn
    time and the monotonic stamps it printed (the clock is system-wide)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return [start] + [float(x) for x in proc.stdout.split()]


def run_job(cli, job: workloads.Job, tracer: Tracer | None):
    """Time one job; returns (seconds, [(exit code, stdout)] per step, error)."""
    outs = []
    text = ""
    saved = sys.stdin, sys.stdout, sys.stderr
    close = tracer.root("job." + job.kind) if tracer is not None else None
    start = time.perf_counter()
    try:
        for argv in job.steps:
            sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
            code = cli.run(list(argv))
            text = sys.stdout.getvalue()
            outs.append((code, text))
        error = None
    except Exception as exc:  # a crash of the program under test is a failed job
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        elapsed = time.perf_counter() - start
        if close is not None:
            close()
        sys.stdin, sys.stdout, sys.stderr = saved
    return elapsed, outs, error


def check_job(job: workloads.Job, outs, error):
    if error is not None:
        return error
    try:
        return job.check(outs)
    except Exception as exc:  # malformed output the check could not read
        return f"check could not read the output: {type(exc).__name__}: {exc}"


def layer_metrics(tracer: Tracer, rounds: int, stdout_bytes: int, overhead_s: float, setup) -> dict:
    """Per-layer figures, each per round of the workload."""
    per = tracer.per_name()
    counts = tracer.counts

    def self_s(*names):
        return sum(per.get(n, (0, 0.0))[1] for n in names) / rounds

    def calls(name):
        return per.get(name, (0, 0.0))[0] / rounds

    out = {f"{layer}.self_s": (sum(s for n, (_, s) in per.items() if n.startswith(layer + ".")) / rounds, "s")
           for layer in LAYERS}
    adds = per.get("gf2.Subspace.add_vector", (0, 0.0))[0]
    out.update({
        "gf2.subspaces_built": (calls("gf2.Subspace.__init__"), "count"),
        "gf2.add_vector.calls": (calls("gf2.Subspace.add_vector"), "count"),
        "gf2.add_vector.grew_ratio": (counts["gf2.add_vector.grew"] / adds if adds else 0.0, "ratio"),
        "gf2.intersection.self_s": (self_s("gf2.Subspace.intersection"), "s"),
        "gf2.preimage.self_s": (self_s("gf2.preimage"), "s"),
        "gf2.kernel_basis.self_s": (self_s("gf2.BitMatrix.kernel_basis", "gf2.kernel_basis"), "s"),
        "gf2.span_solve.calls": (calls("gf2.span_solve"), "count"),
        "spectral.pages_requested": (counts["spectral.pages_requested"] / rounds, "count"),
        "spectral.page_oracle.self_s": (self_s("spectral.page_oracle"), "s"),
        "complexes.parse_complex.self_s": (self_s("complexes.parse_complex"), "s"),
        "complexes.validate.self_s": (self_s("complexes.validate"), "s"),
        "chain_maps.induced_page_map.self_s": (self_s("chain_maps.induced_page_map"), "s"),
        "cli.stdout_bytes": (stdout_bytes / rounds, "bytes"),
        "obstruction.decomposition_search.nodes": (counts["obstruction.decomposition_search.nodes"] / rounds, "count"),
        "obstruction.decomposition_search.self_s": (self_s("obstruction.decomposition_search"), "s"),
        "obstruction.alternating_binomial_sum.self_s": (self_s("obstruction.alternating_binomial_sum"), "s"),
        "obstruction.audin_decide.self_s": (self_s("obstruction.audin_decide"), "s"),
        "setup.interpreter_s": (statistics.median([s[1] - s[0] for s in setup]), "s"),
        "setup.import_numpy_s": (statistics.median([s[2] - s[1] for s in setup]), "s"),
        "setup.import_filtcoh_s": (statistics.median([s[3] - s[2] for s in setup]), "s"),
        "trace.overhead_s": (overhead_s / rounds, "s"),
        "trace.spans": (tracer.span_count() / rounds, "count"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "filtcoh", "cli.py")):
        print("run.py: no src/filtcoh here; run it from the root of a filtcoh checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import filtcoh
    from filtcoh import cli
    from filtcoh.obstruction import LaurentPoly, decomposition_search_colex

    @functools.cache
    def colex(m, sigma, k):
        return decomposition_search_colex(LaurentPoly.binomial_power(m), sigma, k).found

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tracer = Tracer(filtcoh) if args.trace else None
        code = SETUP_CHILD_TRACED if args.trace else SETUP_CHILD
        times, norm_times, setup, factors, failures = [], [], [], [], {}
        attempted = rounds = stdout_bytes = 0
        timed = overhead = 0.0
        while timed < args.seconds:
            # spread the set-up spawns over the run, as host speed drifts
            while len(setup) < max(1, math.ceil(SETUP_SPAWNS * timed / args.seconds)):
                setup.append(spawn_setup(src, code))
            # new inputs every round, so a run averages over several draws
            jobs = workloads.WORKLOADS[args.workload](f"{args.seed}/{rounds}", workdir, colex)
            order = list(range(len(jobs)))
            random.Random(f"{args.seed}/{rounds}").shuffle(order)
            # traced runs alternate which pass goes first, so drift cancels in the overhead
            passes = [False] if tracer is None else [rounds % 2 == 1, rounds % 2 == 0]
            round_times, refs = [], []
            for traced in passes:
                if traced:
                    tracer.install()
                pass_s = 0.0
                try:
                    for i in order:
                        elapsed, outs, error = run_job(cli, jobs[i], tracer if traced else None)
                        pass_s += elapsed
                        round_times.append(elapsed)
                        attempted += 1
                        if traced:
                            stdout_bytes += sum(len(text.encode()) for _, text in outs)
                        reason = check_job(jobs[i], outs, error)
                        if reason is not None:
                            key = jobs[i].kind, workloads.known_fault(jobs[i].kind, reason)
                            count, first = failures.get(key, (0, reason))
                            failures[key] = (count + 1, first)
                        refs.append(hostspeed.reference())
                finally:
                    if traced:
                        tracer.uninstall()
                timed += pass_s
                if tracer is not None:
                    overhead += pass_s if traced else -pass_s
            factor = statistics.median(refs) / hostspeed.NOMINAL_S
            factors.append(factor)
            times += round_times
            norm_times += [t / factor for t in round_times]
            rounds += 1
        while len(setup) < SETUP_SPAWNS:
            setup.append(spawn_setup(src, code))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(count for count, _ in failures.values())
    correct = all(known for _, known in failures)
    if tracer is not None:
        metrics = layer_metrics(tracer, rounds, stdout_bytes, overhead, setup)
        metrics["host.speed_factor"] = (statistics.median(factors), "ratio")
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path, workload=args.workload, seed=args.seed, rounds=rounds)
        print(f"spans written to {os.path.relpath(trace_path)}")
    else:
        metrics = {
            "jobs_per_s": (attempted / sum(norm_times), "1/s"),
            "job_s.p50": (statistics.median(norm_times), "s"),
            "setup_s": (statistics.median(s[1] - s[0] for s in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {len(jobs)} jobs, "
          f"{attempted} attempted, {failed} failed")
    print(f"  host speed factor per round {' '.join(f'{f:.3f}' for f in factors)}; unscaled: "
          f"jobs_per_s {attempted / timed:.6g}, job_s.p50 {statistics.median(times):.6g}")
    for (kind, known), (count, reason) in sorted(failures.items()):
        print(f"  failed {kind} x{count}{' (known fault)' if known else ''}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
