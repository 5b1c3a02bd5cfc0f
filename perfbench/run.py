"""Benchmark of the antiplane package.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve2d --seed 1 --seconds 35 --trace 0

and, for every workload in one command::

    for w in solve2d tykhonov1d control2d; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 35 --trace 0
    done

Workloads (closed loop: one process, one client, each op starts when the
previous one has ended; BLAS pinned to ``bootstrap.BLAS_THREADS`` threads).
A round is every case of the workload's catalogue once, in the seed's
order, and the run repeats it until its time is up:

* ``solve2d``: a cold certified 2D solve, the ``solve --certify`` path
  (build_mesh, solve_qvi, complementarity_report, membership_violation)
  on the 24x24 unit square; eight all-slip and eight mixed stick/slip
  cases, since the slip set changes the inner work many-fold.
* ``tykhonov1d``: one ``run_convergence`` on the 1D benchmark interval
  (1,024 elements, 32 instances); three cases each of the load, modulus,
  friction and adversarial schedules.  The inner solver does little here;
  the membership certificate, re-assembly and factorizations do the rest.
* ``control2d``: one single-start ``minimize_cost`` on the 4x4 square with
  one gamma2 patch and an active affine friction bound; twelve targets;
  about 80 warm-started small state solves share one factorization.

Every op passes a correctness gate (``workloads.py``); an op that raises
or fails its gate counts as failed, never dropped.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (import time plus
the median of three input-generation-and-warm-up passes), ``op_ref.p50``
and ``peak_rss_mb``.  ``op_ref.p50`` is op wall time in units of a fixed
reference loop timed just before and just after the op: the median over
the run of each op of the round, averaged over the round's ops.  A
shared 2-vCPU host runs 20-70% slower for seconds to minutes at a time
while other jobs share its cores: op seconds follow those swings, while
their ratio to the reference loop stays within a few percent.  The op
seconds themselves (median, fastest and tail), the reference seconds and
the throughput (passing ops per second of op time) are in the context
line.
``--trace 1`` runs each round both untraced and traced (``spans.py``),
alternating which goes first, and prints the per-layer metrics as means
per traced op: self seconds of each layer, call and iteration counts, the
``untraced.s`` remainder and the tracing overhead (traced minus untraced
op wall).  It also prints the split of every traced op and, on
``solve2d``, traces one 128x128 solve of the round's all-slip case after
the timed rounds and prints its row of the ROADMAP baseline table.  Spans
go to ``.perfbench/`` once the run has ended.

The last line of standard output is the result object; the line before
it holds the run context (machine, library versions, seed, median and
tail op time, throughput).
"""

import time

T_START = time.perf_counter()

import bootstrap  # noqa: E402

bootstrap.prepare()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
SETUP_REPEATS = 3
OUT_DIR = bootstrap.ROOT / ".perfbench"

END_TO_END_UNITS = {"setup_s": "s", "op_ref.p50": "ref", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="antiplane benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def set_up(workload, seed):
    """Load the catalogue, make the seeded op inputs and warm up, several
    times; returns (the round's ops, seconds of each pass)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        catalogue = wl.load_catalogue()
        ops = wl.make_round(catalogue[workload.name], seed)
        workload.warm_up(catalogue)
        times.append(time.perf_counter() - start)
    return ops, times


def _call(fn, *args):
    return fn(*args)


def run_op(workload, inp, call=_call):
    """One op and its gate; returns (op seconds, failure text or None)."""
    case = inp["case"]
    start = time.perf_counter()
    try:
        out = call(workload.op, case, inp["cert_seed"])
    except Exception as exc:  # a raising op is a failed op; keep measuring
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, f"{case['id']}: raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        bad = workload.gate(case, out)
    except Exception as exc:  # output the gate cannot read is a wrong answer
        traceback.print_exc(file=sys.stderr)
        bad = [f"gate raised {type(exc).__name__}: {exc}"]
    return elapsed, (f"{case['id']}: " + "; ".join(bad)) if bad else None


def run_rounds(seconds, run_round):
    """Whole rounds until the next one, as long as the longest so far,
    would end past ``seconds``; at least one round."""
    start = time.perf_counter()
    longest = 0.0
    r = 0
    while r == 0 or time.perf_counter() - start + longest <= seconds:
        begun = time.perf_counter()
        run_round()
        longest = max(longest, time.perf_counter() - begun)
        r += 1
    return r


def per_op(stat, values, n_ops):
    """Mean over the round's ops of ``stat`` of each op's values; ``values``
    hold the untraced ops round after round."""
    return statistics.fmean(stat(values[j::n_ops]) for j in range(n_ops))


# The reference loop: fixed work of the kind the package's inner solver
# does (interpreted updates of single entries from small numpy rows), which
# the package does not run, so a change to the package cannot move it.
REF_N = 48
REF_SWEEPS = 50  # 5-9 ms on a shared 2-vCPU Xeon host
REF_A = np.linspace(0.5, 1.5, REF_N * REF_N).reshape(REF_N, REF_N) + REF_N * np.eye(REF_N)
REF_DIAG = np.diag(REF_A).copy()


def reference_seconds():
    """Wall seconds of one pass of the reference loop."""
    t = np.zeros(REF_N)
    start = time.perf_counter()
    for _ in range(REF_SWEEPS):
        for i in range(REF_N):
            r = 1.0 - REF_A[i] @ t + REF_DIAG[i] * t[i]
            t[i] = np.sign(r) * max(abs(r) - 0.1, 0.0) / REF_DIAG[i]
    return time.perf_counter() - start


def tail(times):
    """Highest whole percentile with at least ten ops above it, or None."""
    n = len(times)
    if n < 11:
        return None
    pct = int(np.floor(100.0 * (1.0 - 10.0 / n)))
    return {"percentile": pct, "value": float(np.percentile(times, pct)), "ops": n}


def layer_metrics(tracer, plain_times, traced_times):
    """Per-layer metrics, as means per traced op."""
    per_op = tracer.self_times()
    n = len(per_op)
    total = defaultdict(float)
    for op in per_op:
        for layer, seconds in op.items():
            total[layer] += seconds
    c = tracer.counts()

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "fem.build_mesh.s": (total["fem.build_mesh"] / n, "s"),
        "fem.assemble.s": (total["fem.assemble"] / n, "s"),
        "fem.assemble_stiffness.calls": (c["fem.assemble_stiffness.calls"] / n, "count"),
        "constants.s": (total["constants"] / n, "s"),
        "constants.calls": (c["constants.calls"] / n, "count"),
        "constants.cache_hit_ratio": (
            1.0 - ratio(c["constants.poincare_calls"], c["constants.calls"])
            if c["constants.calls"] else 0.0,
            "ratio",
        ),
        "qvi.setup.s": (total["qvi.setup"] / n, "s"),
        "qvi.setup.calls": (c["qvi.setup.calls"] / n, "count"),
        "qvi.inner.s": (total["qvi.inner"] / n, "s"),
        "qvi.inner.calls": (c["qvi.inner.calls"] / n, "count"),
        "qvi.inner.sweeps": (c["qvi.inner.sweeps"] / n, "count"),
        "qvi.inner.sweeps_per_call": (
            ratio(c["qvi.inner.sweeps"], c["qvi.inner.calls"]), "sweeps/call"
        ),
        "qvi.outer.s": (total["qvi.outer"] / n, "s"),
        "qvi.outer.iters": (c["qvi.outer.iters"] / n, "count"),
        "qvi.cert.s": (total["qvi.cert"] / n, "s"),
        "qvi.cert.calls": (c["qvi.cert.calls"] / n, "count"),
        "qvi.kkt.s": (total["qvi.kkt"] / n, "s"),
        "tykhonov.self_s": (total["tykhonov"] / n, "s"),
        "tykhonov.instances": (c["tykhonov.instances"] / n, "count"),
        "control.evals": (c["control.evals"] / n, "count"),
        "control.eval.s": (total["control.eval"] / n, "s"),
        "control.optimizer.self_s": (total["control.optimizer"] / n, "s"),
        "control.evals_per_start": (
            ratio(c["control.start_evals"], c["control.starts"]), "evals/start"
        ),
        "control.start_success_ratio": (
            ratio(c["control.start_successes"], c["control.starts"]), "ratio"
        ),
        "untraced.s": (total[spans.OP] / n, "s"),
        "op.wall_traced_s": (statistics.fmean(tracer.op_walls()), "s"),
        "op.wall_plain_s": (statistics.fmean(plain_times), "s"),
        "trace.overhead_s": (
            statistics.fmean(traced_times) - statistics.fmean(plain_times), "s"
        ),
    }


def print_trace_report(workload, tracer, metrics):
    """Human-readable split of the traced ops, ahead of the result line."""
    per_op = tracer.self_times()
    walls = tracer.op_walls()
    layers = sorted({layer for op in per_op for layer in op})
    print(f"# {workload.name}: self seconds per traced op (op = untraced remainder)")
    print("# " + " ".join(f"{layer}" for layer in layers) + " | wall | sum")
    for op, wall in zip(per_op, walls):
        parts = " ".join(f"{op.get(layer, 0.0):.4f}" for layer in layers)
        print(f"#   {parts} | {wall:.4f} | {sum(op.values()):.4f}")
    own = metrics["op.wall_traced_s"][0]
    share = {
        "qvi.inner": metrics["qvi.inner.s"][0] / own,
        "qvi.cert+fem.assemble": (metrics["qvi.cert.s"][0] + metrics["fem.assemble.s"][0]) / own,
        "qvi.setup+constants+fem.assemble": (
            metrics["qvi.setup.s"][0] + metrics["constants.s"][0] + metrics["fem.assemble.s"][0]
        ) / own,
        "untraced": metrics["untraced.s"][0] / own,
    }
    print("# shares of traced op time: " + ", ".join(f"{k} {v:.1%}" for k, v in share.items()))


def baseline_row(workload, inp):
    """Trace one north-star solve of the case of ``inp`` and print its row
    of the ROADMAP baseline table; returns the op's seconds and failure."""
    tracer = spans.Tracer()
    n = wl.BASELINE_N

    def op(case, cert_seed):
        return wl.solve2d_op(case, cert_seed, n=n)

    elapsed, failure = run_op(dataclasses.replace(workload, op=op), inp, tracer.run_op)
    # the ROADMAP table counts the assembly the certificates do as theirs
    [split] = tracer.self_times(absorbing=("qvi.cert", "qvi.kkt"))
    [counts] = tracer.op_counts
    fixed = split["qvi.inner"] + split["qvi.outer"]
    cert = split["qvi.cert"] + split["qvi.kkt"]
    print("# ROADMAP baseline row, one traced op:")
    print("# | mesh | assembly K+forms | constants | Tresca setup "
          "| fixed point (inner sweeps) | certificate | op wall |")
    print(
        f"# | {n}² {inp['case']['id']} | {split['fem.assemble']:.2f} s "
        f"| {split['constants']:.2f} s | {split['qvi.setup']:.2f} s "
        f"| {fixed:.2f} s ({counts['qvi.inner.sweeps']:,}; "
        f"{counts['qvi.outer.iters']} outer) | {cert:.2f} s | {elapsed:.2f} s |"
    )
    return elapsed, failure


def context(args, workload, timing):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted(bootstrap.SRC.rglob("*.py"))
    )
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": bootstrap.BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
        **timing,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    ops, setup_times = set_up(workload, args.seed)
    setup_s = IMPORT_S + statistics.median(setup_times)

    failures = []
    times = []  # untraced op seconds, round after round
    ratios = []  # the same over the mean reference seconds around each op
    refs = []  # reference seconds after each untraced op
    passed = []  # whether each untraced op passed
    traced_times = []
    tracer = spans.Tracer()

    def record(elapsed, failure, into, kind=""):
        into.append(elapsed)
        if failure:
            failures.append(kind + failure)
            print(f"benchmark: failed {kind}op {failure}", file=sys.stderr)
        return failure is None

    def plain_round():
        before = reference_seconds()
        for inp in ops:
            elapsed, failure = run_op(workload, inp)
            after = reference_seconds()
            ratios.append(elapsed / (0.5 * (before + after)))
            refs.append(after)
            before = after
            passed.append(record(elapsed, failure, times))

    def traced_round():
        # the same ops untraced and traced, alternating which goes first
        first_plain = tracer.n_ops % (2 * len(ops)) == 0
        if first_plain:
            plain_round()
        for inp in ops:
            record(*run_op(workload, inp, tracer.run_op), traced_times, "traced ")
        if not first_plain:
            plain_round()

    n_rounds = run_rounds(args.seconds, traced_round if args.trace else plain_round)

    if args.trace:
        metrics = layer_metrics(tracer, times, traced_times)
        print_trace_report(workload, tracer, metrics)
        if workload.name == "solve2d":
            record(*baseline_row(workload, ops[0]), traced_times, "traced ")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": setup_s,
            "op_ref.p50": per_op(statistics.median, ratios, len(ops)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    attempted = len(times) + len(traced_times)

    timing = {
        "ops": attempted,
        "rounds": n_rounds,
        "op_s.p50": per_op(statistics.median, times, len(ops)),
        "op_s.best": per_op(min, times, len(ops)),
        "op_s.tail": tail(times),
        "ref_s.p50": statistics.median(refs),
        "ops_per_s": sum(passed) / sum(times),
        "fail_frac": len(failures) / attempted,
        "import_s": IMPORT_S,
        "setup_passes_s": setup_times,
        "failures": failures,
    }
    print(json.dumps({"context": context(args, workload, timing)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
