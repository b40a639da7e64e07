"""Benchmark for volnet: CV network fit, bootstrap bands, raw-OHLC pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cv_fit --seed 1 --seconds 30 --trace 0

The program runs in this process, through `volnet.cli.main`, on inputs the
benchmark generates from `--seed`. After set-up (inputs, imports, one
warm-up operation) it runs whole rounds of operations until about
`--seconds` have passed, checks every output, and prints each metric by name
and unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (setup_s, wall_ref, op_ref,
peak_rss_mb); wall_ref and op_ref give the program's time in units of a
fixed reference kernel (reference.py) timed before and after every
operation, so that the shared host's drifting speed cancels. --trace 1
wraps volnet's public functions and reports per-layer calls, self times and
counters per round instead, and writes the spans to .bench_results/. Exit
status is 0 only when every check passes.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, the script's first statement

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# one thread everywhere and no worker pool, so the numbers measure the program
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"
os.environ.pop("VOLNET_THREADS", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "volnet", "cli.py")):
        print(f"bench: no volnet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

    import gc
    import hashlib
    import json
    import math
    import resource
    import shutil
    import statistics
    import warnings
    from pathlib import Path

    import volnet
    from volnet.cli import main as volnet_main
    from volnet.errors import DidNotConvergeWarning

    import reference
    import tracing
    from workloads import WORKLOADS

    if not Path(volnet.__file__).resolve().is_relative_to(Path(ROOT, "src").resolve()):
        print(f"bench: volnet imported from {volnet.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # counted by the traced run as elastic_net.not_converged; one line each is noise
    warnings.simplefilter("ignore", DidNotConvergeWarning)

    work = Path(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        wl.setup()

        def run_op(commands) -> bool:
            return all(volnet_main(cmd) == 0 for cmd in commands)

        warm_ok = run_op(wl.warm_up)
        setup_s = time.perf_counter() - T0
        # keep the benchmark's own objects out of the program's garbage collections
        gc.collect()
        gc.freeze()

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()

        def digest(paths) -> str:
            h = hashlib.sha256()
            for p in paths:
                h.update(p.read_bytes() if p.exists() else b"<missing>")
            return h.hexdigest()

        # ref_times[i] and ref_times[i + 1] are the reference kernel's times
        # just before and just after operation i
        op_times, ref_times, round_times, attempted, failed = [], [], [], 0, 0
        first_digests, mismatched = None, 0
        reference.timed()  # warm-up, outside set-up: the kernel is not the program's
        ref_times.append(reference.timed())
        start = time.perf_counter()
        while True:
            round_ops = 0.0
            for commands in wl.ops:
                t_op = time.perf_counter()
                ok = run_op(commands)
                op_times.append(time.perf_counter() - t_op)
                round_ops += op_times[-1]
                ref_times.append(reference.timed())
                attempted += 1
                failed += not ok
            round_times.append(round_ops)
            digests = [digest(paths) for paths in wl.outputs]
            if first_digests is None:
                first_digests = digests
            mismatched += sum(a != b for a, b in zip(digests, first_digests))
            # stop once the next round would end more than half a round past --seconds
            if time.perf_counter() - start + 0.5 * round_times[-1] >= args.seconds:
                break
        if tracer:
            tracer.uninstall()

        fails = [] if warm_ok else ["warm-up operation failed"]
        if mismatched:
            fails.append(f"determinism: {mismatched} outputs differ from the first round's")
        t_check = time.perf_counter()
        try:
            fails += wl.check()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            fails.append(f"outputs could not be read: {exc!r}")
        check_s = time.perf_counter() - t_check
        rounds = len(round_times)
        # each operation's time in units of the reference kernel's time around it: the
        # mean of the two timings before and the two after the operation (fewer at the
        # ends); two single 0.09 s timings jitter more than the drift they follow
        op_refs = [t / statistics.fmean(ref_times[max(0, i - 1):i + 3])
                   for i, t in enumerate(op_times)]
        wall_ref = math.fsum(op_refs) / rounds
        if tracer:
            per_layer = tracer.metrics(per=rounds)
            fails += wl.check_counts(tracer.call_counts(), rounds)
            tracer.dump(Path(ROOT, ".bench_results",
                             f"{args.workload}-seed{args.seed}-trace.json"))
            metrics = {name: {"value": per_layer[name], "unit": tracing.metric_unit(name)}
                       for name in tracing.metric_names()}
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_ref": {"value": wall_ref, "unit": "ref"},
                "op_ref": {"value": statistics.median(op_refs), "unit": "ref"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for f in fails:
        print(f"bench: CHECK FAILED {f}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"ops={attempted} check_s={check_s:.2f} "
          f"mean_round_s={statistics.fmean(round_times):.4f} wall_ref={wall_ref:.3f} "
          f"median_op_s={statistics.median(op_times):.4f} "
          f"median_ref_s={statistics.median(ref_times):.4f} "
          f"round_s={','.join(f'{t:.3f}' for t in round_times)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    result = {"correct": not fails, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
