"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload params_sweep --seed 1 --seconds 10 --trace 0

Workloads: ``params_sweep``, ``mc_price``, ``studies`` (see ``README.md``).
The run sets its inputs from ``--seed``, repeats whole rounds of the
workload's operations until ``--seconds`` have passed (at least one
round), checks every output, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
spans are recorded around the package's public functions and the metrics
are the per-layer ones.  A failed check makes the exit code 1; a tree
without ``src/roughvol`` makes it 2.
"""

import os
import sys
import time

# Thread caps for the numerical libraries, set before NumPy is imported.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "ROUGHVOL_THREADS"):
    os.environ[_var] = THREADS

import argparse
import json
import resource
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = (("setup_s", "s"), ("primary_s", "s"), ("secondary_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_PROBES = 2          # extra processes that only set up, for setup_s
PROBE_TIMEOUT_S = 60.0
ROUND_DEADLINE_S = 150.0  # no new round once a repeat could end past this
_T_SCRIPT = time.perf_counter()


def process_age() -> float:
    """Seconds since this process started (10 ms resolution from /proc;
    since this script started where /proc is unavailable)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_SCRIPT


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process that builds the same inputs."""
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return float(out.split()[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("params_sweep", "mc_price", "studies"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "roughvol", "__init__.py")):
        print(f"error: no roughvol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    out_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    wl = workloads.make(args.workload, args.seed, out_dir)
    setup = [process_age()]
    if args.setup_probe:
        wl.close()
        print(f"setup_s {setup[0]!r}")
        return 0
    try:
        return run(args, wl, setup)
    finally:
        wl.close()


def run(args, wl, setup) -> int:
    import roughvol
    import tracer as tracing

    if not os.path.realpath(roughvol.__file__).startswith(os.path.realpath(SRC)):
        print(f"error: roughvol was imported from {roughvol.__file__}",
              file=sys.stderr)
        return 2
    setup += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    wl.install_hooks()

    rounds, longest = 0, 0.0
    t_begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wl.run_round(rounds)
        rounds += 1
        longest = max(longest, time.perf_counter() - t0)
        if (time.perf_counter() - t_begin >= args.seconds
                or process_age() + longest > ROUND_DEADLINE_S):
            break

    e2e = dict(wl.metrics())
    e2e["setup_s"] = statistics.median(setup)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        layers = tracer.layer_metrics(rounds)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
                  "w") as fh:
            json.dump({"rounds": rounds, "spans": tracer.n_spans,
                       "end_to_end": e2e, "per_layer": layers,
                       "span_table": tracer.span_table()}, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {rounds} round(s), "
          f"{wl.attempted} operations attempted, {wl.failed} failed"
          + (f", {tracer.n_spans} spans" if tracer else ""))
    for name, unit in END_TO_END:
        print(f"  {name:<12} {e2e[name]:.6g} {unit}")
    for msg in wl.failures:
        print(f"CHECK FAILED: {msg}")
    correct = not wl.failures
    print(json.dumps({"correct": correct, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
