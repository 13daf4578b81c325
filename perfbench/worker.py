"""One cold run of one workload in a fresh interpreter.

Started by run.py, never twice in one process: the package's unbounded
caches make a warm rerun about twice as fast, and every command-line
invocation of the package starts cold. Prints one JSON line:

- ``setup_end_ns``: CLOCK_MONOTONIC when perfcone was imported and the
  inputs were loaded (the parent subtracts its own spawn time);
- ``setup_ref_s``: the reference loop's time right after set-up
  (speed.py), by which the parent scales the set-up time;
- in ``run`` and ``trace`` mode also ``wall_s`` (first call into the
  package until the last result was produced and checked), ``cpu_s``,
  ``peak_rss_mb``, ``attempted``, ``failures`` and the output ``digest``;
- in ``run`` mode ``wall_s`` and ``cpu_s`` leave out the host-speed
  samples taken during the run, ``scaled_s`` is ``wall_s`` at the
  reference speed and ``samples`` the number of samples (speed.py).

In ``trace`` mode no samples are taken, ``scaled_s`` equals ``wall_s``,
and the spans go to the file named by ``--spans``.

    python3 perfbench/worker.py --workload pipeline_g5 --seed 0 --mode run
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports perfcone)
from speed import Sampler, probe  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    load, run = workloads.WORKLOADS[args.workload]
    inputs = load(args.seed)
    out: dict = {"setup_end_ns": time.monotonic_ns()}
    out["setup_ref_s"] = probe()
    if args.mode != "setup":
        tracer = sampler = None
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install()
        else:
            sampler = Sampler()
            sampler.start()
        cpu0 = time.process_time()
        t0 = time.perf_counter_ns()
        gate = run(inputs, args.seed)
        digest = gate.digest()
        t1 = time.perf_counter_ns()
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
            tracer.write(args.spans, t1 - t0)
            wall_s = scaled_s = (t1 - t0) / 1e9
        else:
            sampler.stop()
            wall_s, scaled_s = sampler.result()
            cpu_s -= sampler.probe_s()
        out.update(
            wall_s=wall_s,
            scaled_s=scaled_s,
            samples=len(sampler.marks) if sampler else 0,
            cpu_s=cpu_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=gate.attempted,
            failures=gate.failures,
            digest=digest,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
