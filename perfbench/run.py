"""Benchmark entry point: cold-process runs of one workload.

    python3 perfbench/run.py --workload pipeline_g5 --seed 0 --seconds 5 --trace 0

Run from the repository root. Every measured run is a fresh interpreter
(worker.py), started one after another, never concurrently.

``--trace 0`` gives the end-to-end metrics: a warm-up set-up run that is
discarded (it compiles bytecode in a fresh checkout), SETUP_RUNS set-up
runs, then workload runs until their wall time adds up to ``--seconds``
(at least one). It reports the medians of ``wall_s``, ``setup_s`` (over
the set-up runs and the workload runs) and ``peak_rss_mb``. ``wall_s``
and ``setup_s`` are seconds at the reference speed of speed.py, which
takes the shared host's changing speed out of them; the medians of the
plain seconds go to the environment line as ``raw_wall_s`` and
``raw_setup_s``.

``--trace 1`` gives the per-layer metrics: one untraced run and one traced
run of the same input; see tracing.py. The traced run must reproduce the
untraced run's output digest, and its counts must equal those of the last
traced run of the same workload, seed and source, when there was one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment. Both are also appended to out/results.jsonl.
Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("pipeline_g5", "voronoi_g5", "seeds_g4")
SETUP_RUNS = 9
TIME_LIMIT_S = 170

sys.path.insert(0, HERE)
from speed import REFERENCE_S, probe  # noqa: E402
from tracing import layer_metrics  # noqa: E402

# Every worker hashes strings the same way, so that set and dict order,
# and with it the work the package does on one input, repeat across
# processes; with random hashing the same input took 6.2 to 7.9 s.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


class BenchError(Exception):
    pass


def _commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the package source and data, which identifies the code
    when the checkout is not a git repository."""
    pkg = os.path.join(ROOT, "src", "perfcone")
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".txt")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
        "commit": _commit(),
        "src_sha256": _source_sha256(),
        "reference_s": probe(),
    }


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def spawn(self, mode: str, spans: str | None = None) -> dict:
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if spans is not None:
            cmd += ["--spans", spans]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before a run could start")
        t_spawn = time.monotonic_ns()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"a {mode} run did not finish within {TIME_LIMIT_S} s") from None
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError(f"a {mode} run exited with code {proc.returncode}:\n{tail}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["raw_setup_s"] = (out["setup_end_ns"] - t_spawn) / 1e9
        out["setup_s"] = out["raw_setup_s"] * REFERENCE_S / out["setup_ref_s"]
        return out


def _tally(runs: list[dict]) -> tuple[int, int]:
    """Gate operations of the runs, plus one digest comparison per run
    after the first: every run of one input must give the same outputs."""
    attempted = sum(r["attempted"] for r in runs) + len(runs) - 1
    failed = sum(len(r["failures"]) for r in runs)
    failed += sum(r["digest"] != runs[0]["digest"] for r in runs[1:])
    return attempted, failed


def end_to_end(runner: Runner, seconds: float) -> tuple[int, int, dict, dict]:
    """Metrics, and the same times in plain seconds for the record."""
    runner.spawn("setup")
    setups = [runner.spawn("setup") for _ in range(SETUP_RUNS)]
    runs: list[dict] = []
    while not runs or sum(r["wall_s"] for r in runs) < seconds:
        if runs and runner.deadline - time.monotonic() < 2 * runs[-1]["wall_s"]:
            break
        runs.append(runner.spawn("run"))
    attempted, failed = _tally(runs)
    metrics = {
        "wall_s": statistics.median(r["scaled_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in setups + runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    raw = {
        "raw_wall_s": statistics.median(r["wall_s"] for r in runs),
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in setups + runs),
        "speed_samples": sum(r["samples"] for r in runs),
    }
    return attempted, failed, metrics, raw


def per_layer(runner: Runner, src_sha256: str) -> tuple[int, int, dict]:
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{runner.workload}-seed{runner.seed}")
    runner.spawn("setup")
    plain = runner.spawn("run")
    traced = runner.spawn("trace", spans=stem + ".spans.json")
    attempted, failed = _tally([plain, traced])
    metrics = layer_metrics(stem + ".spans.json")
    metrics["run.cpu_s"] = plain["cpu_s"]
    metrics["run.trace_overhead"] = traced["wall_s"] / plain["wall_s"]

    counts = {
        k: v for k, v in metrics.items() if not k.endswith(("_s", ".s")) and not k.startswith("run.")
    }
    record = stem + ".counts.json"
    if os.path.exists(record):
        with open(record, encoding="utf-8") as fh:
            previous = json.load(fh)
        if previous["src_sha256"] == src_sha256:
            attempted += 1
            failed += previous["counts"] != counts
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"src_sha256": src_sha256, "counts": counts}, fh, indent=1, sort_keys=True)
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "perfcone", "__init__.py")):
        print("error: the package source src/perfcone is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = environment()
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            attempted, failed, values = per_layer(runner, env["src_sha256"])
        else:
            attempted, failed, values, raw = end_to_end(runner, args.seconds)
            env.update(raw)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "env": env, "result": result}) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
