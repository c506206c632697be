"""corefkit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/corefkit`` must be there; nothing
is installed). Steps:

1. record the machine (nproc, Python, numpy, scipy, git revision, load);
2. write the workload's inputs from the seed (``gen.py``), which also
   fills the bytecode cache;
3. time ``import corefkit.cli`` in several fresh interpreters, each scaled
   by the machine speed sampled while it runs (``calib.py``);
4. for the http workload, start the loopback endpoint (``endpoint.py``);
5. measure the workload in its own process (``measure.py``) with
   OMP_NUM_THREADS / OPENBLAS_NUM_THREADS set to 1.

Scratch files go to ``.perfbench_work/`` under the current directory. The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``, each under the name and unit BENCHMARK.json declares.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import WORKLOADS  # noqa: E402

IMPORT_PROBES = 5
DEADLINE_S = 170.0

class Budget:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise subprocess.TimeoutExpired("benchmark", DEADLINE_S)
        return left


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def git_revision(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def time_imports(env: dict, budget: Budget) -> tuple[float, list, dict]:
    """Median seconds for ``import corefkit.cli`` over fresh interpreters,
    each the import's own time (the sampling taken out) times the machine
    speed sampled while it ran (``calib.py``); also the wall times. The
    sampler's own imports (re, dataclasses, signal, bisect) come before
    the timed one."""
    probe = (f"import json, sys, time; sys.path.insert(0, {str(HERE)!r}); "
             "from calib import Sampler\n"
             "with Sampler() as s:\n"
             "    t = time.perf_counter(); import corefkit.cli; "
             "e = time.perf_counter()\n"
             "import numpy, scipy; "
             "print(json.dumps({'wall': e - t, 's': s.own(t, e) * s.scale(t, e), "
             "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
    times, scaled, versions = [], [], {}
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True,
                             timeout=min(60, budget.left()))
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        versions = {"numpy": rec["numpy"], "scipy": rec["scipy"]}
        times.append(rec["wall"])
        scaled.append(rec["s"])
    return statistics.median(scaled), times, versions


class Endpoint:
    """The loopback server process; stopped by closing its stdin."""

    def __init__(self, args: list[str], env: dict, budget: Budget):
        self.proc = subprocess.Popen(args, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line: list[str] = []
        reader = threading.Thread(target=lambda: line.append(self.proc.stdout.readline()))
        reader.start()
        reader.join(timeout=min(30, budget.left()))
        if not line or not line[0].startswith("PORT "):
            self.stop()
            raise RuntimeError("loopback endpoint did not start")
        self.url = f"http://127.0.0.1:{int(line[0].split()[1])}"

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.proc.stdout.close()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "corefkit" / "cli.py").is_file():
        print(f"error: no corefkit source tree under {root} (src/corefkit); "
              "run from the repository root", file=sys.stderr)
        return 2
    spec_file = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    budget = Budget(DEADLINE_S)
    w = WORKLOADS[args.workload]
    env = child_env(root)
    work = root / ".perfbench_work" / f"{w.name}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"

    machine = {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "git_revision": git_revision(root),
        "loadavg_start": os.getloadavg(), "platform": platform.platform(),
    }
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", w.name,
                    "--seed", str(args.seed), "--out", str(inputs)],
                   env=env, check=True, timeout=min(60, budget.left()))
    import_s, import_raw, versions = time_imports(env, budget)
    machine.update(versions)
    endpoint = None
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", w.name,
           "--inputs", str(inputs), "--work", str(work / "out"),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        if w.backend == "http":
            endpoint = Endpoint([sys.executable, str(HERE / "endpoint.py"),
                                 "--pairs", str(inputs / "gold_pairs.jsonl"),
                                 "--seed", str(args.seed),
                                 "--latency-ms", str(w.latency_ms),
                                 "--fail-share", str(w.fail_share)], env, budget)
            cmd += ["--url", endpoint.url]
        out = subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE,
                             text=True, timeout=budget.left())
    finally:
        if endpoint is not None:
            endpoint.stop()
    result = json.loads(out.stdout.strip().splitlines()[-1])

    raw = result["metrics"]
    if not args.trace:
        raw["setup_s"] = import_s + raw["build_backend_s"]
    declared = spec_file["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {"machine": machine, "inputs": result["inputs"],
              "import_s": import_s, "import_raw_s": import_raw,
              "failures": result["failures"],
              "raw": raw, "loadavg_end": os.getloadavg()}
    (work / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
