#!/usr/bin/env python3
"""End-to-end benchmark of the ``fti`` command line.

    python3 perfbench/run.py --workload ring_closed --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The benchmark generates the
workload's input files from the seed, checks the three golden ``normalize``
outputs byte for byte, then drives ``python -m ftig.cli ... --format json``
as a closed loop with one client: each invocation starts after the previous
one has exited.  Every invocation's exit code and JSON verdict is compared
with the generator's known answer.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs the same invocations in process with spans around each layer (see
``layers.py``) and reports the per-layer metrics.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
result, with provenance and spans, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = ROOT / "perfbench" / "out"

# An invocation slower than this has not decided; it is killed at this limit.
LIMIT_S = 10.0
# Fresh interpreters timed for setup_s, spread over the run.
SETUP_SAMPLES = 9

GOLDENS = {
    f"LFTI4MaEIis{k}": f"golden/lfti_maeiis{k}.json" for k in range(3)
}


def child_env() -> dict:
    """The CLI's environment: an absolute ``src`` on the path, so it can be
    run from any working directory, and a fixed hash seed.  Bytecode is
    cached, as it is for an installed ``fti``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), NO_COLOR="1", PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Call:
    returncode: int
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def invoke(args: list[str], cwd: Path, env: dict) -> Call:
    """Run ``python <args>`` to completion; kill it at ``LIMIT_S`` seconds.

    The child is reaped with ``os.wait4`` so its own peak RSS is known.
    Output goes to files under ``OUT``, so a large report cannot block the
    child.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    out_path, err_path = OUT / "stdout.txt", OUT / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdout=out, stderr=err)
        timer = threading.Timer(LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(proc.returncode, wall, usage.ru_maxrss, out_path.read_bytes(),
                err_path.read_bytes())


def fti(argv: list[str], cwd: Path, env: dict) -> Call:
    return invoke(["-m", "ftig.cli", *argv], cwd, env)


def check_goldens(env: dict) -> list[str]:
    """Names of the golden ``normalize`` outputs that differ from the fixtures."""
    bad = []
    for name, golden in GOLDENS.items():
        call = fti(["normalize", name, "--format", "json", "catalog.fti", "lfti_maeiis.fti"],
                   FIXTURES, env)
        if call.returncode != 0 or call.stdout != (FIXTURES / golden).read_bytes():
            bad.append(name)
    return bad


def probe_s() -> float:
    """A fixed pure-Python loop; its time tracks the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


def correct(workload: str, inst: gen.Instance, returncode: int, stdout: bytes,
            stderr: bytes) -> bool:
    if returncode != inst.expect["exit"] or b"Traceback" in stderr:
        return False
    try:
        return gen.answer_matches(workload, inst.expect, json.loads(stdout))
    except (ValueError, KeyError, TypeError):
        # not JSON, or a document of another shape
        return False


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    Below eleven samples no percentile qualifies; the median is reported."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def prepare(workload: str, seed: int) -> tuple[Path, list[gen.Instance]]:
    work = OUT / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    instances = gen.generate(workload, seed)
    for inst in instances:
        for name, text in inst.files.items():
            (work / name).write_text(text, encoding="utf-8")
    return work, instances


def measure(workload: str, instances: list[gen.Instance], work: Path, seconds: float,
            env: dict) -> tuple[dict, dict]:
    """Closed loop over the instances, round robin, for ``seconds``."""
    setup_args = ["-c", "import ftig.cli; ftig.cli.build_parser()"]
    walls, terms, rss, setups, probes = [], [], [], [], []
    by_instance: dict[str, list[float]] = {x.name: [] for x in instances}
    decided = failed = 0
    first_output: dict[str, bytes] = {}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(instances) or time.perf_counter() < deadline:
        inst = instances[i % len(instances)]
        probes.append(probe_s())
        call = fti(inst.argv, work, env)
        ok = correct(workload, inst, call.returncode, call.stdout, call.stderr)
        # identical inputs must give byte-identical output
        ok = ok and first_output.setdefault(inst.name, call.stdout) == call.stdout
        failed += not ok
        decided += ok and call.wall_s <= LIMIT_S
        walls.append(call.wall_s)
        by_instance[inst.name].append(call.wall_s)
        terms.append(inst.terms)
        rss.append(call.maxrss_kb)
        if i % 2 == 0 and len(setups) < SETUP_SAMPLES:
            setups.append(invoke(setup_args, work, env).wall_s)
        i += 1
    while len(setups) < SETUP_SAMPLES:
        setups.append(invoke(setup_args, work, env).wall_s)
    n = len(walls)
    percentile, tail_value = tail(walls)
    stdout_sha = hashlib.sha256(b"".join(first_output[x.name] for x in instances)).hexdigest()
    metrics = {
        "verdict_p50_s": (statistics.median(walls), "s"),
        "verdict_tail_s": (tail_value, "s"),
        "terms_per_s": (sum(terms) / sum(walls), "terms/s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
        "decided_frac": (decided / n, "fraction"),
        "setup_s": (statistics.median(setups), "s"),
    }
    info = {
        "invocations": n, "failed": failed, "failed_frac": failed / n,
        "tail_percentile": percentile, "tail_samples": n,
        "stdout_sha256": stdout_sha,
        "probe_s": {"median": statistics.median(probes), "min": min(probes),
                    "max": max(probes)},
        "setup_samples_s": setups,
        "instance_p50_s": {k: statistics.median(v) for k, v in by_instance.items()},
    }
    return metrics, info


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = None
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_1m_start": load, "probe_s_start": probe_s()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ftig" / "cli.py").is_file():
        print(f"error: no ftig sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not FIXTURES.is_dir():
        print(f"error: no golden fixtures under {FIXTURES}", file=sys.stderr)
        return 2

    prov = provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    env = child_env()
    work, instances = prepare(args.workload, args.seed)
    bad_goldens = check_goldens(env)
    if args.trace:
        import layers
        metrics, info = layers.traced_run(
            instances, work, args.seconds, SRC,
            lambda inst, *call: correct(args.workload, inst, *call))
    else:
        metrics, info = measure(args.workload, instances, work, args.seconds, env)
    info["golden_mismatches"] = bad_goldens
    attempted = info["invocations"] + len(GOLDENS)
    failed = info["failed"] + len(bad_goldens)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    suffix = "trace" if args.trace else "e2e"
    stem = OUT / f"{args.workload}-{args.seed}-{suffix}"
    if "spans" in info:
        stem.with_suffix(".spans.json").write_text(json.dumps(info.pop("spans")) + "\n")
    record = {"provenance": prov, "info": info, "result": result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:34} {value:14.6g} {unit}")
    print(json.dumps({"provenance": prov, "info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
