#!/usr/bin/env python3
"""Informational scaling report; not part of the benchmark's gate.

    python3 perfbench/scaling.py [--seed 1]

Runs ``ring_closed`` and ``event_comply`` at doubling sizes, one invocation
per size, and stops each series at the first size whose invocation takes
longer than the time limit.  A time per term that grows with the size shows
work that is more than linear in the total number of terms.  The table is
printed and written to ``perfbench/out/scaling.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import gen
import run

SERIES = {
    "ring_closed": [{"n": 25 * 2 ** k, "instances": 2} for k in range(8)],
    "event_comply": [{"width": 25 * 2 ** k, "n_events": 175 * 2 ** k, "instances": 1}
                     for k in range(7)],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not (run.SRC / "ftig" / "cli.py").is_file():
        print(f"error: no ftig sources under {run.SRC}", file=sys.stderr)
        return 2
    env = run.child_env()
    rows = []
    for workload, sizes in SERIES.items():
        work = run.OUT / f"scaling-{workload}"
        for size in sizes:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            # the last instance is the broken one where a series has both
            inst = gen.generate(workload, args.seed, **size)[-1]
            for name, text in inst.files.items():
                (work / name).write_text(text, encoding="utf-8")
            call = run.fti(inst.argv, work, env)
            row = {"workload": workload, "size": size, "terms": inst.terms,
                   "wall_s": call.wall_s, "us_per_term": 1e6 * call.wall_s / inst.terms,
                   "peak_rss_mb": call.maxrss_kb / 1024.0,
                   "correct": run.correct(workload, inst, call.returncode, call.stdout,
                                          call.stderr)}
            rows.append(row)
            print(f"{workload:13} terms={inst.terms:7d} {call.wall_s:8.3f} s "
                  f"{row['us_per_term']:9.1f} us/term {row['peak_rss_mb']:7.1f} MB "
                  f"{'ok' if row['correct'] else 'WRONG'}", flush=True)
            if call.wall_s > run.LIMIT_S:
                break
        shutil.rmtree(work, ignore_errors=True)
    (run.OUT / "scaling.json").write_text(json.dumps(
        {"seed": args.seed, "limit_s": run.LIMIT_S, "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
