#!/usr/bin/env python3
"""Exact-count gate over the benchmark's replay runs.

Usage (from the repository root):

    bench/compare_replay.py BENCH_REPLAY.json            # run and compare
    bench/compare_replay.py BENCH_REPLAY.json --write    # run and regenerate

For every workload in the baseline file this runs

    python3 perfbench/run.py --workload W --seed S --replay

(one client, a fixed op count, background services paced by the client) and
compares its lines with the checked-in ones for exact equality: per-heap
media read/write bytes, flushes, allocs and frees for the load, run and
background phases; fences; node locks, epoch entries, splits and applied
SMOs; and the failed count. These counts come from the emulated media model
and repeat run to run, so any difference is a change in what the program
does, not host noise. A change that moves them regenerates the file with
--write and explains the diff.

Exit status: 0 when every count matches (or after --write), 1 otherwise.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEAP_FIELDS = ("media_read_bytes", "media_write_bytes", "flushes", "allocs", "frees")


def run_replay(workload, seed):
    """Returns (header, [json lines]) of one replay run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--replay"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    header = next(l for l in lines if l.startswith("#"))
    return header, [json.loads(l) for l in lines if l.startswith("{")]


def flatten(rows):
    """{"<index>:<phase>.<heap>.<field>": count} over one workload's lines."""
    out = {}
    for i, row in enumerate(rows):
        prefix = "%d:%s" % (i, row.get("phase", "?"))
        for k, v in row.items():
            if k == "phase":
                continue
            if isinstance(v, list):
                for name, x in zip(HEAP_FIELDS, v):
                    out["%s.%s.%s" % (prefix, k, name)] = x
            else:
                out["%s.%s" % (prefix, k)] = v
    return out


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    write = "--write" in sys.argv[1:]
    if len(args) != 1:
        sys.exit(__doc__)
    path = args[0]
    with open(path) as f:
        baseline = json.load(f)
    seed = baseline["seed"]

    current = {"seed": seed, "workloads": {}}
    failures = []
    for w in baseline["workloads"]:
        header, rows = run_replay(w, seed)
        current["workloads"][w] = {"header": header, "lines": rows}
        if write:
            continue
        base = baseline["workloads"][w]
        if base["header"] != header:
            failures.append("%s: replay parameters differ: %r vs %r" % (w, base["header"], header))
            continue
        want, got = flatten(base["lines"]), flatten(rows)
        for k in sorted(set(want) | set(got)):
            a, b = want.get(k), got.get(k)
            if a != b:
                rel = "" if not a or b is None else " (%+.2f%%)" % (100.0 * (b - a) / a)
                failures.append("%s %s: %s -> %s%s" % (w, k, a, b, rel))
        print("%s: %d counts compared" % (w, len(want)))

    if write:
        with open(path, "w") as f:
            json.dump(current, f, indent=1)
            f.write("\n")
        print("wrote %s" % path)
        return 0
    for msg in failures:
        print("DIFF " + msg)
    print("replay counts: %s" % ("FAIL (%d differ)" % len(failures) if failures else "identical"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
