#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json briefly, untraced and traced, and
checks that each result line is correct and names exactly the declared metrics.

    smoke_test.py EFRB_BENCH BENCHMARK_JSON TRACE_DIR
"""
import json
import subprocess
import sys


def main():
    exe, spec_path, trace_dir = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for traced, group in ((False, "end_to_end"), (True, "per_layer")):
            cmd = [exe, "--workload", w["name"], "--seed", "1", "--seconds", "0.3"]
            if traced:
                cmd += ["--trace", trace_dir]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            good = (proc.returncode == 0 and result.get("correct") is True
                    and result.get("failed") == 0 and result.get("attempted", 0) >= 1
                    and got == want)
            print("%s %s traced=%d: %s" % ("ok" if good else "FAIL", w["name"],
                                           traced, last if not good else ""))
            if not good:
                sys.stderr.write(proc.stderr)
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                print("  missing %s, unexpected %s" % (missing, extra))
            ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
