"""Smoke self-test of the benchmark: every workload at a tiny size, both modes.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it runs `run.py --smoke` with --trace 0 and --trace 1 and
checks the last output line against BENCHMARK.json: exactly the keys
correct, attempted, failed and metrics; every metric of the mode by name with
its unit and a finite number; correct true and nothing failed. It then
checks that the benchmark refuses to run, with a non-zero exit and no
result, in a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(line, expected, where):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: output checks failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert result["failed"] == 0, f"{where}: {result['failed']} operations failed"
    metrics = result["metrics"]
    assert set(metrics) == set(expected), \
        f"{where}: metric names differ: {sorted(set(metrics) ^ set(expected))}"
    for name, entry in metrics.items():
        assert set(entry) == {"value", "unit"}, f"{where}: {name}"
        assert entry["unit"] == expected[name], f"{where}: {name} unit {entry['unit']}"
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
            check_result(proc.stdout.strip().splitlines()[-1], expected[trace], where)
            print(f"ok  {where}", flush=True)

    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "attack-cli", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        assert proc.returncode != 0, "benchmark ran without the package"
        assert '"metrics"' not in proc.stdout, "printed a result without the package"
        print("ok  refuses to run without src/medianforge")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    main()
