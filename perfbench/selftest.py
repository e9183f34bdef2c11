"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` matches ``metrics.py``; runs every
workload at a tiny size (small scale, a few builds, rounds and
requests) untraced and traced, asserting that each named metric prints
with its unit and that no operation fails; checks that a tampered
reference digest shows up as failed operations and a non-zero exit; and
checks that the benchmark refuses to run where the program is absent.
Takes about two minutes on two CPUs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json  # noqa: E402
from tracing import BGP_KINDS  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")


def bench(workload: str, trace: int, *extra: str, cwd: str = ROOT) -> Tuple[int, List[str]]:
    argv = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny", *extra,
    ]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout.strip().splitlines()


def result_of(lines: List[str]) -> Dict[str, object]:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def check_metrics(result: Dict[str, object], expected: Dict[str, str], label: str) -> None:
    metrics = result["metrics"]
    assert set(metrics) == set(expected), f"{label}: metrics {sorted(set(metrics) ^ set(expected))}"
    for name, unit in expected.items():
        entry = metrics[name]
        assert entry["unit"] == unit, f"{label}: {name} unit {entry['unit']} != {unit}"
        assert isinstance(entry["value"], (int, float)), f"{label}: {name} is not a number"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == benchmark_json(), "BENCHMARK.json differs from metrics.py"
    print("ok   BENCHMARK.json matches metrics.py")

    end_units = {name: spec[0] for name, spec in END_TO_END.items()}
    layer_units = {name: unit for name, unit, _better, _moves in PER_LAYER}
    for workload in WORKLOADS:
        for trace, units in ((0, end_units), (1, layer_units)):
            code, lines = bench(workload, trace)
            result = result_of(lines)
            label = f"{workload} trace={trace}"
            assert code == 0 and result["correct"] and result["failed"] == 0, f"{label}: {lines[-12:]}"
            assert result["attempted"] >= 1
            check_metrics(result, units, label)
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), f"{label}: zero metric"
            if workload == "study" and trace == 1:
                metrics = result["metrics"]
                for kind in BGP_KINDS:
                    for field in ("convergences", "messages", "busy_s"):
                        value = metrics[f"bgp.{kind}.{field}"]["value"]
                        assert value > 0, f"{label}: bgp.{kind}.{field} = {value}"
                accounted = metrics["trace.accounted_frac"]["value"]
                assert 0.9 <= accounted <= 1.02, f"{label}: accounted_frac {accounted}"
            print(f"ok   {label}: {result['attempted']} operations, every metric with its unit")

    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as handle:
        references = json.load(handle)
    # serve replies are held to the study reference of its study seed 0.
    for workload, table, size in (
        ("study", "study", "small"), ("classify", "classify", "small"), ("serve", "study", "small")
    ):
        tampered = json.loads(json.dumps(references))
        entry = tampered[table][size]["0"]
        key = sorted(entry)[0]
        entry[key] = "0" * len(entry[key])
        path = os.path.join(SCRATCH, f"tampered-{workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tampered, handle)
        code, lines = bench(workload, 0, "--references", path)
        result = result_of(lines)
        assert code != 0 and not result["correct"] and result["failed"] >= 1, f"{workload}: {lines[-8:]}"
        print(f"ok   tampered {workload} {key} digest: {result['failed']} failed, exit {code}")

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, lines = bench("study", 0, cwd=bare)
    assert code != 0 and not (lines and lines[-1].startswith("{")), lines
    print(f"ok   without the program: exit {code}, no result line")
    shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
