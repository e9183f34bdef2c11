"""Compare two sets of benchmark records, refusing mismatched sets.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl --workload W
        [--trace 0|1] [--across-revisions]

Each file holds records appended by ``run.py`` (``.perfbench/records.jsonl``
or a copy of it); the records of workload ``W`` in trace mode ``--trace``
(self-test runs excluded) are compared.  Both sets must come from one
benchmark version, and each set from one source (git revision plus the
digest of ``src/``); a comparison across sources (the usual
parent-versus-change question, or two uncommitted edits of one revision)
must be asked for with ``--across-revisions`` and prints both sources.
For every metric it prints each side's median and quartiles, and the
change of the median against the metric's bound from ``metrics.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metrics import END_TO_END  # noqa: E402


def load(path: str) -> List[Dict[str, object]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def identity(record: Dict[str, object]) -> str:
    """The source a record measured: git revision and dirty flag, when
    there is a repository, and always the digest of ``src/``, so two
    sets with different uncommitted edits at one revision differ."""
    revision = record.get("revision") or "no revision"
    dirty = " (dirty)" if record.get("dirty") else ""
    return f"{revision}{dirty} source:{record.get('source_digest')}"


def single(records: List[Dict[str, object]], key, what: str, path: str) -> object:
    values = sorted({str(key(record)) for record in records})
    if len(values) != 1:
        raise SystemExit(f"refusing: {path} mixes {what}: {', '.join(values)}")
    return values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--across-revisions", action="store_true")
    args = parser.parse_args(argv)

    sides = {}
    for label, path in (("base", args.base), ("change", args.change)):
        records = [
            r for r in load(path)
            if r["workload"] == args.workload and r["trace"] == args.trace and not r.get("tiny")
        ]
        if not records:
            raise SystemExit(f"refusing: {path} holds no {args.workload} records")
        sides[label] = {
            "records": records,
            "bench": single(records, lambda r: r["bench_digest"], "benchmark versions", path),
            "source": single(records, identity, "sources", path),
        }
    base, change = sides["base"], sides["change"]
    if base["bench"] != change["bench"]:
        raise SystemExit(
            f"refusing: different benchmark versions {base['bench']} vs {change['bench']}"
        )
    if base["source"] != change["source"] and not args.across_revisions:
        raise SystemExit(
            f"refusing: different sources {base['source']} vs {change['source']} "
            "(pass --across-revisions to compare them)"
        )
    print(f"workload {args.workload}: base {base['source']} ({len(base['records'])} runs) "
          f"vs change {change['source']} ({len(change['records'])} runs)")
    names = sorted({name for r in base["records"] + change["records"] for name in r["metrics"]})
    for name in names:
        row = []
        medians = []
        for side in (base, change):
            values = [r["metrics"][name]["value"] for r in side["records"] if name in r["metrics"]]
            medians.append(statistics.median(values))
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.append(f"{medians[-1]:.6g} [{q1:.6g}, {q3:.6g}]")
            else:
                row.append(f"{medians[-1]:.6g}")
        line = f"  {name}: {row[0]} -> {row[1]}"
        if name in END_TO_END and medians[0]:
            _unit, better, bound, _meaning = END_TO_END[name]
            change_frac = medians[1] / medians[0] - 1
            worse = change_frac if better == "lower" else -change_frac
            line += f"  {change_frac:+.3f} ({'worse than bound' if worse > bound else 'within bound'} {bound})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
