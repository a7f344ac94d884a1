"""Compare two sets of benchmark runs metric by metric.

Usage, with files written by ``bench/run.py --json``::

    python3 bench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...
                             [--json OUT]

For every (workload, metric) both sets report, it prints each side's
median and quartiles, the change of the medians, and the paired win
fraction of the new side (runs are paired by seed, else in order; ties
count for neither side).  The verdict applies the metric's bound from
``BENCHMARK.json``:

- ``regression``: the new median is worse than the base median by more
  than the bound;
- ``unresolved``: either side's quartile spread exceeds the bound, and
  the new side does not read better than the base side on every run;
- ``improved``: the new side wins at least 9 of 10 pairs and the medians
  differ by more than the base side's quartile spread;
- ``same``: none of the above.

``setup_s`` is never ``unresolved``: only its medians are compared.
Per-layer metrics have no bound and get the verdict ``info``.  The exit
status is 1 when any verdict is ``regression``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import common


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as fh:
            runs.append(json.load(fh))
    return runs


def series(runs):
    """``{(workload, metric): [(seed, value), ...]}`` over a set of runs."""
    table = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            for metric, value in result["reported"].items():
                table.setdefault((workload, metric), []).append((run["seed"], value))
    return table


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def paired_wins(base, new, lower_better):
    """Share of pairs the new side wins; pairs match by seed when every
    seed is distinct on both sides, else by position."""
    base_by_seed, new_by_seed = dict(base), dict(new)
    if len(base_by_seed) == len(base) and len(new_by_seed) == len(new):
        pairs = [(base_by_seed[s], new_by_seed[s]) for s in base_by_seed if s in new_by_seed]
    else:
        pairs = [(b, n) for (_, b), (_, n) in zip(base, new)]
    if not pairs:
        return 0.0
    wins = sum((n < b) if lower_better else (n > b) for b, n in pairs)
    return wins / len(pairs)


def verdict(metric, bound, base, new, lower_better):
    if bound is None:
        return "info"
    b = [v for _, v in base]
    n = [v for _, v in new]
    b_med, n_med = statistics.median(b), statistics.median(n)
    worse = (n_med - b_med) if lower_better else (b_med - n_med)
    worse_share = worse / abs(b_med) if b_med else 0.0
    if worse_share > bound:
        return "regression"
    all_better = (max(n) < min(b)) if lower_better else (min(n) > max(b))
    if metric != "setup_s" and max(spread(b), spread(n)) > bound and not all_better:
        return "unresolved"
    q1, _, q3 = quartiles(b)
    if paired_wins(base, new, lower_better) >= 0.9 and abs(n_med - b_med) > (q3 - q1):
        return "improved"
    return "same"


def compare(base_runs, new_runs):
    spec = json.loads(common.BENCHMARK_JSON.read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = series(base_runs), series(new_runs)
    rows = []
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        info = declared.get(metric)
        if info is None:
            continue
        lower = info["better"] == "lower"
        b_values = [v for _, v in base[key]]
        n_values = [v for _, v in new[key]]
        b_q, n_q = quartiles(b_values), quartiles(n_values)
        rows.append({
            "workload": workload,
            "metric": metric,
            "unit": info["unit"],
            "bound": info.get("bound"),
            "base": {"median": b_q[1], "q1": b_q[0], "q3": b_q[2], "spread": spread(b_values),
                     "values": b_values},
            "new": {"median": n_q[1], "q1": n_q[0], "q3": n_q[2], "spread": spread(n_values),
                    "values": n_values},
            "change": (n_q[1] - b_q[1]) / abs(b_q[1]) if b_q[1] else 0.0,
            "win_frac": paired_wins(base[key], new[key], lower),
            "verdict": verdict(metric, info.get("bound"), base[key], new[key], lower),
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--json", metavar="OUT",
                        help="also write both sets of runs and the verdicts as JSON")
    args = parser.parse_args(argv)
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    rows = compare(base_runs, new_runs)
    print("workload metric: base median [q1, q3] -> new median [q1, q3], change, wins, verdict")
    for row in rows:
        b, n = row["base"], row["new"]
        print(
            f"{row['workload']} {row['metric']}: "
            f"{b['median']:.6g} [{b['q1']:.4g}, {b['q3']:.4g}] -> "
            f"{n['median']:.6g} [{n['q1']:.4g}, {n['q3']:.4g}], "
            f"{100 * row['change']:+.1f}%, {row['win_frac']:.2f}, {row['verdict']}"
        )
    if args.json:
        document = {
            "schema": "repro.bench.compare/v1",
            "base": base_runs,
            "new": new_runs,
            "rows": rows,
        }
        with open(args.json, "w") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
