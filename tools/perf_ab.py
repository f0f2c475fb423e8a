#!/usr/bin/env python3
"""Perf gate: a perfbench A/B of this checkout against a base commit.

    tools/perf_ab.py --base REV [--workload W] [--pairs 5]
                     [--output BENCH_prN.json] [--claim METRIC]

Exports REV (the parent) with `git archive` into a temporary directory
and copies this checkout's BENCHMARK.json and the benchmark files it
lists under `paths` into it, so both sides run the same benchmark on
their own program. Then it runs alternating parent/change pairs of the
BENCHMARK.json command

    python3 perfbench/run.py --workload W --seconds S --seed K

with S = BENCHMARK.json's run_seconds, in the export and in this
checkout (the change, uncommitted edits included). Each side builds
perfbench in its own checkout. Pair i uses seed 1 + i % 3 and runs
the parent first when i is even.

Metric names, their "better" direction and their bounds are read from
BENCHMARK.json. The gate fails on a workload when
  * the change's median of an end-to-end metric is worse than the
    parent's median by more than the metric's bound, as a fraction of
    the parent's median, and the runs resolve it: the worsening is
    larger than the parent's quartile spread, or every change run is
    worse than every parent run;
  * any run is not `correct`; or
  * the change fails a larger share of its operations than the parent.
A worsening past the bound that the runs do not resolve is reported
as unresolved and does not fail the gate.

--claim METRIC tests a claimed gain in the end-to-end METRIC on each
workload by the rule of the choosing-metrics guide: the change wins at
least nine tenths of the pairs (ties count for neither side), and its
median is better than the parent's by more than the parent's quartile
spread. The verdict is printed and, with --output, recorded under the
workload's `claim` key; a claim that does not hold fails like the gate.

--output writes every sample with its medians and quartiles in the
`end_to_end` layout of the committed BENCH_*.json files.

Exit codes: 0 the gate passed (and the claim held), 1 it failed, 2 bad
arguments or the base could not be checked out.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
ORDER = "pair i runs the parent first when i is even"


def seed_of_pair(i):
    return 1 + i % 3


def quartiles(values):
    """@return (q1, median, q3) of @p values, exclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(end_to_end, runs):
    """The BENCH_*.json `metrics` block of one workload's @p runs.

    @p runs maps "parent" and "change" to lists of perfbench results,
    the JSON line run.py prints last:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics":
    {name: {"value": ..., "unit": ...}}}.
    """
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        entry = {"unit": spec["unit"]}
        for side in SIDES:
            entry[side] = [r["metrics"][name]["value"]
                           for r in runs[side] if name in r["metrics"]]
        for side in SIDES:
            if entry[side]:
                q1, median, q3 = quartiles(entry[side])
                entry[side + "_median"] = round(median, 6)
                entry[side + "_q1"] = round(q1, 6)
                entry[side + "_q3"] = round(q3, 6)
        metrics[name] = entry
    return metrics


def failed_share(results):
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    return failed / attempted if attempted else 0.0


def gate(end_to_end, runs):
    """@return (failures, unresolved): the reasons one workload's
    @p runs fail the gate, and the metrics worse than their bound
    that the runs cannot tell from noise."""
    failures = []
    unresolved = []
    for side in SIDES:
        bad = sum(1 for r in runs[side] if not r.get("correct"))
        if bad:
            failures.append("%d %s run(s) not correct" % (bad, side))
    if failed_share(runs["change"]) > failed_share(runs["parent"]):
        failures.append("change fails a larger share of operations "
                        "(%.4f vs %.4f)" % (failed_share(runs["change"]),
                                            failed_share(runs["parent"])))
    summary = summarize(end_to_end, runs)
    for spec in end_to_end:
        entry = summary[spec["name"]]
        if "parent_median" not in entry or "change_median" not in entry:
            failures.append("%s: no samples" % spec["name"])
            continue
        worse = relative_worsening(spec, entry["parent_median"],
                                   entry["change_median"])
        if worse <= spec["bound"]:
            continue
        reason = "%s: median %g -> %g is %.1f%% worse (bound %g%%)" % (
            spec["name"], entry["parent_median"], entry["change_median"],
            100 * worse, 100 * spec["bound"])
        if resolved(spec, entry):
            failures.append(reason)
        else:
            unresolved.append(reason + ", within the parent's spread")
    return failures, unresolved


def resolved(spec, entry):
    """@return whether the runs in @p entry tell its median worsening
    from noise: it exceeds the parent's quartile spread, or every
    change run is worse than every parent run."""
    lower = spec["better"] == "lower"
    delta = entry["change_median"] - entry["parent_median"]
    if not lower:
        delta = -delta
    if delta > entry["parent_q3"] - entry["parent_q1"]:
        return True
    if lower:
        return min(entry["change"]) > max(entry["parent"])
    return max(entry["change"]) < min(entry["parent"])


def relative_worsening(spec, parent, change):
    """How much worse @p change is than @p parent, as a fraction of
    the parent (negative when better; inf from a zero parent)."""
    delta = change - parent if spec["better"] == "lower" else \
        parent - change
    if parent == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(parent)


def claim(spec, runs):
    """@return the verdict on a claimed gain in @p spec's metric over
    one workload's @p runs, whose i-th parent and change runs form
    pair i: the change's wins out of all pairs (ties count for
    neither side, a pair missing the metric is no win), both medians,
    the parent's quartile spread, and whether the claim holds: at
    least nine tenths of the pairs won, and a median gain larger than
    that spread."""
    lower = spec["better"] == "lower"
    name = spec["name"]

    def value(run):
        return run["metrics"].get(name, {}).get("value")

    wins = 0
    ties = 0
    pairs = list(zip(runs["parent"], runs["change"]))
    for parent, change in pairs:
        a, b = value(parent), value(change)
        if a is None or b is None:
            continue
        if a == b:
            ties += 1
        elif (b < a) == lower:
            wins += 1
    verdict = {"metric": name, "pairs": len(pairs), "wins": wins,
               "ties": ties}
    entry = summarize([spec], runs)[name]
    if "parent_median" not in entry or "change_median" not in entry:
        verdict["holds"] = False
        return verdict
    gain = entry["change_median"] - entry["parent_median"]
    if lower:
        gain = -gain
    spread = entry["parent_q3"] - entry["parent_q1"]
    verdict.update({
        "parent_median": entry["parent_median"],
        "change_median": entry["change_median"],
        "median_gain": round(gain, 6),
        "parent_spread": round(spread, 6),
        "holds": 10 * wins >= 9 * len(pairs) and gain > spread,
    })
    return verdict


def run_once(checkout, command, workload, seconds, seed):
    """Runs perfbench once in @p checkout. @return its result."""
    env = dict(os.environ)
    # A shared build directory would let the two sides overwrite
    # each other's perfbench build.
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        command + ["--workload", workload, "--seconds", str(seconds),
                   "--seed", str(seed)],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-3000:])
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    if proc.returncode != 0:
        result["correct"] = False
    return result


def hardware():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "%d-vCPU %s" % (os.cpu_count() or 1, model or "host")


def benchmark_files(bench):
    """@return this checkout's BENCHMARK.json and every file under its
    `paths`, relative to the checkout, bytecode caches left out."""
    files = ["BENCHMARK.json"]
    for path in bench["paths"]:
        top = os.path.join(ROOT, path)
        if os.path.isfile(top):
            files.append(path)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            files.extend(os.path.relpath(os.path.join(dirpath, f), ROOT)
                         for f in sorted(filenames))
    return files


def sync_benchmark(bench, checkout):
    """Replaces the benchmark in @p checkout with this checkout's, so
    a change that edits the benchmark is measured by the same
    benchmark on both sides."""
    for path in bench["paths"]:
        target = os.path.join(checkout, path)
        if os.path.isdir(target):
            shutil.rmtree(target)
        elif os.path.exists(target):
            os.remove(target)
    for rel in benchmark_files(bench):
        target = os.path.join(checkout, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(os.path.join(ROOT, rel), target)


def export(rev, dest):
    """Extracts commit @p rev of this repository into @p dest with
    `git archive`. @return its full sha, or None when @p rev names no
    commit."""
    sha = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
        capture_output=True, text=True)
    if sha.returncode != 0:
        return None
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", sha.stdout.strip()],
        capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest)
    return sha.stdout.strip()


def measure(parent_dir, bench, workload, pairs, seconds):
    """Runs @p pairs alternating pairs. @return the runs by side."""
    checkouts = {"parent": parent_dir, "change": ROOT}
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], bench["command"],
                              workload, seconds, seed_of_pair(i))
            runs[side].append(result)
            wall = result["metrics"].get("wall_s", {}).get("value")
            print("%s pair %d/%d %-6s seed %d: correct=%s wall_s=%s"
                  % (workload, i + 1, pairs, side, seed_of_pair(i),
                     result.get("correct"), wall), flush=True)
    return runs


def report(workload, end_to_end, metrics, failures, unresolved):
    print("\n%s: %s" % (workload, "FAIL" if failures else "pass"))
    for spec in end_to_end:
        entry = metrics[spec["name"]]
        if "parent_median" not in entry or "change_median" not in entry:
            continue
        sides = ["%s %.6g [%.6g..%.6g]" % (
            side, entry[side + "_median"], entry[side + "_q1"],
            entry[side + "_q3"]) for side in SIDES]
        worse = relative_worsening(spec, entry["parent_median"],
                                   entry["change_median"])
        print("  %-20s %-38s %-38s worse %+.1f%% (bound %g%%)" % (
            spec["name"], sides[0], sides[1], 100 * worse,
            100 * spec["bound"]))
    for failure in failures:
        print("  FAIL " + failure)
    for reason in unresolved:
        print("  UNRESOLVED " + reason)


def report_claim(verdict):
    line = "  claim %s: change wins %d/%d pairs (%d tied)" % (
        verdict["metric"], verdict["wins"], verdict["pairs"],
        verdict["ties"])
    if "parent_median" in verdict:
        line += ("; median %.6g -> %.6g, gain %.6g vs parent quartile "
                 "spread %.6g" % (verdict["parent_median"],
                                  verdict["change_median"],
                                  verdict["median_gain"],
                                  verdict["parent_spread"]))
    print(line)
    print("  claim %s (>= 9/10 pairs won and median gain > parent "
          "spread)" % ("HOLDS" if verdict["holds"] else "NOT MET"))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="parent commit (any git revision)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--output", help="write the samples here")
    parser.add_argument("--claim", metavar="METRIC",
                        choices=[m["name"] for m in bench["end_to_end"]],
                        help="an end-to-end metric the change claims "
                             "to improve; tested per workload")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seconds = bench["run_seconds"]
    claimed = next((m for m in bench["end_to_end"]
                    if m["name"] == args.claim), None)

    tmp_root = tempfile.mkdtemp(prefix="perf-ab-")
    parent_dir = os.path.join(tmp_root, "parent")
    try:
        base_sha = export(args.base, parent_dir)
        if base_sha is None:
            print("perf_ab: cannot check out %s" % args.base,
                  file=sys.stderr)
            return 2
        sync_benchmark(bench, parent_dir)
        out = {"what": "perfbench A/B of this change against %s: %s "
                       "--workload W --seconds S --seed K, parent and "
                       "change alternating, each side built from its "
                       "own checkout with this change's benchmark"
                       % (base_sha,
                                         " ".join(bench["command"])),
               "hardware": hardware(),
               "end_to_end": {}}
        failed = False
        for workload in args.workload or names:
            runs = measure(parent_dir, bench, workload, args.pairs,
                           seconds)
            failures, unresolved = gate(bench["end_to_end"], runs)
            metrics = summarize(bench["end_to_end"], runs)
            report(workload, bench["end_to_end"], metrics, failures,
                   unresolved)
            failed = failed or bool(failures)
            every = runs["parent"] + runs["change"]
            record = out["end_to_end"][workload] = {
                "seconds": seconds,
                "pairs": args.pairs,
                "seed_of_pair": [seed_of_pair(i)
                                 for i in range(args.pairs)],
                "order": ORDER,
                "all_correct": all(r.get("correct") for r in every),
                "failed": sum(r.get("failed", 0) for r in every),
                "failures": failures,
                "unresolved": unresolved,
                "metrics": metrics,
            }
            if claimed:
                verdict = claim(claimed, runs)
                report_claim(verdict)
                record["claim"] = verdict
                failed = failed or not verdict["holds"]
        if args.output:
            with open(args.output, "w") as f:
                json.dump(out, f, indent=1)
                f.write("\n")
        return 1 if failed else 0
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
