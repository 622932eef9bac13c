#!/usr/bin/env bash
# Repeatability check for the repo benchmark. Run from the repo root:
#
#   benchmark/run_sets.sh                  two sets x five runs, one seed
#   benchmark/run_sets.sh --seed 7         the same on another seed
#   benchmark/run_sets.sh --spread         ten runs, each on another seed
#   benchmark/run_sets.sh --sets 1 --runs 3 --workloads "short_txn"
#
# Default mode (same seed): per workload x end-to-end metric it prints each
# set's median and quartiles, the relative gap between the set medians in
# the "worse" direction, and PASS/FAIL against the metric's bound. It also
# requires every count (log bytes, modelled time, *_per_txn, checkpoints,
# restart records and I/O) to be identical in all runs of a single-client
# workload. --spread varies the seed per run instead and compares each
# metric's interquartile range, as a share of its median, with a third of
# its bound (set-up time only has to hold its median).
#
# Exits non-zero on any FAIL, on any differing count, on any incorrect run,
# and when --list disagrees with BENCHMARK.json. Output is markdown; the
# committed copy is REPEATABILITY.md.
set -euo pipefail

seed=1 sets=2 runs=5 seconds=10 spread=0
workloads="oo7_t2a oo7_mixed_adapt short_txn short_txn_gc crash_restart"
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --sets) sets=$2; shift 2 ;;
        --runs) runs=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --workloads) workloads=$2; shift 2 ;;
        --spread) spread=1 sets=1 runs=10; shift ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
done

manifest=benchmark/Cargo.toml
[ -f "$manifest" ] || { echo "run from the repo root" >&2; exit 2; }
cargo build --release --offline --manifest-path "$manifest" >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/qs-benchmark"
out=benchmark/out/sets
rm -rf "$out" && mkdir -p "$out"

"$bin" --list > "$out/list.txt"
for w in $workloads; do
    for s in $(seq 1 "$sets"); do
        for r in $(seq 1 "$runs"); do
            run_seed=$seed
            [ "$spread" = 1 ] && run_seed=$((seed + r - 1))
            echo "$w set $s run $r seed $run_seed" >&2
            "$bin" --workload "$w" --seed "$run_seed" --seconds "$seconds" --trace 0 \
                > "$out/${w}_${s}_${r}.txt" || echo "run exited $?" >> "$out/${w}_${s}_${r}.txt"
        done
    done
done

python3 - "$out" "$seed" "$sets" "$runs" "$seconds" "$spread" "$workloads" <<'EOF'
import json, statistics, sys

out, seed, sets, runs, seconds, spread = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]), sys.argv[5], sys.argv[6] == "1"
workloads = sys.argv[7].split()
fail = []

# --list against BENCHMARK.json: same workloads, metrics, units, bounds.
listed = {"workload": {}, "end_to_end": {}, "per_layer": {}}
for line in open(f"{out}/list.txt"):
    kind, name, rest = line.split(maxsplit=2)
    listed[kind][name] = rest.split() if kind != "workload" else rest.strip()
bench = json.load(open("BENCHMARK.json"))
declared = {
    "workload": {w["name"]: w["why"] for w in bench["workloads"]},
    "end_to_end": {m["name"]: [m["unit"], m["better"], str(m["bound"])] for m in bench["end_to_end"]},
    "per_layer": {m["name"]: [m["unit"], m["better"]] for m in bench["per_layer"]},
}
if listed != declared:
    fail.append("--list disagrees with BENCHMARK.json")
bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
single_client = [w for w in workloads if w != "short_txn_gc"]
# Among the ungated lines a count is told by its unit; the modelled-1995
# times are counts priced by constants, so they must repeat exactly too.
def is_count(name, unit):
    return unit in ("count", "B") or name.startswith("sim.") or name == "esm.restart.sim_s"

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3

mode = "ten seeds" if spread else f"{sets} set(s) x {runs} runs, seed {seed}"
print(f"## {mode}, --seconds {seconds}\n")
for w in workloads:
    gated, counts, ok = {}, {}, True
    for s in range(1, sets + 1):
        for r in range(1, runs + 1):
            lines = open(f"{out}/{w}_{s}_{r}.txt").read().splitlines()
            try:
                result = json.loads(lines[-1])
            except (ValueError, IndexError):
                fail.append(f"{w} set {s} run {r}: no result line")
                ok = False
                continue
            if not result["correct"] or result["failed"]:
                fail.append(f"{w} set {s} run {r}: {result['failed']} of {result['attempted']} operations failed")
            for name, m in result["metrics"].items():
                gated.setdefault(name, {}).setdefault(s, []).append(m["value"])
            for line in lines:
                if line.endswith("(not gated)"):
                    name, value, unit = line.split()[:3]
                    if is_count(name, unit):
                        counts.setdefault(name, []).append(value)
            for name in ("log_bytes_per_txn", "sim_txn_ms"):
                counts.setdefault(name, []).append(repr(result["metrics"][name]["value"]))
    if not ok:
        continue
    print(f"### {w}\n")
    if spread:
        print("| metric | q1 | median | q3 | IQR/median | bound/3 | |")
        print("|---|---|---|---|---|---|---|")
        for name, by_set in gated.items():
            q1, med, q3 = quartiles(by_set[1])
            share, bound = (q3 - q1) / med, bounds[name][0]
            verdict = "steady" if share <= bound / 3 else ("within bound" if share <= bound else "FAIL")
            if name == "setup_s" and verdict == "FAIL":
                verdict = "median-gated only"
            if verdict == "FAIL":
                fail.append(f"{w} {name}: spread {share:.4f} exceeds bound {bound}")
            print(f"| {name} | {q1:.6g} | {med:.6g} | {q3:.6g} | {share:.4f} | {bound / 3:.4f} | {verdict} |")
    else:
        header = " | ".join(f"set {s} median (q1..q3)" for s in range(1, sets + 1))
        print(f"| metric | {header} | worse by | bound | |")
        print("|---|" + "---|" * (sets + 3))
        for name, by_set in gated.items():
            cells, meds = [], []
            for s in range(1, sets + 1):
                q1, med, q3 = quartiles(by_set[s])
                meds.append(med)
                cells.append(f"{med:.6g} ({q1:.6g}..{q3:.6g})")
            bound, better = bounds[name]
            first, last = meds[0], meds[-1]
            worse = (first - last) / first if better == "higher" else (last - first) / first
            verdict = "PASS" if worse <= bound else "FAIL"
            if verdict == "FAIL":
                fail.append(f"{w} {name}: second set worse by {worse:.4f}, bound {bound}")
            print(f"| {name} | {' | '.join(cells)} | {worse:+.4f} | {bound} | {verdict} |")
        if w in single_client:
            differing = sorted(n for n, v in counts.items() if len(set(v)) > 1)
            same = len(counts) - len(differing)
            print(f"\n{same} of {len(counts)} counts identical in all {sets * runs} runs.")
            for n in differing:
                fail.append(f"{w} {n}: count differs between runs: {sorted(set(counts[n]))}")
    print()

print("## Verdict\n")
if fail:
    print("FAIL\n")
    for f in fail:
        print(f"- {f}")
    sys.exit(1)
print("PASS")
EOF
