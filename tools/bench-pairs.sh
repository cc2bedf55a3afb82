#!/bin/sh
# The pairs protocol behind every speed claim, as one command: builds the
# benchmark at a base revision and at the working tree, runs ten
# alternating pairs of one workload, and prints each pair, then each
# metric's medians and quartiles, their ratio, how many pairs the working
# tree won and the verdict (gain, unresolved, worse or same; see
# tools/pairs-summary.awk).
#
#   make bench-pairs BASE=<rev> WORKLOAD=<name> [SEED=1]
#   BASE=<rev> WORKLOAD=<name> tools/bench-pairs.sh
#
# WORKLOAD=all runs every workload BENCHMARK.json declares in turn, ten
# pairs each on the same seeds, and prints one summary block each.
#
# Pair i (from 0) runs seed SEED+i on both sides for BENCHMARK.json's
# `run_seconds`, one benchmark process each, the base first when i is
# even and the working tree first when it is odd. The base is built in a
# temporary shared clone with a target directory of its own, both
# removed on exit; the working tree builds into benchmark/target as
# `make bench` does.
#
# The script reads only what the benchmark prints: its result line (the
# scaled `throughput`, `setup_s` and `peak_rss_mb`), its `digest` line and
# its `host speed` line (the unscaled throughput). The summary is
# tools/pairs-summary.awk, with BENCHMARK.json's bounds. It exits non-zero
# when a run fails, and after the last summary when a pair's digests
# differed.
set -eu

pairs=10
base=${BASE:?set BASE to the revision to compare the working tree against}
workload=${WORKLOAD:?set WORKLOAD to traffic, graph, campaign, oblivious_metrics, mining or all}
first_seed=${SEED:-1}

root=$(git rev-parse --show-toplevel)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9.]*\).*/\1/p' "$root/BENCHMARK.json")
# bound NAME: the end-to-end metric NAME's bound in BENCHMARK.json.
bound() {
    sed -n 's/.*"name": *"'"$1"'".*"bound": *\([0-9][0-9.]*\).*/\1/p' "$root/BENCHMARK.json"
}
if [ "$workload" = all ]; then
    workloads=$(sed -n 's/.*{"name": *"\([^"]*\)", *"why".*/\1/p' "$root/BENCHMARK.json")
else
    workloads=$workload
fi
rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

git clone --quiet --shared --no-checkout "$root" "$tmp/base"
git -C "$tmp/base" checkout --quiet --detach "$rev"
echo "building the benchmark at $base" >&2
CARGO_TARGET_DIR="$tmp/target" cargo build --release --offline --quiet \
    --manifest-path "$tmp/base/benchmark/Cargo.toml" --bin benchmark
echo "building the benchmark at the working tree" >&2
CARGO_TARGET_DIR="$root/benchmark/target" cargo build --release --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml" --bin benchmark

# run SIDE SEED: one benchmark process of SIDE (base or change) on
# $workload, from its own tree so that its provenance names its commit.
# Prints one line: throughput unscaled setup_s peak_rss_mb digest.
run() {
    if [ "$1" = base ]; then
        dir=$tmp/base bin=$tmp/target/release/benchmark
    else
        dir=$root bin=$root/benchmark/target/release/benchmark
    fi
    if ! out=$(cd "$dir" && "$bin" --workload "$workload" --seed "$2" --seconds "$seconds"); then
        printf '%s\n' "$out" >&2
        echo "bench-pairs: the $1 side failed at seed $2" >&2
        exit 1
    fi
    printf '%s\n' "$out" | awk '
        function metric(line, name,   s) {
            if (!match(line, "\"" name "\":\\{\"value\":[^,}]*")) return "nan"
            s = substr(line, RSTART, RLENGTH)
            sub(/.*:/, "", s)
            return s
        }
        /^digest / { digest = $2; sub(/:$/, "", digest) }
        /^host speed:/ { for (i = 1; i < NF; i++) if ($i == "unscaled") unscaled = $(i + 3) }
        { last = $0 }
        END {
            printf "%s %s %s %s %s\n", metric(last, "throughput"), unscaled,
                metric(last, "setup_s"), metric(last, "peak_rss_mb"), digest
        }'
}

status=0
for workload in $workloads; do
    results=$tmp/pairs-$workload
    : > "$results"
    echo "$pairs pairs of $workload, $seconds s each, seeds $first_seed..$((first_seed + pairs - 1)): base $base against the working tree"
    i=0
    while [ "$i" -lt "$pairs" ]; do
        seed=$((first_seed + i))
        if [ $((i % 2)) -eq 0 ]; then
            first=base
            b=$(run base "$seed")
            c=$(run change "$seed")
        else
            first=change
            c=$(run change "$seed")
            b=$(run base "$seed")
        fi
        echo "$seed $first $b $c" | tee -a "$results" | awk '{
            printf "seed %s, %s first: throughput %.0f -> %.0f (x%.3f), unscaled %.0f -> %.0f (x%.3f), ", $1, $2, $3, $8, $8 / $3, $4, $9, $9 / $4
            printf "setup_s %.4f -> %.4f, peak_rss_mb %.2f -> %.2f, digests %s\n", $5, $10, $6, $11, ($7 == $12 ? "equal" : "DIFFER")
        }'
        i=$((i + 1))
    done
    awk -v throughput_bound="$(bound throughput)" -v setup_s_bound="$(bound setup_s)" \
        -v peak_rss_mb_bound="$(bound peak_rss_mb)" \
        -f "$root/tools/pairs-summary.awk" "$results" || status=1
done
exit "$status"
