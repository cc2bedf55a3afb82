#!/bin/sh
# Byte identity of every `faultstudy` output against a base revision, as
# one command: builds the CLI and the examples at the base and at the
# working tree, runs each invocation below on both, and compares their
# stdout, stderr and exit code.
#
#   make cli-identity BASE=<rev>
#   BASE=<rev> tools/cli-identity.sh
#
# The invocations: every subcommand at seeds 2000 and 7, in text and in
# `--json`; `graph --arrival bursty|diurnal`, in text and in `--json`;
# `campaign --samples 200000 --threads 1|2 --json`, at the default seed
# 2000 and at `--seed 7` (the default 500 samples repeat few (fault,
# strategy) pairs, so they barely exercise the campaign's reuse of proven
# outcomes and its per-pair counts); and each example under examples/.
#
# The base is built in a temporary shared clone with a target directory
# of its own, both removed on exit; the working tree builds into target/
# as `cargo build --release` does. Each side runs from its own tree. The
# script prints one `same` or `DIFFER` line per invocation and exits
# non-zero when any invocation differs.
set -eu

base=${BASE:?set BASE to the revision to compare the working tree against}

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

git clone --quiet --shared --no-checkout "$root" "$tmp/base"
git -C "$tmp/base" checkout --quiet --detach "$rev"

# build DIR TARGET: the CLI and the examples of the tree at DIR.
build() {
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/Cargo.toml" -p faultstudy-harness --bin faultstudy
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/Cargo.toml" --examples
}
echo "building the CLI and the examples at $base" >&2
build "$tmp/base" "$tmp/target"
echo "building the CLI and the examples at the working tree" >&2
build "$root" "$root/target"

# The invocations, one a line: `faultstudy ARGS` or `example NAME`.
commands="tables figures summary mine recover campaign inject traffic micro graph oblivious
metrics verify lee-iyer experiments all"
{
    for seed in 2000 7; do
        for command in $commands; do
            echo "faultstudy $command --seed $seed"
            echo "faultstudy $command --seed $seed --json"
        done
    done
    for arrival in bursty diurnal; do
        echo "faultstudy graph --arrival $arrival"
        echo "faultstudy graph --arrival $arrival --json"
    done
    for threads in 1 2; do
        echo "faultstudy campaign --samples 200000 --threads $threads --json"
        echo "faultstudy campaign --samples 200000 --seed 7 --threads $threads --json"
    done
    for example in "$root"/examples/*.rs; do
        echo "example $(basename "$example" .rs)"
    done
} > "$tmp/invocations"

# run SIDE INVOCATION: runs INVOCATION with SIDE's build from SIDE's tree
# and leaves its stdout, stderr and exit code in $tmp/SIDE.{out,err,code}.
run() {
    if [ "$1" = base ]; then
        dir=$tmp/base target=$tmp/target
    else
        dir=$root target=$root/target
    fi
    set -- "$1" $2
    side=$1
    if [ "$2" = example ]; then
        bin=$target/release/examples/$3
        shift 3
    else
        bin=$target/release/faultstudy
        shift 2
    fi
    code=0
    (cd "$dir" && "$bin" "$@") < /dev/null > "$tmp/$side.out" 2> "$tmp/$side.err" || code=$?
    echo "$code" > "$tmp/$side.code"
}

total=0
differ=0
while IFS= read -r invocation; do
    run base "$invocation"
    run change "$invocation"
    total=$((total + 1))
    if cmp -s "$tmp/base.out" "$tmp/change.out" && cmp -s "$tmp/base.err" "$tmp/change.err" \
        && cmp -s "$tmp/base.code" "$tmp/change.code"; then
        echo "same    $invocation"
    else
        differ=$((differ + 1))
        echo "DIFFER  $invocation (exit $(cat "$tmp/base.code") -> $(cat "$tmp/change.code"))"
    fi
done < "$tmp/invocations"

echo "$((total - differ)) of $total invocations identical to $base"
[ "$differ" -eq 0 ]
