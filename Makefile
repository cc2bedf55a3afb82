# Convenience targets; everything is plain cargo underneath.

.PHONY: build test bench bench-pairs cli-identity verify soak docs fmt lint workspace-tests \
	examples bench-tests ci

build:
	cargo build --release

test:
	cargo test -q

# Runs every benchmark workload once, as BENCHMARK.json declares it;
# see benchmark/README.md for the options and the metrics it prints.
bench:
	cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin benchmark --

# The pairs protocol behind a speed claim: ten alternating runs of the
# benchmark built at BASE and at the working tree, each as long as
# BENCHMARK.json's run_seconds, e.g.
#   make bench-pairs BASE=HEAD WORKLOAD=graph SEED=3601
# (see tools/bench-pairs.sh).
bench-pairs:
	tools/bench-pairs.sh

# Byte identity across commits: every `faultstudy` subcommand at two
# seeds in text and JSON, plus the examples, built and run at BASE and at
# the working tree, one `same` or `DIFFER` line each, e.g.
#   make cli-identity BASE=HEAD
# (see tools/cli-identity.sh).
cli-identity:
	tools/cli-identity.sh

# CI's Self-check: the paper's guarantees at two seeds.
verify:
	cargo run --release -p faultstudy-harness --bin faultstudy -- verify --seed 2000
	cargo run --release -p faultstudy-harness --bin faultstudy -- verify --seed 7

# CI's release soak: only a release build runs the million-sample campaign
# and the million-request stream, and the allocation budgets must hold on
# the optimized build too.
soak:
	cargo test --release --locked -q --test soak --test alloc_budget

# CI's docs step: a broken intra-doc link fails it.
docs:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# CI's Workspace tests step.
workspace-tests:
	cargo test --workspace -q --locked

# CI's Examples step: each example runs to completion in release; clippy
# only compiles them.
examples:
	cargo build --release --locked --examples
	set -e; for example in examples/*.rs; do \
		name=$$(basename "$$example" .rs); \
		echo "== $$name"; \
		./target/release/examples/"$$name" > /dev/null; \
	done

# CI's Benchmark tests step.
bench-tests:
	cargo test -q --locked --manifest-path benchmark/Cargo.toml

# The benchmark package sits outside the workspace, so each target
# checks it on its own.
fmt:
	cargo fmt --all -- --check
	cargo fmt --manifest-path benchmark/Cargo.toml -- --check

lint:
	cargo clippy --workspace --all-targets --locked -- -D warnings
	cargo clippy --manifest-path benchmark/Cargo.toml --all-targets --locked -- -D warnings

# Every step of CI (.github/workflows/ci.yml), in CI's order; each CI
# step runs one of these targets: format and clippy on both packages, the
# workspace tests, the release soak, each example run in release, the
# docs, the benchmark package's tests and the self-check at two seeds.
# `make test` stays the quick tier-1 run.
ci:
	$(MAKE) fmt
	$(MAKE) lint
	$(MAKE) workspace-tests
	$(MAKE) soak
	$(MAKE) examples
	$(MAKE) docs
	$(MAKE) bench-tests
	$(MAKE) verify
