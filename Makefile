# Convenience targets; everything is plain cargo underneath.

.PHONY: build test bench verify soak docs fmt lint

build:
	cargo build --release

test:
	cargo test -q

# Runs every benchmark workload once, as BENCHMARK.json declares it;
# see benchmark/README.md for the options and the metrics it prints.
bench:
	cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin benchmark --

verify:
	cargo run --release -p faultstudy-harness --bin faultstudy -- verify

# CI's release soak: only a release build runs the million-sample campaign
# and the million-request stream, and the allocation budgets must hold on
# the optimized build too.
soak:
	cargo test --release --locked -q --test soak --test alloc_budget

# CI's docs step: a broken intra-doc link fails it.
docs:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The benchmark package sits outside the workspace, so each target
# checks it on its own.
fmt:
	cargo fmt --all -- --check
	cargo fmt --manifest-path benchmark/Cargo.toml -- --check

lint:
	cargo clippy --workspace --all-targets --locked -- -D warnings
	cargo clippy --manifest-path benchmark/Cargo.toml --all-targets --locked -- -D warnings
