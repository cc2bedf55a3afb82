# Convenience targets; everything is plain cargo underneath.

.PHONY: build test bench verify fmt lint

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

# The benchmark package sits outside the workspace, so each target
# checks it on its own.
fmt:
	cargo fmt --all -- --check
	cargo fmt --manifest-path benchmark/Cargo.toml -- --check

lint:
	cargo clippy --workspace --all-targets --locked -- -D warnings
	cargo clippy --manifest-path benchmark/Cargo.toml --all-targets --locked -- -D warnings
