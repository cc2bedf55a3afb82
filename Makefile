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

fmt:
	cargo fmt --all -- --check

lint:
	cargo clippy --workspace --all-targets --locked -- -D warnings
