//! Runs every experiment in paper order.
//!
//! `cargo run -p pdpa-bench --release --bin expt-all > results.txt`
//! regenerates the full evaluation; `EXPERIMENTS.md` was produced from this
//! output. Experiments run concurrently in-process (see
//! `pdpa_bench::harness`); outputs print in deterministic registry order.
//! Flags: `--only <name>` and the export flags of `pdpa_bench::harness`.

use std::process::ExitCode;

fn main() -> ExitCode {
    pdpa_bench::harness::main_all()
}
