//! Thin wrapper over the in-process registry: `sensitivity` via the shared
//! harness (export flags: see `pdpa_bench::harness`).

use std::process::ExitCode;

fn main() -> ExitCode {
    pdpa_bench::harness::main_single("sensitivity")
}
