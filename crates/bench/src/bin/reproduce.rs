//! Reproduces one of the paper's evaluation artifacts (a table, a figure,
//! the steal ablation or the matching probe) on stdout; `--help` lists
//! them. `SEEDS`, for an artifact that sweeps seeds, is the seed count.
//!
//! Run: `cargo run --release -p venn-bench --bin reproduce -- table1 [SEEDS]`

use venn_bench::artifacts;
use venn_bench::cli::{self, Cli};

fn main() {
    let mut cli = Cli::new(&artifacts::synopsis());
    let mut args = Vec::new();
    cli.parse(|_, arg| {
        if arg.starts_with('-') {
            return Err(cli::unknown(arg));
        }
        args.push(arg.to_string());
        Ok(())
    });
    let (artifact, seeds) = artifacts::select(&args).unwrap_or_else(|e| cli.fail(e));
    artifact.reproduce(&seeds);
}
