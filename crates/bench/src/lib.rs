//! # lcf-bench — table/figure regeneration harness
//!
//! One binary per paper table/figure and per extension experiment. The
//! index is `DESIGN.md` §3: the paper-artefact table and the EXT table
//! name each binary's `--bin`.
//!
//! Every binary prints an ASCII table to stdout and writes a CSV under
//! `results/`. Pass `--quick` for a shorter (less converged) run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig12;
pub mod table;

/// Shared CLI plumbing for the experiment binaries.
pub mod cli {
    /// True if `--quick` was passed (shorter simulations, noisier numbers).
    pub fn quick_mode() -> bool {
        std::env::args().any(|a| a == "--quick")
    }

    /// Returns the value of `--seed <u64>` if present.
    pub fn seed_arg() -> Option<u64> {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--seed")
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
    }

    /// Directory experiment CSVs are written to (created on demand).
    pub fn results_dir() -> std::path::PathBuf {
        let dir = std::path::PathBuf::from(
            std::env::var("LCF_RESULTS_DIR").unwrap_or_else(|_| "results".into()),
        );
        std::fs::create_dir_all(&dir).expect("cannot create results directory");
        dir
    }
}
