//! EXT-12 — testing the paper's *explanation* of the round-robin crossover.
//!
//! Sec. 6.3: beyond load ≈0.9 `lcf_central_rr` suddenly beats
//! `lcf_central`; the authors "assume that the round robin algorithm of
//! lcf_central_rr is leveling the lengths of the VOQs thereby maintaining
//! choice by avoiding the VOQs to drain." This experiment measures both
//! quantities directly — the scheduler's mean choice (non-empty VOQs per
//! input) and the VOQ length imbalance — on either side of the crossover.
//!
//! Usage: `cargo run --release -p lcf-bench --bin voq_choice [--quick]`

#![forbid(unsafe_code)]

use lcf_bench::cli;
use lcf_bench::table::{ascii_table, f2, write_csv};
use lcf_core::registry::SchedulerKind;
use lcf_sim::config::SimConfig;
use lcf_sim::session::DriveSession;
use lcf_sim::switch::{IqSwitch, QueueMode};
use lcf_sim::traffic::{Bernoulli, DestPattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Probe {
    latency: f64,
    mean_choice: f64,
    voq_std: f64,
}

fn run(kind: SchedulerKind, load: f64, cfg: &SimConfig) -> Probe {
    let n = cfg.n;
    let mut sw = IqSwitch::new(
        n,
        kind.build(n, cfg.iterations, cfg.seed),
        QueueMode::Voq { cap: cfg.voq_cap },
        cfg.pq_cap,
    );
    let mut session = DriveSession::new(
        &mut sw,
        Bernoulli::new(n, load, DestPattern::Uniform),
        StdRng::seed_from_u64(cfg.seed),
        cfg.max_latency_bucket,
    );
    session.step_window(cfg.warmup_slots);
    session.begin_measurement();
    let (mut choice_sum, mut std_sum) = (0.0, 0.0);
    for _ in 0..cfg.measure_slots {
        session.step_window(1);
        choice_sum += session.model_mut().mean_choice();
        std_sum += session.model_mut().voq_length_std_dev();
    }
    Probe {
        latency: session.stats().mean_latency(),
        mean_choice: choice_sum / cfg.measure_slots as f64,
        voq_std: std_sum / cfg.measure_slots as f64,
    }
}

fn main() {
    let quick = cli::quick_mode();
    let seed = cli::seed_arg().unwrap_or(0xEC);
    let mut cfg = SimConfig::paper_default();
    cfg.seed = seed;
    if quick {
        cfg.warmup_slots = 10_000;
        cfg.measure_slots = 40_000;
    } else {
        cfg.warmup_slots = 50_000;
        cfg.measure_slots = 200_000;
    }
    let loads = [0.8, 0.9, 0.95, 0.975, 0.99];

    eprintln!("voq_choice: 16 ports, lcf_central vs lcf_central_rr, seed={seed}");
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &load in &loads {
        let pure = run(SchedulerKind::LcfCentral, load, &cfg);
        let rr = run(SchedulerKind::LcfCentralRr, load, &cfg);
        rows.push(vec![
            format!("{load}"),
            f2(pure.latency),
            f2(rr.latency),
            f2(pure.mean_choice),
            f2(rr.mean_choice),
            f2(pure.voq_std),
            f2(rr.voq_std),
        ]);
        for (name, p) in [("lcf_central", &pure), ("lcf_central_rr", &rr)] {
            csv_rows.push(vec![
                name.to_string(),
                format!("{load}"),
                format!("{}", p.latency),
                format!("{}", p.mean_choice),
                format!("{}", p.voq_std),
            ]);
        }
    }

    println!("\nEXT-12 — choice and VOQ leveling around the crossover");
    println!(
        "{}",
        ascii_table(
            &[
                "load",
                "delay pure",
                "delay rr",
                "choice pure",
                "choice rr",
                "voq-std pure",
                "voq-std rr"
            ],
            &rows
        )
    );
    println!("(the paper's hypothesis predicts: past the crossover load, the rr\n variant shows HIGHER mean choice and LOWER voq length imbalance,\n explaining its lower delay)");

    let dir = cli::results_dir();
    let path = dir.join("voq_choice.csv");
    write_csv(
        &path,
        &["scheduler", "load", "latency", "mean_choice", "voq_len_std"],
        &csv_rows,
    )
    .expect("write csv");
    eprintln!("wrote {}", path.display());
}
