//! EXT-14 — least choice vs longest queue vs oldest cell.
//!
//! LCF optimizes *matching size* using only the request pattern; LQF and
//! OCF optimize backlog/age using weights. This experiment runs all three
//! on the Fig. 12 switch under uniform, bursty and diagonal traffic and
//! reports mean/p99 delay — the cases where weight information starts
//! paying for itself.
//!
//! Usage: `cargo run --release -p lcf-bench --bin weighted [--quick]`

#![forbid(unsafe_code)]

use lcf_bench::cli;
use lcf_bench::table::{ascii_table, f2, write_csv};
use lcf_core::registry::{SchedulerKind, WeightedKind};
use lcf_sim::config::{ModelKind, SimConfig, TrafficKind};
use lcf_sim::runner::sweep;
use lcf_sim::traffic::DestPattern;

fn main() {
    let quick = cli::quick_mode();
    let seed = cli::seed_arg().unwrap_or(0xEE);
    let mut base = SimConfig::paper_default();
    base.seed = seed;
    if quick {
        base.warmup_slots = 10_000;
        base.measure_slots = 40_000;
    } else {
        base.warmup_slots = 40_000;
        base.measure_slots = 160_000;
    }

    let contenders = [
        ModelKind::Scheduler(SchedulerKind::LcfCentralRr),
        ModelKind::Weighted(WeightedKind::Lqf),
        ModelKind::Weighted(WeightedKind::Ocf),
        ModelKind::Scheduler(SchedulerKind::Islip),
    ];
    let scenarios: Vec<(&str, f64)> = vec![
        ("uniform", 0.9),
        ("uniform", 0.99),
        ("bursty16", 0.8),
        ("diagonal", 0.9),
    ];
    let mut configs = Vec::new();
    for model in contenders {
        for &(scenario, load) in &scenarios {
            let (traffic, pattern) = match scenario {
                "bursty16" => (
                    TrafficKind::Bursty { mean_burst: 16.0 },
                    DestPattern::Uniform,
                ),
                "diagonal" => (TrafficKind::Bernoulli, DestPattern::Diagonal),
                _ => (TrafficKind::Bernoulli, DestPattern::Uniform),
            };
            configs.push(SimConfig {
                model,
                load,
                traffic,
                pattern,
                ..base.clone()
            });
        }
    }

    eprintln!("weighted: 16 ports, seed={seed}");
    let reports = sweep(&configs);
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for per_model in reports.chunks(scenarios.len()) {
        let mut row = vec![per_model[0].model.clone()];
        for (r, &(scenario, load)) in per_model.iter().zip(&scenarios) {
            row.push(format!(
                "{} / p99 {}",
                f2(r.mean_latency_slots),
                r.p99_latency
            ));
            csv_rows.push(vec![
                r.model.clone(),
                scenario.to_string(),
                format!("{load}"),
                format!("{}", r.mean_latency_slots),
                r.p99_latency.to_string(),
                format!("{}", r.throughput),
            ]);
        }
        rows.push(row);
    }

    let mut headers = vec!["scheduler".to_string()];
    headers.extend(scenarios.iter().map(|(s, l)| format!("{s}@{l}")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!("\nEXT-14 — mean delay [slots] / p99: pattern-based LCF vs weighted LQF/OCF");
    println!("{}", ascii_table(&header_refs, &rows));
    println!("(LQF/OCF pay O(n^2 log n) per slot and need queue/age state on the\n wire; the interesting question is where that buys delay back)");

    let dir = cli::results_dir();
    let path = dir.join("weighted.csv");
    write_csv(
        &path,
        &[
            "scheduler",
            "scenario",
            "load",
            "mean_delay",
            "p99",
            "throughput",
        ],
        &csv_rows,
    )
    .expect("write csv");
    eprintln!("wrote {}", path.display());
}
