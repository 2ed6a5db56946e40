//! EXT-18 — transient dynamics: overload onset and recovery.
//!
//! Fig. 12 is a steady-state picture. This experiment applies a load step —
//! overload (1.0) for the first half, then 0.5 — and records the backlog
//! trajectory: how fast queues fill per scheduler, and how fast they drain
//! once the overload ends. Schedulers with larger matchings drain faster;
//! head-of-line blocking never drains at all until the backlog clears.
//!
//! Usage: `cargo run --release -p lcf-bench --bin transient [--quick]`

#![forbid(unsafe_code)]

use lcf_bench::cli;
use lcf_bench::table::{ascii_table, write_csv};
use lcf_core::registry::SchedulerKind;
use lcf_sim::config::SimConfig;
use lcf_sim::session::DriveSession;
use lcf_sim::switch::{IqSwitch, QueueMode};
use lcf_sim::traffic::{Bernoulli, DestPattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = cli::quick_mode();
    let seed = cli::seed_arg().unwrap_or(0xF2);
    let cfg = SimConfig::paper_default();
    let n = cfg.n;
    let phase = if quick { 5_000u64 } else { 20_000 };
    let sample_every = phase / 10;

    let kinds = [
        SchedulerKind::LcfCentralRr,
        SchedulerKind::LcfDistRr,
        SchedulerKind::Islip,
        SchedulerKind::Fifo,
    ];

    eprintln!("transient: load 1.0 for {phase} slots then 0.5 for {phase}, {n} ports, seed={seed}");
    let mut csv_rows = Vec::new();
    let mut rows = Vec::new();
    let mut sample_slots: Vec<u64> = Vec::new();

    for kind in kinds {
        let mode = if kind.wants_fifo_queues() {
            QueueMode::SingleFifo { cap: cfg.voq_cap }
        } else {
            QueueMode::Voq { cap: cfg.voq_cap }
        };
        let mut sw = IqSwitch::new(n, kind.build(n, cfg.iterations, seed), mode, cfg.pq_cap);
        let mut session = DriveSession::new(
            &mut sw,
            Bernoulli::new(n, 1.0, DestPattern::Uniform),
            StdRng::seed_from_u64(seed),
            cfg.max_latency_bucket,
        );

        // The session steps a whole sample period between samples, except
        // after the load step, where it steps slot by slot until the
        // backlog first falls below n.
        let mut samples = Vec::new();
        let mut drained_at: Option<u64> = None;
        while session.slot() < 2 * phase {
            if session.slot() == phase {
                session.set_traffic(Bernoulli::new(n, 0.5, DestPattern::Uniform));
            }
            let probing = session.slot() >= phase && drained_at.is_none();
            let window = if probing {
                1
            } else {
                sample_every - session.slot() % sample_every
            };
            let backlog = session.step_window(window).backlog;
            let slot = session.slot();
            if probing && backlog < n {
                drained_at = Some(slot - 1 - phase);
            }
            if slot % sample_every == 0 {
                samples.push(backlog);
                if kind == kinds[0] {
                    sample_slots.push(slot);
                }
                csv_rows.push(vec![
                    kind.name().to_string(),
                    slot.to_string(),
                    backlog.to_string(),
                ]);
            }
        }

        let mut row = vec![kind.name().to_string()];
        row.extend(samples.iter().map(|b| b.to_string()));
        row.push(
            drained_at
                .map(|d| format!("{d}"))
                .unwrap_or_else(|| "never".into()),
        );
        rows.push(row);
    }

    let mut headers = vec!["scheduler".to_string()];
    headers.extend(sample_slots.iter().map(|s| format!("@{s}")));
    headers.push("drain [slots]".to_string());
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!("\nEXT-18 — buffered packets over a 1.0 -> 0.5 load step (drain = slots after the step until backlog < n)");
    println!("{}", ascii_table(&header_refs, &rows));

    let dir = cli::results_dir();
    let path = dir.join("transient.csv");
    write_csv(&path, &["scheduler", "slot", "buffered"], &csv_rows).expect("write csv");
    eprintln!("wrote {}", path.display());
}
