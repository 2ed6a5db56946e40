//! The serve layer: `serve_with` runs timed from its emit callback.
//!
//! A calibration chunk cannot run inside a live serve run, so the
//! `serve_2x16` end-to-end run alternates short serve runs with chunks and
//! divides each snapshot gap of a run by the median of the three chunks
//! that follow it.

use crate::calib::{self, Calibrator};
use crate::checks::Checks;
use crate::metrics::{median, quantile, Values};
use crate::stage;
use crate::workload::{rss, E2e, Spec, MIN_WINDOWS};
use lcf_core::bitkern::Backend;
use lcf_sim::config::{ModelKind, SimConfig};
use lcf_sim::runner::replicate_seed;
use lcf_sim::serve::{merge_window_reports, serve_with, ControlScript, ServeConfig, ServeOutcome};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Windows of one serve run; the control script's last command is at
/// window 39.
const WINDOWS: u64 = 40;
/// Serve runs of the traced run; they follow no script, so that every
/// snapshot gap steps the scheduler and load the solo window steps.
const PROBE_RUNS: u64 = 5;
const MERGE_REPEATS: u32 = 1_000;

fn config(spec: &Spec, cfg: &SimConfig, script: &str) -> ServeConfig {
    ServeConfig {
        base: SimConfig {
            model: ModelKind::Scheduler(spec.kinds[0]),
            ..cfg.clone()
        },
        shards: SHARDS,
        window_slots: spec.window_slots,
        windows: WINDOWS,
        drain_deadline_slots: 100_000,
        script: ControlScript::parse(script).expect("the workload's control script parses"),
        ..ServeConfig::new(cfg.clone())
    }
}

struct ServeRun {
    setup: Duration,
    gaps_s: Vec<f64>,
    outcome: ServeOutcome,
}

/// One serve run, with its conservation and drain checks.
fn serve_once(cfg: &ServeConfig, checks: &mut Checks) -> ServeRun {
    let start = Instant::now();
    let mut stamps = Vec::with_capacity(WINDOWS as usize);
    let outcome = serve_with(cfg, |line| {
        if line.starts_with("{\"window\"") {
            stamps.push(Instant::now());
        }
    })
    .expect("the workload's serve configuration is valid");
    let setup = stamps[0].duration_since(start);
    let gaps_s = stamps
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64())
        .collect();

    // The backlog after warm-up is not reported, so window 0 only opens
    // the chain; every later window and the drain must conserve packets.
    let backlogs: Vec<Option<u64>> = outcome
        .merged
        .iter()
        .map(|m| {
            (0..SHARDS)
                .map(|i| {
                    m.gauge(&format!("serve.shard.{i}.backlog"))
                        .map(|b| b as u64)
                })
                .sum()
        })
        .collect();
    checks.check(backlogs.iter().all(Option::is_some), || {
        "serve snapshot without a shard backlog".to_string()
    });
    let backlogs: Vec<u64> = backlogs
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();
    for (w, m) in outcome.merged.iter().enumerate().skip(1) {
        let inflow = m.counter("serve.generated") + backlogs[w - 1];
        let outflow = m.counter("serve.delivered") + m.counter("serve.dropped") + backlogs[w];
        checks.check(inflow == outflow, || {
            format!("serve window {w}: {inflow} packets in, {outflow} accounted for")
        });
    }
    let last = backlogs.last().copied().unwrap_or_default();
    let drained: u64 = outcome.drain_reports.iter().map(|d| d.delivered).sum();
    checks.check(outcome.drained && drained == last, || {
        format!(
            "serve drain: drained={} delivered {drained} of {last}",
            outcome.drained
        )
    });
    ServeRun {
        setup,
        gaps_s,
        outcome,
    }
}

/// The `serve_2x16` end-to-end run.
pub fn run_e2e(spec: &Spec, cfg: &SimConfig, seconds: u64, checks: &mut Checks) -> E2e {
    let script = spec
        .serve_script
        .expect("serve workload has a control script");
    let runs = Spec::count(spec.e2e_per_s, seconds, MIN_WINDOWS.div_ceil(WINDOWS - 2));
    let mut cal = Calibrator::new(spec.cal_ports);
    cal.chunk();
    let (mut ratios, mut chunks, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut window_delays, mut delay_sum, mut samples) = (Vec::new(), 0.0, 0u64);
    let (mut generated, mut delivered) = (0u64, 0u64);
    for r in 0..runs {
        let run_cfg = config(
            spec,
            &SimConfig {
                seed: replicate_seed(cfg.seed, r as usize),
                ..cfg.clone()
            },
            script,
        );
        let run = serve_once(&run_cfg, checks);
        let chunk = cal.median_of(3);
        ratios.extend(run.gaps_s.iter().map(|g| g / chunk.as_secs_f64()));
        chunks.push(chunk.as_secs_f64());
        setup_s.push(calib::nominal_seconds(run.setup, chunk));
        for m in &run.outcome.merged {
            let n = m.counter("serve.latency_samples");
            if let Some(mean) = m.gauge("serve.mean_latency").filter(|_| n > 0) {
                window_delays.push(mean);
                delay_sum += mean * n as f64;
                samples += n;
            }
            generated += m.counter("serve.generated");
            delivered += m.counter("serve.delivered");
        }
        delivered += run
            .outcome
            .drain_reports
            .iter()
            .map(|d| d.delivered)
            .sum::<u64>();
    }
    let mut values = Values::default();
    values.set("window_cal_p50", median(&ratios));
    values.set("window_cal_p95", quantile(&ratios, 0.95));
    values.set("setup_s", median(&setup_s));
    values.set("delay_mean_slots", delay_sum / samples as f64);
    values.set("delay_p99_slots", quantile(&window_delays, 0.99));
    values.set("throughput_frac", delivered as f64 / generated as f64);
    values.set("peak_rss_mb", rss(checks));
    E2e { values, chunks }
}

/// The `serve.*` layer metrics of the traced run, at the workload's own
/// switch, scheduler and window size.
pub fn layer_metrics(spec: &Spec, cfg: &SimConfig, checks: &mut Checks, v: &mut Values) {
    let (mut gaps, mut bytes, mut lines, mut drain_slots) =
        (Vec::new(), 0usize, 0usize, Vec::new());
    for r in 0..PROBE_RUNS {
        let run_cfg = config(
            spec,
            &SimConfig {
                seed: replicate_seed(cfg.seed, r as usize),
                ..cfg.clone()
            },
            "",
        );
        let run = serve_once(&run_cfg, checks);
        gaps.extend(run.gaps_s);
        bytes += run.outcome.snapshots.iter().map(|s| s.len()).sum::<usize>();
        lines += run.outcome.snapshots.len();
        let slots = run
            .outcome
            .drain_reports
            .iter()
            .map(|d| d.end_slot - d.start_slot);
        drain_slots.push(slots.max().unwrap_or(0) as f64);
    }

    // A shard's window stepped alone, and the merge of two real reports.
    let mut shards: Vec<_> = (0..SHARDS)
        .map(|i| {
            let shard_cfg = SimConfig {
                seed: replicate_seed(cfg.seed, i),
                ..cfg.clone()
            };
            let mut s = stage::session(&shard_cfg, spec.kinds[0], Backend::Bitset);
            s.sample_occupancy(ServeConfig::new(cfg.clone()).occupancy_range);
            s.step_window(cfg.warmup_slots);
            s.begin_measurement();
            s
        })
        .collect();
    let mut solo_ms = Vec::new();
    for _ in 0..WINDOWS {
        let start = Instant::now();
        shards[0].step_window(spec.window_slots);
        solo_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let reports: Vec<_> = shards
        .iter_mut()
        .enumerate()
        .map(|(i, s)| (i, s.step_window(spec.window_slots)))
        .collect();
    let start = Instant::now();
    for _ in 0..MERGE_REPEATS {
        std::hint::black_box(merge_window_reports(std::hint::black_box(&reports)));
    }
    let merge_us = start.elapsed().as_secs_f64() * 1e6 / MERGE_REPEATS as f64;

    let solo = median(&solo_ms);
    v.set("serve.solo_window_ms", solo);
    v.set("serve.coord_share", 1.0 - solo / (median(&gaps) * 1e3));
    v.set("serve.merge_us", merge_us);
    v.set("serve.snapshot_bytes", bytes as f64 / lines as f64);
    v.set("serve.drain_slots", median(&drain_slots));
}
