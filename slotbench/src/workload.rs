//! The four workloads and their two runs: the untraced end-to-end run and
//! the traced per-layer run.
//!
//! Every workload is a closed loop in host time: arrivals are generated per
//! simulated slot from the seed, and the amount of simulated work is fixed
//! by `--seconds` alone, so a slow host only stretches the wall time. The
//! simulated metrics therefore repeat exactly for a given seed and
//! `--seconds`.

use crate::calib::{self, Calibrator};
use crate::checks::Checks;
use crate::metrics::{cdf_quantile, median, peak_rss_mb, quantile, Values};
use crate::serve_probe;
use crate::stage::{self, same_stats, Session, StageLoop, StageTotals, SCHED, STAGES};
use lcf_core::bitkern::Backend;
use lcf_core::maxsize::MaxSizeMatcher;
use lcf_core::registry::SchedulerKind;
use lcf_core::traits::Scheduler;
use lcf_sim::config::{SimConfig, TrafficKind};
use std::time::Instant;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Windows needed for a 95th percentile with ten samples beyond it.
pub const MIN_WINDOWS: u64 = 200;
/// Slots of the untimed prefix the backend and stage-loop checks replay.
const PREFIX_WARMUP: u64 = 500;
const PREFIX_MEASURE: u64 = 1_500;
/// Every this many slots the traced run compares the matching with a
/// maximum matching and times the side schedulers.
const SAMPLE_EVERY: u64 = 32;

/// The iterative schedulers `fig12_n16` runs, in the paper's legend order.
pub const ITERATIVE: [SchedulerKind; 4] = [
    SchedulerKind::LcfDistRr,
    SchedulerKind::LcfDist,
    SchedulerKind::Pim,
    SchedulerKind::Islip,
];

pub struct Spec {
    /// The switch, traffic and warm-up; `seed` is filled in per run.
    pub cfg: SimConfig,
    /// Sessions stepped in turn inside one window (one per scheduler).
    pub kinds: &'static [SchedulerKind],
    /// Slots each session steps per window.
    pub window_slots: u64,
    /// Measured windows per second of `--seconds` in the end-to-end run (serve: serve
    /// runs), sized so a run measures about `--seconds` on a 2-core
    /// x86-64 container.
    pub e2e_per_s: f64,
    /// Measured windows per second of `--seconds` in the traced run.
    pub traced_per_s: f64,
    /// Ports of the calibration chunk's miniature switch: the workload's
    /// own n where its windows' cache footprint differs from 32 ports.
    pub cal_ports: usize,
    /// Set for the serve workload: the control script its serve runs follow.
    pub serve_script: Option<&'static str>,
}

impl Spec {
    pub fn config(&self, seed: u64) -> SimConfig {
        SimConfig {
            seed,
            ..self.cfg.clone()
        }
    }

    pub fn count(per_s: f64, seconds: u64, min: u64) -> u64 {
        ((per_s * seconds as f64).round() as u64).max(min)
    }
}

fn base(n: usize, load: f64, traffic: TrafficKind, warmup_slots: u64) -> SimConfig {
    SimConfig {
        n,
        load,
        traffic,
        warmup_slots,
        ..SimConfig::paper_default()
    }
}

/// Why each workload exists is recorded in `slotbench/README.md`.
pub fn spec(name: &str) -> Option<Spec> {
    let spec = match name {
        "heavy_n32" => Spec {
            cfg: base(32, 0.99, TrafficKind::FastBernoulli, 20_000),
            kinds: &[SchedulerKind::LcfCentralRr],
            window_slots: 2_000,
            e2e_per_s: 80.0,
            traced_per_s: 30.0,
            cal_ports: 32,
            serve_script: None,
        },
        "wide_n128" => Spec {
            cfg: base(128, 0.95, TrafficKind::FastBernoulli, 4_000),
            kinds: &[SchedulerKind::LcfCentral],
            window_slots: 200,
            e2e_per_s: 105.0,
            traced_per_s: 45.0,
            cal_ports: 128,
            serve_script: None,
        },
        "fig12_n16" => Spec {
            cfg: base(16, 0.9, TrafficKind::Bernoulli, 5_000),
            kinds: &ITERATIVE,
            window_slots: 150,
            e2e_per_s: 150.0,
            traced_per_s: 70.0,
            cal_ports: 32,
            serve_script: None,
        },
        "serve_2x16" => Spec {
            cfg: base(16, 0.9, TrafficKind::FastBernoulli, 2_000),
            kinds: &[SchedulerKind::LcfCentralRr],
            window_slots: 200,
            e2e_per_s: 30.0,
            traced_per_s: 100.0,
            cal_ports: 32,
            serve_script: Some(
                "at 10 scheduler islip\nat 20 load 0.6\nat 30 scheduler lcf_central_rr\nat 39 drain\n",
            ),
        },
        _ => return None,
    };
    Some(spec)
}

pub const NAMES: [&str; 4] = ["heavy_n32", "wide_n128", "fig12_n16", "serve_2x16"];

/// What an end-to-end run measured, before it becomes metrics.
pub struct E2e {
    pub values: Values,
    /// Calibration chunk durations in seconds, for the noise flag.
    pub chunks: Vec<f64>,
}

/// Replays a short prefix of every session of the workload three ways —
/// scalar kernels, bitset kernels and the stage loop — and checks that
/// all three end in bit-identical statistics and backlog.
fn prefix_checks(spec: &Spec, cfg: &SimConfig, checks: &mut Checks) {
    for &kind in spec.kinds {
        let mut scalar = stage::session(cfg, kind, Backend::Scalar);
        let mut bitset = stage::session(cfg, kind, Backend::Bitset);
        let mut staged = StageLoop::new(cfg, kind, Backend::Bitset);
        for s in [&mut scalar, &mut bitset] {
            s.step_window(PREFIX_WARMUP);
            s.begin_measurement();
            s.step_window(PREFIX_MEASURE);
        }
        (0..PREFIX_WARMUP).for_each(|_| staged.step());
        staged.begin_measurement();
        (0..PREFIX_MEASURE).for_each(|_| staged.step());
        checks.check(
            same_stats(scalar.stats(), bitset.stats())
                && scalar.buffered_packets() == bitset.buffered_packets(),
            || format!("{}: bitset and scalar backends diverge", kind.name()),
        );
        checks.check(
            same_stats(bitset.stats(), staged.stats())
                && bitset.buffered_packets() == staged.buffered_packets(),
            || format!("{}: stage loop diverges from IqSwitch::step", kind.name()),
        );
    }
}

/// Builds and warms up one session per scheduler.
fn warm_sessions(spec: &Spec, cfg: &SimConfig) -> Vec<Session> {
    spec.kinds
        .iter()
        .map(|&kind| {
            let mut s = stage::session(cfg, kind, Backend::Bitset);
            s.step_window(cfg.warmup_slots);
            s.begin_measurement();
            s
        })
        .collect()
}

/// The untraced end-to-end run.
pub fn run_e2e(spec: &Spec, seed: u64, seconds: u64, checks: &mut Checks) -> E2e {
    let cfg = spec.config(seed);
    prefix_checks(spec, &cfg, checks);
    if spec.serve_script.is_some() {
        return serve_probe::run_e2e(spec, &cfg, seconds, checks);
    }

    let mut cal = Calibrator::new(spec.cal_ports);
    cal.chunk();
    let mut setup_s = Vec::new();
    let mut sessions = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut sessions));
        let start = calib::thread_cpu();
        sessions = warm_sessions(spec, &cfg);
        let setup = calib::thread_cpu() - start;
        setup_s.push(calib::nominal_seconds(setup, cal.median_of(3)));
    }

    let windows = Spec::count(spec.e2e_per_s, seconds, MIN_WINDOWS);
    let mut backlog: Vec<usize> = sessions.iter().map(|s| s.buffered_packets()).collect();
    let mut ratios = Vec::with_capacity(windows as usize);
    let mut chunks = Vec::with_capacity(windows as usize);
    for _ in 0..windows {
        let start = calib::thread_cpu();
        for (s, b) in sessions.iter_mut().zip(backlog.iter_mut()) {
            let report = s.step_window(spec.window_slots);
            checks.window_conserves(*b, &report);
            *b = report.backlog;
        }
        let window = (calib::thread_cpu() - start).as_secs_f64();
        let chunk = cal.chunk().as_secs_f64();
        ratios.push(window / chunk);
        chunks.push(chunk);
    }

    let mut values = Values::default();
    values.set("window_cal_p50", median(&ratios));
    values.set("window_cal_p95", quantile(&ratios, 0.95));
    values.set("setup_s", median(&setup_s));
    sim_metrics(&sessions, checks, &mut values);
    values.set("peak_rss_mb", rss(checks));
    E2e { values, chunks }
}

pub fn rss(checks: &mut Checks) -> f64 {
    let rss = peak_rss_mb();
    checks.check(rss.is_some(), || "VmHWM unreadable".to_string());
    rss.unwrap_or(0.0)
}

/// Delay and throughput pooled over every session's measured packets.
fn sim_metrics(sessions: &[Session], checks: &mut Checks, values: &mut Values) {
    let stats: Vec<_> = sessions.iter().map(|s| s.stats()).collect();
    let samples: u64 = stats.iter().map(|s| s.latency_samples()).sum();
    let delay_sum: f64 = stats
        .iter()
        .map(|s| s.mean_latency() * s.latency_samples() as f64)
        .sum();
    let mut hist = stats[0].latency_histogram().clone();
    for s in &stats[1..] {
        hist.merge(s.latency_histogram())
            .expect("every session uses the workload's histogram range");
    }
    // The p99 is exact while under 1 % of the delays overflow the range.
    checks.check(
        (hist.overflow() as f64) < 0.01 * hist.count() as f64,
        || {
            format!(
                "{} of {} delays beyond the histogram range",
                hist.overflow(),
                hist.count()
            )
        },
    );
    let cdf: Vec<(u64, f64)> = hist.cdf().iter().map(|p| (p.value, p.fraction)).collect();
    let generated: u64 = stats.iter().map(|s| s.generated).sum();
    let delivered: u64 = stats.iter().map(|s| s.delivered).sum();
    values.set("delay_mean_slots", delay_sum / samples as f64);
    values.set("delay_p99_slots", cdf_quantile(&cdf, 0.99));
    values.set("throughput_frac", delivered as f64 / generated as f64);
}

/// Times the four iterative schedulers on request matrices sampled from a
/// workload that runs another scheduler.
struct SideSchedulers {
    scheds: Vec<Box<dyn Scheduler + Send>>,
    out: lcf_core::matching::Matching,
    ns: [u64; 4],
    calls: u64,
}

impl SideSchedulers {
    fn new(cfg: &SimConfig) -> Self {
        SideSchedulers {
            scheds: ITERATIVE
                .iter()
                .map(|&k| stage::scheduler(cfg, k, Backend::Bitset))
                .collect(),
            out: lcf_core::matching::Matching::new(cfg.n),
            ns: [0; 4],
            calls: 0,
        }
    }

    fn time(&mut self, requests: &lcf_core::request::RequestMatrix) {
        for (sched, ns) in self.scheds.iter_mut().zip(self.ns.iter_mut()) {
            let start = Instant::now();
            sched.schedule_into(requests, &mut self.out);
            *ns += start.elapsed().as_nanos() as u64;
        }
        self.calls += 1;
    }
}

/// One window of one stage loop, kept in memory until the run ends.
pub struct Span {
    pub window: u64,
    pub scheduler: &'static str,
    /// `STAGES` order, then the whole untraced window as `step`.
    pub ns: [u64; 7],
    pub slots: u64,
}

/// The traced per-layer run: the untraced sessions and their stage-loop
/// twins step the same windows in turn, so both see the same machine.
pub fn run_traced(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    checks: &mut Checks,
) -> (Values, Vec<Span>) {
    let cfg = spec.config(seed);
    prefix_checks(spec, &cfg, checks);
    let mut sessions = warm_sessions(spec, &cfg);
    let mut loops: Vec<StageLoop> = spec
        .kinds
        .iter()
        .map(|&kind| {
            let mut l = StageLoop::new(&cfg, kind, Backend::Bitset);
            (0..cfg.warmup_slots).for_each(|_| l.step());
            l.begin_measurement();
            l
        })
        .collect();
    let mut side = (spec.kinds != ITERATIVE).then(|| SideSchedulers::new(&cfg));
    let mut maxsize = MaxSizeMatcher::new(cfg.n);
    let (mut matched_sampled, mut max_sampled) = (0u64, 0u64);

    let windows = Spec::count(spec.traced_per_s, seconds, MIN_WINDOWS / 4);
    let mut spans = Vec::new();
    let mut backlog: Vec<usize> = sessions.iter().map(|s| s.buffered_packets()).collect();
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let mut window_ms = Vec::new();
    for w in 0..windows {
        let start = Instant::now();
        let mut step_ns = Vec::with_capacity(sessions.len());
        for (s, b) in sessions.iter_mut().zip(backlog.iter_mut()) {
            let t = Instant::now();
            let report = s.step_window(spec.window_slots);
            step_ns.push(t.elapsed().as_nanos() as u64);
            checks.window_conserves(*b, &report);
            *b = report.backlog;
        }
        let window = start.elapsed();
        untraced_ns += window.as_nanos() as u64;
        window_ms.push(window.as_secs_f64() * 1e3);

        let mut sampling_ns = 0u64;
        let start = Instant::now();
        for (k, (l, step)) in loops.iter_mut().zip(step_ns).enumerate() {
            let before = l.totals.clone();
            for _ in 0..spec.window_slots {
                l.step();
                if l.totals.slots % SAMPLE_EVERY == 0 {
                    let t = Instant::now();
                    let (size, max) =
                        (l.matching().size(), maxsize.max_matching_size(l.requests()));
                    checks.check(
                        l.matching().is_valid_for(l.requests()) && size <= max,
                        || "matching invalid for its request matrix".to_string(),
                    );
                    matched_sampled += size as u64;
                    max_sampled += max as u64;
                    if let Some(side) = side.as_mut() {
                        side.time(l.requests());
                    }
                    sampling_ns += t.elapsed().as_nanos() as u64;
                }
            }
            let mut ns = [0u64; 7];
            for (i, v) in ns.iter_mut().take(6).enumerate() {
                *v = l.totals.ns[i] - before.ns[i];
            }
            ns[6] = step;
            spans.push(Span {
                window: w,
                scheduler: spec.kinds[k].name(),
                ns,
                slots: spec.window_slots,
            });
        }
        traced_ns += start.elapsed().as_nanos() as u64 - sampling_ns;
    }

    for (s, l) in sessions.iter().zip(&loops) {
        checks.check(
            same_stats(s.stats(), l.stats()) && s.buffered_packets() == l.buffered_packets(),
            || {
                format!(
                    "{}: stage loop diverges from IqSwitch::step",
                    s.scheduler_name()
                )
            },
        );
    }

    let mut t = StageTotals::default();
    loops.iter().for_each(|l| t.add(&l.totals));
    let slots = t.slots as f64;
    let step_ns = untraced_ns as f64 / slots;
    let stage_ns = |i: usize| t.ns[i] as f64 / slots;
    let mut v = Values::default();
    v.set("traffic.ns_per_slot", stage_ns(0));
    v.set("traffic.arrivals_per_slot", t.arrivals as f64 / slots);
    v.set("queues.ns_per_slot", stage_ns(1));
    v.set("queues.backlog_mean_pkts", t.backlog_sum as f64 / slots);
    v.set("queues.pq_drops", t.pq_drops as f64);
    v.set("request.ns_per_slot", stage_ns(2));
    v.set("request.bits_per_slot", t.request_bits as f64 / slots);
    v.set("sched.ns_per_call", stage_ns(SCHED));
    v.set("sched.share_of_step", stage_ns(SCHED) / step_ns);
    v.set("sched.match_size_mean", t.matched as f64 / slots);
    v.set(
        "sched.match_ratio_vs_max",
        matched_sampled as f64 / max_sampled.max(1) as f64,
    );
    for (i, kind) in ITERATIVE.iter().enumerate() {
        let ns = match &side {
            Some(side) => side.ns[i] as f64 / side.calls as f64,
            None => {
                let l = &loops[i];
                l.totals.ns[SCHED] as f64 / l.totals.slots as f64
            }
        };
        v.set(kind_metric(*kind), ns);
    }
    v.set("transfer.ns_per_slot", stage_ns(4));
    v.set("transfer.delivered_per_slot", t.matched as f64 / slots);
    v.set("stats.ns_per_slot", stage_ns(5));
    v.set("step.ns_per_slot", step_ns);
    let attributed: f64 = (0..STAGES.len()).map(stage_ns).sum();
    v.set("step.unattributed_share", 1.0 - attributed / step_ns);
    v.set("host.slots_per_s", 1e9 / step_ns);
    v.set("host.window_ms_p50", median(&window_ms));
    v.set(
        "trace.overhead_share",
        traced_ns as f64 / untraced_ns as f64 - 1.0,
    );
    serve_probe::layer_metrics(spec, &cfg, checks, &mut v);
    (v, spans)
}

fn kind_metric(kind: SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::LcfDistRr => "sched.lcf_dist_rr.ns_per_call",
        SchedulerKind::LcfDist => "sched.lcf_dist.ns_per_call",
        SchedulerKind::Pim => "sched.pim.ns_per_call",
        SchedulerKind::Islip => "sched.islip.ns_per_call",
        other => unreachable!("{} is not timed per kind", other.name()),
    }
}
