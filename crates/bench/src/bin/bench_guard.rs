//! `bench_guard` — asserts that a telemetry-off build of the central LCF
//! scheduler is still in the same performance class as the committed
//! baseline (`results/BENCH_schedulers.json`), and that the heavy-traffic
//! fast path keeps its committed speedup over the legacy paths.
//!
//! The telemetry layer is feature-gated and must compile to no-ops when the
//! `telemetry` feature is off. A perf regression here would mean the gating
//! leaked work (or allocation) into the hot scheduling path. This guard is
//! deliberately coarse — CI machines are noisy, so the tolerance is a
//! multiple of the baseline, not a percentage — but it catches the failure
//! mode that matters: an accidental order-of-magnitude slowdown.
//!
//! The `sim_heavy` checks work differently: the committed baseline records
//! all three heavy-traffic variants (`reference`, `legacy`, `fast`) from
//! the *same* criterion run, so their ratios are machine-independent. The
//! guard asserts the committed ratios (fast >= 3x reference slot rate,
//! fast never slower than legacy) and then re-measures the fast-vs-reference
//! ratio live with a cruder timer and a wider margin.
//!
//! The distributed-LCF kernel check is a committed ratio too: the
//! `kernel_scalar` and `kernel_bitset` entries for `lcf_dist` at n = 16
//! come from one criterion run, and the word kernel must stay at least
//! [`DIST_KERNEL_RATIO`] times faster than the scalar reference. Central
//! LCF's word kernel is held the same way at n = 128, where its cost per
//! grant shows: the committed `kernel_scalar`/`kernel_bitset` ratio for
//! `lcf_central` must stay at least [`CENTRAL_KERNEL_RATIO`].
//!
//! ```text
//! cargo run --release -p lcf-bench --bin bench_guard
//! ```
//!
//! Exits non-zero iff any measured median exceeds `TOLERANCE x` baseline or
//! any `sim_heavy` or kernel ratio check fails.

#![forbid(unsafe_code)]

use lcf_core::bitkern::Backend;
use lcf_core::registry::SchedulerKind;
use lcf_core::request::RequestMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
// lint:allow(wall-clock): bench_guard's whole purpose is live wall-clock re-measure
use std::time::Instant;

/// Allowed slack over the committed baseline median. The baseline was
/// recorded under criterion on an idle machine; this guard runs a cruder
/// timer on whatever CI hands us (observed ~3-4x on slow shared VMs), so
/// anything under 8x is "same class" — the target failure mode is an
/// accidental order-of-magnitude slowdown, not percent-level drift.
const TOLERANCE: f64 = 8.0;

/// Calls per timing sample; large enough that one sample is ~1 ms.
const CALLS_PER_SAMPLE: usize = 2_000;

/// Timing samples per density; the median of these is compared.
const SAMPLES: usize = 21;

fn main() {
    let baseline_path = baseline_path();
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_guard: cannot read {}: {e}", baseline_path.display());
            eprintln!(
                "bench_guard: regenerate the baseline from the workspace root with:\n  \
                 CRITERION_JSON=$PWD/results/BENCH_schedulers.json \
                 cargo bench -p lcf-bench --bench schedulers"
            );
            std::process::exit(2);
        }
    };

    let mut failures = 0usize;
    for density in [0.25, 0.75] {
        let id = format!("schedule_n16/lcf_central/d{density}");
        let Some(baseline_ns) = ns_median_for(&baseline, &id) else {
            eprintln!("bench_guard: baseline entry `{id}` not found in BENCH_schedulers.json");
            failures += 1;
            continue;
        };
        let measured_ns = measure_lcf_central(16, density);
        let limit = baseline_ns * TOLERANCE;
        let verdict = if measured_ns <= limit { "ok" } else { "FAIL" };
        println!(
            "bench_guard: {id}  baseline {baseline_ns:8.1} ns  measured {measured_ns:8.1} ns  \
             limit {limit:8.1} ns  {verdict}"
        );
        if measured_ns > limit {
            failures += 1;
        }
    }

    failures += check_sim_heavy(&baseline);
    failures += check_kernel_ratio(&baseline, "lcf_dist", 16, DIST_KERNEL_RATIO);
    failures += check_kernel_ratio(&baseline, "lcf_central", 128, CENTRAL_KERNEL_RATIO);

    if failures > 0 {
        eprintln!("bench_guard: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!("bench_guard: all checks passed (tolerance {TOLERANCE}x)");
}

/// Committed fast-vs-reference speedup floor: the baseline was recorded
/// with all three variants in one criterion run, so this ratio is a
/// property of the code, not of the machine that recorded it.
const HEAVY_RATIO_BASELINE: f64 = 3.0;

/// Live re-measurement floor for the same ratio; wider because the guard's
/// crude timer runs on noisy CI machines. A fast path that has collapsed
/// to parity with the scalar reference fails this even on a bad VM.
const HEAVY_RATIO_LIVE: f64 = 2.0;

/// Heavy-traffic slot loop guards (the `sim_heavy` criterion group):
/// baseline ratio checks plus a live fast-vs-reference re-measurement.
fn check_sim_heavy(baseline: &str) -> usize {
    let id = |variant: &str| format!("sim_heavy/lcf_central_n32_load0.99/{variant}");
    let mut entries = [0.0f64; 3];
    for (slot, variant) in entries.iter_mut().zip(["reference", "legacy", "fast"]) {
        match ns_median_for(baseline, &id(variant)) {
            Some(ns) => *slot = ns,
            None => {
                eprintln!(
                    "bench_guard: baseline entry `{}` not found in BENCH_schedulers.json",
                    id(variant)
                );
                return 1;
            }
        }
    }
    let [reference_ns, legacy_ns, fast_ns] = entries;
    let mut failures = 0usize;

    let committed_ratio = reference_ns / fast_ns;
    let verdict = if committed_ratio >= HEAVY_RATIO_BASELINE {
        "ok"
    } else {
        failures += 1;
        "FAIL"
    };
    println!(
        "bench_guard: sim_heavy committed fast speedup {committed_ratio:.2}x over reference \
         (floor {HEAVY_RATIO_BASELINE}x)  {verdict}"
    );

    let verdict = if fast_ns <= legacy_ns {
        "ok"
    } else {
        failures += 1;
        "FAIL"
    };
    println!(
        "bench_guard: sim_heavy committed fast {fast_ns:.0} ns <= legacy {legacy_ns:.0} ns \
         per iter  {verdict}"
    );

    let live_fast = measure_heavy_slot(Backend::Bitset, true);
    let live_reference = measure_heavy_slot(Backend::Scalar, false);
    let live_ratio = live_reference / live_fast;
    let verdict = if live_ratio >= HEAVY_RATIO_LIVE {
        "ok"
    } else {
        failures += 1;
        "FAIL"
    };
    println!(
        "bench_guard: sim_heavy live reference {live_reference:8.1} ns/slot  fast \
         {live_fast:8.1} ns/slot  ratio {live_ratio:.2}x (floor {HEAVY_RATIO_LIVE}x)  {verdict}"
    );
    failures
}

/// Committed scalar-vs-bitset speedup floor for distributed LCF at n = 16.
/// Both entries come from the same criterion run, so the ratio is a
/// property of the code, not of the machine that recorded it.
const DIST_KERNEL_RATIO: f64 = 3.0;

/// Committed scalar-vs-bitset speedup floor for central LCF at n = 128,
/// from the same criterion run. It sits above the 6.2x that a lazy
/// `popcount(row & unscheduled)` key per candidate reaches, so a kernel
/// that recounts rows per grant fails it.
const CENTRAL_KERNEL_RATIO: f64 = 8.0;

/// A word-kernel guard: the committed `kernel_scalar` over `kernel_bitset`
/// median for scheduler `name` at port count `n` must reach `floor`.
fn check_kernel_ratio(baseline: &str, name: &str, n: usize, floor: f64) -> usize {
    let id = |backend: &str| format!("kernel_{backend}/{name}/{n}");
    let (Some(scalar_ns), Some(bitset_ns)) = (
        ns_median_for(baseline, &id("scalar")),
        ns_median_for(baseline, &id("bitset")),
    ) else {
        eprintln!(
            "bench_guard: baseline entries `{}`/`{}` not found in BENCH_schedulers.json",
            id("scalar"),
            id("bitset")
        );
        return 1;
    };
    let ratio = scalar_ns / bitset_ns;
    let ok = ratio >= floor;
    println!(
        "bench_guard: {name} n={n} committed bitset speedup {ratio:.2}x over scalar \
         (floor {floor}x)  {}",
        if ok { "ok" } else { "FAIL" }
    );
    usize::from(!ok)
}

/// Median ns per slot of the heavy-traffic loop (`lcf_central`, n = 32,
/// load 0.99), mirroring the `sim_heavy` criterion group with the guard's
/// cruder timer.
fn measure_heavy_slot(backend: Backend, fast_traffic: bool) -> f64 {
    use lcf_sim::stats::SimStats;
    use lcf_sim::switch::{IqSwitch, QueueMode};
    use lcf_sim::traffic::{Bernoulli, DestPattern, FastBernoulli, Traffic};

    const SLOTS_PER_SAMPLE: u64 = 2_000;
    const HEAVY_SAMPLES: usize = 7;

    let n = 32usize;
    let sched = SchedulerKind::LcfCentral
        .build_with_backend(n, 4, 2, backend)
        .0;
    let mut sw = IqSwitch::new(n, sched, QueueMode::Voq { cap: 256 }, 1_000);
    let mut traffic: Box<dyn Traffic> = if fast_traffic {
        Box::new(FastBernoulli::new(n, 0.99, DestPattern::Uniform))
    } else {
        Box::new(Bernoulli::new(n, 0.99, DestPattern::Uniform))
    };
    let mut rng = StdRng::seed_from_u64(1);
    let mut stats = SimStats::new(n, 0, 4096);
    let mut slot = 0u64;

    // Warm-up fills the queues to the load-0.99 steady state.
    for _ in 0..SLOTS_PER_SAMPLE {
        sw.step(slot, traffic.as_mut(), &mut rng, &mut stats);
        slot += 1;
    }

    let mut samples: Vec<f64> = (0..HEAVY_SAMPLES)
        .map(|_| {
            // lint:allow(wall-clock): timing the hot slot loop is the measurement
            let start = Instant::now();
            for _ in 0..SLOTS_PER_SAMPLE {
                sw.step(slot, traffic.as_mut(), &mut rng, &mut stats);
                slot += 1;
            }
            start.elapsed().as_nanos() as f64 / SLOTS_PER_SAMPLE as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Median ns per `schedule()` call for central LCF at the given density,
/// mirroring the pool setup of the `schedule_n16` criterion group.
fn measure_lcf_central(n: usize, density: f64) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);
    let pool: Vec<RequestMatrix> = (0..64)
        .map(|_| RequestMatrix::random(n, density, &mut rng))
        .collect();
    let mut sched = SchedulerKind::LcfCentral.build(n, 4, 11);

    // Warm caches and branch predictors before sampling.
    let mut idx = 0usize;
    for _ in 0..CALLS_PER_SAMPLE {
        let m = sched.schedule(&pool[idx % pool.len()]);
        std::hint::black_box(m.size());
        idx += 1;
    }

    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            // lint:allow(wall-clock): timing the scheduler calls is the measurement
            let start = Instant::now();
            for _ in 0..CALLS_PER_SAMPLE {
                let m = sched.schedule(&pool[idx % pool.len()]);
                std::hint::black_box(m.size());
                idx += 1;
            }
            start.elapsed().as_nanos() as f64 / CALLS_PER_SAMPLE as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Extracts `ns_median` for the result entry with the given id from the
/// criterion JSON export. Hand-rolled to keep the bench crate
/// dependency-free: finds the quoted id, then the next `"ns_median"` key
/// within that entry. Tolerates arbitrary whitespace after colons.
fn ns_median_for(json: &str, id: &str) -> Option<f64> {
    let id_quoted = format!("\"{id}\"");
    let at = json.find(&id_quoted)?;
    let rest = &json[at + id_quoted.len()..];
    // Entries are flat objects, so the matching median precedes the next id.
    let entry_end = rest.find("\"id\"").unwrap_or(rest.len());
    let entry = &rest[..entry_end];
    let m = entry.find("\"ns_median\"")?;
    let after_key = &entry[m + "\"ns_median\"".len()..];
    let after_colon = after_key.trim_start().strip_prefix(':')?.trim_start();
    let num = after_colon
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect::<String>();
    num.parse().ok()
}

/// `results/BENCH_schedulers.json` relative to the workspace root (the
/// manifest dir of this crate is `<root>/crates/bench`).
fn baseline_path() -> std::path::PathBuf {
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(|root| root.join("results/BENCH_schedulers.json"))
        .unwrap_or_else(|| std::path::PathBuf::from("results/BENCH_schedulers.json"))
}
