//! The slot loop keeps its request matrix current incrementally: a bit is
//! set when a VOQ turns non-empty (or a FIFO gains a head) and cleared when
//! it drains, and no slot rebuilds the matrix. In checked debug builds
//! `IqSwitch::step` compares the maintained matrix, rows and columns, with
//! one rebuilt from the queues before every schedule and panics on a stale
//! bit. These tests drive that oracle through both queue disciplines, the
//! weighted engine, every boolean scheduler, queues that fill and drain,
//! multi-word port counts and mid-run scheduler swaps.

use lcf_core::bitkern::Backend;
use lcf_core::registry::{SchedulerKind, WeightedKind};
use lcf_sim::config::{ModelKind, SimConfig};
use lcf_sim::serve::{serve, ControlScript, ServeConfig};
use lcf_sim::stats::SimStats;
use lcf_sim::switch::{IqSwitch, QueueMode, WeightSource};
use lcf_sim::traffic::{Bernoulli, DestPattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Steps `sw` through `slots` at full hotspot load, so queues fill, spill
/// in bursts and drain, and returns the packets delivered.
fn drive(sw: &mut IqSwitch, slots: std::ops::Range<u64>, seed: u64) -> u64 {
    let n = sw.n();
    let pattern = DestPattern::Hotspot {
        hot: n / 2,
        fraction: 0.3,
    };
    let mut traffic = Bernoulli::new(n, 0.97, pattern);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = SimStats::new(n, 0, 256);
    for slot in slots {
        sw.step(slot, &mut traffic, &mut rng, &mut stats);
    }
    assert!(
        stats.delivered > 0,
        "{}: nothing delivered",
        sw.scheduler_name()
    );
    stats.delivered
}

fn voq_switch(kind: SchedulerKind, n: usize, backend: Backend) -> IqSwitch {
    let (scheduler, _) = kind.build_with_backend(n, 4, 3, backend);
    IqSwitch::new(n, scheduler, QueueMode::Voq { cap: 3 }, 6)
}

#[test]
fn voq_requests_track_occupancy_for_every_scheduler() {
    for kind in SchedulerKind::ALL
        .into_iter()
        .filter(|k| !k.wants_fifo_queues())
    {
        for backend in [Backend::Bitset, Backend::Scalar] {
            drive(&mut voq_switch(kind, 8, backend), 0..600, 1);
        }
    }
    // Multi-word rows: port indices on both sides of the 64-bit boundary.
    for kind in [
        SchedulerKind::LcfCentral,
        SchedulerKind::LcfDistRr,
        SchedulerKind::Pim,
        SchedulerKind::Islip,
    ] {
        drive(&mut voq_switch(kind, 65, Backend::Bitset), 0..150, 2);
    }
}

#[test]
fn fifo_requests_track_the_heads() {
    for n in [1, 8, 65] {
        let scheduler = SchedulerKind::Fifo.build(n, 4, 5);
        let mut sw = IqSwitch::new(n, scheduler, QueueMode::SingleFifo { cap: 3 }, 6);
        drive(&mut sw, 0..400, 3);
    }
}

#[test]
fn weighted_engines_keep_the_matrix_current() {
    let mut sw = IqSwitch::new_weighted(
        8,
        WeightedKind::Lqf.build(8),
        WeightSource::QueueLength,
        3,
        6,
    );
    drive(&mut sw, 0..400, 4);
}

/// A swapped-in scheduler sees the matrix the previous one left, so it
/// must never see a stale bit.
#[test]
fn swapped_schedulers_see_current_requests() {
    let mut sw = voq_switch(SchedulerKind::LcfCentralRr, 8, Backend::Bitset);
    let mut delivered = 0;
    for (round, kind) in (0u64..).zip([
        SchedulerKind::Islip,
        SchedulerKind::LcfDist,
        SchedulerKind::Pim,
        SchedulerKind::LcfCentral,
    ]) {
        delivered += drive(&mut sw, round * 200..(round + 1) * 200, round);
        sw.swap_scheduler(kind.build(8, 4, 7)).expect("valid swap");
    }
    assert!(delivered > 0);

    // The same through the serve engine's control script. One shard, so a
    // panicking slot loop ends the run instead of stalling a barrier.
    let base = SimConfig {
        model: ModelKind::Scheduler(SchedulerKind::LcfCentralRr),
        n: 8,
        load: 0.95,
        voq_cap: 4,
        pq_cap: 8,
        warmup_slots: 100,
        ..SimConfig::paper_default()
    };
    let script = ControlScript::parse("at 1 scheduler islip\nat 2 scheduler lcf_dist\n")
        .expect("valid script");
    let cfg = ServeConfig {
        shards: 1,
        window_slots: 200,
        windows: 3,
        script,
        ..ServeConfig::new(base)
    };
    let outcome = serve(&cfg).expect("serve runs");
    assert_eq!(outcome.windows_run, 3);
}
