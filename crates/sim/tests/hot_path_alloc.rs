//! Hot-path memory contract, measured: once the queues of an overloaded
//! switch are saturated, `IqSwitch::step` (VOQ and single-FIFO inputs) and
//! `CioqSwitch::step` perform no heap allocation at all — no per-slot
//! buffers, no request-matrix rebuilds, and no further VOQ slab growth.
//!
//! The same holds for a `DriveSession` whose tracing was switched on and
//! back off: tracing is a runtime switch, and once it is off the
//! always-compiled trace path does no work.
//!
//! A counting global allocator wraps the system one. The counter is
//! thread-local, so the test harness's other threads cannot disturb it.

use lcf_core::bitkern::Backend;
use lcf_core::registry::SchedulerKind;
use lcf_sim::cioq::CioqSwitch;
use lcf_sim::session::DriveSession;
use lcf_sim::stats::SimStats;
use lcf_sim::switch::{IqSwitch, QueueMode};
use lcf_sim::traffic::{Bernoulli, DestPattern};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` so an allocation during thread teardown is not a panic.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a thread-local counter, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const N: usize = 16;
const VOQ_CAP: usize = 4;
const PQ_CAP: usize = 8;

/// Steps an overloaded switch (every input offers a packet each slot, half
/// of them to one hot output) until its queues are saturated, then counts
/// the allocations of `measured` further slots. `step` advances the switch
/// under test by one slot.
fn steady_state_allocations(
    what: &str,
    measured: u64,
    mut step: impl FnMut(u64, &mut Bernoulli, &mut StdRng, &mut SimStats),
) -> u64 {
    let pattern = DestPattern::Hotspot {
        hot: 3,
        fraction: 0.5,
    };
    let mut traffic = Bernoulli::new(N, 1.0, pattern);
    let mut rng = StdRng::seed_from_u64(11);
    let mut stats = SimStats::new(N, 0, 256);

    let warmup = 2_000;
    for slot in 0..warmup {
        step(slot, &mut traffic, &mut rng, &mut stats);
    }
    // The hot output's VOQs and the PQs behind them are full: the switch
    // is dropping, and every queue has been as deep as it will ever be.
    assert!(
        stats.dropped_pq > 0,
        "{what}: warm-up must saturate the PQs"
    );

    let before = allocations();
    for slot in warmup..warmup + measured {
        step(slot, &mut traffic, &mut rng, &mut stats);
    }
    let after = allocations();
    assert!(stats.delivered > 0);
    after - before
}

#[test]
fn iq_switch_step_is_allocation_free_once_saturated() {
    let modes = [
        (SchedulerKind::LcfCentral, QueueMode::Voq { cap: VOQ_CAP }),
        (SchedulerKind::Islip, QueueMode::Voq { cap: VOQ_CAP }),
        (SchedulerKind::Fifo, QueueMode::SingleFifo { cap: VOQ_CAP }),
    ];
    for (kind, mode) in modes {
        let (scheduler, _) = kind.build_with_backend(N, 4, 7, Backend::Bitset);
        let mut sw = IqSwitch::new(N, scheduler, mode, PQ_CAP);
        let allocs = steady_state_allocations(kind.name(), 5_000, |slot, t, rng, stats| {
            sw.step(slot, t, rng, stats);
        });
        assert_eq!(
            allocs, 0,
            "{kind:?}: IqSwitch::step allocated in steady state"
        );
    }
}

/// An arrival that finds its PQ empty goes straight into its VOQ. After a
/// saturated phase has grown each slab past any light-load backlog, a
/// light phase takes that path on most arrivals and must not allocate
/// either.
#[test]
fn iq_switch_direct_voq_arrivals_are_allocation_free() {
    let (scheduler, _) = SchedulerKind::LcfCentral.build_with_backend(N, 4, 7, Backend::Bitset);
    let mut sw = IqSwitch::new(N, scheduler, QueueMode::Voq { cap: VOQ_CAP }, PQ_CAP);
    steady_state_allocations("saturate", 0, |slot, t, rng, stats| {
        sw.step(slot, t, rng, stats);
    });
    let mut light = Bernoulli::new(N, 0.3, DestPattern::Uniform);
    let mut rng = StdRng::seed_from_u64(12);
    let mut stats = SimStats::new(N, 0, 256);
    // Drain the saturated backlog, then measure.
    for slot in 2_000..4_000 {
        sw.step(slot, &mut light, &mut rng, &mut stats);
    }
    let dropped = stats.dropped();
    let before = allocations();
    for slot in 4_000..9_000 {
        sw.step(slot, &mut light, &mut rng, &mut stats);
    }
    let allocs = allocations() - before;
    assert_eq!(allocs, 0, "IqSwitch::step allocated on direct VOQ arrivals");
    assert_eq!(stats.dropped(), dropped, "the drained switch drops nothing");
}

#[test]
fn cioq_switch_step_is_allocation_free_once_saturated() {
    // Speedup 2 and a 2-slot scheduling pipeline: every pass rewrites the
    // request rows and the matchings cycle through the recycled pools.
    let (scheduler, _) = SchedulerKind::LcfCentral.build_with_backend(N, 4, 7, Backend::Bitset);
    let mut sw = CioqSwitch::new(N, scheduler, 2, 2, PQ_CAP, VOQ_CAP, VOQ_CAP);
    let allocs = steady_state_allocations("cioq", 5_000, |slot, t, rng, stats| {
        sw.step(slot, t, rng, stats);
    });
    assert_eq!(allocs, 0, "CioqSwitch::step allocated in steady state");
}

#[test]
fn drive_session_is_allocation_free_after_tracing_is_switched_off() {
    let (scheduler, _) = SchedulerKind::LcfCentral.build_with_backend(N, 4, 7, Backend::Bitset);
    let sw = IqSwitch::new(N, scheduler, QueueMode::Voq { cap: VOQ_CAP }, PQ_CAP);
    let pattern = DestPattern::Hotspot {
        hot: 3,
        fraction: 0.5,
    };
    let traffic = Bernoulli::new(N, 1.0, pattern);
    let mut session = DriveSession::new(sw, traffic, StdRng::seed_from_u64(11), 256);

    // A traced window, then tracing off and a fresh scheduler swapped in.
    session.enable_telemetry(0);
    session.step_window(200);
    let telemetry = session
        .model_mut()
        .take_telemetry()
        .expect("telemetry was enabled");
    assert!(
        !telemetry.trace.is_empty(),
        "the traced window recorded events"
    );
    let (fresh, _) = SchedulerKind::LcfDistRr.build_with_backend(N, 4, 7, Backend::Bitset);
    session
        .model_mut()
        .swap_scheduler(fresh)
        .expect("boolean engine swaps");

    session.step_window(2_000);
    assert!(
        session.stats().dropped_pq > 0,
        "warm-up must saturate the PQs"
    );
    let before = allocations();
    session.step_window(5_000);
    let allocs = allocations() - before;
    assert_eq!(
        allocs, 0,
        "DriveSession::step_window allocated after tracing was switched off"
    );

    let mut events = 0usize;
    session
        .model_mut()
        .drain_scheduler_events(&mut |_| events += 1);
    assert_eq!(events, 0, "an untraced scheduler buffered decision events");
}

#[test]
fn the_counter_sees_allocations() {
    let before = allocations();
    let v: Vec<u64> = Vec::with_capacity(8);
    let after = allocations();
    assert_eq!(after - before, 1);
    drop(v);
}
