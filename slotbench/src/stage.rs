//! Builders for the measured switch, and the traced stage loop.
//!
//! [`StageLoop`] re-drives one input-queued switch through the same public
//! calls, in the same order, as `IqSwitch::step` with VOQs, and times each
//! call per slot. It keeps its own copy of the slot loop so that each layer
//! can be timed from outside the library; the identity check in
//! [`same_stats`] (run by every benchmark run and by the tests) keeps that
//! copy from drifting away from the library's loop.

use lcf_core::bitkern::Backend;
use lcf_core::matching::Matching;
use lcf_core::registry::SchedulerKind;
use lcf_core::request::RequestMatrix;
use lcf_core::traits::Scheduler;
use lcf_sim::config::{SimConfig, TrafficKind};
use lcf_sim::packet::Packet;
use lcf_sim::queues::{BoundedFifo, VoqSet};
use lcf_sim::session::DriveSession;
use lcf_sim::stats::SimStats;
use lcf_sim::switch::{IqSwitch, QueueMode};
use lcf_sim::traffic::{Bernoulli, FastBernoulli, Traffic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The timed stages, in slot order. Index `i` of [`StageTotals::ns`].
pub const STAGES: [&str; 6] = ["traffic", "queues", "request", "sched", "transfer", "stats"];
pub const SCHED: usize = 3;

/// An untraced session: the library's own slot loop.
pub type Session = DriveSession<IqSwitch, Box<dyn Traffic>, StdRng>;

pub fn scheduler(
    cfg: &SimConfig,
    kind: SchedulerKind,
    backend: Backend,
) -> Box<dyn Scheduler + Send> {
    let iterations = if kind == SchedulerKind::Islip {
        cfg.islip_iterations
    } else {
        cfg.iterations
    };
    kind.build_with_backend(cfg.n, iterations, cfg.seed ^ 0x5EED, backend)
        .0
}

pub fn traffic(cfg: &SimConfig) -> Box<dyn Traffic> {
    match cfg.traffic {
        TrafficKind::Bernoulli => Box::new(Bernoulli::new(cfg.n, cfg.load, cfg.pattern.clone())),
        TrafficKind::FastBernoulli => {
            Box::new(FastBernoulli::new(cfg.n, cfg.load, cfg.pattern.clone()))
        }
        ref other => panic!("workloads use Bernoulli arrivals only, not {other:?}"),
    }
}

/// A session at slot 0 that has not been warmed up.
pub fn session(cfg: &SimConfig, kind: SchedulerKind, backend: Backend) -> Session {
    let switch = IqSwitch::new(
        cfg.n,
        scheduler(cfg, kind, backend),
        QueueMode::Voq { cap: cfg.voq_cap },
        cfg.pq_cap,
    );
    DriveSession::new(
        switch,
        traffic(cfg),
        StdRng::seed_from_u64(cfg.seed),
        cfg.max_latency_bucket,
    )
}

/// Bit-identity of two collectors: the `Debug` form prints every counter,
/// histogram bucket and float with round-trip precision.
pub fn same_stats(a: &SimStats, b: &SimStats) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// What the stage loop counted and timed since the last
/// [`StageLoop::begin_measurement`].
#[derive(Clone, Debug, Default)]
pub struct StageTotals {
    /// Nanoseconds spent in each of [`STAGES`].
    pub ns: [u64; 6],
    pub slots: u64,
    pub arrivals: u64,
    pub pq_drops: u64,
    /// Sum over slots of the packets buffered at the end of the slot.
    pub backlog_sum: u64,
    /// Sum over slots of the request bits handed to the scheduler.
    pub request_bits: u64,
    /// Sum over slots of the matching size (= packets transferred).
    pub matched: u64,
}

impl StageTotals {
    pub fn add(&mut self, other: &StageTotals) {
        for (a, b) in self.ns.iter_mut().zip(other.ns) {
            *a += b;
        }
        self.slots += other.slots;
        self.arrivals += other.arrivals;
        self.pq_drops += other.pq_drops;
        self.backlog_sum += other.backlog_sum;
        self.request_bits += other.request_bits;
        self.matched += other.matched;
    }
}

/// One VOQ switch stepped stage by stage.
pub struct StageLoop {
    pqs: Vec<BoundedFifo>,
    voqs: Vec<VoqSet>,
    requests: RequestMatrix,
    matching: Matching,
    sched: Box<dyn Scheduler + Send>,
    traffic: Box<dyn Traffic>,
    rng: StdRng,
    stats: SimStats,
    arrivals: Vec<Option<usize>>,
    popped: Vec<Packet>,
    slot: u64,
    backlog: u64,
    max_latency_bucket: usize,
    pub totals: StageTotals,
}

impl StageLoop {
    /// The stage-loop twin of [`session`] for the same arguments.
    pub fn new(cfg: &SimConfig, kind: SchedulerKind, backend: Backend) -> Self {
        let n = cfg.n;
        StageLoop {
            pqs: (0..n).map(|_| BoundedFifo::new(cfg.pq_cap)).collect(),
            voqs: (0..n).map(|_| VoqSet::new(n, cfg.voq_cap)).collect(),
            requests: RequestMatrix::new(n),
            matching: Matching::new(n),
            sched: scheduler(cfg, kind, backend),
            traffic: traffic(cfg),
            rng: StdRng::seed_from_u64(cfg.seed),
            stats: SimStats::new(n, 0, cfg.max_latency_bucket),
            arrivals: vec![None; n],
            popped: Vec::with_capacity(n),
            slot: 0,
            backlog: 0,
            max_latency_bucket: cfg.max_latency_bucket,
            totals: StageTotals::default(),
        }
    }

    /// Same as `DriveSession::begin_measurement`, and zeroes the totals.
    pub fn begin_measurement(&mut self) {
        self.stats = SimStats::new(self.voqs.len(), self.slot, self.max_latency_bucket);
        self.totals = StageTotals::default();
    }

    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    pub fn buffered_packets(&self) -> usize {
        self.backlog as usize
    }

    pub fn requests(&self) -> &RequestMatrix {
        &self.requests
    }

    pub fn matching(&self) -> &Matching {
        &self.matching
    }

    /// Steps one slot, timing each stage.
    pub fn step(&mut self) {
        let slot = self.slot;
        let t0 = Instant::now();

        self.traffic
            .arrivals_into(slot, &mut self.rng, &mut self.arrivals);
        let t1 = Instant::now();

        let mut arrived = 0u64;
        let mut dropped = 0u64;
        for (input, dst) in self.arrivals.iter().enumerate() {
            let Some(dst) = *dst else { continue };
            arrived += 1;
            self.stats.on_generated();
            if !self.pqs[input].push(Packet::new(input, dst, slot)) {
                dropped += 1;
                self.stats.on_drop_pq();
            }
        }
        for (pq, set) in self.pqs.iter_mut().zip(self.voqs.iter_mut()) {
            while let Some(head) = pq.head() {
                if !set.has_room_for(head.dst_idx()) {
                    break;
                }
                let p = pq.pop().expect("head was Some");
                let pushed = set.push(p);
                debug_assert!(pushed, "room was checked before the pop");
            }
        }
        let t2 = Instant::now();

        for (i, set) in self.voqs.iter().enumerate() {
            self.requests.set_row_words(i, set.occupancy_words());
        }
        let t3 = Instant::now();

        self.sched.schedule_into(&self.requests, &mut self.matching);
        let t4 = Instant::now();

        self.popped.clear();
        for (i, j) in self.matching.pairs() {
            let p = self.voqs[i]
                .pop_for(j)
                .expect("scheduler granted an empty queue");
            self.popped.push(p);
        }
        let t5 = Instant::now();

        for p in &self.popped {
            self.stats.on_delivered(p, slot);
        }
        let t6 = Instant::now();

        let ts = [t0, t1, t2, t3, t4, t5, t6];
        let totals = &mut self.totals;
        for (ns, w) in totals.ns.iter_mut().zip(ts.windows(2)) {
            *ns += w[1].duration_since(w[0]).as_nanos() as u64;
        }
        let delivered = self.popped.len() as u64;
        self.backlog = self.backlog + arrived - dropped - delivered;
        totals.slots += 1;
        totals.arrivals += arrived;
        totals.pq_drops += dropped;
        totals.backlog_sum += self.backlog;
        totals.request_bits += self.requests.count() as u64;
        totals.matched += delivered;
        self.slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stage loop is the library's slot loop: same stats, same backlog,
    /// across the warm-up/measurement boundary, for the central, the
    /// distributed and the two iterative request/grant/accept schedulers.
    #[test]
    fn stage_loop_matches_iq_switch_step() {
        use SchedulerKind::*;
        for n in [4, 8] {
            for kind in [LcfCentralRr, LcfDistRr, Pim, Islip] {
                for backend in [Backend::Bitset, Backend::Scalar] {
                    let cfg = SimConfig {
                        n,
                        load: 0.95,
                        voq_cap: 8,
                        pq_cap: 16,
                        seed: 7 + n as u64,
                        max_latency_bucket: 512,
                        ..SimConfig::paper_default()
                    };
                    let mut reference = session(&cfg, kind, backend);
                    let mut staged = StageLoop::new(&cfg, kind, backend);
                    reference.step_window(500);
                    reference.begin_measurement();
                    (0..500).for_each(|_| staged.step());
                    staged.begin_measurement();
                    reference.step_window(3_000);
                    (0..3_000).for_each(|_| staged.step());
                    let what = format!("{} n={n} {backend:?}", kind.name());
                    assert!(same_stats(reference.stats(), staged.stats()), "{what}");
                    assert_eq!(
                        reference.buffered_packets(),
                        staged.buffered_packets(),
                        "{what}"
                    );
                    assert!(
                        staged.stats().dropped_pq > 0,
                        "{what}: PQ drops are exercised"
                    );
                    assert_eq!(staged.totals.slots, 3_000);
                }
            }
        }
    }
}
