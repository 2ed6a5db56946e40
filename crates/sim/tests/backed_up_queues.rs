//! The slot loop's regime of backed-up queues, pinned per scheduler.
//!
//! An arrival whose packet queue (PQ) is empty and whose VOQ has room goes
//! straight into the VOQ; every other arrival waits in its PQ and spills
//! head-first as VOQ space frees. The two paths must give exactly the
//! schedule of the plain two-hop model (every arrival through the PQ):
//! same request bits, same deliveries, same drops.
//!
//! At n = 8 with 2-packet VOQs, 4-packet PQs and every input loaded each
//! slot, PQs back up and VOQs fill, so both paths run. Each run is checked
//! slot by slot against a two-hop mirror model driven by the switch's own
//! matchings, and the whole run is folded into a fingerprint:
//! every delivery `(slot, input, output, generated_at)` plus the
//! `dropped_pq` / `dropped_queue` counters. The expected fingerprints were
//! computed from the two-hop slot loop, before the direct path existed.

use lcf_core::registry::{SchedulerKind, WeightedKind};
use lcf_sim::stats::SimStats;
use lcf_sim::switch::{IqSwitch, QueueMode, WeightSource};
use lcf_sim::traffic::{Bernoulli, DestPattern, Traffic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

const N: usize = 8;
const VOQ_CAP: usize = 2;
const PQ_CAP: usize = 4;
const SLOTS: u64 = 3_000;

/// `(scheduler, fingerprint, dropped_pq)` for every VOQ-mode scheduler.
const EXPECTED: [(&str, u64, u64); 13] = [
    ("lcf_central", 0x29cdc5de7c88ee86, 2445),
    ("lcf_central_rr", 0xcc336d6ec5a40c00, 2786),
    ("lcf_dist_rr", 0x429032936aaeed91, 2337),
    ("lcf_dist", 0x457347212132f38e, 2280),
    ("pim", 0x3b188d76885eebcc, 3837),
    ("islip", 0xdb9e9d7587a4f99d, 3808),
    ("wfront", 0x8df9ce5f0e3f75e1, 4018),
    ("maxsize", 0x32ca33fe3c52519a, 2824),
    ("mwm", 0x894af4bd3432c021, 2567),
    ("lqf", 0xcff54c0437eeb134, 2425),
    ("ocf", 0xd161bd5518977fee, 3358),
    ("nwgreedy", 0x939e8206d15dfa57, 3305),
    ("mwm_weighted", 0x2f5c20795db15830, 1956),
];

/// Forwards a generator and keeps the arrivals of the last slot.
struct Recording {
    inner: Bernoulli,
    last: Vec<Option<usize>>,
}

impl Traffic for Recording {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn arrival(&mut self, slot: u64, input: usize, rng: &mut StdRng) -> Option<usize> {
        let dst = self.inner.arrival(slot, input, rng);
        self.last[input] = dst;
        dst
    }

    fn arrivals_into(&mut self, slot: u64, rng: &mut StdRng, out: &mut [Option<usize>]) {
        self.inner.arrivals_into(slot, rng, out);
        self.last.copy_from_slice(out);
    }
}

/// The two-hop queueing model: every arrival enters its PQ (or is dropped
/// when the PQ is full), then each PQ spills head-first while the head's
/// VOQ has room.
struct Mirror {
    pq: Vec<VecDeque<(usize, u64)>>,
    voq: Vec<Vec<VecDeque<u64>>>,
    dropped_pq: u64,
    /// Arrivals that found an empty PQ and room in their VOQ.
    direct: u64,
    /// Arrivals that found a non-empty PQ or a full VOQ.
    queued: u64,
}

impl Mirror {
    fn new() -> Self {
        Mirror {
            pq: vec![VecDeque::new(); N],
            voq: vec![vec![VecDeque::new(); N]; N],
            dropped_pq: 0,
            direct: 0,
            queued: 0,
        }
    }

    fn arrive(&mut self, slot: u64, arrivals: &[Option<usize>]) {
        for (i, dst) in arrivals.iter().enumerate() {
            let Some(dst) = *dst else { continue };
            if self.pq[i].is_empty() && self.voq[i][dst].len() < VOQ_CAP {
                self.direct += 1;
            } else {
                self.queued += 1;
            }
            if self.pq[i].len() < PQ_CAP {
                self.pq[i].push_back((dst, slot));
            } else {
                self.dropped_pq += 1;
            }
        }
        for (pq, voqs) in self.pq.iter_mut().zip(&mut self.voq) {
            while let Some(&(dst, generated_at)) = pq.front() {
                if voqs[dst].len() == VOQ_CAP {
                    break;
                }
                voqs[dst].push_back(generated_at);
                pq.pop_front();
            }
        }
    }
}

fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Runs `sw` for [`SLOTS`] slots at full uniform load against the mirror
/// and returns `(fingerprint, dropped_pq)`.
fn run(name: &str, mut sw: IqSwitch) -> (u64, u64) {
    let mut traffic = Recording {
        inner: Bernoulli::new(N, 1.0, DestPattern::Uniform),
        last: vec![None; N],
    };
    let mut rng = StdRng::seed_from_u64(0xB0A7);
    let mut stats = SimStats::new(N, 0, 64);
    let mut mirror = Mirror::new();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for slot in 0..SLOTS {
        let (delivered, latency_sum) = (stats.delivered, stats.latency_sum());
        let matching = sw.step(slot, &mut traffic, &mut rng, &mut stats);
        mirror.arrive(slot, &traffic.last);
        let mut delays = 0;
        for (i, j) in matching.pairs() {
            let generated_at = mirror.voq[i][j]
                .pop_front()
                .unwrap_or_else(|| panic!("{name}: slot {slot} served empty VOQ ({i}, {j})"));
            delays += slot - generated_at;
            for x in [slot, i as u64, j as u64, generated_at] {
                h = fold(h, x);
            }
        }
        assert_eq!(
            stats.dropped_pq, mirror.dropped_pq,
            "{name}: slot {slot}: PQ drops differ from the two-hop model"
        );
        assert_eq!(
            stats.delivered - delivered,
            matching.size() as u64,
            "{name}: slot {slot}"
        );
        assert_eq!(
            stats.latency_sum() - latency_sum,
            delays,
            "{name}: slot {slot}: delays differ from the two-hop model"
        );
    }
    assert!(
        mirror.direct > 0 && mirror.queued > 0 && mirror.dropped_pq > 0,
        "{name}: the run must take both arrival paths and drop at the PQ \
         (direct {}, queued {}, dropped {})",
        mirror.direct,
        mirror.queued,
        mirror.dropped_pq
    );
    h = fold(h, stats.dropped_pq);
    h = fold(h, stats.dropped_queue);
    (h, stats.dropped_pq)
}

fn boolean_switch(kind: SchedulerKind) -> IqSwitch {
    IqSwitch::new(
        N,
        kind.build(N, 4, 3),
        QueueMode::Voq { cap: VOQ_CAP },
        PQ_CAP,
    )
}

fn weighted_switch(kind: WeightedKind) -> IqSwitch {
    let source = if kind.age_weighted() {
        WeightSource::HolAge
    } else {
        WeightSource::QueueLength
    };
    IqSwitch::new_weighted(N, kind.build(N), source, VOQ_CAP, PQ_CAP)
}

#[test]
fn backed_up_queues_match_the_two_hop_model_for_every_voq_scheduler() {
    let boolean = SchedulerKind::ALL
        .into_iter()
        .filter(|k| !k.wants_fifo_queues())
        .map(|kind| (kind.name(), boolean_switch(kind)));
    // The weighted `mwm` shares its name with the boolean reference.
    let weighted = WeightedKind::ALL.into_iter().map(|kind| match kind {
        WeightedKind::Mwm => ("mwm_weighted", weighted_switch(kind)),
        _ => (kind.name(), weighted_switch(kind)),
    });
    let got: Vec<(&str, u64, u64)> = boolean
        .chain(weighted)
        .map(|(name, sw)| {
            let (h, dropped) = run(name, sw);
            (name, h, dropped)
        })
        .collect();
    assert_eq!(
        got,
        EXPECTED,
        "per-scheduler fingerprints moved:\n{}",
        got.iter()
            .map(|(name, h, dropped)| format!("    (\"{name}\", {h:#018x}, {dropped}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
