//! Traffic generation: arrival processes and destination patterns.
//!
//! The paper's Fig. 12 experiment uses Bernoulli arrivals with uniformly
//! distributed destinations ("Load is the probability that a host generates
//! a packet in a given time slot. The destinations of the packets are
//! uniformly distributed."). The additional patterns and the bursty on-off
//! process support the extension experiments (EXT-3, EXT-6).
//!
//! # Generator families and RNG streams
//!
//! Two families produce the same *distributions* from different RNG
//! streams:
//!
//! * **Legacy** ([`Bernoulli`], [`OnOffBursty`]): the original `gen_bool` /
//!   `gen_range` path. These are the [`paper_default`] generators — their
//!   exact RNG streams are frozen by the golden trace fixture and the
//!   determinism-contract tests, so they must never change.
//! * **Fast** ([`FastBernoulli`], [`FastBursty`]): word-granularity kernels
//!   from [`lcf_rng::bulk`] — a fixed-point threshold compare per arrival
//!   decision and precomputed alias/partition tables for destinations. Same
//!   distributions (statistically indistinguishable at any feasible
//!   horizon; quantization is 2⁻³²), different stream, ~4× less RNG work —
//!   and for power-of-two `n` with uniform destinations the gate and the
//!   destination fuse into a single keystream word per `(slot, input)`
//!   (see [`FastBernoulli`]).
//!
//! [`paper_default`]: ../config/struct.SimConfig.html#method.paper_default
//!
//! # RNG draws per `(slot, input)` — legacy family
//!
//! Each `gen_bool` and each `gen_range` consumes one `next_u64` (two
//! keystream words; `gen_range(0..2^k)` also consumes one — the
//! power-of-two mask path). Per generated packet, [`DestPattern::sample`]
//! draws:
//!
//! * `Uniform` / `UniformNonSelf` — 1 draw (`UniformNonSelf` with `n = 1`:
//!   0 draws).
//! * `Hotspot` — 1 draw for the hot/cold decision, plus 1 for the cold
//!   destination; with `n = 1` exactly 1 draw (the hot/cold decision is
//!   skipped — it could only ever return the hot port).
//! * `Diagonal` — 1 draw.
//! * `Permutation` — 0 draws.
//!
//! [`Bernoulli`] draws 1 per `(slot, input)` for the arrival decision plus
//! the pattern draws per packet. [`OnOffBursty`] draws 1 in an OFF slot
//! (burst start?), plus pattern draws and 1 more (burst length ≥ 2?) when a
//! burst starts, and 1 in an ON slot (burst end?).

use lcf_rng::bulk::{AliasTable, Bernoulli32, UniformU32};
use rand::rngs::StdRng;
use rand::Rng;

/// How a newly generated packet picks its destination.
#[derive(Clone, Debug, PartialEq)]
pub enum DestPattern {
    /// Uniform over all `n` outputs — the paper's Fig. 12 workload.
    Uniform,
    /// Uniform over all outputs except the packet's own input (a host does
    /// not send to itself; Sec. 2 mentions this variant).
    UniformNonSelf,
    /// A fraction of the traffic converges on one hot output; the remainder
    /// is uniform over the other outputs.
    Hotspot {
        /// The overloaded output port.
        hot: usize,
        /// Probability that a packet targets the hot output.
        fraction: f64,
    },
    /// Input `i` sends to outputs `i` and `i+1 (mod n)` with probabilities
    /// 2/3 and 1/3 — the classic "diagonal" stress pattern for round-robin
    /// schedulers.
    Diagonal,
    /// Input `i` always sends to `perm[i]` — contention-free if `perm` is a
    /// permutation; useful for calibration tests.
    Permutation(Vec<usize>),
}

impl DestPattern {
    /// Samples a destination for a packet generated at `input`.
    // lint:allow(rng-stream): frozen paper_default contract - Uniform/Permutation draw 1 word, Hotspot 2, Diagonal 1 gate word + 1 word on the off-diagonal branch (see module docs)
    pub fn sample(&self, n: usize, input: usize, rng: &mut StdRng) -> usize {
        match self {
            DestPattern::Uniform => rng.gen_range(0..n),
            DestPattern::UniformNonSelf => {
                if n == 1 {
                    0
                } else {
                    let d = rng.gen_range(0..n - 1);
                    if d >= input {
                        d + 1
                    } else {
                        d
                    }
                }
            }
            DestPattern::Hotspot { hot, fraction } => {
                // `n == 1` is checked first so the degenerate case draws
                // nothing: every packet targets the hot (only) port either
                // way, and consuming a draw would needlessly couple the RNG
                // stream to the hot/cold decision.
                if n == 1 || rng.gen_bool(*fraction) {
                    *hot
                } else {
                    let d = rng.gen_range(0..n - 1);
                    if d >= *hot {
                        d + 1
                    } else {
                        d
                    }
                }
            }
            DestPattern::Diagonal => {
                if rng.gen_bool(2.0 / 3.0) {
                    input % n
                } else {
                    (input + 1) % n
                }
            }
            DestPattern::Permutation(perm) => perm[input],
        }
    }
}

/// An arrival process: per slot and input, possibly one new packet.
pub trait Traffic {
    /// Number of switch ports the process was built for.
    fn n(&self) -> usize;

    /// Destination of the packet generated at `input` in this slot, if one
    /// is generated. Called exactly once per `(slot, input)` pair, inputs in
    /// ascending order.
    fn arrival(&mut self, slot: u64, input: usize, rng: &mut StdRng) -> Option<usize>;

    /// Writes one slot's arrivals for all inputs into `out` (`out[input]`
    /// is the new packet's destination, if any). One virtual call per slot
    /// instead of `n` — the slot loop's batch entry point.
    ///
    /// The default implementation delegates to [`Traffic::arrival`] input
    /// by input, so every legacy generator consumes its RNG stream exactly
    /// as before (the golden-trace contract). Fast generators override
    /// this with a monomorphic loop.
    ///
    /// # Panics
    /// Implementations may assume and assert `out.len() == self.n()`.
    fn arrivals_into(&mut self, slot: u64, rng: &mut StdRng, out: &mut [Option<usize>]) {
        debug_assert_eq!(out.len(), self.n());
        for (input, slot_out) in out.iter_mut().enumerate() {
            *slot_out = self.arrival(slot, input, rng);
        }
    }
}

/// Forwarding impl so a borrowed generator (`&mut dyn Traffic`) can sit in
/// a [`DriveSession`](crate::session::DriveSession) exactly like an owned
/// one. `arrivals_into` forwards explicitly — the fast generators override
/// it, and falling back to the per-input default here would change their
/// RNG stream.
impl<T: Traffic + ?Sized> Traffic for &mut T {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn arrival(&mut self, slot: u64, input: usize, rng: &mut StdRng) -> Option<usize> {
        (**self).arrival(slot, input, rng)
    }

    fn arrivals_into(&mut self, slot: u64, rng: &mut StdRng, out: &mut [Option<usize>]) {
        (**self).arrivals_into(slot, rng, out);
    }
}

/// Forwarding impl so an owned boxed generator (`Box<dyn Traffic>`) can sit
/// in a [`DriveSession`](crate::session::DriveSession) (serve shards own
/// their generators).
impl<T: Traffic + ?Sized> Traffic for Box<T> {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn arrival(&mut self, slot: u64, input: usize, rng: &mut StdRng) -> Option<usize> {
        (**self).arrival(slot, input, rng)
    }

    fn arrivals_into(&mut self, slot: u64, rng: &mut StdRng, out: &mut [Option<usize>]) {
        (**self).arrivals_into(slot, rng, out);
    }
}

/// A generator that never produces a packet. Swapped in by
/// [`DriveSession::drain`](crate::session::DriveSession::drain) so a model
/// can be stepped until its buffers empty: arrivals stop, the RNG stream is
/// untouched (zero draws per slot).
#[derive(Clone, Copy, Debug)]
pub struct Silence {
    n: usize,
}

impl Silence {
    /// Creates a silent generator for an `n`-port switch.
    pub fn new(n: usize) -> Self {
        Silence { n }
    }
}

impl Traffic for Silence {
    fn n(&self) -> usize {
        self.n
    }

    fn arrival(&mut self, _slot: u64, _input: usize, _rng: &mut StdRng) -> Option<usize> {
        None
    }

    fn arrivals_into(&mut self, _slot: u64, _rng: &mut StdRng, out: &mut [Option<usize>]) {
        debug_assert_eq!(out.len(), self.n);
        out.fill(None);
    }
}

/// Independent Bernoulli arrivals of rate `load` per input per slot.
#[derive(Clone, Debug)]
pub struct Bernoulli {
    n: usize,
    load: f64,
    pattern: DestPattern,
}

impl Bernoulli {
    /// Creates the process; `load` is the per-slot generation probability.
    pub fn new(n: usize, load: f64, pattern: DestPattern) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be in [0,1]");
        Bernoulli { n, load, pattern }
    }
}

impl Traffic for Bernoulli {
    fn n(&self) -> usize {
        self.n
    }

    // lint:allow(rng-stream): frozen paper_default contract - 1 gate word per (slot, input), plus the pattern draw only on arrival
    fn arrival(&mut self, _slot: u64, input: usize, rng: &mut StdRng) -> Option<usize> {
        rng.gen_bool(self.load)
            .then(|| self.pattern.sample(self.n, input, rng))
    }
}

/// Bursty on-off arrivals.
///
/// Each input alternates between ON bursts (one packet per slot, all packets
/// of a burst share one destination) and OFF gaps. Burst and gap lengths are
/// geometrically distributed with means `mean_burst` and
/// `mean_burst · (1 − load) / load`, so the long-run offered load equals
/// `load` while packets arrive back-to-back — the workload that punishes
/// schedulers relying on request diversity.
#[derive(Clone, Debug)]
pub struct OnOffBursty {
    n: usize,
    load: f64,
    mean_burst: f64,
    pattern: DestPattern,
    state: Vec<BurstState>,
}

#[derive(Clone, Copy, Debug)]
enum BurstState {
    Off,
    On { dst: usize },
}

impl OnOffBursty {
    /// Creates the process with mean burst length `mean_burst` packets.
    pub fn new(n: usize, load: f64, mean_burst: f64, pattern: DestPattern) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be in [0,1]");
        assert!(mean_burst >= 1.0, "mean burst length must be >= 1");
        OnOffBursty {
            n,
            load,
            mean_burst,
            pattern,
            state: vec![BurstState::Off; n],
        }
    }

    /// Probability of leaving the ON state after each packet.
    fn p_end_burst(&self) -> f64 {
        1.0 / self.mean_burst
    }

    /// Probability of starting a burst in an OFF slot, chosen so the
    /// stationary ON fraction equals `load`.
    fn p_start_burst(&self) -> f64 {
        if self.load >= 1.0 {
            1.0
        } else {
            // mean OFF = mean ON * (1 - load) / load ; P(start) = 1 / mean OFF.
            (self.p_end_burst() * self.load / (1.0 - self.load)).min(1.0)
        }
    }
}

impl Traffic for OnOffBursty {
    fn n(&self) -> usize {
        self.n
    }

    // lint:allow(rng-stream): frozen paper_default contract - 1 state-transition word per (slot, input), plus 1 destination draw when a burst starts (see module docs)
    fn arrival(&mut self, _slot: u64, input: usize, rng: &mut StdRng) -> Option<usize> {
        match self.state[input] {
            BurstState::Off => {
                if rng.gen_bool(self.p_start_burst()) {
                    let dst = self.pattern.sample(self.n, input, rng);
                    // The first packet of the burst arrives this slot.
                    if !rng.gen_bool(self.p_end_burst()) {
                        self.state[input] = BurstState::On { dst };
                    }
                    Some(dst)
                } else {
                    None
                }
            }
            BurstState::On { dst } => {
                if rng.gen_bool(self.p_end_burst()) {
                    self.state[input] = BurstState::Off;
                }
                Some(dst)
            }
        }
    }
}

/// A destination sampler compiled from a [`DestPattern`]: all division and
/// branching hoisted to construction, one or two keystream words per packet.
///
/// The sampled distribution matches [`DestPattern::sample`] exactly (up to
/// the 2⁻³² fixed-point quantization of the bulk kernels); only the RNG
/// stream differs.
#[derive(Clone, Debug)]
enum FastDest {
    /// Uniform over `0..n`: one bounded draw.
    Uniform(UniformU32),
    /// Uniform over `0..n-1`, shifted past the excluded port when the
    /// excluded port is below the draw. `None` bound means `n == 1`.
    NonSelf(Option<UniformU32>),
    /// Hot port with the configured fraction, uniform elsewhere — one alias
    /// table draw (two words).
    Hotspot(AliasTable),
    /// `input` with probability 2/3 else `input + 1 (mod n)`: one
    /// fixed-point threshold word.
    Diagonal(Bernoulli32),
    /// Fixed map, zero words.
    Permutation(Vec<usize>),
}

impl FastDest {
    fn compile(n: usize, pattern: &DestPattern) -> Self {
        match pattern {
            // lint:allow(truncating-cast): port counts fit u32 by construction
            DestPattern::Uniform => FastDest::Uniform(UniformU32::new(n as u32)),
            DestPattern::UniformNonSelf => FastDest::NonSelf(if n == 1 {
                None
            } else {
                // lint:allow(truncating-cast): port counts fit u32 by construction
                Some(UniformU32::new(n as u32 - 1))
            }),
            DestPattern::Hotspot { hot, fraction } => {
                assert!(*hot < n, "hot port out of range");
                assert!(
                    (0.0..=1.0).contains(fraction),
                    "hotspot fraction must be in [0,1]"
                );
                // Same distribution as the legacy two-stage draw: `fraction`
                // on the hot port, the remainder uniform over the others.
                let mut weights = vec![
                    if n == 1 {
                        0.0
                    } else {
                        (1.0 - fraction) / (n - 1) as f64
                    };
                    n
                ];
                weights[*hot] = if n == 1 { 1.0 } else { *fraction };
                FastDest::Hotspot(AliasTable::new(&weights))
            }
            DestPattern::Diagonal => FastDest::Diagonal(Bernoulli32::new(2.0 / 3.0)),
            DestPattern::Permutation(perm) => FastDest::Permutation(perm.clone()),
        }
    }

    #[inline]
    // lint:allow(rng-stream): mirrors DestPattern::sample word-for-word - Uniform/Permutation 1 word plus Lemire rejections, Hotspot 2, Diagonal 1+1 (equivalence enforced by tests)
    fn sample(&self, n: usize, input: usize, rng: &mut StdRng) -> usize {
        match self {
            FastDest::Uniform(u) => u.sample(|| rng.next_u32()) as usize,
            FastDest::NonSelf(u) => match u {
                None => 0,
                Some(u) => {
                    let d = u.sample(|| rng.next_u32()) as usize;
                    if d >= input {
                        d + 1
                    } else {
                        d
                    }
                }
            },
            FastDest::Hotspot(t) => t.sample(|| rng.next_u32()),
            FastDest::Diagonal(b) => {
                if b.hit(rng.next_u32()) {
                    input % n
                } else {
                    (input + 1) % n
                }
            }
            FastDest::Permutation(perm) => perm[input],
        }
    }
}

/// Independent Bernoulli arrivals via the word-granularity fast path: the
/// same arrival and destination distributions as [`Bernoulli`], a different
/// (still deterministic, seed-reproducible) RNG stream.
///
/// Per `(slot, input)`: one keystream word for the arrival decision, plus
/// the `FastDest` words per generated packet — about a quarter of the
/// legacy path's RNG traffic at high load, with no f64 arithmetic or
/// division anywhere. For power-of-two `n` with uniform destinations (the
/// paper's Fig. 12 workload) the gate and the destination fuse into a
/// *single* word per `(slot, input)`: the gate threshold is rounded to the
/// nearest multiple of `n`, so the accepted words `[0, threshold)` contain
/// `threshold / n` complete runs of every low-bit pattern — the low
/// `log2(n)` bits of an accepted word are exactly uniform over `0..n` and
/// independent of the gate decision. Rounding moves the load by at most
/// `n·2⁻³³` (< 4·10⁻⁹ at n = 32), far below sampling noise at any feasible
/// horizon.
#[derive(Clone, Debug)]
pub struct FastBernoulli {
    n: usize,
    kernel: FastArrival,
}

/// The compiled per-input arrival kernel of [`FastBernoulli`].
#[derive(Clone, Debug)]
enum FastArrival {
    /// One gate word, plus destination words per generated packet.
    Split { gate: Bernoulli32, dest: FastDest },
    /// One word total: `word < threshold` gates the arrival and
    /// `word & mask` is the destination (`threshold` is a multiple of
    /// `mask + 1`, which keeps both distributions exact — see the type
    /// docs). `always` covers load 1.0, where every word is accepted and
    /// the low bits are trivially uniform.
    FusedUniform {
        threshold: u32,
        always: bool,
        mask: u32,
    },
}

impl FastBernoulli {
    /// Creates the process; `load` is the per-slot generation probability.
    pub fn new(n: usize, load: f64, pattern: DestPattern) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be in [0,1]");
        let gate = Bernoulli32::new(load);
        let kernel = if n.is_power_of_two() && pattern == DestPattern::Uniform {
            let n64 = n as u64;
            // Nearest multiple of n; clamp below 2³² (the u32 compare must
            // stay meaningful — `always` alone covers load 1.0).
            let rounded = ((gate.threshold() as u64 + n64 / 2) / n64 * n64).min((1 << 32) - n64);
            FastArrival::FusedUniform {
                // lint:allow(truncating-cast): clamped below 2^32 above
                threshold: rounded as u32,
                always: gate.is_always(),
                // lint:allow(truncating-cast): port counts fit u32 by construction
                mask: n as u32 - 1,
            }
        } else {
            FastArrival::Split {
                gate,
                dest: FastDest::compile(n, &pattern),
            }
        };
        FastBernoulli { n, kernel }
    }
}

impl Traffic for FastBernoulli {
    fn n(&self) -> usize {
        self.n
    }

    // lint:allow(rng-stream): documented fast-kernel contract - Split draws 1 gate word plus dest words on arrival; Fused draws exactly 1 word per (slot, input)
    fn arrival(&mut self, _slot: u64, input: usize, rng: &mut StdRng) -> Option<usize> {
        match &self.kernel {
            FastArrival::Split { gate, dest } => gate
                .hit(rng.next_u32())
                .then(|| dest.sample(self.n, input, rng)),
            FastArrival::FusedUniform {
                threshold,
                always,
                mask,
            } => {
                let w = rng.next_u32();
                (*always || w < *threshold).then(|| (w & mask) as usize)
            }
        }
    }

    // lint:allow(rng-stream): documented fast-kernel contract - same per-input word counts as arrival, batched over all n inputs in input order
    fn arrivals_into(&mut self, _slot: u64, rng: &mut StdRng, out: &mut [Option<usize>]) {
        assert_eq!(out.len(), self.n);
        match &self.kernel {
            FastArrival::Split { gate, dest } => {
                for (input, slot_out) in out.iter_mut().enumerate() {
                    *slot_out = gate
                        .hit(rng.next_u32())
                        .then(|| dest.sample(self.n, input, rng));
                }
            }
            FastArrival::FusedUniform {
                threshold,
                always,
                mask,
            } => {
                for slot_out in out.iter_mut() {
                    let w = rng.next_u32();
                    *slot_out = (*always || w < *threshold).then(|| (w & mask) as usize);
                }
            }
        }
    }
}

/// Bursty on-off arrivals via the word-granularity fast path: the same
/// burst/gap process as [`OnOffBursty`] (geometric burst and gap lengths,
/// long-run load `load`), a different RNG stream.
#[derive(Clone, Debug)]
pub struct FastBursty {
    n: usize,
    start: Bernoulli32,
    end: Bernoulli32,
    dest: FastDest,
    state: Vec<BurstState>,
}

impl FastBursty {
    /// Creates the process with mean burst length `mean_burst` packets.
    pub fn new(n: usize, load: f64, mean_burst: f64, pattern: DestPattern) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be in [0,1]");
        assert!(mean_burst >= 1.0, "mean burst length must be >= 1");
        let p_end = 1.0 / mean_burst;
        let p_start = if load >= 1.0 {
            1.0
        } else {
            (p_end * load / (1.0 - load)).min(1.0)
        };
        FastBursty {
            n,
            start: Bernoulli32::new(p_start),
            end: Bernoulli32::new(p_end),
            dest: FastDest::compile(n, &pattern),
            state: vec![BurstState::Off; n],
        }
    }
}

impl Traffic for FastBursty {
    fn n(&self) -> usize {
        self.n
    }

    // lint:allow(rng-stream): documented fast-kernel contract - 1 state word per (slot, input), plus dest words only when a burst starts
    fn arrival(&mut self, _slot: u64, input: usize, rng: &mut StdRng) -> Option<usize> {
        match self.state[input] {
            BurstState::Off => {
                if self.start.hit(rng.next_u32()) {
                    let dst = self.dest.sample(self.n, input, rng);
                    if !self.end.hit(rng.next_u32()) {
                        self.state[input] = BurstState::On { dst };
                    }
                    Some(dst)
                } else {
                    None
                }
            }
            BurstState::On { dst } => {
                if self.end.hit(rng.next_u32()) {
                    self.state[input] = BurstState::Off;
                }
                Some(dst)
            }
        }
    }

    fn arrivals_into(&mut self, slot: u64, rng: &mut StdRng, out: &mut [Option<usize>]) {
        assert_eq!(out.len(), self.n);
        for (input, slot_out) in out.iter_mut().enumerate() {
            *slot_out = self.arrival(slot, input, rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xBEEF)
    }

    #[test]
    fn uniform_covers_all_outputs() {
        let mut r = rng();
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[DestPattern::Uniform.sample(8, 0, &mut r)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn non_self_never_hits_own_port() {
        let mut r = rng();
        for input in 0..8 {
            for _ in 0..200 {
                assert_ne!(DestPattern::UniformNonSelf.sample(8, input, &mut r), input);
            }
        }
    }

    #[test]
    fn non_self_single_port_degenerates() {
        let mut r = rng();
        assert_eq!(DestPattern::UniformNonSelf.sample(1, 0, &mut r), 0);
    }

    #[test]
    fn hotspot_fraction_respected() {
        let mut r = rng();
        let pat = DestPattern::Hotspot {
            hot: 3,
            fraction: 0.5,
        };
        let hits = (0..4000).filter(|_| pat.sample(8, 0, &mut r) == 3).count();
        // 0.5 direct + 0 residual (3 excluded from the uniform remainder).
        let frac = hits as f64 / 4000.0;
        assert!((0.45..0.55).contains(&frac), "hot fraction was {frac}");
    }

    #[test]
    fn diagonal_only_two_destinations() {
        let mut r = rng();
        for _ in 0..500 {
            let d = DestPattern::Diagonal.sample(8, 5, &mut r);
            assert!(d == 5 || d == 6);
        }
    }

    #[test]
    fn permutation_is_deterministic() {
        let mut r = rng();
        let pat = DestPattern::Permutation(vec![2, 0, 3, 1]);
        assert_eq!(pat.sample(4, 0, &mut r), 2);
        assert_eq!(pat.sample(4, 3, &mut r), 1);
    }

    #[test]
    fn bernoulli_load_zero_and_one() {
        let mut r = rng();
        let mut none = Bernoulli::new(4, 0.0, DestPattern::Uniform);
        let mut all = Bernoulli::new(4, 1.0, DestPattern::Uniform);
        for slot in 0..100 {
            assert!(none.arrival(slot, 0, &mut r).is_none());
            assert!(all.arrival(slot, 0, &mut r).is_some());
        }
    }

    #[test]
    fn bernoulli_rate_approximates_load() {
        let mut r = rng();
        let mut t = Bernoulli::new(4, 0.3, DestPattern::Uniform);
        let arrivals = (0..20_000)
            .filter(|&slot| t.arrival(slot, 1, &mut r).is_some())
            .count();
        let rate = arrivals as f64 / 20_000.0;
        assert!((0.28..0.32).contains(&rate), "rate was {rate}");
    }

    #[test]
    fn bursty_rate_approximates_load() {
        let mut r = rng();
        let mut t = OnOffBursty::new(4, 0.4, 8.0, DestPattern::Uniform);
        let arrivals = (0..100_000)
            .filter(|&slot| t.arrival(slot, 0, &mut r).is_some())
            .count();
        let rate = arrivals as f64 / 100_000.0;
        assert!((0.36..0.44).contains(&rate), "rate was {rate}");
    }

    #[test]
    fn bursty_packets_share_destination_within_burst() {
        let mut r = rng();
        let mut t = OnOffBursty::new(8, 0.5, 16.0, DestPattern::Uniform);
        // Consecutive arrivals overwhelmingly share a destination (a burst
        // boundary without an OFF gap is possible but rare), and long runs
        // of same-destination arrivals must exist.
        let mut last: Option<usize> = None;
        let (mut pairs, mut same) = (0u32, 0u32);
        let mut run_len = 0;
        let mut max_run = 0;
        for slot in 0..50_000 {
            match t.arrival(slot, 0, &mut r) {
                Some(d) => {
                    if let Some(prev) = last {
                        pairs += 1;
                        if prev == d {
                            same += 1;
                            run_len += 1;
                        } else {
                            run_len = 1;
                        }
                    } else {
                        run_len = 1;
                    }
                    max_run = max_run.max(run_len);
                    last = Some(d);
                }
                None => {
                    last = None;
                    run_len = 0;
                }
            }
        }
        assert!(max_run >= 8, "no bursts observed (max run {max_run})");
        let frac = same as f64 / pairs as f64;
        assert!(frac > 0.8, "consecutive arrivals rarely correlated: {frac}");
    }

    #[test]
    #[should_panic(expected = "load must be in [0,1]")]
    fn invalid_load_panics() {
        let _ = Bernoulli::new(4, 1.5, DestPattern::Uniform);
    }

    #[test]
    fn hotspot_single_port_draws_nothing() {
        // The degenerate n == 1 case must not consume a draw: two RNGs, one
        // used for a sample, must stay stream-identical.
        let mut a = rng();
        let mut b = rng();
        let pat = DestPattern::Hotspot {
            hot: 0,
            fraction: 0.5,
        };
        assert_eq!(pat.sample(1, 0, &mut a), 0);
        assert_eq!(a, b, "degenerate hotspot consumed an RNG draw");
        let _ = b.next_u32();
        assert_ne!(a, b);
    }

    #[test]
    fn default_arrivals_into_matches_per_input_calls() {
        // The batch entry point must consume the RNG stream exactly like n
        // per-input calls, or the golden trace would silently shift.
        let mut batch_rng = rng();
        let mut single_rng = rng();
        let mut batch_gen = Bernoulli::new(8, 0.7, DestPattern::Uniform);
        let mut single_gen = batch_gen.clone();
        let mut batch = [None; 8];
        for slot in 0..200 {
            batch_gen.arrivals_into(slot, &mut batch_rng, &mut batch);
            for (input, &got) in batch.iter().enumerate() {
                assert_eq!(got, single_gen.arrival(slot, input, &mut single_rng));
            }
        }
        assert_eq!(batch_rng, single_rng);
    }

    #[test]
    fn fast_bernoulli_rate_across_loads() {
        for load in [0.01, 0.5, 0.99, 0.995] {
            let mut r = rng();
            let mut t = FastBernoulli::new(4, load, DestPattern::Uniform);
            let slots = 100_000u64;
            let hits = (0..slots)
                .filter(|&slot| t.arrival(slot, 1, &mut r).is_some())
                .count() as f64;
            let rate = hits / slots as f64;
            let sigma = (load * (1.0 - load) / slots as f64).sqrt();
            assert!(
                (rate - load).abs() < 6.0 * sigma + 1e-9,
                "load {load}: rate {rate}"
            );
        }
    }

    #[test]
    fn fast_dest_patterns_match_legacy_distributions() {
        let n = 8;
        let draws = 40_000u64;
        // Hotspot: the hot port's rate must equal the configured fraction.
        let mut r = rng();
        let mut t = FastBernoulli::new(
            n,
            1.0,
            DestPattern::Hotspot {
                hot: 3,
                fraction: 0.5,
            },
        );
        let hot_hits = (0..draws)
            .filter(|&s| t.arrival(s, 0, &mut r) == Some(3))
            .count() as f64;
        let frac = hot_hits / draws as f64;
        assert!((0.48..0.52).contains(&frac), "hot fraction was {frac}");

        // NonSelf never targets the input's own port.
        let mut t = FastBernoulli::new(n, 1.0, DestPattern::UniformNonSelf);
        for input in 0..n {
            for slot in 0..200 {
                assert_ne!(t.arrival(slot, input, &mut r), Some(input));
            }
        }

        // Diagonal: only i and i+1, with the 2/3 : 1/3 split.
        let mut t = FastBernoulli::new(n, 1.0, DestPattern::Diagonal);
        let mut on_diag = 0u64;
        for slot in 0..draws {
            let d = t.arrival(slot, 5, &mut r).unwrap();
            assert!(d == 5 || d == 6);
            if d == 5 {
                on_diag += 1;
            }
        }
        let frac = on_diag as f64 / draws as f64;
        assert!((0.65..0.69).contains(&frac), "diagonal split was {frac}");

        // Permutation: deterministic, no RNG consumption for the destination.
        let mut t = FastBernoulli::new(4, 1.0, DestPattern::Permutation(vec![2, 0, 3, 1]));
        assert_eq!(t.arrival(0, 0, &mut r), Some(2));
        assert_eq!(t.arrival(0, 3, &mut r), Some(1));

        // Uniform covers every output.
        let mut t = FastBernoulli::new(n, 1.0, DestPattern::Uniform);
        let mut seen = [false; 8];
        for slot in 0..2000 {
            seen[t.arrival(slot, 0, &mut r).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fast_bursty_rate_and_burst_structure() {
        let mut r = rng();
        let mut t = FastBursty::new(4, 0.4, 8.0, DestPattern::Uniform);
        let slots = 100_000u64;
        let mut arrivals = 0u64;
        let (mut pairs, mut same) = (0u64, 0u64);
        let mut last: Option<usize> = None;
        for slot in 0..slots {
            match t.arrival(slot, 0, &mut r) {
                Some(d) => {
                    arrivals += 1;
                    if let Some(prev) = last {
                        pairs += 1;
                        if prev == d {
                            same += 1;
                        }
                    }
                    last = Some(d);
                }
                None => last = None,
            }
        }
        let rate = arrivals as f64 / slots as f64;
        assert!((0.36..0.44).contains(&rate), "rate was {rate}");
        let frac = same as f64 / pairs as f64;
        assert!(frac > 0.8, "bursts not correlated: {frac}");
    }

    #[test]
    fn fused_uniform_rate_and_destination_uniformity() {
        // Power-of-two n + Uniform takes the fused single-word kernel; the
        // arrival rate and the conditional destination distribution must
        // both survive the threshold rounding.
        let n = 32usize;
        let load = 0.99;
        let mut r = rng();
        let mut t = FastBernoulli::new(n, load, DestPattern::Uniform);
        let mut out = vec![None; n];
        let slots = 50_000u64;
        let mut counts = vec![0u64; n];
        let mut arrivals = 0u64;
        for slot in 0..slots {
            t.arrivals_into(slot, &mut r, &mut out);
            for d in out.iter().flatten() {
                counts[*d] += 1;
                arrivals += 1;
            }
        }
        let draws = slots * n as u64;
        let rate = arrivals as f64 / draws as f64;
        let sigma = (load * (1.0 - load) / draws as f64).sqrt();
        assert!((rate - load).abs() < 6.0 * sigma, "rate was {rate}");
        // Each destination expects arrivals/n; allow 6σ of binomial noise.
        let expect = arrivals as f64 / n as f64;
        let dest_sigma = (arrivals as f64 * (1.0 / n as f64) * (1.0 - 1.0 / n as f64)).sqrt();
        for (d, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * dest_sigma,
                "dest {d}: {c} vs expected {expect:.0}"
            );
        }
    }

    #[test]
    fn fused_uniform_consumes_one_word_per_input() {
        // The whole point of the fusion: exactly n keystream words per slot,
        // regardless of how many arrivals the slot produces.
        let n = 16usize;
        let mut a = rng();
        let mut b = rng();
        let mut t = FastBernoulli::new(n, 0.99, DestPattern::Uniform);
        let mut out = vec![None; n];
        for slot in 0..100 {
            t.arrivals_into(slot, &mut a, &mut out);
            for _ in 0..n {
                let _ = b.next_u32();
            }
            assert_eq!(a, b, "word count diverged at slot {slot}");
        }
    }

    #[test]
    fn non_power_of_two_uniform_takes_the_split_path() {
        // n = 12 cannot fuse; the split kernel must still realize the load.
        let mut r = rng();
        let mut t = FastBernoulli::new(12, 0.9, DestPattern::Uniform);
        let slots = 50_000u64;
        let hits = (0..slots)
            .filter(|&slot| t.arrival(slot, 3, &mut r).is_some())
            .count() as f64;
        let rate = hits / slots as f64;
        let sigma = (0.9 * 0.1 / slots as f64).sqrt();
        assert!((rate - 0.9).abs() < 6.0 * sigma, "rate was {rate}");
        let mut seen = [false; 12];
        for slot in 0..4000 {
            if let Some(d) = t.arrival(slot, 3, &mut r) {
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "split uniform missed an output");
    }

    #[test]
    fn fast_generators_are_deterministic() {
        let run = || {
            let mut r = StdRng::seed_from_u64(0xFA57);
            let mut t = FastBernoulli::new(8, 0.9, DestPattern::Uniform);
            let mut out = [None; 8];
            let mut acc = Vec::new();
            for slot in 0..500 {
                t.arrivals_into(slot, &mut r, &mut out);
                acc.extend_from_slice(&out);
            }
            acc
        };
        assert_eq!(run(), run());
    }
}
