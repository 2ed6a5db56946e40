//! PIM — Parallel Iterative Matching (Anderson, Owicki, Saxe, Thacker).
//!
//! The baseline the distributed LCF scheduler is derived from: the same
//! request/grant/accept iteration structure, but grants and accepts are
//! chosen *uniformly at random* instead of by least-choice priority.

use crate::bitkern::{self, Backend};
use crate::iterative::{IterEngine, IterRule, IterationTrace};
use crate::matching::Matching;
use crate::request::RequestMatrix;
use crate::traits::Scheduler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Parallel Iterative Matcher.
///
/// Each iteration:
/// 1. every unmatched input requests all unmatched outputs it has cells for;
/// 2. every unmatched output grants one request uniformly at random;
/// 3. every unmatched input accepts one grant uniformly at random.
///
/// Converges to a maximal matching in `O(log n)` iterations with high
/// probability; the paper (and ours) runs it with a fixed budget of 4.
#[derive(Clone, Debug)]
pub struct Pim {
    n: usize,
    iterations: usize,
    backend: Backend,
    rng: StdRng,
    seed: u64,
    // Scalar-kernel scratch, reused across slots.
    grant_of_target: Vec<Option<usize>>,
    candidates: Vec<usize>,
    engine: IterEngine,
}

/// PIM's selection rule on the word kernel: a popcount plus a k-th-set-bit
/// select. The engine visits ports in the scalar kernel's ascending order
/// and the `gen_range` bounds equal the scalar candidate-list lengths, so
/// both backends consume the RNG stream identically.
struct Uniform<'a>(&'a mut StdRng);

impl Uniform<'_> {
    fn pick(&mut self, mask: &[u64]) -> Option<usize> {
        let count = bitkern::popcount(mask);
        (count > 0).then(|| bitkern::kth_set_bit(mask, self.0.gen_range(0..count)))
    }
}

impl IterRule for Uniform<'_> {
    fn grant(&mut self, _j: usize, cand: &[u64]) -> Option<usize> {
        self.pick(cand)
    }

    fn accept(&mut self, _i: usize, grants: &[u64]) -> Option<usize> {
        self.pick(grants)
    }
}

impl Pim {
    /// Creates a PIM scheduler with the given iteration budget and RNG seed.
    pub fn new(n: usize, iterations: usize, seed: u64) -> Self {
        assert!(n > 0, "scheduler requires n > 0");
        assert!(iterations > 0, "at least one iteration required");
        Pim {
            n,
            iterations,
            backend: Backend::default(),
            rng: StdRng::seed_from_u64(seed),
            seed,
            grant_of_target: vec![None; n],
            candidates: Vec::with_capacity(n),
            engine: IterEngine::new(n),
        }
    }

    /// Selects the matching-kernel implementation (builder style). Both
    /// backends consume the RNG identically and produce bit-identical
    /// matchings; see [`Backend`].
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The configured kernel backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The configured iteration budget.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Convergence record of the most recent `schedule` call (same shape
    /// as [`DistributedLcf::last_trace`](crate::lcf::DistributedLcf::last_trace)).
    pub fn last_trace(&self) -> &IterationTrace {
        &self.engine.trace
    }
}

impl Scheduler for Pim {
    fn name(&self) -> &'static str {
        "pim"
    }

    fn num_ports(&self) -> usize {
        self.n
    }

    fn schedule_into(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        assert_eq!(requests.n(), self.n, "request matrix size mismatch");
        if self.backend.word_parallel() {
            let rule = &mut Uniform(&mut self.rng);
            self.engine.run(rule, requests, out, self.iterations, None);
        } else {
            self.schedule_scalar(requests, out);
        }
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.engine.set_tracing(enabled);
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(lcf_telemetry::Event)) {
        self.engine.trace.drain_into(sink);
    }
}

impl Pim {
    /// The scalar reference kernel: candidate lists gathered per port.
    fn schedule_scalar(&mut self, requests: &RequestMatrix, matching: &mut Matching) {
        let n = self.n;
        self.engine.begin_cycle(matching, None);

        for iter in 0..self.iterations {
            self.engine.log_requests(requests, matching);
            // Grant: each unmatched output picks uniformly among the
            // unmatched inputs requesting it.
            for j in 0..n {
                self.grant_of_target[j] = None;
                if matching.output_matched(j) {
                    continue;
                }
                self.candidates.clear();
                self.candidates
                    .extend(requests.col_ones(j).filter(|&i| !matching.input_matched(i)));
                if !self.candidates.is_empty() {
                    let i = self.candidates[self.rng.gen_range(0..self.candidates.len())];
                    self.grant_of_target[j] = Some(i);
                    self.engine.log_grant(i, j);
                }
            }

            // Accept: each input holding grants picks uniformly among them.
            let mut new_matches = 0;
            for i in 0..n {
                if matching.input_matched(i) {
                    continue;
                }
                self.candidates.clear();
                self.candidates
                    .extend((0..n).filter(|&j| self.grant_of_target[j] == Some(i)));
                if !self.candidates.is_empty() {
                    let j = self.candidates[self.rng.gen_range(0..self.candidates.len())];
                    matching.connect(i, j);
                    new_matches += 1;
                    self.engine.log_accept(i, j);
                }
            }
            if self.engine.end_iteration(iter, new_matches) {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_requests() {
        let mut pim = Pim::new(4, 4, 1);
        assert_eq!(pim.schedule(&RequestMatrix::new(4)).size(), 0);
    }

    #[test]
    fn single_request_granted() {
        let mut pim = Pim::new(4, 4, 1);
        let requests = RequestMatrix::from_pairs(4, [(1, 2)]);
        let m = pim.schedule(&requests);
        assert_eq!(m.output_for(1), Some(2));
    }

    #[test]
    fn full_requests_saturate() {
        // With n iterations PIM reaches a maximal matching; on the full
        // matrix a maximal matching is perfect.
        let mut pim = Pim::new(8, 8, 42);
        for _ in 0..20 {
            assert_eq!(pim.schedule(&RequestMatrix::full(8)).size(), 8);
        }
    }

    #[test]
    fn matchings_always_valid() {
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(99);
        let mut pim = Pim::new(16, 4, 7);
        for _ in 0..200 {
            let requests = RequestMatrix::random(16, 0.3, &mut rng);
            let m = pim.schedule(&requests);
            assert!(m.is_valid_for(&requests));
        }
    }

    #[test]
    fn maximal_with_n_iterations() {
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(3);
        let mut pim = Pim::new(12, 12, 5);
        for _ in 0..100 {
            let requests = RequestMatrix::random(12, 0.4, &mut rng);
            let m = pim.schedule(&requests);
            assert!(m.is_maximal_for(&requests));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let requests = RequestMatrix::full(8);
        let mut a = Pim::new(8, 4, 1234);
        let mut b = Pim::new(8, 4, 1234);
        for _ in 0..10 {
            assert_eq!(
                a.schedule(&requests).pairs().collect::<Vec<_>>(),
                b.schedule(&requests).pairs().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn reset_reseeds() {
        let requests = RequestMatrix::full(8);
        let mut pim = Pim::new(8, 4, 77);
        let first: Vec<_> = pim.schedule(&requests).pairs().collect();
        pim.schedule(&requests);
        pim.reset();
        let again: Vec<_> = pim.schedule(&requests).pairs().collect();
        assert_eq!(first, again);
    }

    #[test]
    fn randomness_varies_across_slots() {
        // On the full matrix PIM should not produce the same permutation
        // every slot (that's the whole point of the coin flips).
        let requests = RequestMatrix::full(8);
        let mut pim = Pim::new(8, 4, 2);
        let first: Vec<_> = pim.schedule(&requests).pairs().collect();
        let distinct =
            (0..20).any(|_| pim.schedule(&requests).pairs().collect::<Vec<_>>() != first);
        assert!(
            distinct,
            "20 identical PIM matchings in a row is implausible"
        );
    }
}
