//! Maximum-weight matching — the reference tier above the heuristics.
//!
//! The paper positions LCF between the fast iterative heuristics (PIM,
//! iSLIP) and the "too slow for hardware" optimal matchings. This module
//! supplies that upper end of the taxonomy:
//!
//! * [`MaxWeightMatcher`] — **exact** maximum-weight matching over a
//!   [`WeightMatrix`], via the Hungarian algorithm in its shortest-
//!   augmenting-path-with-potentials form (Jonker–Volgenant style),
//!   `O(n³)`. With queue lengths as weights this is the MWM scheduler
//!   that the Tassiulas/McKeown line of work proves throughput-optimal;
//!   with all-ones weights it degenerates to maximum-*size* matching and
//!   must agree with [`MaxSizeMatcher`](crate::maxsize::MaxSizeMatcher)
//!   on cardinality (a property the oracle tests pin).
//! * [`NodeWeightedGreedy`] — the node-weighted greedy approximation of
//!   Gupta/Sanghavi/Shroff: score every edge by the sum of its endpoints'
//!   node weights `π_i + ρ_j` (each node weight the max incident edge
//!   weight) and match greedily by score. Greedy-by-score is a classic
//!   ½-approximation *for the scored graph*: the matching's score is at
//!   least half the maximum-score matching, and since
//!   `π_i + ρ_j ≥ 2·w(i,j)` on every edge the scored optimum dominates
//!   the raw-weight optimum — the chain the oracle proptests assert.
//!
//! Both types implement [`WeightedScheduler`] under the hot-path memory
//! contract: all scratch is constructor-sized and
//! [`schedule_weighted_into`](WeightedScheduler::schedule_weighted_into)
//! never allocates. [`MaxWeightMatcher`] additionally implements the
//! boolean [`Scheduler`] surface (unit weights),
//! so it slots into the registry, the simulator and the exhaustive model
//! checks exactly like the other reference matcher.

use crate::arbiter::DiagonalPointer;
use crate::matching::Matching;
use crate::request::RequestMatrix;
use crate::traits::Scheduler;
use crate::weighted::{WeightMatrix, WeightedScheduler};

/// "Infinite" reduced cost for the potential updates. A quarter of the
/// i128 range keeps every subtraction far from overflow even after n
/// accumulated deltas of magnitude ≤ 2⁶⁴.
const INF: i128 = i128::MAX / 4;

/// Exact maximum-weight bipartite matcher (Hungarian algorithm with
/// potentials, `O(n³)`).
///
/// The solver works on the complete bipartite graph with cost
/// `-weight(i, j)` (zero for absent requests) and finds a minimum-cost
/// perfect assignment; since all weights are non-negative, dropping the
/// zero-weight pairs from that assignment yields a maximum-weight matching
/// of the request graph. Internal arithmetic is `i128`, so the full `u64`
/// weight range is handled without overflow.
///
/// ```
/// use lcf_core::mwm::MaxWeightMatcher;
/// use lcf_core::weighted::{WeightMatrix, WeightedScheduler};
///
/// // Greedy takes (0,0,10) and strands 9+9 = 18; the exact matcher doesn't.
/// let w = WeightMatrix::from_triples(2, [(0, 0, 10), (1, 0, 9), (0, 1, 9)]);
/// let mut mwm = MaxWeightMatcher::new(2);
/// let m = mwm.schedule_weighted(&w);
/// assert_eq!(m.output_for(0), Some(1));
/// assert_eq!(m.output_for(1), Some(0));
/// assert_eq!(mwm.max_matching_weight(&w), 18);
/// ```
#[derive(Clone, Debug)]
pub struct MaxWeightMatcher {
    n: usize,
    // Hungarian scratch, constructor-sized (n + 1 entries each; index 0 is
    // the algorithm's sentinel row/column).
    u: Vec<i128>,
    v: Vec<i128>,
    // matched_row[j] = row assigned to column j (1-based; 0 = unassigned).
    matched_row: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<i128>,
    used: Vec<bool>,
}

impl MaxWeightMatcher {
    /// Creates a matcher for `n` ports. All scratch buffers are sized here,
    /// once — the scheduling methods never allocate.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "scheduler requires n > 0");
        MaxWeightMatcher {
            n,
            u: vec![0; n + 1],
            v: vec![0; n + 1],
            matched_row: vec![0; n + 1],
            way: vec![0; n + 1],
            minv: vec![0; n + 1],
            used: vec![false; n + 1],
        }
    }

    /// The port count this matcher was built for.
    pub fn num_ports(&self) -> usize {
        self.n
    }

    /// The registry name (`"mwm"`). Inherent so the double
    /// `Scheduler`/`WeightedScheduler` implementation stays unambiguous at
    /// call sites.
    pub fn name(&self) -> &'static str {
        "mwm"
    }

    /// Runs the assignment solver against `weight_of`, leaving the optimal
    /// column → row assignment in `self.matched_row`. 1-based rows/columns
    /// internally; `weight_of` is 0-based.
    fn solve<F: Fn(usize, usize) -> u64>(&mut self, weight_of: &F) {
        let n = self.n;
        self.u.fill(0);
        self.v.fill(0);
        self.matched_row.fill(0);
        // Minimization over cost(i, j) = -weight(i-1, j-1): a minimum-cost
        // perfect assignment on the zero-padded complete graph is a
        // maximum-weight matching once zero-weight pairs are dropped.
        let cost = |i: usize, j: usize| -> i128 { -(weight_of(i - 1, j - 1) as i128) };
        for i in 1..=n {
            self.matched_row[0] = i;
            let mut j0 = 0usize;
            self.minv.fill(INF);
            self.used.fill(false);
            // Dijkstra-style search for the shortest augmenting path from
            // row i, over reduced costs kept non-negative by the potentials.
            loop {
                self.used[j0] = true;
                let i0 = self.matched_row[j0];
                let mut delta = INF;
                let mut j1 = 0usize;
                for j in 1..=n {
                    if self.used[j] {
                        continue;
                    }
                    let cur = cost(i0, j) - self.u[i0] - self.v[j];
                    if cur < self.minv[j] {
                        self.minv[j] = cur;
                        self.way[j] = j0;
                    }
                    if self.minv[j] < delta {
                        delta = self.minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=n {
                    if self.used[j] {
                        self.u[self.matched_row[j]] += delta;
                        self.v[j] -= delta;
                    } else {
                        self.minv[j] -= delta;
                    }
                }
                j0 = j1;
                if self.matched_row[j0] == 0 {
                    break;
                }
            }
            // Unroll the augmenting path recorded in `way`.
            loop {
                let j1 = self.way[j0];
                self.matched_row[j0] = self.matched_row[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
    }

    /// The total weight of a maximum-weight matching of `weights`, without
    /// materializing the matching. `u128` so adversarial `u64` weights
    /// cannot overflow the sum. This is the optimality oracle the checked
    /// wrapper and the proptests compare every scheduler against.
    pub fn max_matching_weight(&mut self, weights: &WeightMatrix) -> u128 {
        assert_eq!(weights.n(), self.n, "weight matrix size mismatch");
        let weight_of = |i: usize, j: usize| weights.get(i, j);
        self.solve(&weight_of);
        let mut total: u128 = 0;
        for j in 1..=self.n {
            let i = self.matched_row[j];
            if i != 0 {
                total += u128::from(weights.get(i - 1, j - 1));
            }
        }
        total
    }

    /// Writes the solved assignment into `out`, skipping zero-weight pairs.
    fn emit<F: Fn(usize, usize) -> u64>(&self, weight_of: &F, out: &mut Matching) {
        out.reset(self.n);
        for j in 1..=self.n {
            let i = self.matched_row[j];
            if i != 0 && weight_of(i - 1, j - 1) > 0 {
                out.connect(i - 1, j - 1);
            }
        }
    }
}

impl WeightedScheduler for MaxWeightMatcher {
    fn name(&self) -> &'static str {
        "mwm"
    }

    fn num_ports(&self) -> usize {
        self.n
    }

    fn schedule_weighted_into(&mut self, weights: &WeightMatrix, out: &mut Matching) {
        assert_eq!(weights.n(), self.n, "weight matrix size mismatch");
        let weight_of = |i: usize, j: usize| weights.get(i, j);
        self.solve(&weight_of);
        self.emit(&weight_of, out);
    }
}

impl Scheduler for MaxWeightMatcher {
    fn name(&self) -> &'static str {
        "mwm"
    }

    fn num_ports(&self) -> usize {
        self.n
    }

    fn schedule_into(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        assert_eq!(requests.n(), self.n, "request matrix size mismatch");
        // Unit weights: maximum weight degenerates to maximum size, so the
        // boolean facade is a maximum-size matcher (the oracle tests hold
        // it to Hopcroft–Karp's cardinality).
        let weight_of = |i: usize, j: usize| u64::from(requests.get(i, j));
        self.solve(&weight_of);
        self.emit(&weight_of, out);
    }
}

/// The node-induced weight matrix `ŵ(i, j) = π_i + ρ_j` over the requested
/// pairs of `w`, where `π_i = max_j w(i, j)` and `ρ_j = max_i w(i, j)`
/// (Gupta/Sanghavi/Shroff). Since `ŵ(i, j) ≥ 2·w(i, j)` on every edge, a
/// ½-approximation under `ŵ` dominates the raw-weight optimum — the bound
/// the oracle proptests assert for [`NodeWeightedGreedy`].
///
/// Allocates a fresh matrix; this is an analysis/test helper, not a
/// hot-path method. Saturating adds keep adversarial `u64` weights safe.
pub fn node_induced_weights(w: &WeightMatrix) -> WeightMatrix {
    let n = w.n();
    let mut out = WeightMatrix::new(n);
    for i in 0..n {
        let pi = (0..n).map(|j| w.get(i, j)).max().unwrap_or(0);
        for j in 0..n {
            if w.get(i, j) > 0 {
                let rho = (0..n).map(|r| w.get(r, j)).max().unwrap_or(0);
                out.set(i, j, pi.saturating_add(rho));
            }
        }
    }
    out
}

/// Node-weighted greedy matching (Gupta/Sanghavi/Shroff).
///
/// Each input carries `π_i = max_j w(i, j)` and each output
/// `ρ_j = max_i w(i, j)`; requested edges are matched greedily by the
/// score `π_i + ρ_j`, heaviest first, ties broken by the same rotating
/// diagonal offset the other greedy schedulers use. The point of the
/// construction: node weights are *local* (an input only needs its own
/// queue state, an output only its column), so the scheduler is
/// distributable, yet its matching provably achieves at least half of the
/// maximum node-induced score and therefore at least the raw-weight
/// optimum's value under `ŵ` — see [`node_induced_weights`].
///
/// ```
/// use lcf_core::mwm::NodeWeightedGreedy;
/// use lcf_core::weighted::{WeightMatrix, WeightedScheduler};
///
/// let w = WeightMatrix::from_triples(4, [(0, 0, 2), (1, 0, 9), (0, 1, 1)]);
/// let mut nwg = NodeWeightedGreedy::new(4);
/// let m = nwg.schedule_weighted(&w);
/// assert_eq!(m.input_for(0), Some(1), "the 9-weight edge dominates both its nodes");
/// ```
#[derive(Clone, Debug)]
pub struct NodeWeightedGreedy {
    n: usize,
    pointer: DiagonalPointer,
    // Scratch, reused across slots.
    pi: Vec<u64>,
    rho: Vec<u64>,
    order: Vec<(usize, usize)>,
}

impl NodeWeightedGreedy {
    /// Creates a node-weighted greedy matcher for `n` ports.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "scheduler requires n > 0");
        NodeWeightedGreedy {
            n,
            pointer: DiagonalPointer::new(n),
            pi: vec![0; n],
            rho: vec![0; n],
            order: Vec::with_capacity(n * n),
        }
    }
}

impl WeightedScheduler for NodeWeightedGreedy {
    fn name(&self) -> &'static str {
        "nwgreedy"
    }

    fn num_ports(&self) -> usize {
        self.n
    }

    fn schedule_weighted_into(&mut self, weights: &WeightMatrix, out: &mut Matching) {
        assert_eq!(weights.n(), self.n, "weight matrix size mismatch");
        let n = self.n;
        // Node weights: row and column maxima.
        self.pi.fill(0);
        self.rho.fill(0);
        self.order.clear();
        for i in 0..n {
            for j in 0..n {
                let w = weights.get(i, j);
                if w > 0 {
                    self.pi[i] = self.pi[i].max(w);
                    self.rho[j] = self.rho[j].max(w);
                    self.order.push((i, j));
                }
            }
        }
        // Heaviest score π_i + ρ_j first; ties by rotating rank (stable
        // and fair). Saturating adds keep adversarial u64 weights safe.
        let (pi_off, pj_off) = (self.pointer.i, self.pointer.j);
        let tie_rank = |i: usize, j: usize| ((i + n - pi_off) % n) * n + ((j + n - pj_off) % n);
        let (pi, rho) = (&self.pi, &self.rho);
        self.order.sort_by(|&(ai, aj), &(bi, bj)| {
            let sa = pi[ai].saturating_add(rho[aj]);
            let sb = pi[bi].saturating_add(rho[bj]);
            sb.cmp(&sa)
                .then_with(|| tie_rank(ai, aj).cmp(&tie_rank(bi, bj)))
        });

        out.reset(n);
        for &(i, j) in &self.order {
            if !out.input_matched(i) && !out.output_matched(j) {
                out.connect(i, j);
            }
        }
        self.pointer.advance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxsize::MaxSizeMatcher;
    use crate::weighted::GreedyWeight;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_weights(rng: &mut StdRng, n: usize, density: f64, max_w: u64) -> WeightMatrix {
        let mut w = WeightMatrix::new(n);
        for i in 0..n {
            for j in 0..n {
                if rng.gen_bool(density) {
                    w.set(i, j, rng.gen_range(1..=max_w));
                }
            }
        }
        w
    }

    fn matching_weight(w: &WeightMatrix, m: &Matching) -> u128 {
        m.pairs().map(|(i, j)| u128::from(w.get(i, j))).sum()
    }

    #[test]
    fn exact_on_the_greedy_trap() {
        // Greedy locks onto the single heaviest edge and loses 18 vs 10.
        let w = WeightMatrix::from_triples(2, [(0, 0, 10), (1, 0, 9), (0, 1, 9)]);
        let mut mwm = MaxWeightMatcher::new(2);
        let m = mwm.schedule_weighted(&w);
        assert_eq!(matching_weight(&w, &m), 18);
        assert_eq!(mwm.max_matching_weight(&w), 18);
        let mut greedy = GreedyWeight::new(2, "lqf");
        let g = greedy.schedule_weighted(&w);
        assert_eq!(matching_weight(&w, &g), 10, "greedy takes the trap");
    }

    #[test]
    fn beats_or_ties_greedy_everywhere() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut mwm = MaxWeightMatcher::new(6);
        let mut greedy = GreedyWeight::new(6, "lqf");
        for _ in 0..200 {
            let w = random_weights(&mut rng, 6, 0.4, 50);
            let opt = mwm.max_matching_weight(&w);
            let g = greedy.schedule_weighted(&w);
            assert!(matching_weight(&w, &g) <= opt);
            // And the classic greedy ½ bound holds.
            assert!(2 * matching_weight(&w, &g) >= opt);
        }
    }

    #[test]
    fn matching_is_valid_and_maximal() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut mwm = MaxWeightMatcher::new(8);
        let mut out = Matching::new(8);
        for _ in 0..100 {
            let w = random_weights(&mut rng, 8, 0.3, 100);
            // Dirty-buffer contract: `out` carries the previous matching in.
            mwm.schedule_weighted_into(&w, &mut out);
            let reqs = w.to_requests();
            assert!(out.is_valid_for(&reqs));
            // Positive weights make any non-maximal matching improvable, so
            // the optimum is maximal.
            assert!(out.is_maximal_for(&reqs));
            assert_eq!(matching_weight(&w, &out), mwm.max_matching_weight(&w));
        }
    }

    #[test]
    fn unit_weights_agree_with_hopcroft_karp() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut mwm = MaxWeightMatcher::new(7);
        let mut hk = MaxSizeMatcher::new(7);
        for _ in 0..100 {
            let reqs = crate::request::RequestMatrix::from_fn(7, |_, _| rng.gen_bool(0.35));
            let m = Scheduler::schedule(&mut mwm, &reqs);
            assert!(m.is_valid_for(&reqs));
            assert_eq!(m.size(), hk.max_matching_size(&reqs), "cardinality");
        }
    }

    #[test]
    fn huge_weights_do_not_overflow() {
        let w = WeightMatrix::from_triples(
            3,
            [
                (0, 0, u64::MAX),
                (1, 1, u64::MAX),
                (2, 2, u64::MAX),
                (0, 1, u64::MAX - 1),
            ],
        );
        let mut mwm = MaxWeightMatcher::new(3);
        assert_eq!(mwm.max_matching_weight(&w), 3 * u128::from(u64::MAX));
    }

    #[test]
    fn empty_weights_empty_matching() {
        let mut mwm = MaxWeightMatcher::new(4);
        assert_eq!(mwm.schedule_weighted(&WeightMatrix::new(4)).size(), 0);
        let mut nwg = NodeWeightedGreedy::new(4);
        assert_eq!(nwg.schedule_weighted(&WeightMatrix::new(4)).size(), 0);
    }

    #[test]
    fn node_weighted_greedy_is_valid_maximal_and_bounded() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut nwg = NodeWeightedGreedy::new(8);
        let mut induced_mwm = MaxWeightMatcher::new(8);
        let mut out = Matching::new(8);
        for _ in 0..100 {
            let w = random_weights(&mut rng, 8, 0.3, 100);
            nwg.schedule_weighted_into(&w, &mut out);
            let reqs = w.to_requests();
            assert!(out.is_valid_for(&reqs));
            assert!(out.is_maximal_for(&reqs));
            // The GSS chain: score(M) ≥ ½·opt(ŵ) ≥ opt(w).
            let induced = node_induced_weights(&w);
            let score = matching_weight(&induced, &out);
            let induced_opt = induced_mwm.max_matching_weight(&induced);
            assert!(2 * score >= induced_opt, "½ bound under ŵ");
            let mut raw_mwm = MaxWeightMatcher::new(8);
            assert!(score >= raw_mwm.max_matching_weight(&w), "ŵ dominates w");
        }
    }

    #[test]
    fn node_induced_weights_double_every_edge() {
        let mut rng = StdRng::seed_from_u64(15);
        let w = random_weights(&mut rng, 6, 0.5, 40);
        let induced = node_induced_weights(&w);
        for i in 0..6 {
            for j in 0..6 {
                if w.get(i, j) > 0 {
                    assert!(induced.get(i, j) >= 2 * w.get(i, j), "ŵ ≥ 2w at ({i},{j})");
                } else {
                    assert_eq!(induced.get(i, j), 0, "no request, no score");
                }
            }
        }
    }

    #[test]
    fn nwgreedy_ties_rotate() {
        let w = WeightMatrix::from_triples(4, [(0, 0, 3), (1, 0, 3)]);
        let mut nwg = NodeWeightedGreedy::new(4);
        let mut wins = [0usize; 2];
        for _ in 0..16 {
            let m = nwg.schedule_weighted(&w);
            wins[m.input_for(0).unwrap()] += 1;
        }
        assert!(
            wins[0] > 0 && wins[1] > 0,
            "tie-break must rotate: {wins:?}"
        );
    }

    #[test]
    fn names_and_ports() {
        let mwm = MaxWeightMatcher::new(5);
        assert_eq!(mwm.name(), "mwm");
        assert_eq!(mwm.num_ports(), 5);
        let nwg = NodeWeightedGreedy::new(5);
        assert_eq!(WeightedScheduler::name(&nwg), "nwgreedy");
        assert_eq!(WeightedScheduler::num_ports(&nwg), 5);
    }
}
