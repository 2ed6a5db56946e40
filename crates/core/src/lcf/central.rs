//! The central LCF scheduler — a faithful implementation of Fig. 2.

use crate::arbiter::DiagonalPointer;
use crate::bitkern::{self, Backend};
use crate::matching::Matching;
use crate::request::RequestMatrix;
use crate::traits::Scheduler;

/// How much round-robin protection the central LCF scheduler applies.
///
/// Sec. 3 of the paper describes a *fairness dial*: the guaranteed fraction
/// of a target's bandwidth per requester/resource pair "can be easily
/// changed to decrease or increase this fraction in the range 0..b/n. The
/// lower bound of this range is given by a pure LCF scheduler and the upper
/// bound is given by a scheduler that uses a diagonal of round-robin
/// positions all of which are scheduled before any other position is
/// considered. [...] Variations of the round-robin scheduler are possible
/// in that a single position, a row or column are covered every scheduling
/// cycle."
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RrPolicy {
    /// No round-robin protection: pure LCF. Guarantee: 0.
    None,
    /// One rotating matrix position `[I, J]` is favored per cycle.
    /// Guarantee: `b/n³`-ish (one position in `n²`, checked at one of `n`
    /// resource steps) — the cheapest protection.
    SinglePosition,
    /// The whole row of requester `I` is favored: `I` wins the first
    /// resource it requests each cycle, before LCF runs on that resource.
    Row,
    /// The whole column of resource `J` is favored: resource `J` is granted
    /// by the rotating priority chain alone, ignoring request counts.
    Column,
    /// The Fig. 2 default: a rotating diagonal, one position per resource
    /// step, each checked just before its resource is LCF-scheduled.
    /// Guarantee: `b/n²`.
    Diagonal,
    /// The paper's upper bound: the entire diagonal is granted *before any
    /// other position is considered*. Guarantee: `b/n` per pair, at the
    /// largest throughput cost.
    PriorityDiagonal,
}

/// The central Least Choice First scheduler (paper Sec. 3, Fig. 2).
///
/// Resources (output ports) are scheduled sequentially. For each resource:
///
/// 1. *(round-robin flavor only)* If the request at the rotating diagonal
///    position is set, it is granted outright — this is what provides the
///    `b/n²` bandwidth guarantee.
/// 2. Otherwise the requester with the smallest number of outstanding
///    requests (NRQ) wins; ties are broken by a rotating priority chain
///    starting at the diagonal position.
///
/// After a grant, the winner's remaining requests are withdrawn and the NRQ
/// counts of everyone else requesting the just-scheduled resource are
/// decremented, so priorities always reflect only *unscheduled* resources.
///
/// The `I`/`J` offsets advance per Fig. 2 (`I := (I+1) mod n; if I = 0 then
/// J := (J+1) mod n`), so the scheduling order of resources and the
/// round-robin diagonal both rotate, and every matrix position is the
/// round-robin position once per `n²` cycles.
///
/// # Example — the worked 4×4 schedule of Fig. 3
///
/// ```
/// use lcf_core::prelude::*;
///
/// let requests = RequestMatrix::from_pairs(4, [
///     (0, 1), (0, 2),
///     (1, 0), (1, 2), (1, 3),
///     (2, 0), (2, 2), (2, 3),
///     (3, 1),
/// ]);
/// let mut sched = CentralLcf::with_round_robin(4);
/// sched.advance_pointer(); // Fig. 3 starts from I = 1, J = 0
/// let m = sched.schedule(&requests);
/// assert_eq!(m.output_for(1), Some(0)); // [I1, T0] — round-robin position
/// assert_eq!(m.output_for(3), Some(1)); // [I3, T1] — NRQ 1 beats NRQ 2
/// assert_eq!(m.output_for(0), Some(2)); // [I0, T2]
/// assert_eq!(m.output_for(2), Some(3)); // [I2, T3]
/// ```
#[derive(Clone, Debug)]
pub struct CentralLcf {
    n: usize,
    pointer: DiagonalPointer,
    policy: RrPolicy,
    backend: Backend,
    // Workhorse state, reused across slots to keep scheduling allocation-free.
    work: RequestMatrix,
    nrq: Vec<usize>,
    // Word-parallel scratch (bitset backend): the request matrix as flat
    // `n × words_for(n)` row masks and its transpose as column masks —
    // neither is mutated during a schedule; grants clear bits of `free`
    // (unmatched requesters), and `cand` holds one resource's live
    // requesters. `nrq` doubles as the kernel's maintained count table.
    rows: Vec<u64>,
    cols: Vec<u64>,
    free: Vec<u64>,
    cand: Vec<u64>,
    #[cfg(feature = "telemetry")]
    tracing: bool,
    #[cfg(feature = "telemetry")]
    decisions: Vec<crate::telemetry::GrantDecision>,
}

impl CentralLcf {
    /// Pure LCF without the round-robin position (`lcf_central` in Fig. 12).
    ///
    /// Maximizes throughput but provides no starvation protection: the only
    /// rotation is the tie-break priority chain, and a requester can lose
    /// the NRQ comparison forever (the paper's fairness lower bound for this
    /// variant is 0).
    pub fn pure(n: usize) -> Self {
        Self::with_policy(n, RrPolicy::None)
    }

    /// LCF with the rotating round-robin diagonal (`lcf_central_rr`), the
    /// Fig. 2 pseudocode verbatim.
    pub fn with_round_robin(n: usize) -> Self {
        Self::with_policy(n, RrPolicy::Diagonal)
    }

    /// LCF with an explicit fairness policy (the Sec. 3 variations).
    pub fn with_policy(n: usize, policy: RrPolicy) -> Self {
        assert!(n > 0, "scheduler requires n > 0");
        CentralLcf {
            n,
            pointer: DiagonalPointer::new(n),
            policy,
            backend: Backend::default(),
            work: RequestMatrix::new(n),
            nrq: vec![0; n],
            rows: Vec::with_capacity(n * bitkern::words_for(n)),
            cols: Vec::with_capacity(n * bitkern::words_for(n)),
            free: Vec::with_capacity(bitkern::words_for(n)),
            cand: Vec::with_capacity(bitkern::words_for(n)),
            #[cfg(feature = "telemetry")]
            tracing: false,
            #[cfg(feature = "telemetry")]
            decisions: Vec::new(),
        }
    }

    /// The grant decisions of the most recent [`schedule`](Scheduler::schedule)
    /// call, in output-scheduling order. Empty unless tracing was enabled
    /// via [`Scheduler::set_tracing`].
    #[cfg(feature = "telemetry")]
    pub fn last_decisions(&self) -> &[crate::telemetry::GrantDecision] {
        &self.decisions
    }

    /// Selects the matching-kernel implementation (builder style). Both
    /// backends produce bit-identical schedules; see [`Backend`].
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The configured kernel backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The configured fairness policy.
    pub fn policy(&self) -> RrPolicy {
        self.policy
    }

    /// Whether any round-robin protection is enabled.
    pub fn round_robin_enabled(&self) -> bool {
        self.policy != RrPolicy::None
    }

    /// Current `(I, J)` round-robin offsets.
    pub fn pointer(&self) -> (usize, usize) {
        (self.pointer.i, self.pointer.j)
    }

    /// Manually advances the `I`/`J` offsets by one cycle, e.g. to reproduce
    /// a specific paper example. `schedule` advances them automatically.
    pub fn advance_pointer(&mut self) {
        self.pointer.advance();
    }
}

impl Scheduler for CentralLcf {
    fn name(&self) -> &'static str {
        match self.policy {
            RrPolicy::None => "lcf_central",
            RrPolicy::Diagonal => "lcf_central_rr",
            RrPolicy::SinglePosition => "lcf_central_rr1",
            RrPolicy::Row => "lcf_central_rr_row",
            RrPolicy::Column => "lcf_central_rr_col",
            RrPolicy::PriorityDiagonal => "lcf_central_rr_prio",
        }
    }

    fn num_ports(&self) -> usize {
        self.n
    }

    fn schedule_into(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        assert_eq!(requests.n(), self.n, "request matrix size mismatch");
        // While tracing, always take the scalar reference kernel: it is
        // bit-identical to the word-parallel kernel by contract, and it is
        // where the per-grant decision recording lives.
        #[cfg(feature = "telemetry")]
        let word_parallel = !self.tracing && self.backend.word_parallel();
        #[cfg(not(feature = "telemetry"))]
        let word_parallel = self.backend.word_parallel();
        if word_parallel {
            self.schedule_bitset(requests, out)
        } else {
            self.schedule_scalar(requests, out)
        }
        // Self-check the round-robin precedence rule against the pre-advance
        // pointer in checked debug builds.
        #[cfg(all(feature = "check-invariants", debug_assertions))]
        if let Err(v) = crate::check::check_central_precedence(
            self.policy,
            self.pointer.i,
            self.pointer.j,
            requests,
            out,
        ) {
            // lint:allow(no-panic): invariant self-check aborts on a broken kernel
            panic!("{}: {v}", self.name());
        }
        self.pointer.advance();
    }

    fn reset(&mut self) {
        self.pointer = DiagonalPointer::new(self.n);
        #[cfg(feature = "telemetry")]
        self.decisions.clear();
    }

    #[cfg(feature = "telemetry")]
    fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
        if !enabled {
            self.decisions.clear();
        }
    }

    #[cfg(feature = "telemetry")]
    fn drain_events(&mut self, sink: &mut dyn FnMut(lcf_telemetry::Event)) {
        for decision in self.decisions.drain(..) {
            sink(decision.to_event());
        }
    }
}

impl CentralLcf {
    /// The scalar reference kernel: Fig. 2 transliterated, one index probe
    /// per matrix cell. Writes the schedule into the caller's (possibly
    /// dirty) buffer.
    fn schedule_scalar(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        let n = self.n;
        let (i_off, j_off) = (self.pointer.i, self.pointer.j);

        // Fig. 2 initialization: S[req] := -1; compute NRQ.
        out.reset(n);
        self.work.copy_from(requests);
        for req in 0..n {
            self.nrq[req] = self.work.nrq(req);
        }
        #[cfg(feature = "telemetry")]
        self.decisions.clear();

        // Grant bookkeeping shared by the pre-pass and the main loop.
        let grant = |schedule: &mut Matching,
                     work: &mut RequestMatrix,
                     nrq: &mut [usize],
                     gnt: usize,
                     resource: usize| {
            schedule.connect(gnt, resource);
            // Withdraw the winner's remaining requests and recompute the
            // outstanding-request counts for this resource's requesters.
            work.clear_requester(gnt);
            nrq[gnt] = 0;
            for req in work.col_ones(resource) {
                nrq[req] -= 1;
            }
        };

        // PriorityDiagonal: the whole diagonal is scheduled before any
        // other position is considered (the paper's b/n upper bound).
        if self.policy == RrPolicy::PriorityDiagonal {
            for res in 0..n {
                let (di, dj) = self.pointer.diagonal_position(res);
                if self.work.get(di, dj) && !out.output_matched(dj) {
                    #[cfg(feature = "telemetry")]
                    if self.tracing {
                        self.record_decision(
                            dj,
                            di,
                            crate::telemetry::GrantReason::PriorityDiagonal,
                        );
                    }
                    grant(out, &mut self.work, &mut self.nrq, di, dj);
                }
            }
        }

        // Allocate resources one after the other.
        for res in 0..n {
            let resource = (res + j_off) % n;
            if out.output_matched(resource) {
                continue; // taken by the priority diagonal
            }
            let diag_req = (i_off + res) % n;

            // Round-robin fast path, per policy.
            let mut gnt: Option<usize> = match self.policy {
                RrPolicy::Diagonal if self.work.get(diag_req, resource) => Some(diag_req),
                // Only position [I, J] is protected; it is examined at the
                // step that schedules resource J (res = 0).
                RrPolicy::SinglePosition if res == 0 && self.work.get(i_off, resource) => {
                    Some(i_off)
                }
                // Requester I's whole row is protected: I wins any resource
                // it still requests, until its first grant clears the row.
                RrPolicy::Row if self.work.get(i_off, resource) => Some(i_off),
                // Resource J's whole column is protected: it is granted by
                // the rotating chain alone, ignoring request counts.
                RrPolicy::Column if res == 0 => {
                    crate::arbiter::select_rotating(n, diag_req, |req| self.work.get(req, resource))
                }
                _ => None,
            };
            #[cfg(feature = "telemetry")]
            let fast_path = gnt.is_some();

            if gnt.is_none() {
                // Find the requester with the smallest number of requests;
                // the scan starts at the diagonal requester, so ties are
                // broken by the rotating priority chain.
                let mut min = n + 1;
                for k in 0..n {
                    let req = (k + i_off + res) % n;
                    if self.work.get(req, resource) && self.nrq[req] < min {
                        gnt = Some(req);
                        min = self.nrq[req];
                    }
                }
            }

            if let Some(gnt) = gnt {
                #[cfg(feature = "telemetry")]
                if self.tracing {
                    let reason = self.classify(resource, gnt, fast_path);
                    self.record_decision(resource, gnt, reason);
                }
                grant(out, &mut self.work, &mut self.nrq, gnt, resource);
            }
        }
    }

    /// Why `winner` won `resource` — classified against the *current* work
    /// matrix and NRQ counts, i.e. before the grant is applied.
    #[cfg(feature = "telemetry")]
    fn classify(
        &self,
        resource: usize,
        winner: usize,
        fast_path: bool,
    ) -> crate::telemetry::GrantReason {
        use crate::telemetry::GrantReason;
        if fast_path {
            return if self.policy == RrPolicy::Column {
                GrantReason::ColumnChain
            } else {
                GrantReason::RrPosition
            };
        }
        let min = self.nrq[winner];
        let mut rivals = 0usize;
        let mut tied = false;
        for req in self.work.col_ones(resource) {
            if req == winner {
                continue;
            }
            rivals += 1;
            if self.nrq[req] <= min {
                tied = true;
            }
        }
        if rivals == 0 {
            GrantReason::OnlyChoice
        } else if tied {
            GrantReason::TieBreak
        } else {
            GrantReason::MinCount
        }
    }

    /// Records one grant decision with the losing requesters' counts.
    #[cfg(feature = "telemetry")]
    fn record_decision(
        &mut self,
        resource: usize,
        winner: usize,
        reason: crate::telemetry::GrantReason,
    ) {
        let losers: Vec<(usize, usize)> = self
            .work
            .col_ones(resource)
            .filter(|&req| req != winner)
            .map(|req| (req, self.nrq[req]))
            .collect();
        self.decisions.push(crate::telemetry::GrantDecision {
            resource,
            winner,
            winner_nrq: self.nrq[winner],
            reason,
            losers,
        });
    }

    /// The word-parallel kernel: the same Fig. 2 algorithm on multi-word
    /// row masks (`words_for(n)` words per requester, bit `j % 64` of word
    /// `j / 64`) plus the transposed column masks, one code path for every
    /// `n`. Produces grant-for-grant identical schedules to
    /// [`CentralLcf::schedule_scalar`].
    ///
    /// The row/column masks are never mutated: a grant clears one bit of
    /// `free` (unmatched requesters), so a resource's live requesters are
    /// `cols[resource] & free` — exactly the column the scalar reference
    /// keeps after withdrawing every matched requester's row. The NRQ table
    /// is filled once with row popcounts and maintained like the scalar
    /// one: every non-empty candidate set produces a grant, and
    /// [`bitkern::min_key_rotating_grant`] decrements each live requester's
    /// count in the same pass that finds the least-choice winner. A matched
    /// requester's count goes stale, but `free` hides it from every later
    /// candidate set, so each grant costs one walk over the live requesters
    /// of one resource and nothing more.
    fn schedule_bitset(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        let n = self.n;
        let w = bitkern::words_for(n);
        let (i_off, j_off) = (self.pointer.i, self.pointer.j);

        out.reset(n);
        bitkern::load_rows(requests.bits(), &mut self.rows);
        bitkern::col_masks(&self.rows, n, &mut self.cols);
        for (count, row) in self.nrq.iter_mut().zip(self.rows.chunks_exact(w)) {
            *count = bitkern::popcount(row);
        }
        self.free.clear();
        self.free.resize(w, 0);
        bitkern::mask_fill(&mut self.free, n);
        self.cand.clear();
        self.cand.resize(w, 0);

        if self.policy == RrPolicy::PriorityDiagonal {
            for res in 0..n {
                let (di, dj) = self.pointer.diagonal_position(res);
                self.load_cand(dj);
                if bitkern::test_bit(&self.cand, di) && !out.output_matched(dj) {
                    // The diagonal position wins outright; the fused kernel
                    // runs only for its count update.
                    bitkern::min_key_rotating_grant(&self.cand, n, di, &mut self.nrq);
                    out.connect(di, dj);
                    bitkern::clear_bit(&mut self.free, di);
                }
            }
        }

        for res in 0..n {
            let resource = (res + j_off) % n;
            if out.output_matched(resource) {
                continue;
            }
            let diag_req = (i_off + res) % n;
            self.load_cand(resource);

            // Smallest NRQ among the live requesters, ties broken in
            // rotating order from the diagonal requester. Every non-empty
            // candidate set is granted — by this winner or by a round-robin
            // fast path below — so the fused count update always applies.
            let least_choice =
                bitkern::min_key_rotating_grant(&self.cand, n, diag_req, &mut self.nrq);
            let gnt = match self.policy {
                RrPolicy::Diagonal if bitkern::test_bit(&self.cand, diag_req) => Some(diag_req),
                RrPolicy::SinglePosition if res == 0 && bitkern::test_bit(&self.cand, i_off) => {
                    Some(i_off)
                }
                RrPolicy::Row if bitkern::test_bit(&self.cand, i_off) => Some(i_off),
                RrPolicy::Column if res == 0 => bitkern::rotating_first(&self.cand, n, diag_req),
                _ => least_choice,
            };

            if let Some(gnt) = gnt {
                out.connect(gnt, resource);
                bitkern::clear_bit(&mut self.free, gnt);
            }
        }
    }

    /// Loads `resource`'s live requesters into `cand`: the original column
    /// masked to the still-unmatched inputs.
    fn load_cand(&mut self, resource: usize) {
        let w = self.cand.len();
        let col = &self.cols[resource * w..(resource + 1) * w];
        for ((c, &col), &free) in self.cand.iter_mut().zip(col).zip(&self.free) {
            *c = col & free;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request matrix of Fig. 3 (also used by Fig. 9 for the distributed
    /// scheduler).
    fn figure3_requests() -> RequestMatrix {
        RequestMatrix::from_pairs(
            4,
            [
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 2),
                (1, 3),
                (2, 0),
                (2, 2),
                (2, 3),
                (3, 1),
            ],
        )
    }

    #[test]
    fn paper_figure3_full_trace() {
        // Fig. 3 shows I = 1, J = 0 (diagonal [I1,T0], [I2,T1], [I3,T2], [I0,T3]).
        let mut sched = CentralLcf::with_round_robin(4);
        sched.advance_pointer();
        assert_eq!(sched.pointer(), (1, 0));
        let m = sched.schedule(&figure3_requests());
        // The grants listed in the paper's walkthrough.
        assert_eq!(
            m.output_for(1),
            Some(0),
            "T0 -> I1 via round-robin position"
        );
        assert_eq!(m.output_for(3), Some(1), "T1 -> I3 (NRQ 1 beats I0's 2)");
        assert_eq!(m.output_for(0), Some(2), "T2 -> I0 (NRQ 1 beats I2's 2)");
        assert_eq!(m.output_for(2), Some(3), "T3 -> I2 (only choice)");
        assert_eq!(m.size(), 4);
        assert!(m.is_valid_for(&figure3_requests()));
        assert!(m.is_maximal_for(&figure3_requests()));
    }

    #[test]
    fn pure_lcf_also_finds_full_matching_on_figure3() {
        let mut sched = CentralLcf::pure(4);
        sched.advance_pointer();
        let m = sched.schedule(&figure3_requests());
        assert_eq!(m.size(), 4);
        assert!(m.is_valid_for(&figure3_requests()));
    }

    #[test]
    fn empty_requests_give_empty_matching() {
        let mut sched = CentralLcf::with_round_robin(8);
        let m = sched.schedule(&RequestMatrix::new(8));
        assert_eq!(m.size(), 0);
    }

    #[test]
    fn full_requests_give_full_matching() {
        let mut sched = CentralLcf::with_round_robin(8);
        for _ in 0..20 {
            let m = sched.schedule(&RequestMatrix::full(8));
            assert_eq!(m.size(), 8, "full request matrix must saturate");
        }
    }

    #[test]
    fn single_request_is_granted() {
        let mut sched = CentralLcf::pure(5);
        let requests = RequestMatrix::from_pairs(5, [(2, 4)]);
        let m = sched.schedule(&requests);
        assert_eq!(m.output_for(2), Some(4));
        assert_eq!(m.size(), 1);
    }

    const ALL_POLICIES: [RrPolicy; 6] = [
        RrPolicy::None,
        RrPolicy::SinglePosition,
        RrPolicy::Row,
        RrPolicy::Column,
        RrPolicy::Diagonal,
        RrPolicy::PriorityDiagonal,
    ];

    #[test]
    fn matching_is_always_valid_and_maximal() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0xFACE);
        for policy in ALL_POLICIES {
            let mut sched = CentralLcf::with_policy(16, policy);
            for _ in 0..200 {
                let requests = RequestMatrix::random(16, 0.3, &mut rng);
                let m = sched.schedule(&requests);
                assert!(m.is_valid_for(&requests), "{policy:?}");
                assert!(
                    m.is_maximal_for(&requests),
                    "{policy:?}: central LCF is greedy-maximal"
                );
            }
        }
    }

    #[test]
    fn policy_names_are_distinct() {
        let mut names: Vec<&str> = ALL_POLICIES
            .iter()
            .map(|&p| CentralLcf::with_policy(4, p).name())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_POLICIES.len());
    }

    #[test]
    fn priority_diagonal_grants_whole_diagonal_first() {
        // Every requester requests everything; the entire diagonal must be
        // granted as-is, giving the identity-shifted permutation.
        let mut sched = CentralLcf::with_policy(4, RrPolicy::PriorityDiagonal);
        sched.advance_pointer(); // I = 1, J = 0
        let m = sched.schedule(&RequestMatrix::full(4));
        // Diagonal positions at (I=1, J=0): (1,0), (2,1), (3,2), (0,3).
        assert_eq!(m.output_for(1), Some(0));
        assert_eq!(m.output_for(2), Some(1));
        assert_eq!(m.output_for(3), Some(2));
        assert_eq!(m.output_for(0), Some(3));
    }

    #[test]
    fn priority_diagonal_gives_b_over_n_guarantee() {
        // Pair (2, 3) competes against all-ones background: it must be
        // served at least once every n cycles... the diagonal passes
        // through (2, 3) once per n cycles of I with J aligned; over n^2
        // cycles that is n visits.
        let n = 4;
        let mut sched = CentralLcf::with_policy(n, RrPolicy::PriorityDiagonal);
        let mut requests = RequestMatrix::full(n);
        requests.clear_requester(2);
        requests.set(2, 3, true);
        let mut grants = 0;
        let cycles = n * n;
        for _ in 0..cycles {
            if sched.schedule(&requests).output_for(2) == Some(3) {
                grants += 1;
            }
        }
        assert!(
            grants >= cycles / n,
            "b/n guarantee: expected >= {} grants, got {grants}",
            cycles / n
        );
    }

    #[test]
    fn row_policy_protects_favored_requester() {
        // Requester I=1 (after one advance) has a huge NRQ but must win one
        // of its resources while its row is favored.
        let requests = RequestMatrix::from_pairs(4, [(0, 0), (1, 0), (1, 1), (1, 2), (2, 1)]);
        let mut sched = CentralLcf::with_policy(4, RrPolicy::Row);
        sched.advance_pointer(); // I = 1
        let m = sched.schedule(&requests);
        assert!(m.output_for(1).is_some(), "favored row must be served");
    }

    #[test]
    fn column_policy_serves_resource_by_chain_order() {
        // Resource J=0 is column-protected: the rotating chain from the
        // diagonal requester wins regardless of NRQ. With I=1, requester 1
        // (NRQ 3) beats requester 0 (NRQ 1) on resource 0.
        let requests = RequestMatrix::from_pairs(4, [(0, 0), (1, 0), (1, 1), (1, 2)]);
        let mut sched = CentralLcf::with_policy(4, RrPolicy::Column);
        sched.advance_pointer(); // I = 1, J = 0
        let m = sched.schedule(&requests);
        assert_eq!(
            m.output_for(1),
            Some(0),
            "chain order ignores NRQ in the column"
        );
    }

    #[test]
    fn single_position_policy_matches_distributed_rr_semantics() {
        // Only [I, J] is protected. With I=1, J=0: requester 1 wins
        // resource 0 despite NRQ; nothing else is protected.
        let requests = RequestMatrix::from_pairs(4, [(0, 0), (1, 0), (1, 1), (1, 2)]);
        let mut sched = CentralLcf::with_policy(4, RrPolicy::SinglePosition);
        sched.advance_pointer();
        let m = sched.schedule(&requests);
        assert_eq!(m.output_for(1), Some(0));
    }

    #[test]
    fn pointer_advances_every_cycle() {
        let mut sched = CentralLcf::with_round_robin(4);
        let empty = RequestMatrix::new(4);
        for _ in 0..4 {
            sched.schedule(&empty);
        }
        // After n cycles I wrapped and J advanced.
        assert_eq!(sched.pointer(), (0, 1));
    }

    #[test]
    fn round_robin_position_beats_lcf_priority() {
        // Requester 0 has 1 request (highest LCF priority), requester 1 has 2,
        // but [I=1, T0] is the round-robin position, so requester 1 must win T0.
        let requests = RequestMatrix::from_pairs(4, [(0, 0), (1, 0), (1, 1)]);
        let mut sched = CentralLcf::with_round_robin(4);
        sched.advance_pointer(); // I = 1, J = 0
        let m = sched.schedule(&requests);
        assert_eq!(
            m.output_for(1),
            Some(0),
            "RR position wins despite higher NRQ"
        );
        assert_eq!(m.output_for(0), None, "loser's only request was taken");
    }

    #[test]
    fn pure_lcf_grants_fewest_choices_first() {
        // Same pattern, no round-robin: requester 0 (NRQ 1) wins T0 and
        // requester 1 is diverted to T1 — one more connection in total.
        let requests = RequestMatrix::from_pairs(4, [(0, 0), (1, 0), (1, 1)]);
        let mut sched = CentralLcf::pure(4);
        sched.advance_pointer();
        let m = sched.schedule(&requests);
        assert_eq!(m.output_for(0), Some(0));
        assert_eq!(m.output_for(1), Some(1));
        assert_eq!(m.size(), 2);
    }

    #[test]
    fn reset_restores_origin() {
        let mut sched = CentralLcf::with_round_robin(4);
        let empty = RequestMatrix::new(4);
        for _ in 0..7 {
            sched.schedule(&empty);
        }
        assert_ne!(sched.pointer(), (0, 0));
        sched.reset();
        assert_eq!(sched.pointer(), (0, 0));
    }

    #[test]
    fn every_position_is_rr_position_once_per_n_squared_cycles() {
        // Feed only request (2, 3) and count grants over n^2 cycles with an
        // adversarial competitor that always requests everything: the RR
        // diagonal must hand (2, 3) at least one slot per n^2 (paper's b/n^2
        // bound).
        let n = 4;
        let mut sched = CentralLcf::with_round_robin(n);
        let mut requests = RequestMatrix::full(n);
        requests.clear_requester(2);
        requests.set(2, 3, true);
        let mut grants_to_2_3 = 0;
        for _ in 0..n * n {
            let m = sched.schedule(&requests);
            if m.output_for(2) == Some(3) {
                grants_to_2_3 += 1;
            }
        }
        assert!(grants_to_2_3 >= 1, "b/n^2 lower bound violated");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let mut sched = CentralLcf::pure(4);
        let _ = sched.schedule(&RequestMatrix::new(5));
    }
}
