//! The request/grant/accept iteration shared by the iterative schedulers.
//!
//! PIM, iSLIP and distributed LCF (Sec. 5) run the same loop: every
//! unmatched input requests the unmatched outputs it has cells for, every
//! unmatched output grants one requester, and every unmatched input
//! accepts one grant. They differ only in the *selection rule* — a coin
//! flip, a rotating pointer, or the least count with a rotating tie-break.
//! [`IterEngine::run_iterations`] is that loop once, on word-parallel
//! masks; each scheduler supplies its rule as an [`IterRule`].
//!
//! The engine also owns the convergence [`IterationTrace`] and the step
//! recording, which the schedulers' scalar reference kernels share, so
//! both backends report identical traces. The word kernel takes its step
//! log as a type parameter ([`StepLog`]), picked once per cycle from the
//! tracing switch: an untraced cycle runs [`NoSteps`], whose no-op methods
//! leave no logging branch in the grant and accept loops.

use crate::bitkern;
use crate::matching::Matching;
use crate::request::RequestMatrix;
use crate::telemetry::IterationStep;

/// Per-cycle convergence record of the last `schedule` call of an
/// iterative scheduler (distributed LCF, PIM or iSLIP).
///
/// Used by the EXT-2 experiment (iterations needed vs `n`): the paper argues
/// the distributed scheduler converges in `O(log² n)` iterations like PIM.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IterationTrace {
    /// Number of *new* matches made in each executed iteration.
    pub new_matches: Vec<usize>,
    /// The 1-based iteration after which no further matches were possible
    /// (the algorithm had converged), if it converged within the budget.
    pub converged_after: Option<usize>,
    /// The round-robin pre-grant of this cycle, if the scheduler made one
    /// (only populated while tracing).
    pub pre_grant: Option<(usize, usize)>,
    /// Full request/grant/accept sets per iteration (only populated while
    /// tracing — see [`Scheduler::set_tracing`](crate::traits::Scheduler::set_tracing)).
    pub steps: Vec<IterationStep>,
}

impl IterationTrace {
    /// Total matches made across all iterations (excluding a round-robin
    /// pre-grant).
    pub fn total_matches(&self) -> usize {
        self.new_matches.iter().sum()
    }

    /// Emits the trace as events (a `pre_grant` event, then one `iteration`
    /// event per recorded step), stamped with slot 0.
    pub(crate) fn drain_into(&mut self, sink: &mut dyn FnMut(lcf_telemetry::Event)) {
        if let Some((i, j)) = self.pre_grant.take() {
            sink(
                lcf_telemetry::Event::new(0, "pre_grant")
                    .field("input", i)
                    .field("output", j),
            );
        }
        for (iter, step) in self.steps.drain(..).enumerate() {
            sink(step.to_event(iter));
        }
    }
}

/// The selection rule of one iterative scheduler. The engine calls
/// `grant` for the unmatched outputs and `accept` for the unmatched inputs
/// in ascending port order, so a stateful rule (PIM's RNG) sees the same
/// call sequence as the scheduler's scalar reference kernel.
pub(crate) trait IterRule {
    /// Called before each grant step with the request matrix and the mask
    /// of still-unmatched outputs.
    fn before_grant(&mut self, _requests: &RequestMatrix, _unmatched_out: &[u64]) {}

    /// The input output `j` grants, among the set bits of `cand` (its
    /// unmatched requesters); `None` iff `cand` is empty.
    fn grant(&mut self, j: usize, cand: &[u64]) -> Option<usize>;

    /// The output input `i` accepts, among the set bits of `grants`; `None`
    /// iff `grants` is empty.
    fn accept(&mut self, i: usize, grants: &[u64]) -> Option<usize>;

    /// Called for every accepted grant; `iter` is the 0-based iteration.
    fn matched(&mut self, _iter: usize, _i: usize, _j: usize) {}
}

/// Where a cycle records its request/grant/accept sets. Every method
/// defaults to a no-op, so [`NoSteps`] records nothing and compiles to
/// nothing; [`Steps`] appends to [`IterationTrace::steps`].
pub(crate) trait StepLog {
    /// Opens an iteration's step with every live request: each (unmatched
    /// input, unmatched output) pair backed by a queued packet,
    /// input-major.
    fn requests(_trace: &mut IterationTrace, _requests: &RequestMatrix, _matching: &Matching) {}

    /// Records output `j` granting input `i` in the open step.
    fn grant(_trace: &mut IterationTrace, _i: usize, _j: usize) {}

    /// Records input `i` accepting output `j` in the open step.
    fn accept(_trace: &mut IterationTrace, _i: usize, _j: usize) {}
}

/// The untraced step log: zero-sized, records nothing.
pub(crate) struct NoSteps;

impl StepLog for NoSteps {}

/// The traced step log. Grants and accepts land in the open step, if any:
/// steps exist only while tracing, because switching it off drops them.
pub(crate) struct Steps;

impl StepLog for Steps {
    fn requests(trace: &mut IterationTrace, requests: &RequestMatrix, matching: &Matching) {
        let mut step = IterationStep::default();
        for i in (0..matching.n()).filter(|&i| !matching.input_matched(i)) {
            let live = requests
                .row_ones(i)
                .filter(|&j| !matching.output_matched(j));
            step.requests.extend(live.map(|j| (i, j)));
        }
        trace.steps.push(step);
    }

    fn grant(trace: &mut IterationTrace, i: usize, j: usize) {
        if let Some(step) = trace.steps.last_mut() {
            step.grants.push((i, j));
        }
    }

    fn accept(trace: &mut IterationTrace, i: usize, j: usize) {
        if let Some(step) = trace.steps.last_mut() {
            step.accepts.push((i, j));
        }
    }
}

/// The mask scratch, convergence trace and tracing switch of an iterative
/// scheduler. Scratch is sized at construction, so a cycle allocates
/// nothing.
#[derive(Clone, Debug)]
pub(crate) struct IterEngine {
    n: usize,
    // Flat `n × words_for(n)` per-input grant masks, plus single-mask
    // scratch.
    grant_mask: Vec<u64>,
    unmatched_in: Vec<u64>,
    unmatched_out: Vec<u64>,
    cand: Vec<u64>,
    pub(crate) trace: IterationTrace,
    tracing: bool,
}

impl IterEngine {
    pub(crate) fn new(n: usize) -> Self {
        let w = bitkern::words_for(n);
        IterEngine {
            n,
            grant_mask: vec![0; n * w],
            unmatched_in: vec![0; w],
            unmatched_out: vec![0; w],
            cand: vec![0; w],
            trace: IterationTrace::default(),
            tracing: false,
        }
    }

    /// Switches step recording on or off. Switching off drops the steps
    /// and pre-grant not yet drained, so an untraced cycle never has to
    /// clear them.
    pub(crate) fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
        if !enabled {
            self.trace.steps.clear();
            self.trace.pre_grant = None;
        }
    }

    /// Starts a cycle: clears `out` and the trace, then connects the
    /// round-robin `pre_grant`, if any.
    pub(crate) fn begin_cycle(&mut self, out: &mut Matching, pre_grant: Option<(usize, usize)>) {
        out.reset(self.n);
        let trace = &mut self.trace;
        trace.new_matches.clear();
        trace.converged_after = None;
        if self.tracing {
            trace.steps.clear();
            trace.pre_grant = pre_grant;
        }
        if let Some((i, j)) = pre_grant {
            out.connect(i, j);
        }
    }

    /// Opens an iteration's step record while tracing (the scalar
    /// kernels' entry to [`Steps`]).
    pub(crate) fn log_requests(&mut self, requests: &RequestMatrix, matching: &Matching) {
        if self.tracing {
            Steps::requests(&mut self.trace, requests, matching);
        }
    }

    /// Records output `j` granting input `i` in the open step, if any.
    pub(crate) fn log_grant(&mut self, i: usize, j: usize) {
        Steps::grant(&mut self.trace, i, j);
    }

    /// Records input `i` accepting output `j` in the open step, if any.
    pub(crate) fn log_accept(&mut self, i: usize, j: usize) {
        Steps::accept(&mut self.trace, i, j);
    }

    /// Closes iteration `iter` (0-based) with its match count. Returns true
    /// when it made no match: the matching has converged and the cycle
    /// ends.
    pub(crate) fn end_iteration(&mut self, iter: usize, new_matches: usize) -> bool {
        self.trace.new_matches.push(new_matches);
        if new_matches == 0 {
            self.trace.converged_after = Some(iter + 1);
        }
        new_matches == 0
    }

    /// Runs one scheduling cycle on the word kernel, recording its steps
    /// only while tracing: the one tracing check of the cycle.
    pub(crate) fn run<R: IterRule>(
        &mut self,
        rule: &mut R,
        requests: &RequestMatrix,
        out: &mut Matching,
        iterations: usize,
        pre_grant: Option<(usize, usize)>,
    ) {
        if self.tracing {
            self.run_iterations::<R, Steps>(rule, requests, out, iterations, pre_grant);
        } else {
            self.run_iterations::<R, NoSteps>(rule, requests, out, iterations, pre_grant);
        }
    }

    /// Runs one scheduling cycle of up to `iterations` request/grant/accept
    /// iterations into `out`, selecting with `rule` and recording steps
    /// through `L`. Candidate filtering is
    /// a word-wise `AND` of the request matrix's column mask
    /// ([`RequestMatrix::col_words`], read in place) against the
    /// unmatched-inputs mask;
    /// walking word copies of the unmatched masks visits the ports in
    /// ascending order. The per-word snapshot of `unmatched_in` stays valid
    /// through the accept step: an input is cleared only when it accepts,
    /// at most once per iteration.
    fn run_iterations<R: IterRule, L: StepLog>(
        &mut self,
        rule: &mut R,
        requests: &RequestMatrix,
        out: &mut Matching,
        iterations: usize,
        pre_grant: Option<(usize, usize)>,
    ) {
        let n = self.n;
        let w = bitkern::words_for(n);
        self.begin_cycle(out, pre_grant);
        bitkern::mask_fill(&mut self.unmatched_in, n);
        bitkern::mask_fill(&mut self.unmatched_out, n);
        if let Some((i, j)) = pre_grant {
            bitkern::clear_bit(&mut self.unmatched_in, i);
            bitkern::clear_bit(&mut self.unmatched_out, j);
        }

        for iter in 0..iterations {
            L::requests(&mut self.trace, requests, out);
            rule.before_grant(requests, &self.unmatched_out);

            self.grant_mask.fill(0);
            for wi in 0..w {
                let mut outs = self.unmatched_out[wi];
                while outs != 0 {
                    let j = wi * bitkern::WORD_BITS + outs.trailing_zeros() as usize;
                    outs &= outs - 1;
                    let col = requests.col_words(j);
                    for ((c, &col), &free) in self.cand.iter_mut().zip(col).zip(&self.unmatched_in)
                    {
                        *c = col & free;
                    }
                    if let Some(i) = rule.grant(j, &self.cand) {
                        bitkern::set_bit(&mut self.grant_mask[i * w..(i + 1) * w], j);
                        L::grant(&mut self.trace, i, j);
                    }
                }
            }

            let mut new_matches = 0;
            for wi in 0..w {
                let mut ins = self.unmatched_in[wi];
                while ins != 0 {
                    let i = wi * bitkern::WORD_BITS + ins.trailing_zeros() as usize;
                    ins &= ins - 1;
                    if let Some(j) = rule.accept(i, &self.grant_mask[i * w..(i + 1) * w]) {
                        out.connect(i, j);
                        bitkern::clear_bit(&mut self.unmatched_in, i);
                        bitkern::clear_bit(&mut self.unmatched_out, j);
                        new_matches += 1;
                        L::accept(&mut self.trace, i, j);
                        rule.matched(iter, i, j);
                    }
                }
            }
            if self.end_iteration(iter, new_matches) {
                break;
            }
        }
    }
}
