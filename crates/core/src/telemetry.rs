//! Decision-trace records emitted by the schedulers while tracing.
//!
//! The paper's central argument is *why* each grant happens — the
//! round-robin position takes precedence, then the requester with the
//! fewest outstanding requests, then the rotating tie-break chain. This
//! module gives those reasons a concrete, testable shape:
//!
//! * [`GrantDecision`] / [`GrantReason`] — one record per output granted by
//!   the sequential central scheduler ([`CentralLcf`]), including the
//!   losing requesters and their outstanding-request counts.
//! * [`IterationStep`] — the request/grant/accept sets of one iteration of
//!   an iterative scheduler (distributed LCF, PIM, iSLIP), carried on
//!   [`IterationTrace`](crate::lcf::IterationTrace).
//!
//! Both convert to [`lcf_telemetry::Event`]s (stamped with slot 0 — the
//! simulator re-stamps events with the real slot when it drains them), so
//! the same records power the golden-trace fixtures, the Fig. 3
//! worked-example test and the `trace` CLI subcommand.
//!
//! [`CentralLcf`]: crate::lcf::CentralLcf

use lcf_telemetry::{Event, Value};

/// Why the central LCF scheduler granted an output to a requester.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrantReason {
    /// The rotating round-robin position held a request: it wins outright,
    /// before any count is compared (Fig. 2 step 1; also the
    /// `SinglePosition` and `Row` policy fast paths).
    RrPosition,
    /// The position was granted in the `PriorityDiagonal` pre-pass, before
    /// any non-diagonal position was considered.
    PriorityDiagonal,
    /// A `Column`-policy grant: the rotating priority chain picked the
    /// winner, ignoring request counts.
    ColumnChain,
    /// The winner was the only requester of this output.
    OnlyChoice,
    /// The winner had strictly the fewest outstanding requests (NRQ) among
    /// the output's requesters — the least-choice-first rule proper.
    MinCount,
    /// Two or more requesters shared the minimum count; the rotating
    /// priority chain starting at the diagonal requester broke the tie.
    TieBreak,
}

impl GrantReason {
    /// The stable string used in trace events and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            GrantReason::RrPosition => "rr_position",
            GrantReason::PriorityDiagonal => "priority_diagonal",
            GrantReason::ColumnChain => "column_chain",
            GrantReason::OnlyChoice => "only_choice",
            GrantReason::MinCount => "min_count",
            GrantReason::TieBreak => "tie_break",
        }
    }
}

/// One output-port grant decision of the central LCF scheduler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrantDecision {
    /// The output port (resource) being scheduled.
    pub resource: usize,
    /// The input port (requester) that won the grant.
    pub winner: usize,
    /// The winner's outstanding-request count at decision time.
    pub winner_nrq: usize,
    /// Why the winner won.
    pub reason: GrantReason,
    /// The requesters that lost this output, with their outstanding-request
    /// counts at decision time.
    pub losers: Vec<(usize, usize)>,
}

impl GrantDecision {
    /// The decision as a trace event (kind `grant`, slot 0 — the caller
    /// re-stamps the slot).
    pub fn to_event(&self) -> Event {
        let losers: Vec<Value> = self
            .losers
            .iter()
            .map(|&(req, nrq)| Value::Seq(vec![Value::U64(req as u64), Value::U64(nrq as u64)]))
            .collect();
        Event::new(0, "grant")
            .field("output", self.resource)
            .field("input", self.winner)
            .field("reason", self.reason.as_str())
            .field("nrq", self.winner_nrq)
            .field("losers", Value::Seq(losers))
    }
}

/// The request/grant/accept sets of one iteration of an iterative
/// scheduler (distributed LCF, PIM or iSLIP), as `(input, output)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IterationStep {
    /// Requests sent this iteration: every (unmatched input, unmatched
    /// output) pair still backed by a queued packet.
    pub requests: Vec<(usize, usize)>,
    /// Grants offered this iteration (one per granting output).
    pub grants: Vec<(usize, usize)>,
    /// Grants accepted this iteration — the new matches.
    pub accepts: Vec<(usize, usize)>,
}

impl IterationStep {
    /// The step as a trace event (kind `iteration`, slot 0 — the caller
    /// re-stamps the slot). `iter` is the 0-based iteration index.
    pub fn to_event(&self, iter: usize) -> Event {
        fn pairs(set: &[(usize, usize)]) -> Value {
            Value::Seq(
                set.iter()
                    .map(|&(i, j)| Value::Seq(vec![Value::U64(i as u64), Value::U64(j as u64)]))
                    .collect(),
            )
        }
        Event::new(0, "iteration")
            .field("iter", iter)
            .field("requests", pairs(&self.requests))
            .field("grants", pairs(&self.grants))
            .field("accepts", pairs(&self.accepts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_event_shape() {
        let d = GrantDecision {
            resource: 1,
            winner: 3,
            winner_nrq: 1,
            reason: GrantReason::MinCount,
            losers: vec![(0, 2)],
        };
        assert_eq!(
            d.to_event().to_json(),
            r#"{"slot":0,"kind":"grant","output":1,"input":3,"reason":"min_count","nrq":1,"losers":[[0,2]]}"#
        );
    }

    #[test]
    fn iteration_event_shape() {
        let s = IterationStep {
            requests: vec![(0, 2), (1, 0)],
            grants: vec![(0, 2)],
            accepts: vec![(0, 2)],
        };
        assert_eq!(
            s.to_event(0).to_json(),
            r#"{"slot":0,"kind":"iteration","iter":0,"requests":[[0,2],[1,0]],"grants":[[0,2]],"accepts":[[0,2]]}"#
        );
    }

    #[test]
    fn reason_strings_are_distinct() {
        let all = [
            GrantReason::RrPosition,
            GrantReason::PriorityDiagonal,
            GrantReason::ColumnChain,
            GrantReason::OnlyChoice,
            GrantReason::MinCount,
            GrantReason::TieBreak,
        ];
        let mut names: Vec<&str> = all.iter().map(|r| r.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
