//! The correctness gate: every check the benchmark makes is counted, and
//! the failed share is reported next to the metrics.

use lcf_sim::session::WindowReport;

/// Counts attempted and failed checks; keeps the first few failure texts
/// for stderr.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Checks {
    /// Records one check; `what` is only built when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// Packets are neither created nor lost inside a window: what arrived
    /// was delivered, dropped or is still buffered.
    pub fn window_conserves(&mut self, backlog_before: usize, r: &WindowReport) {
        let ok = r.generated + backlog_before as u64 == r.delivered + r.dropped + r.backlog as u64;
        self.check(ok, || {
            format!(
                "window at slot {}: generated {} + backlog {} != delivered {} + dropped {} + backlog {}",
                r.start_slot, r.generated, backlog_before, r.delivered, r.dropped, r.backlog
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(generated: u64, delivered: u64, backlog: usize) -> WindowReport {
        WindowReport {
            start_slot: 0,
            slots: 100,
            generated,
            delivered,
            dropped: 0,
            latency_samples: delivered,
            mean_latency: 1.0,
            backlog,
            mean_backlog: 0.0,
            occupancy: None,
        }
    }

    #[test]
    fn conserving_window_passes() {
        let mut checks = Checks::default();
        checks.window_conserves(5, &report(90, 80, 15));
        assert_eq!((checks.attempted, checks.failed), (1, 0));
    }

    #[test]
    fn injected_non_conserving_window_is_a_failure() {
        let mut checks = Checks::default();
        checks.window_conserves(5, &report(90, 80, 15));
        // One packet vanished: 91 in, 80 out, 15 left.
        checks.window_conserves(15, &report(91, 80, 25));
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert!(checks.messages()[0].contains("generated 91"));
    }
}
