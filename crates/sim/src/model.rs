//! The [`SwitchModel`] trait and the shared [`drive`] slot loop.
//!
//! Every switch architecture in this crate — the input-queued crossbar
//! ([`IqSwitch`] / [`CrossbarSwitch`]), the CIOQ switch with speedup and
//! pipelining ([`CioqSwitch`]) and the output-buffered reference
//! ([`ObSwitch`]) — advances one time slot at a time under the same
//! warm-up/measure protocol. Before this trait existed the protocol was
//! duplicated four times (`run_sim`, `run_sim_with_stats`, `run_sim_traced`
//! and ad-hoc test loops); now there is exactly one [`drive`] function and
//! the models only implement [`SwitchModel::step`].
//!
//! ```text
//!                 ┌───────────────────────────────┐
//!                 │  drive(model, traffic, rng)   │
//!                 │  warm-up ──► measure ──► stats│
//!                 └──────┬─────────────┬──────────┘
//!                        │ step()      │ drain + re-stamp events
//!        ┌───────────────┼─────────────┼───────────────┐
//!        ▼               ▼             ▼               ▼
//!  CrossbarSwitch   CioqSwitch     ObSwitch      (future models)
//!  (IqSwitch)       speedup s,     no scheduler
//!  VOQ / FIFO       pipeline L
//! ```
//!
//! Telemetry flows one way: [`drive`] drains each model's scheduler events
//! after every step, re-stamps them with the model's slot clock and pushes
//! them into the model's trace buffer. Models therefore never re-stamp
//! events themselves — a traced CIOQ or output-buffered path cannot forget
//! the stamping, because it never does it.
//!
//! [`IqSwitch`]: crate::switch::IqSwitch
//! [`CrossbarSwitch`]: crate::switch::CrossbarSwitch
//! [`CioqSwitch`]: crate::cioq::CioqSwitch
//! [`ObSwitch`]: crate::outbuf::ObSwitch

use crate::cioq::CioqSwitch;
use crate::outbuf::ObSwitch;
use crate::stats::SimStats;
use crate::switch::IqSwitch;
#[cfg(feature = "telemetry")]
use crate::switch::SwitchTelemetry;
use crate::traffic::Traffic;
use rand::rngs::StdRng;

/// A slot-stepped switch architecture the shared [`drive`] loop can run.
///
/// The contract mirrors the scheduler hot-path memory contract
/// ([`Scheduler::schedule_into`](lcf_core::traits::Scheduler::schedule_into)):
/// [`step`](SwitchModel::step) must not allocate per slot — all queues,
/// request matrices and matching buffers are sized at construction and
/// reused. The repo's `hot-path-alloc` lint checks `step` bodies
/// mechanically.
pub trait SwitchModel {
    /// Number of ports.
    fn num_ports(&self) -> usize;

    /// Name of the scheduler driving the model (Fig. 12 legend name), or a
    /// fixed description for scheduler-less architectures.
    fn scheduler_name(&self) -> &'static str;

    /// Advances the model by one slot: arrivals, buffering, scheduling (if
    /// any) and output-link service, recording into `stats`.
    fn step(
        &mut self,
        slot: u64,
        traffic: &mut dyn Traffic,
        rng: &mut StdRng,
        stats: &mut SimStats,
    );

    /// Total packets currently buffered anywhere in the model.
    fn buffered_packets(&self) -> usize;

    /// Starts recording telemetry into a trace buffer of `trace_capacity`
    /// events (0 = unbounded). Default: ignored — models without telemetry
    /// record nothing.
    #[cfg(feature = "telemetry")]
    fn enable_telemetry(&mut self, _trace_capacity: usize) {}

    /// Stops recording and hands back the collected telemetry (None if
    /// telemetry was never enabled or the model has none).
    #[cfg(feature = "telemetry")]
    fn take_telemetry(&mut self) -> Option<Box<SwitchTelemetry>> {
        None
    }

    /// The live telemetry state, if enabled. [`drive`] uses this to re-stamp
    /// drained scheduler events with the model's slot clock.
    #[cfg(feature = "telemetry")]
    fn telemetry_mut(&mut self) -> Option<&mut SwitchTelemetry> {
        None
    }

    /// Drains the underlying scheduler's decision events (stamped slot 0 —
    /// schedulers have no time base) into `sink`. Default: no events.
    #[cfg(feature = "telemetry")]
    fn drain_scheduler_events(&mut self, _sink: &mut dyn FnMut(lcf_telemetry::Event)) {}

    /// Replaces the scheduler driving the model (online reconfiguration
    /// between serve windows). Queue contents are preserved; the queueing
    /// discipline is fixed at construction. Default: unsupported.
    fn swap_scheduler(
        &mut self,
        scheduler: Box<dyn lcf_core::traits::Scheduler + Send>,
    ) -> Result<(), String> {
        let _ = scheduler;
        Err(format!(
            "{} does not support scheduler swap",
            self.scheduler_name()
        ))
    }
}

/// Forwarding impl so a borrowed model (`&mut dyn SwitchModel`) can sit in
/// a [`DriveSession`](crate::session::DriveSession) exactly like an owned
/// one.
impl<M: SwitchModel + ?Sized> SwitchModel for &mut M {
    fn num_ports(&self) -> usize {
        (**self).num_ports()
    }

    fn scheduler_name(&self) -> &'static str {
        (**self).scheduler_name()
    }

    fn step(
        &mut self,
        slot: u64,
        traffic: &mut dyn Traffic,
        rng: &mut StdRng,
        stats: &mut SimStats,
    ) {
        (**self).step(slot, traffic, rng, stats);
    }

    fn buffered_packets(&self) -> usize {
        (**self).buffered_packets()
    }

    #[cfg(feature = "telemetry")]
    fn enable_telemetry(&mut self, trace_capacity: usize) {
        (**self).enable_telemetry(trace_capacity);
    }

    #[cfg(feature = "telemetry")]
    fn take_telemetry(&mut self) -> Option<Box<SwitchTelemetry>> {
        (**self).take_telemetry()
    }

    #[cfg(feature = "telemetry")]
    fn telemetry_mut(&mut self) -> Option<&mut SwitchTelemetry> {
        (**self).telemetry_mut()
    }

    #[cfg(feature = "telemetry")]
    fn drain_scheduler_events(&mut self, sink: &mut dyn FnMut(lcf_telemetry::Event)) {
        (**self).drain_scheduler_events(sink);
    }

    fn swap_scheduler(
        &mut self,
        scheduler: Box<dyn lcf_core::traits::Scheduler + Send>,
    ) -> Result<(), String> {
        (**self).swap_scheduler(scheduler)
    }
}

/// Forwarding impl so an owned boxed model (`Box<dyn SwitchModel>`) can sit
/// in a [`DriveSession`](crate::session::DriveSession) (serve shards own
/// their models).
impl<M: SwitchModel + ?Sized> SwitchModel for Box<M> {
    fn num_ports(&self) -> usize {
        (**self).num_ports()
    }

    fn scheduler_name(&self) -> &'static str {
        (**self).scheduler_name()
    }

    fn step(
        &mut self,
        slot: u64,
        traffic: &mut dyn Traffic,
        rng: &mut StdRng,
        stats: &mut SimStats,
    ) {
        (**self).step(slot, traffic, rng, stats);
    }

    fn buffered_packets(&self) -> usize {
        (**self).buffered_packets()
    }

    #[cfg(feature = "telemetry")]
    fn enable_telemetry(&mut self, trace_capacity: usize) {
        (**self).enable_telemetry(trace_capacity);
    }

    #[cfg(feature = "telemetry")]
    fn take_telemetry(&mut self) -> Option<Box<SwitchTelemetry>> {
        (**self).take_telemetry()
    }

    #[cfg(feature = "telemetry")]
    fn telemetry_mut(&mut self) -> Option<&mut SwitchTelemetry> {
        (**self).telemetry_mut()
    }

    #[cfg(feature = "telemetry")]
    fn drain_scheduler_events(&mut self, sink: &mut dyn FnMut(lcf_telemetry::Event)) {
        (**self).drain_scheduler_events(sink);
    }

    fn swap_scheduler(
        &mut self,
        scheduler: Box<dyn lcf_core::traits::Scheduler + Send>,
    ) -> Result<(), String> {
        (**self).swap_scheduler(scheduler)
    }
}

/// Parameters of one [`drive`] run.
#[derive(Clone, Debug)]
pub struct DriveOptions {
    /// Slots run with a throwaway stats collector so queues reach steady
    /// state before measurement.
    pub warmup_slots: u64,
    /// Slots in the measurement window.
    pub measure_slots: u64,
    /// Upper bound of the latency histogram in slots.
    pub max_latency_bucket: usize,
    /// `Some(cap)` enables telemetry for the measurement window with a trace
    /// buffer of `cap` events (0 = unbounded). Ignored when the `telemetry`
    /// feature is off.
    pub trace_capacity: Option<usize>,
}

impl DriveOptions {
    /// Untraced run: `warmup_slots` warm-up, `measure_slots` measured.
    pub fn new(warmup_slots: u64, measure_slots: u64, max_latency_bucket: usize) -> Self {
        DriveOptions {
            warmup_slots,
            measure_slots,
            max_latency_bucket,
            trace_capacity: None,
        }
    }

    /// Enables telemetry over the measurement window (builder style).
    pub fn traced(mut self, trace_capacity: usize) -> Self {
        self.trace_capacity = Some(trace_capacity);
        self
    }
}

/// The single warm-up/measure slot loop shared by every switch model and
/// every runner entry point (`run_sim`, `run_sim_with_stats`,
/// `run_sim_traced`, tests and benches).
///
/// Protocol:
///
/// 1. **Warm-up** — `warmup_slots` steps against a throwaway stats
///    collector, so the measurement below starts from steady-state queues.
/// 2. **Telemetry on** (traced runs only) — enabled *after* warm-up, so the
///    trace describes exactly the slots the returned statistics do.
/// 3. **Measure** — `measure_slots` steps into a fresh [`SimStats`] whose
///    latency samples only come from packets generated inside the window.
///
/// After every step the model's scheduler events are drained, re-stamped
/// with the current slot and appended to the model's trace (telemetry
/// builds only). Collect the trace afterwards with
/// `SwitchModel::take_telemetry`.
///
/// Returns the measurement-window statistics.
pub fn drive(
    model: &mut dyn SwitchModel,
    traffic: &mut dyn Traffic,
    rng: &mut StdRng,
    opts: &DriveOptions,
) -> SimStats {
    #[cfg(not(feature = "telemetry"))]
    let _ = opts.trace_capacity;

    let mut session =
        crate::session::DriveSession::new(model, traffic, rng, opts.max_latency_bucket);
    session.step_window(opts.warmup_slots);
    #[cfg(feature = "telemetry")]
    if let Some(cap) = opts.trace_capacity {
        session.enable_telemetry(cap);
    }
    session.begin_measurement();
    session.step_window(opts.measure_slots);
    session.into_stats()
}

/// Moves the scheduler's decision events into the model's trace, re-stamped
/// with the model's slot clock. The scratch buffer is owned by the
/// [`DriveSession`](crate::session::DriveSession) and reused across slots;
/// schedulers record events only while tracing, so this is a no-op for
/// untraced runs.
#[cfg(feature = "telemetry")]
pub(crate) fn relay_scheduler_events(
    model: &mut dyn SwitchModel,
    scratch: &mut Vec<lcf_telemetry::Event>,
) {
    model.drain_scheduler_events(&mut |e| scratch.push(e));
    if let Some(t) = model.telemetry_mut() {
        for mut e in scratch.drain(..) {
            e.slot = t.clock.slot();
            t.trace.push(e);
        }
    } else {
        scratch.clear();
    }
}

impl SwitchModel for IqSwitch {
    fn num_ports(&self) -> usize {
        self.n()
    }

    fn scheduler_name(&self) -> &'static str {
        IqSwitch::scheduler_name(self)
    }

    fn step(
        &mut self,
        slot: u64,
        traffic: &mut dyn Traffic,
        rng: &mut StdRng,
        stats: &mut SimStats,
    ) {
        IqSwitch::step(self, slot, traffic, rng, stats);
    }

    fn buffered_packets(&self) -> usize {
        IqSwitch::buffered_packets(self)
    }

    #[cfg(feature = "telemetry")]
    fn enable_telemetry(&mut self, trace_capacity: usize) {
        IqSwitch::enable_telemetry(self, trace_capacity);
    }

    #[cfg(feature = "telemetry")]
    fn take_telemetry(&mut self) -> Option<Box<SwitchTelemetry>> {
        IqSwitch::take_telemetry(self)
    }

    #[cfg(feature = "telemetry")]
    fn telemetry_mut(&mut self) -> Option<&mut SwitchTelemetry> {
        IqSwitch::telemetry_mut(self)
    }

    #[cfg(feature = "telemetry")]
    fn drain_scheduler_events(&mut self, sink: &mut dyn FnMut(lcf_telemetry::Event)) {
        IqSwitch::drain_scheduler_events(self, sink);
    }

    fn swap_scheduler(
        &mut self,
        scheduler: Box<dyn lcf_core::traits::Scheduler + Send>,
    ) -> Result<(), String> {
        IqSwitch::swap_scheduler(self, scheduler).map(|_| ())
    }
}

impl SwitchModel for CioqSwitch {
    fn num_ports(&self) -> usize {
        self.n()
    }

    fn scheduler_name(&self) -> &'static str {
        CioqSwitch::scheduler_name(self)
    }

    fn step(
        &mut self,
        slot: u64,
        traffic: &mut dyn Traffic,
        rng: &mut StdRng,
        stats: &mut SimStats,
    ) {
        CioqSwitch::step(self, slot, traffic, rng, stats);
    }

    fn buffered_packets(&self) -> usize {
        CioqSwitch::buffered_packets(self)
    }

    #[cfg(feature = "telemetry")]
    fn enable_telemetry(&mut self, trace_capacity: usize) {
        CioqSwitch::enable_telemetry(self, trace_capacity);
    }

    #[cfg(feature = "telemetry")]
    fn take_telemetry(&mut self) -> Option<Box<SwitchTelemetry>> {
        CioqSwitch::take_telemetry(self)
    }

    #[cfg(feature = "telemetry")]
    fn telemetry_mut(&mut self) -> Option<&mut SwitchTelemetry> {
        CioqSwitch::telemetry_mut(self)
    }

    #[cfg(feature = "telemetry")]
    fn drain_scheduler_events(&mut self, sink: &mut dyn FnMut(lcf_telemetry::Event)) {
        CioqSwitch::drain_scheduler_events(self, sink);
    }
}

impl SwitchModel for ObSwitch {
    fn num_ports(&self) -> usize {
        self.n()
    }

    fn scheduler_name(&self) -> &'static str {
        "n/a (no scheduler)"
    }

    fn step(
        &mut self,
        slot: u64,
        traffic: &mut dyn Traffic,
        rng: &mut StdRng,
        stats: &mut SimStats,
    ) {
        ObSwitch::step(self, slot, traffic, rng, stats);
    }

    fn buffered_packets(&self) -> usize {
        ObSwitch::buffered_packets(self)
    }

    // Telemetry hooks keep their no-op defaults: the output-buffered model
    // has no scheduler to trace, and its traced runs report empty telemetry
    // by contract (see tests/telemetry_equiv.rs).
}
