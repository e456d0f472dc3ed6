//! In-simulator cycle-attribution profiler.
//!
//! When enabled (see [`crate::Machine::enable_profiling`]), the engine
//! charges every simulated cycle to the phase — and the component —
//! whose event advanced the clock to it, and samples host wall-clock
//! time per phase. Two invariants make the numbers trustworthy:
//!
//! 1. **Exact cycle reconciliation.** Each batch of same-cycle events
//!    popped from the event queue charges the clock advance (the delta
//!    from the previous batch) to the phase of the batch's *first*
//!    event; later events in the batch charge zero cycles but still
//!    count. The main loop ends at the final thread's finishing fetch,
//!    whose time is the report's `cycles`, so the per-phase cycle
//!    counters sum to exactly the machine's cycle count. Post-run drain
//!    activity (in-flight writebacks past the last finish) is tracked
//!    separately as `drain_cycles` and excluded from the reconciled
//!    total, mirroring the report.
//!
//! 2. **Zero cost when disabled.** The engine holds an
//!    `Option<Box<Profiler>>`; with profiling off nothing in the hot
//!    path reads the wall clock or touches these counters, and no
//!    statistic surfaced in stats JSON depends on the profiler — runs
//!    with the profiler compiled in but off are byte-identical.
//!
//! Wall-clock attribution is *sampled*: every [`SAMPLE_PERIOD`]-th
//! occurrence of a phase is timed with `std::time::Instant` and the
//! total is estimated by scaling. Sampling keeps the profiled run's
//! overhead low enough that the attribution ranking still reflects the
//! unprofiled hot path.

use std::time::Instant;

use crate::json::Json;

/// Every how many phase occurrences one wall-clock sample is taken.
pub const SAMPLE_PERIOD: u64 = 64;

/// Where a popped event (and the cycles it advanced the clock by) is
/// charged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Stepping a workload thread and dispatching its L1 access.
    CoreStep = 0,
    /// Delivering a protocol message to an L1 controller.
    L1Dispatch = 1,
    /// Delivering a protocol message to a directory bank.
    DirDispatch = 2,
    /// Delivering a request to a memory controller / DRAM.
    Memory = 3,
    /// Timer-driven maintenance (GI timeout sweeps, context switches,
    /// retry deadlines, fault ticks) and event-queue bookkeeping.
    QueueChurn = 4,
    /// Route computation and message injection (`send`). Routing is
    /// never a heap event, so it charges no simulated cycles of its
    /// own — a message's flight time lands in the phase of the
    /// delivery it delays — but it counts events (messages sent),
    /// accumulates their latency cycles as an overlap metric, and is
    /// sampled for wall time like every other phase.
    Routing = 5,
}

/// Number of phases (array size).
pub const NUM_PHASES: usize = 6;

/// Phases in report order.
pub const ALL_PHASES: [Phase; NUM_PHASES] = [
    Phase::CoreStep,
    Phase::L1Dispatch,
    Phase::DirDispatch,
    Phase::Memory,
    Phase::QueueChurn,
    Phase::Routing,
];

impl Phase {
    /// Stable snake_case name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            Phase::CoreStep => "core_step",
            Phase::L1Dispatch => "l1_dispatch",
            Phase::DirDispatch => "dir_dispatch",
            Phase::Memory => "memory",
            Phase::QueueChurn => "queue_churn",
            Phase::Routing => "routing",
        }
    }
}

/// Counters for one phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseCounters {
    /// Events charged to this phase.
    pub events: u64,
    /// Simulated cycles charged to this phase (batch-leader deltas).
    /// For [`Phase::Routing`] this is instead the sum of per-message
    /// delivery latencies — an overlap metric, excluded from the
    /// reconciled total.
    pub cycles: u64,
    /// Wall-clock nanoseconds measured across `wall_samples` samples.
    pub wall_ns: u64,
    /// Number of wall-clock samples taken.
    pub wall_samples: u64,
}

impl PhaseCounters {
    /// Estimated total wall nanoseconds for the phase: measured sample
    /// time scaled by the events-per-sample ratio.
    pub fn est_wall_ns(&self) -> u64 {
        if self.wall_samples == 0 {
            return 0;
        }
        let per_sample = self.wall_ns as f64 / self.wall_samples as f64;
        (per_sample * self.events as f64) as u64
    }
}

/// The finished attribution report, attached to
/// [`crate::machine::FinishedRun::profile`] when profiling was on.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Per-phase counters, indexed by `Phase as usize`.
    pub phases: [PhaseCounters; NUM_PHASES],
    /// Per-core cycles (core stepping + L1 dispatch + maintenance on
    /// that core), same charging rule as the phases.
    pub core_cycles: Vec<u64>,
    /// Per-core event counts.
    pub core_events: Vec<u64>,
    /// Per-directory-bank cycles.
    pub bank_cycles: Vec<u64>,
    /// Per-directory-bank event counts.
    pub bank_events: Vec<u64>,
    /// Cycles charged to memory controllers.
    pub mem_cycles: u64,
    /// Cycles charged to machine-wide events (fault ticks).
    pub machine_cycles: u64,
    /// Simulated cycles spent in the post-completion drain (in-flight
    /// writebacks, and the timers still queued, after the last thread
    /// finished); not part of the reconciled total, mirroring the
    /// report's `cycles`.
    pub drain_cycles: u64,
    /// Events dispatched during the drain.
    pub drain_events: u64,
}

impl Profile {
    /// Sum of the reconciled per-phase cycle counters (everything
    /// except the routing overlap metric). Equals the report's
    /// `cycles` by construction.
    pub fn attributed_cycles(&self) -> u64 {
        ALL_PHASES
            .iter()
            .filter(|p| **p != Phase::Routing)
            .map(|p| self.phases[*p as usize].cycles)
            .sum()
    }

    /// The report as JSON: phases ranked by estimated wall time
    /// (descending), per-component tables, and the reconciliation
    /// totals.
    pub fn to_json(&self) -> Json {
        let mut ranked: Vec<Phase> = ALL_PHASES.to_vec();
        ranked.sort_by_key(|p| std::cmp::Reverse(self.phases[*p as usize].est_wall_ns()));
        let mut phases = Vec::new();
        for p in ranked {
            let c = &self.phases[p as usize];
            let mut o = Json::obj();
            o.push("phase", Json::Str(p.name().into()));
            o.push("events", Json::U64(c.events));
            o.push("cycles", Json::U64(c.cycles));
            o.push("wall_ns_sampled", Json::U64(c.wall_ns));
            o.push("wall_samples", Json::U64(c.wall_samples));
            o.push("wall_ns_est", Json::U64(c.est_wall_ns()));
            phases.push(o);
        }
        let mut j = Json::obj();
        j.push("phases", Json::Arr(phases));
        j.push("attributed_cycles", Json::U64(self.attributed_cycles()));
        j.push("drain_cycles", Json::U64(self.drain_cycles));
        j.push("drain_events", Json::U64(self.drain_events));
        j.push(
            "core_cycles",
            Json::Arr(self.core_cycles.iter().map(|&c| Json::U64(c)).collect()),
        );
        j.push(
            "core_events",
            Json::Arr(self.core_events.iter().map(|&c| Json::U64(c)).collect()),
        );
        j.push(
            "bank_cycles",
            Json::Arr(self.bank_cycles.iter().map(|&c| Json::U64(c)).collect()),
        );
        j.push(
            "bank_events",
            Json::Arr(self.bank_events.iter().map(|&c| Json::U64(c)).collect()),
        );
        j.push("mem_cycles", Json::U64(self.mem_cycles));
        j.push("machine_cycles", Json::U64(self.machine_cycles));
        j
    }
}

/// The live profiler the engine threads through its hot path.
///
/// All methods are `#[inline]`; the engine only calls them behind an
/// `Option` check, so the disabled path costs one branch per event.
#[derive(Debug, Default)]
pub struct Profiler {
    profile: Profile,
    /// Stack of in-flight wall spans: `None` entries are occurrences
    /// that were not due for sampling. Spans nest (a dispatch span
    /// encloses the routing spans of the messages it sends), so wall
    /// estimates are *inclusive* — a child's time also counts toward
    /// its parent's phase.
    open_spans: Vec<Option<(Phase, Instant)>>,
    /// True while the engine is in the post-completion drain.
    draining: bool,
}

impl Profiler {
    /// Creates a profiler for a machine with `cores` cores/banks.
    pub fn new(cores: usize) -> Self {
        Self {
            profile: Profile {
                core_cycles: vec![0; cores],
                core_events: vec![0; cores],
                bank_cycles: vec![0; cores],
                bank_events: vec![0; cores],
                ..Profile::default()
            },
            open_spans: Vec::with_capacity(4),
            draining: false,
        }
    }

    /// Switches cycle charging to the drain counters.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Charges `delta` cycles to `phase` (and the event itself); the
    /// engine passes the clock advance for a batch's first event and
    /// zero for the rest.
    #[inline]
    pub fn event(&mut self, phase: Phase, component: Component, delta: u64) {
        if self.draining {
            self.profile.drain_cycles += delta;
            self.profile.drain_events += 1;
            return;
        }
        let c = &mut self.profile.phases[phase as usize];
        c.events += 1;
        c.cycles += delta;
        match component {
            Component::Core(i) => {
                self.profile.core_events[i] += 1;
                self.profile.core_cycles[i] += delta;
            }
            Component::Bank(i) => {
                self.profile.bank_events[i] += 1;
                self.profile.bank_cycles[i] += delta;
            }
            Component::Mem => self.profile.mem_cycles += delta,
            Component::Machine => self.profile.machine_cycles += delta,
        }
    }

    /// Records a routed message and its delivery latency (overlap
    /// metric; charges no reconciled cycles).
    #[inline]
    pub fn route(&mut self, latency: u64) {
        if self.draining {
            return;
        }
        let c = &mut self.profile.phases[Phase::Routing as usize];
        c.events += 1;
        c.cycles += latency;
    }

    /// Opens a wall-clock span for `phase`, reading the clock only when
    /// this occurrence is due for sampling. Every call must be paired
    /// with an [`Profiler::end_span`].
    #[inline]
    pub fn begin_span(&mut self, phase: Phase) {
        let c = &self.profile.phases[phase as usize];
        // `events` counts occurrences already recorded; sample the
        // first and then every SAMPLE_PERIOD-th occurrence of a phase.
        let due = c.events.is_multiple_of(SAMPLE_PERIOD);
        self.open_spans.push(due.then(|| (phase, Instant::now())));
    }

    /// Closes the innermost span opened by [`Profiler::begin_span`].
    #[inline]
    pub fn end_span(&mut self) {
        if let Some(Some((phase, start))) = self.open_spans.pop() {
            let ns = start.elapsed().as_nanos() as u64;
            let c = &mut self.profile.phases[phase as usize];
            c.wall_ns += ns;
            c.wall_samples += 1;
        }
    }

    /// Consumes the profiler into its report.
    pub fn finish(self) -> Profile {
        self.profile
    }
}

/// The component a cycle/event is charged to.
#[derive(Clone, Copy, Debug)]
pub enum Component {
    /// Core `i` and its private L1.
    Core(usize),
    /// Directory bank `i`.
    Bank(usize),
    /// A memory controller.
    Mem,
    /// The machine as a whole: a fault tick visits every core.
    Machine,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_accumulate_per_phase_and_component() {
        let mut p = Profiler::new(2);
        p.event(Phase::CoreStep, Component::Core(0), 10);
        p.event(Phase::L1Dispatch, Component::Core(1), 5);
        p.event(Phase::L1Dispatch, Component::Core(1), 0);
        p.event(Phase::DirDispatch, Component::Bank(0), 7);
        p.route(42);
        let prof = p.finish();
        assert_eq!(prof.phases[Phase::CoreStep as usize].cycles, 10);
        assert_eq!(prof.phases[Phase::L1Dispatch as usize].events, 2);
        assert_eq!(prof.phases[Phase::L1Dispatch as usize].cycles, 5);
        assert_eq!(prof.core_cycles, vec![10, 5]);
        assert_eq!(prof.bank_cycles, vec![7, 0]);
        // Routing latency is an overlap metric, not attributed cycles.
        assert_eq!(prof.phases[Phase::Routing as usize].cycles, 42);
        assert_eq!(prof.attributed_cycles(), 22);
        assert_eq!(
            prof.core_cycles.iter().sum::<u64>() + prof.bank_cycles.iter().sum::<u64>(),
            22
        );
    }

    #[test]
    fn drain_events_are_kept_out_of_the_reconciled_total() {
        let mut p = Profiler::new(1);
        p.event(Phase::CoreStep, Component::Core(0), 3);
        p.begin_drain();
        p.event(Phase::DirDispatch, Component::Bank(0), 9);
        let prof = p.finish();
        assert_eq!(prof.attributed_cycles(), 3);
        assert_eq!(prof.drain_cycles, 9);
        assert_eq!(prof.drain_events, 1);
        assert_eq!(prof.bank_events, vec![0]);
    }

    #[test]
    fn wall_sampling_scales_to_event_count() {
        let mut p = Profiler::new(1);
        for _ in 0..(2 * SAMPLE_PERIOD) {
            p.begin_span(Phase::CoreStep);
            p.end_span();
            p.event(Phase::CoreStep, Component::Core(0), 1);
        }
        let prof = p.finish();
        let c = &prof.phases[Phase::CoreStep as usize];
        assert_eq!(c.wall_samples, 2);
        assert_eq!(c.events, 2 * SAMPLE_PERIOD);
        // The estimate extrapolates sampled time across all events.
        assert!(c.est_wall_ns() >= c.wall_ns);
    }

    #[test]
    fn report_json_parses_and_ranks() {
        let mut p = Profiler::new(1);
        p.event(Phase::CoreStep, Component::Core(0), 4);
        let j = p.finish().to_json();
        let text = j.to_pretty();
        let back = Json::parse(&text).expect("round trip");
        assert_eq!(
            back.field("attributed_cycles").unwrap().as_u64().unwrap(),
            4
        );
        assert_eq!(
            back.field("phases").unwrap().as_arr().unwrap().len(),
            NUM_PHASES
        );
    }
}
