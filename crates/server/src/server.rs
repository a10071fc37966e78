//! The `m`-core server ensemble.
//!
//! Owns the cores, the power model, the shared energy meter, and the total
//! dynamic-power budget; exposes ensemble-level operations the scheduling
//! driver uses each event (advance everything, snapshot speeds, project
//! the next core event, measure backlog) while keeping per-core mechanism
//! in [`crate::core::Core`]. The per-event operations write into
//! caller-owned buffers so the engine's sweep allocates nothing.

use crate::core::{Core, CoreJob, FinishedJob};
use ge_power::{EnergyMeter, PowerModel};
use ge_simcore::SimTime;
use ge_trace::{TraceEvent, TraceSink};

/// A multicore DVFS server with a shared power budget.
pub struct Server {
    cores: Vec<Core>,
    model: Box<dyn PowerModel>,
    meter: EnergyMeter,
    budget_w: f64,
    units_per_ghz_sec: f64,
    /// Reused per traced advance to merge the cores' slices in time order.
    trace_buf: SortingBuffer,
}

// One entry per core in each; the model, budget and rate come from the
// configuration.
ge_recover::persist!(Server { cores, meter });

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("cores", &self.cores.len())
            .field("budget_w", &self.budget_w)
            .field("units_per_ghz_sec", &self.units_per_ghz_sec)
            .finish()
    }
}

impl Server {
    /// Creates a server of `cores` cores under `budget_w` watts.
    ///
    /// # Panics
    /// Panics if `cores == 0`, the budget is negative, or the
    /// units-per-GHz-second factor is not positive.
    pub fn new(
        cores: usize,
        model: Box<dyn PowerModel>,
        budget_w: f64,
        units_per_ghz_sec: f64,
    ) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(budget_w >= 0.0, "negative budget");
        assert!(units_per_ghz_sec > 0.0);
        Server {
            cores: (0..cores)
                .map(|i| Core::new(i, units_per_ghz_sec))
                .collect(),
            model,
            meter: EnergyMeter::new(cores),
            budget_w,
            units_per_ghz_sec,
            trace_buf: SortingBuffer::for_cores(cores),
        }
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The total dynamic-power budget `H` (watts).
    pub fn budget_w(&self) -> f64 {
        self.budget_w
    }

    /// Units retired per second per GHz.
    pub fn units_per_ghz_sec(&self) -> f64 {
        self.units_per_ghz_sec
    }

    /// The power model shared by all cores.
    pub fn model(&self) -> &dyn PowerModel {
        self.model.as_ref()
    }

    /// Immutable core access.
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Mutable core access (scheduler epochs install plans through this).
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        &mut self.cores[i]
    }

    /// Installs `plan` and `power_cap_w` on core `i` (see
    /// [`Core::install_plan`]), copying the plan into the core's own
    /// buffer, and arms the core at once when every resident job is live
    /// at its clock. The armed state caches the per-segment watts of this
    /// server's power model, the one every advance uses.
    pub fn install_plan(&mut self, i: usize, plan: &ge_power::SpeedProfile, power_cap_w: f64) {
        self.cores[i].install_plan_armed(plan, power_cap_w, self.model.as_ref());
    }

    /// Iterates over the cores.
    pub fn cores(&self) -> impl Iterator<Item = &Core> {
        self.cores.iter()
    }

    /// Advances every core to `to`, appending the jobs that finished to
    /// `finished` in core order then finish order, and emits per-slice
    /// execution events (`exec_slice`) into `sink`.
    ///
    /// Slices from different cores are buffered and re-sorted by start time
    /// before forwarding, so the merged stream stays in non-decreasing time
    /// order — the invariant [`ge_trace::TraceSink::record`] documents and
    /// the JSONL parser enforces. Sorting the whole batch is valid because
    /// every core advances over the same `[clock, to]` window.
    pub fn advance_all(
        &mut self,
        to: SimTime,
        sink: &mut dyn TraceSink,
        finished: &mut Vec<FinishedJob>,
    ) {
        let model = self.model.as_ref();
        if !sink.is_enabled() {
            for core in &mut self.cores {
                core.advance_traced(to, model, &mut self.meter, sink, finished);
            }
            return;
        }
        let buf = &mut self.trace_buf;
        buf.events.clear();
        for core in &mut self.cores {
            core.advance_traced(to, model, &mut self.meter, buf, finished);
        }
        buf.events.sort_by(|a, b| a.t().total_cmp(&b.t()));
        for ev in &buf.events {
            sink.record(ev);
        }
    }

    /// Fails core `i`: it stops executing and all its queued jobs are
    /// returned as orphans (accumulated progress preserved) for the
    /// scheduler to re-home or account for.
    pub fn fail_core(&mut self, i: usize) -> Vec<CoreJob> {
        self.cores[i].fail()
    }

    /// Brings core `i` back online with a clean (empty, zero-speed) state.
    pub fn recover_core(&mut self, i: usize) {
        self.cores[i].recover();
    }

    /// Sets core `i`'s DVFS actuation factor; takes effect at the next
    /// installed plan.
    pub fn set_core_speed_factor(&mut self, i: usize, factor: f64) {
        self.cores[i].set_speed_factor(factor);
    }

    /// Number of cores currently online.
    pub fn online_count(&self) -> usize {
        self.cores.iter().filter(|c| c.is_online()).count()
    }

    /// Overwrites `out` with the current actual speed of every core (GHz),
    /// in core order.
    pub fn speeds_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.cores.iter().map(|c| c.current_speed()));
    }

    /// Total outstanding work toward current targets, across cores.
    pub fn total_backlog_units(&self) -> f64 {
        self.cores.iter().map(|c| c.backlog_units()).sum()
    }

    /// Earliest projected per-core event (completion or deadline).
    ///
    /// Exact, but projects only the cores that can hold the minimum: every
    /// core's [`Core::next_event_floor`] bounds its projection from below,
    /// so once the core with the lowest floor is projected, a core whose
    /// floor lies above the running minimum can neither beat nor tie it.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let lowest = self
            .cores
            .iter()
            .min_by(|a, b| a.next_event_floor().total_cmp(&b.next_event_floor()))?;
        let mut best = lowest.next_event_time();
        for core in &self.cores {
            if std::ptr::eq(core, lowest)
                || best.is_some_and(|t| core.next_event_floor() > t.as_secs())
            {
                continue;
            }
            if let Some(t) = core.next_event_time() {
                best = Some(best.map_or(t, |b| b.min(t)));
            }
        }
        best
    }

    /// Total energy consumed so far (joules).
    pub fn total_energy(&self) -> f64 {
        self.meter.total_energy()
    }

    /// Energy consumed by one core so far (joules).
    pub fn core_energy(&self, i: usize) -> f64 {
        self.meter.core_energy(i)
    }
}

/// Collects events from per-core advances so they can be re-sorted into
/// global time order before reaching the real sink.
struct SortingBuffer {
    events: Vec<TraceEvent>,
}

impl SortingBuffer {
    /// Sized up front for the usual batch (a slice or two per core), so a
    /// traced run's steady state never reallocates it.
    fn for_cores(cores: usize) -> Self {
        SortingBuffer {
            events: Vec::with_capacity(2 * cores),
        }
    }
}

impl TraceSink for SortingBuffer {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ge_power::{PolynomialPower, SpeedProfile, SpeedSegment};
    use ge_workload::{Job, JobId, UNITS_PER_GHZ_SEC};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn paper_server(cores: usize) -> Server {
        Server::new(
            cores,
            Box::new(PolynomialPower::paper_default()),
            320.0,
            UNITS_PER_GHZ_SEC,
        )
    }

    fn flat(start: f64, end: f64, speed: f64) -> SpeedProfile {
        SpeedProfile::new(vec![SpeedSegment::new(t(start), t(end), speed)])
    }

    #[test]
    fn construction() {
        let s = paper_server(16);
        assert_eq!(s.core_count(), 16);
        assert_eq!(s.budget_w(), 320.0);
        assert_eq!(s.total_energy(), 0.0);
        assert!(s.next_event_time().is_none());
    }

    #[test]
    fn advance_all_collects_finishes() {
        let mut s = paper_server(2);
        s.core_mut(0)
            .assign(&Job::new(JobId(0), t(0.0), t(1.0), 1000.0));
        s.core_mut(1)
            .assign(&Job::new(JobId(1), t(0.0), t(1.0), 500.0));
        s.core_mut(0).install_plan(flat(0.0, 1.0, 2.0), 20.0);
        s.core_mut(1).install_plan(flat(0.0, 1.0, 1.0), 5.0);
        let mut fin = Vec::new();
        s.advance_all(t(1.0), &mut ge_trace::NullSink, &mut fin);
        assert_eq!(fin.len(), 2);
        assert!(fin.iter().all(|f| !f.expired));
        // Energy: core0 ran 0.5 s at 2 GHz (10 J); core1 0.5 s at 1 GHz (2.5 J).
        assert!((s.total_energy() - 12.5).abs() < 1e-9);
        assert!((s.core_energy(0) - 10.0).abs() < 1e-9);
        assert!((s.core_energy(1) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn speeds_snapshot() {
        let mut s = paper_server(2);
        s.core_mut(0)
            .assign(&Job::new(JobId(0), t(0.0), t(1.0), 1000.0));
        s.core_mut(0).install_plan(flat(0.0, 1.0, 2.0), 20.0);
        s.core_mut(1).install_plan(flat(0.0, 1.0, 3.0), 45.0);
        let mut speeds = vec![9.0; 5];
        s.speeds_into(&mut speeds);
        assert_eq!(speeds, vec![2.0, 0.0]); // core 1 has no work
    }

    #[test]
    fn backlog_totals() {
        let mut s = paper_server(2);
        s.core_mut(0)
            .assign(&Job::new(JobId(0), t(0.0), t(1.0), 700.0));
        s.core_mut(1)
            .assign(&Job::new(JobId(1), t(0.0), t(1.0), 300.0));
        assert!((s.total_backlog_units() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn next_event_is_min_over_cores() {
        let mut s = paper_server(2);
        s.core_mut(0)
            .assign(&Job::new(JobId(0), t(0.0), t(1.0), 1000.0));
        s.core_mut(1)
            .assign(&Job::new(JobId(1), t(0.0), t(0.4), 9000.0));
        s.core_mut(0).install_plan(flat(0.0, 1.0, 2.0), 20.0);
        s.core_mut(1).install_plan(flat(0.0, 1.0, 1.0), 5.0);
        // Core 0 completes at 0.5; core 1's job expires at 0.4.
        assert!(s.next_event_time().unwrap().approx_eq(t(0.4)));
    }

    #[test]
    #[should_panic]
    fn zero_cores_panics() {
        let _ = paper_server(0);
    }

    #[test]
    fn fail_core_orphans_jobs_and_online_count_tracks() {
        let mut s = paper_server(4);
        s.core_mut(1)
            .assign(&Job::new(JobId(0), t(0.0), t(1.0), 1000.0));
        assert_eq!(s.online_count(), 4);
        let orphans = s.fail_core(1);
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].id, JobId(0));
        assert_eq!(s.online_count(), 3);
        s.recover_core(1);
        assert_eq!(s.online_count(), 4);
        assert!(s.core(1).jobs().is_empty());
    }

    #[test]
    fn traced_advance_emits_slices_in_time_order() {
        let mut s = paper_server(2);
        s.core_mut(0)
            .assign(&Job::new(JobId(0), t(0.0), t(1.0), 400.0));
        s.core_mut(0)
            .assign(&Job::new(JobId(1), t(0.0), t(1.0), 400.0));
        s.core_mut(1)
            .assign(&Job::new(JobId(2), t(0.0), t(1.0), 500.0));
        s.core_mut(0).install_plan(flat(0.0, 1.0, 2.0), 20.0);
        s.core_mut(1).install_plan(flat(0.0, 1.0, 1.0), 5.0);
        let mut sink = ge_trace::VecSink::new();
        let mut fin = Vec::new();
        s.advance_all(t(1.0), &mut sink, &mut fin);
        assert_eq!(fin.len(), 3);
        let ts: Vec<f64> = sink.events().iter().map(|e| e.t()).collect();
        assert!(ts.len() >= 3, "expected one slice per job, got {ts:?}");
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "slice events out of order: {ts:?}"
        );
    }
}
