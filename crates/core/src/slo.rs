//! Tenant-level SLO accounting: latency quantiles, shed/reject rates,
//! goodput, deadline attainment and energy attribution per tenant.
//!
//! The paper's headline numbers are *per workload*; the engine's batch
//! report was per job.  This module folds every [`JobOutcome`] of a
//! batch into one [`SloReport`] keyed by [`TenantId`]:
//!
//! * **latency** — an integer HDR-style [`QuantileSketch`] over
//!   completion latencies on the virtual batch clock (queue wait +
//!   execution), so p50/p95/p99 are deterministic integers;
//! * **outcome rates** — completed / rejected / shed counts, broken
//!   down by machine-readable reason slug;
//! * **goodput** — the fraction of submitted jobs that completed within
//!   their deadline (jobs without a deadline count as within);
//! * **SLO attainment** — observed p99 and goodput against a declared
//!   [`SloTarget`], plus the error-budget **burn rate**;
//! * **energy attribution** — per-layer energies of every completed job
//!   quantized to whole femtojoules and summed per tenant and per
//!   tenant × precision.  Because the attribution is an integer
//!   reduction over already-deterministic `LayerReport`s, per-tenant
//!   energies sum *exactly* to the batch total — "which tenant burned
//!   the joules" has one answer at any worker count;
//! * **windows** — per-tenant tumbling-window rows of completed / shed
//!   events on the virtual clock, the time axis of the serving
//!   dashboard.  This module owns that axis: the width rule
//!   ([`window_width_for_horizon`]) and the online loop's fine count
//!   table that nests inside the report's windows live here.
//!
//! Everything here is a serial reduction; nothing reads wall time, so
//! the report is bit-identical at any worker count and gated at
//! `--tol 0` in CI.  Batch serving folds its outcomes one by one, each a
//! group of one; online serving folds grouped counts
//! ([`CompletionGroup`], [`SloAccountant::observe_sheds`],
//! [`SloAccountant::observe_rejections`]) through the same paths.

use std::collections::BTreeMap;
use std::fmt;

use bsc_mac::Precision;
use bsc_telemetry::{QuantileSketch, SketchSnapshot};

use crate::engine::JobOutcome;
use crate::report::NetworkReport;

/// The tenant a job is accounted to.  Free-form, case-sensitive;
/// [`TenantId::default`] is the `"default"` tenant jobs land in when a
/// manifest names none.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(String);

impl TenantId {
    /// A tenant id from any string-ish value.
    pub fn new(id: impl Into<String>) -> Self {
        TenantId(id.into())
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    fn default() -> Self {
        TenantId("default".into())
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(s: &str) -> Self {
        TenantId::new(s)
    }
}

/// A tenant's declared service-level objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTarget {
    /// The p99 completion latency (queue wait + execution, virtual
    /// cycles) the tenant expects.
    pub latency_p99_cycles: u64,
    /// The minimum acceptable goodput: completed-within-deadline jobs
    /// over submitted jobs, in `0.0 ..= 1.0`.
    pub min_goodput: f64,
}

/// One tenant's observed performance against its target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloAttainment {
    /// Observed p99 ≤ target p99.
    pub latency_p99_ok: bool,
    /// Observed goodput ≥ target minimum.
    pub goodput_ok: bool,
    /// Both conditions hold.
    pub attained: bool,
    /// Observed p99 over target p99 (1.0 = exactly at target).
    pub p99_ratio: f64,
    /// Error-budget burn: `(1 - goodput) / (1 - min_goodput)`.  1.0
    /// means the budget is exactly spent; capped at 10⁶ when the target
    /// leaves no budget at all.
    pub burn_rate: f64,
}

/// One tumbling window of a tenant's activity on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantWindow {
    /// Window index (`start_cycle / width`).
    pub window: u64,
    /// First cycle of the window.
    pub start_cycle: u64,
    /// Jobs completed in the window (by completion cycle).
    pub completed: u64,
    /// Jobs shed in the window (by decision cycle: a batch job's
    /// projected completion, an online job's arrival).
    pub shed: u64,
    /// Useful MACs completed in the window.
    pub macs: u64,
}

/// Everything the observatory knows about one tenant after a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlo {
    /// The tenant.
    pub tenant: TenantId,
    /// Declared target, when the tenant has one.
    pub target: Option<SloTarget>,
    /// Jobs submitted (every outcome counts exactly once).
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs refused at admission.
    pub rejected: u64,
    /// Jobs admitted then dropped at schedule time.
    pub shed: u64,
    /// Rejections by reason slug, sorted by slug.
    pub rejected_by_reason: Vec<(String, u64)>,
    /// Sheds by reason slug, sorted by slug.
    pub shed_by_reason: Vec<(String, u64)>,
    /// Completion-latency sketch (queue wait + execution, cycles).
    pub latency: SketchSnapshot,
    /// Completed jobs that had a deadline.
    pub deadline_jobs: u64,
    /// Completed jobs that met their deadline.
    pub deadline_met: u64,
    /// Completed-within-deadline jobs over submitted jobs.
    pub goodput: f64,
    /// Useful MACs of the tenant's completed jobs.
    pub macs: u64,
    /// Energy attribution in whole femtojoules (per-layer energies
    /// rounded then summed, so tenant totals add exactly).
    pub energy_fj: u64,
    /// Energy split by precision slug (`int2`/`int4`/`int8`), summing
    /// exactly to `energy_fj`.
    pub energy_by_precision: Vec<(String, u64)>,
    /// Tumbling-window activity series, sorted by window.
    pub windows: Vec<TenantWindow>,
    /// Observed-vs-target verdict (`None` without a declared target).
    pub attainment: Option<SloAttainment>,
}

impl TenantSlo {
    /// Shed jobs over submitted jobs.
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 { 0.0 } else { self.shed as f64 / self.submitted as f64 }
    }

    /// Rejected jobs over submitted jobs.
    pub fn reject_rate(&self) -> f64 {
        if self.submitted == 0 { 0.0 } else { self.rejected as f64 / self.submitted as f64 }
    }

    /// Met deadlines over completed jobs that had one (`None` when no
    /// completed job carried a deadline).
    pub fn deadline_hit_rate(&self) -> Option<f64> {
        if self.deadline_jobs == 0 {
            None
        } else {
            Some(self.deadline_met as f64 / self.deadline_jobs as f64)
        }
    }
}

/// The per-tenant SLO view of one batch.  Tenants are sorted by id, so
/// serialization order is canonical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloReport {
    /// Width of the tumbling windows in virtual cycles.
    pub window_width_cycles: u64,
    /// One row per tenant that submitted at least one job.
    pub tenants: Vec<TenantSlo>,
}

impl SloReport {
    /// The named tenant's row, when present.
    pub fn tenant(&self, id: &str) -> Option<&TenantSlo> {
        self.tenants.iter().find(|t| t.tenant.as_str() == id)
    }

    /// Sum of per-tenant energy attributions in femtojoules.  Exactly
    /// equals the quantized batch total — integer addition is
    /// associative, so regrouping by tenant cannot drift.
    pub fn total_energy_fj(&self) -> u64 {
        self.tenants.iter().map(|t| t.energy_fj).sum()
    }
}

/// Quantizes one energy value to whole femtojoules.  Attribution sums
/// these integers, never the raw floats, so grouping by tenant /
/// precision / batch always reaches identical totals.
pub fn quantize_energy_fj(energy_fj: f64) -> u64 {
    if energy_fj <= 0.0 { 0 } else { energy_fj.round() as u64 }
}

#[derive(Default)]
struct TenantAcc {
    target: Option<SloTarget>,
    submitted: u64,
    completed: u64,
    rejected: u64,
    shed: u64,
    rejected_by_reason: BTreeMap<&'static str, u64>,
    shed_by_reason: BTreeMap<&'static str, u64>,
    latency: QuantileSketch,
    deadline_jobs: u64,
    deadline_met: u64,
    macs: u64,
    energy_fj: u64,
    energy_by_precision: BTreeMap<&'static str, u64>,
    windows: BTreeMap<u64, TenantWindow>,
}

impl TenantAcc {
    /// The row of the `width`-cycle window holding `cycle`, opened empty
    /// on first use.  Windows no event reaches never get a row.
    fn window(&mut self, width: u64, cycle: u64) -> &mut TenantWindow {
        let window = cycle / width;
        self.windows.entry(window).or_insert(TenantWindow {
            window,
            start_cycle: window * width,
            completed: 0,
            shed: 0,
            macs: 0,
        })
    }
}

/// The `energy_by_precision` key of a layer precision.
fn precision_slug(p: Precision) -> &'static str {
    match p {
        Precision::Int2 => "int2",
        Precision::Int4 => "int4",
        Precision::Int8 => "int8",
    }
}

/// Completed jobs that share a tenant and a [`NetworkReport`], folded in
/// one [`SloAccountant::observe_completions`] call.  Their latencies
/// fold separately ([`SloAccountant::observe_latencies`]), since a
/// caller may sketch them at a coarser grain than the report.
#[derive(Debug, Clone, Copy)]
pub struct CompletionGroup<'a> {
    /// The tenant the jobs are accounted to.
    pub tenant: &'a TenantId,
    /// The per-layer report every job of the group produced.
    pub report: &'a NetworkReport,
    /// Jobs in the group.
    pub count: u64,
    /// Jobs of the group that carried a deadline.
    pub deadline_jobs: u64,
    /// Jobs of the group that met their deadline.
    pub deadline_met: u64,
    /// `(completion cycle, jobs)` placements on the window axis; the
    /// jobs add up to `count`.  A cycle may stand for every cycle of its
    /// window.
    pub windows: &'a [(u64, u64)],
}

/// Folds [`JobOutcome`]s into a per-tenant [`SloReport`].
///
/// Construction fixes the tumbling-window width; callers derive it from
/// the batch makespan (see [`crate::Engine::run_batch`]) so the
/// dashboard's time axis scales with the batch instead of wall time.
pub struct SloAccountant {
    width: u64,
    tenants: BTreeMap<TenantId, TenantAcc>,
    observations: u64,
}

impl SloAccountant {
    /// An empty accountant with `window_width_cycles`-wide windows
    /// (clamped to ≥ 1).
    pub fn new(window_width_cycles: u64) -> Self {
        SloAccountant {
            width: window_width_cycles.max(1),
            tenants: BTreeMap::new(),
            observations: 0,
        }
    }

    /// Lifetime number of streamed observations (completions +
    /// rejections + sheds) — the fold's deterministic work metric for
    /// self-profiling.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Declares a tenant's target (idempotent; the last declaration
    /// wins).  Targets may be declared for tenants that never submit —
    /// they simply produce no row.
    pub fn declare_target(&mut self, tenant: TenantId, target: SloTarget) {
        self.tenants.entry(tenant).or_default().target = Some(target);
    }

    /// Folds one outcome.  Every submission must be observed exactly
    /// once for the rates to mean anything.
    ///
    /// Batch mode's arrival time is cycle 0, so latency equals the
    /// completion cycle; this delegates to the streaming observers that
    /// online serving calls directly with `completion − arrival`.
    pub fn observe(&mut self, outcome: &JobOutcome) {
        match outcome {
            JobOutcome::Completed(r) => self.observe_completion(
                outcome.tenant(),
                r.completion_cycle,
                r.completion_cycle,
                r.deadline_met(),
                &r.report,
            ),
            JobOutcome::Rejected { reason, .. } => {
                self.observe_rejection(outcome.tenant(), reason.slug());
            }
            JobOutcome::Shed { reason, .. } => {
                self.observe_shed(outcome.tenant(), reason.slug(), reason.decision_cycle());
            }
        }
    }

    /// Streams one completed job: a [`CompletionGroup`] of one.
    /// `latency_cycles` is whatever clock difference the caller's
    /// arrival model defines (batch: completion cycle; online:
    /// completion − arrival), `completion_cycle` places the event on the
    /// window axis, and the energy/MAC attribution is read off the job's
    /// [`NetworkReport`].
    pub fn observe_completion(
        &mut self,
        tenant: &TenantId,
        latency_cycles: u64,
        completion_cycle: u64,
        deadline_met: Option<bool>,
        report: &NetworkReport,
    ) {
        self.tenant_acc(tenant).latency.record(latency_cycles);
        self.observe_completions(CompletionGroup {
            tenant,
            report,
            count: 1,
            deadline_jobs: u64::from(deadline_met.is_some()),
            deadline_met: u64::from(deadline_met == Some(true)),
            windows: &[(completion_cycle, 1)],
        });
    }

    /// Folds a group of completed jobs — exactly equivalent to one
    /// [`SloAccountant::observe_completion`] per job, minus the latency
    /// samples.  The attribution multiplies the report's per-layer
    /// figures by `count` with the wrapping `u64` arithmetic of repeated
    /// adds, so totals are identical however the jobs are grouped.
    pub fn observe_completions(&mut self, group: CompletionGroup<'_>) {
        let CompletionGroup { tenant, report, count, deadline_jobs, deadline_met, windows } = group;
        debug_assert_eq!(windows.iter().map(|&(_, n)| n).sum::<u64>(), count);
        self.observations += count;
        let width = self.width;
        let acc = self.tenant_acc(tenant);
        acc.submitted += count;
        acc.completed += count;
        acc.deadline_jobs += deadline_jobs;
        acc.deadline_met += deadline_met;
        let macs = report.total_macs();
        acc.macs = acc.macs.wrapping_add(count.wrapping_mul(macs));
        // fJ-exact attribution: quantize per layer, sum integers.
        for layer in report.layers() {
            let fj = count.wrapping_mul(quantize_energy_fj(layer.energy_fj));
            acc.energy_fj = acc.energy_fj.wrapping_add(fj);
            let split = acc.energy_by_precision.entry(precision_slug(layer.precision)).or_default();
            *split = split.wrapping_add(fj);
        }
        for &(cycle, n) in windows {
            let row = acc.window(width, cycle);
            row.completed += n;
            row.macs = row.macs.wrapping_add(n.wrapping_mul(macs));
        }
    }

    /// Folds a sketch of completion latencies into the tenant's: the
    /// latency half of [`SloAccountant::observe_completions`].
    pub fn observe_latencies(&mut self, tenant: &TenantId, latencies: &QuantileSketch) {
        self.tenant_acc(tenant).latency.merge_from(latencies);
    }

    /// The tenant's accumulator, created empty on first use.
    fn tenant_acc(&mut self, tenant: &TenantId) -> &mut TenantAcc {
        if !self.tenants.contains_key(tenant) {
            self.tenants.insert(tenant.clone(), TenantAcc::default());
        }
        self.tenants.get_mut(tenant).expect("inserted above")
    }

    /// Streams one admission rejection under a machine-readable reason
    /// slug (see [`crate::RejectReason::slug`]).
    pub fn observe_rejection(&mut self, tenant: &TenantId, slug: &'static str) {
        self.observe_rejections(tenant, slug, 1);
    }

    /// Streams `count` admission rejections at once — exactly equivalent
    /// to `count` [`SloAccountant::observe_rejection`] calls.  Rejections
    /// carry no per-event payload (no latency sample, no windowed
    /// series), so a caller that groups them by `(tenant, slug)` can
    /// fold millions of decisions in a handful of calls.
    pub fn observe_rejections(&mut self, tenant: &TenantId, slug: &'static str, count: u64) {
        self.observations += count;
        let acc = self.tenant_acc(tenant);
        acc.submitted += count;
        acc.rejected += count;
        *acc.rejected_by_reason.entry(slug).or_default() += count;
    }

    /// Streams one shed decision at `decision_cycle` under a
    /// machine-readable reason slug (see [`crate::ShedReason::slug`]).
    pub fn observe_shed(&mut self, tenant: &TenantId, slug: &'static str, decision_cycle: u64) {
        self.observe_sheds(tenant, &[(slug, 1)], &[(decision_cycle, 1)]);
    }

    /// Folds a tenant's shed decisions at once — exactly equivalent to
    /// one [`SloAccountant::observe_shed`] per decision.  `by_reason`
    /// counts them per reason slug; `windows` places the same decisions
    /// as `(decision cycle, sheds)` on the window axis.
    pub fn observe_sheds(
        &mut self,
        tenant: &TenantId,
        by_reason: &[(&'static str, u64)],
        windows: &[(u64, u64)],
    ) {
        let count: u64 = by_reason.iter().map(|&(_, n)| n).sum();
        debug_assert_eq!(windows.iter().map(|&(_, n)| n).sum::<u64>(), count);
        self.observations += count;
        let width = self.width;
        let acc = self.tenant_acc(tenant);
        acc.submitted += count;
        acc.shed += count;
        for &(slug, n) in by_reason {
            *acc.shed_by_reason.entry(slug).or_default() += n;
        }
        for &(cycle, n) in windows {
            acc.window(width, cycle).shed += n;
        }
    }

    /// The finished per-tenant report.
    pub fn report(&self) -> SloReport {
        let tenants = self
            .tenants
            .iter()
            .filter(|(_, acc)| acc.submitted > 0)
            .map(|(tenant, acc)| {
                let latency = acc.latency.snapshot();
                // Goodput counts completed jobs that met their deadline
                // (deadline-less jobs trivially meet).
                let good = acc.completed - (acc.deadline_jobs - acc.deadline_met);
                let goodput =
                    if acc.submitted == 0 { 0.0 } else { good as f64 / acc.submitted as f64 };
                let attainment = acc.target.map(|t| {
                    // No completion, no p99: an empty sketch's 0 is not
                    // a latency that met the target.
                    let latency_p99_ok = latency.count > 0 && latency.p99 <= t.latency_p99_cycles;
                    let goodput_ok = goodput >= t.min_goodput;
                    let p99_ratio = if t.latency_p99_cycles == 0 {
                        0.0
                    } else {
                        latency.p99 as f64 / t.latency_p99_cycles as f64
                    };
                    let bad = 1.0 - goodput;
                    let budget = 1.0 - t.min_goodput;
                    let burn_rate =
                        if budget > 0.0 { (bad / budget).min(1e6) } else if bad > 0.0 { 1e6 } else { 0.0 };
                    SloAttainment {
                        latency_p99_ok,
                        goodput_ok,
                        attained: latency_p99_ok && goodput_ok,
                        p99_ratio,
                        burn_rate,
                    }
                });
                TenantSlo {
                    tenant: tenant.clone(),
                    target: acc.target,
                    submitted: acc.submitted,
                    completed: acc.completed,
                    rejected: acc.rejected,
                    shed: acc.shed,
                    rejected_by_reason: acc
                        .rejected_by_reason
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect(),
                    shed_by_reason: acc
                        .shed_by_reason
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect(),
                    latency,
                    deadline_jobs: acc.deadline_jobs,
                    deadline_met: acc.deadline_met,
                    goodput,
                    macs: acc.macs,
                    energy_fj: acc.energy_fj,
                    energy_by_precision: acc
                        .energy_by_precision
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect(),
                    windows: acc.windows.values().copied().collect(),
                    attainment,
                }
            })
            .collect();
        SloReport { window_width_cycles: self.width, tenants }
    }
}

/// The tumbling-window width for a batch spanning `horizon_cycles`:
/// `horizon / 32` rounded up to a power of two (≥ 1), so a dashboard
/// gets ~32–64 windows regardless of batch scale and the width is a
/// pure function of the schedule.
pub fn window_width_for_horizon(horizon_cycles: u64) -> u64 {
    (horizon_cycles / 32).max(1).next_power_of_two()
}

/// Fine windows per row of a [`WindowCounts`] table.  Not a knob: any
/// cap of at least 128 keeps the fine width at or below the report's
/// window width (see [`WindowCounts`]), and the table's memory is
/// `rows × FINE_WINDOWS` however far completions run past the horizon.
pub(crate) const FINE_WINDOWS: usize = 128;

/// Per-row event counts by fine window on the virtual clock — the
/// streaming form of the SLO fold's windowed series.
///
/// The fine width starts at `window_width_for_horizon(horizon)`; the
/// report's width is `window_width_for_horizon(max(horizon, makespan))`.
/// Both are powers of two and the function is monotone, so the report's
/// width is `fine · 2^k` and fine window `f` lies wholly inside report
/// window `f >> k`: the fold loses nothing.  An event that would index
/// past the cap doubles the fine width and merges neighbouring cells,
/// exact for the same reason (`⌊c / 2w⌋ = ⌊⌊c / w⌋ / 2⌋`).  A doubling
/// needs an event at cycle `c ≥ FINE_WINDOWS · fine`, so the doubled
/// width is at most `c / 64`.  Every event cycle is at most
/// `m = max(horizon, makespan)` and the report's width is at least
/// `⌊m / 32⌋ ≥ m / 64`: the fine width never overtakes the report's.
pub(crate) struct WindowCounts {
    /// log2 of the fine window width.
    shift: u32,
    /// `rows × FINE_WINDOWS` counts, row-major.
    cells: Vec<u64>,
}

impl WindowCounts {
    /// A zeroed table of `rows` rows at fine width `width` (a power of
    /// two).
    pub(crate) fn new(rows: usize, width: u64) -> WindowCounts {
        debug_assert!(width.is_power_of_two());
        WindowCounts { shift: width.trailing_zeros(), cells: vec![0; rows * FINE_WINDOWS] }
    }

    /// Counts one event of `row` at `cycle`.
    #[inline]
    pub(crate) fn add(&mut self, row: usize, cycle: u64) {
        let mut f = cycle >> self.shift;
        while f >= FINE_WINDOWS as u64 {
            self.coarsen();
            f = cycle >> self.shift;
        }
        self.cells[row * FINE_WINDOWS + f as usize] += 1;
    }

    /// Doubles the fine width, merging cells `2i` and `2i + 1` into `i`.
    #[cold]
    fn coarsen(&mut self) {
        for row in self.cells.chunks_exact_mut(FINE_WINDOWS) {
            for i in 0..FINE_WINDOWS / 2 {
                row[i] = row[2 * i] + row[2 * i + 1];
            }
            row[FINE_WINDOWS / 2..].fill(0);
        }
        self.shift += 1;
    }

    /// The fine window width in cycles.
    pub(crate) fn width(&self) -> u64 {
        1 << self.shift
    }

    /// `row`'s non-empty cells as `(first cycle of the fine window,
    /// events)`.
    pub(crate) fn row(&self, row: usize) -> Vec<(u64, u64)> {
        self.cells[row * FINE_WINDOWS..(row + 1) * FINE_WINDOWS]
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(f, &n)| ((f as u64) << self.shift, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{JobReport, RejectReason, ShedReason};
    use crate::report::NetworkReport;

    fn completed(tenant: &str, completion: u64, deadline: Option<u64>) -> JobOutcome {
        let name = format!("{tenant}-{completion}");
        JobOutcome::Completed(JobReport {
            evaluation: name.clone(),
            name,
            tenant: TenantId::new(tenant),
            queue_wait_cycles: 0,
            completion_cycle: completion,
            deadline_cycles: deadline,
            report: NetworkReport::new("toy".into(), bsc_mac::MacKind::Bsc, 2000.0, vec![]),
        })
    }

    #[test]
    fn rates_and_goodput_fold_every_outcome_once() {
        let mut acc = SloAccountant::new(100);
        acc.declare_target(TenantId::new("a"), SloTarget { latency_p99_cycles: 500, min_goodput: 0.5 });
        acc.observe(&completed("a", 50, None));
        acc.observe(&completed("a", 150, Some(200)));
        acc.observe(&JobOutcome::Rejected {
            name: "r".into(),
            tenant: TenantId::new("a"),
            reason: RejectReason::QueueFull { capacity: 2 },
        });
        acc.observe(&JobOutcome::Shed {
            name: "s".into(),
            tenant: TenantId::new("a"),
            reason: ShedReason::DeadlineMissed { completion_cycle: 320, deadline_cycles: 300 },
        });
        let report = acc.report();
        let a = report.tenant("a").unwrap();
        assert_eq!((a.submitted, a.completed, a.rejected, a.shed), (4, 2, 1, 1));
        assert_eq!(a.rejected_by_reason, vec![("queue_full".to_string(), 1)]);
        assert_eq!(a.shed_by_reason, vec![("deadline_missed".to_string(), 1)]);
        assert_eq!(a.latency.count, 2);
        assert_eq!(a.deadline_jobs, 1);
        assert_eq!(a.deadline_met, 1);
        assert!((a.goodput - 0.5).abs() < 1e-12);
        assert!((a.shed_rate() - 0.25).abs() < 1e-12);
        assert_eq!(a.deadline_hit_rate(), Some(1.0));
        // Windows: completions at 50 and 150, shed at 320.
        assert_eq!(a.windows.len(), 3);
        assert_eq!((a.windows[0].completed, a.windows[0].shed), (1, 0));
        assert_eq!((a.windows[2].completed, a.windows[2].shed), (0, 1));
        // Target met: p99 (150) <= 500 and goodput 0.5 >= 0.5.
        let att = a.attainment.unwrap();
        assert!(att.attained && att.latency_p99_ok && att.goodput_ok);
        assert!((att.burn_rate - 1.0).abs() < 1e-9, "budget exactly spent");
    }

    #[test]
    fn missed_targets_report_burn_and_ratio() {
        let mut acc = SloAccountant::new(64);
        acc.declare_target(TenantId::new("t"), SloTarget { latency_p99_cycles: 100, min_goodput: 0.9 });
        acc.observe(&completed("t", 400, None));
        acc.observe(&JobOutcome::Shed {
            name: "s".into(),
            tenant: TenantId::new("t"),
            reason: ShedReason::DeadlineMissed { completion_cycle: 500, deadline_cycles: 450 },
        });
        let report = acc.report();
        let t = report.tenant("t").unwrap();
        let att = t.attainment.unwrap();
        assert!(!att.attained && !att.latency_p99_ok && !att.goodput_ok);
        assert!(att.p99_ratio >= 4.0, "p99 {} vs target 100", t.latency.p99);
        // goodput 0.5 against min 0.9: burn = 0.5 / 0.1 = 5.
        assert!((att.burn_rate - 5.0).abs() < 1e-9, "burn {}", att.burn_rate);
    }

    #[test]
    fn tenants_without_target_have_no_attainment() {
        let mut acc = SloAccountant::new(1);
        acc.observe(&completed("free", 10, None));
        let report = acc.report();
        let t = report.tenant("free").unwrap();
        assert!(t.attainment.is_none());
        assert_eq!(t.latency.p50, 10);
    }

    #[test]
    fn a_targeted_tenant_without_completions_has_no_p99_verdict() {
        // An empty sketch's p99 reads 0, which must not count as meeting
        // the target: no completion, no latency evidence.
        let mut acc = SloAccountant::new(64);
        let target = SloTarget { latency_p99_cycles: 100, min_goodput: 0.0 };
        acc.declare_target(TenantId::new("t"), target);
        acc.observe(&JobOutcome::Rejected {
            name: "r".into(),
            tenant: TenantId::new("t"),
            reason: RejectReason::QueueFull { capacity: 1 },
        });
        let report = acc.report();
        let t = report.tenant("t").unwrap();
        assert_eq!(t.latency.count, 0);
        let att = t.attainment.unwrap();
        assert!(att.goodput_ok, "goodput 0 meets a 0 minimum");
        assert!(!att.latency_p99_ok && !att.attained);
    }

    fn layer(name: &str, precision: Precision, macs: u64, energy_fj: f64) -> crate::LayerReport {
        crate::LayerReport {
            name: name.into(),
            precision,
            macs,
            cycles: macs,
            total_cycles: macs,
            stall_cycles: 0,
            roofline: bsc_systolic::Roofline::ComputeBound,
            peak_fraction: 1.0,
            utilization: 1.0,
            energy_fj,
            tops_per_w: 1.0,
        }
    }

    fn layered_report() -> NetworkReport {
        NetworkReport::new(
            "mixed".into(),
            bsc_mac::MacKind::Bsc,
            2000.0,
            vec![
                layer("conv", Precision::Int8, 1000, 1234.6),
                layer("fc", Precision::Int2, 77, 99.4),
                layer("head", Precision::Int4, 5, 0.5),
            ],
        )
    }

    #[test]
    fn a_group_of_n_folds_exactly_like_n_single_observations() {
        let report = layered_report();
        let tenant = TenantId::new("g");
        let target = SloTarget { latency_p99_cycles: 300, min_goodput: 0.5 };
        // (latency, completion cycle, deadline met) per job: two
        // without a deadline, the rest met or missed one.
        let jobs: Vec<(u64, u64, Option<bool>)> = (0..40u64)
            .map(|i| {
                let met = [None, Some(true), Some(false), None][i as usize % 4];
                (i * 37 % 500, 90 + i * 13, met)
            })
            .collect();
        let sheds = [(120u64, 2u64), (700, 1)];

        let mut single = SloAccountant::new(64);
        single.declare_target(tenant.clone(), target);
        for &(latency, cycle, met) in &jobs {
            single.observe_completion(&tenant, latency, cycle, met, &report);
        }
        for &(cycle, n) in &sheds {
            for _ in 0..n {
                single.observe_shed(&tenant, "deadline_missed", cycle);
            }
        }

        let mut grouped = SloAccountant::new(64);
        grouped.declare_target(tenant.clone(), target);
        let mut latency = QuantileSketch::new();
        let mut windows: BTreeMap<u64, u64> = BTreeMap::new();
        for &(l, cycle, _) in &jobs {
            latency.record(l);
            // Any cycle of the window stands for it: place the group on
            // each window's first cycle.
            *windows.entry(cycle / 64 * 64).or_default() += 1;
        }
        let windows: Vec<(u64, u64)> = windows.into_iter().collect();
        grouped.observe_completions(CompletionGroup {
            tenant: &tenant,
            report: &report,
            count: jobs.len() as u64,
            deadline_jobs: jobs.iter().filter(|j| j.2.is_some()).count() as u64,
            deadline_met: jobs.iter().filter(|j| j.2 == Some(true)).count() as u64,
            windows: &windows,
        });
        grouped.observe_latencies(&tenant, &latency);
        grouped.observe_sheds(&tenant, &[("deadline_missed", 3)], &sheds);

        assert_eq!(grouped.observations(), single.observations());
        let (g, s) = (grouped.report(), single.report());
        assert_eq!(g, s);
        let row = g.tenant("g").unwrap();
        assert_eq!(row.energy_by_precision.len(), 3, "int2, int4 and int8 layers");
        assert_eq!(row.energy_fj, 40 * (1235 + 99 + 1));
        assert_eq!(row.windows.iter().map(|w| w.macs).sum::<u64>(), 40 * 1082);
        assert_eq!(row.windows.iter().map(|w| w.shed).sum::<u64>(), 3);
        assert!(row.windows.len() > 5, "the jobs span several windows");
    }

    /// `(window, start cycle, completed, shed, macs)` of tenant `id`'s rows.
    fn rows(acc: &SloAccountant, id: &str) -> Vec<(u64, u64, u64, u64, u64)> {
        let report = acc.report();
        let t = report.tenant(id).unwrap();
        t.windows.iter().map(|w| (w.window, w.start_cycle, w.completed, w.shed, w.macs)).collect()
    }

    #[test]
    fn window_boundary_events_land_in_the_later_window() {
        // Windows are half-open [k*width, (k+1)*width): an event exactly
        // on the boundary opens the next window; the last cycle of a
        // window stays inside it.
        let mut acc = SloAccountant::new(100);
        acc.observe(&completed("a", 99, None));
        acc.observe(&completed("a", 100, None));
        acc.observe_shed(&TenantId::new("a"), "deadline_missed", 200);
        assert_eq!(rows(&acc, "a"), vec![(0, 0, 1, 0, 0), (1, 100, 1, 0, 0), (2, 200, 0, 1, 0)]);
    }

    #[test]
    fn empty_windows_mid_horizon_are_omitted_not_zero_filled() {
        let mut acc = SloAccountant::new(10);
        acc.observe(&completed("a", 5, None));
        acc.observe(&completed("a", 95, None));
        let windows: Vec<u64> = rows(&acc, "a").iter().map(|r| r.0).collect();
        assert_eq!(windows, vec![0, 9], "gap windows 1..=8 must not materialize");
    }

    #[test]
    fn horizon_shorter_than_one_window_collapses_to_window_zero() {
        // Width longer than the whole recorded horizon: every event
        // shares window 0 and the counts still add up.
        let report = layered_report();
        let tenant = TenantId::new("a");
        let mut acc = SloAccountant::new(1_000_000);
        for cycle in [0, 17, 999, 314_159] {
            acc.observe_completion(&tenant, cycle, cycle, None, &report);
        }
        acc.observe_shed(&tenant, "deadline_missed", 999_999);
        assert_eq!(rows(&acc, "a"), vec![(0, 0, 4, 1, 4 * 1082)]);
    }

    #[test]
    fn zero_window_width_clamps_to_one() {
        let mut acc = SloAccountant::new(0);
        acc.observe(&completed("a", 5, None));
        assert_eq!(acc.report().window_width_cycles, 1);
        assert_eq!(rows(&acc, "a"), vec![(5, 5, 1, 0, 0)]);
    }

    #[test]
    fn a_grouped_window_row_wraps_macs_like_repeated_observations() {
        // Near-u64::MAX MACs per job: three jobs wrap the row's MAC sum,
        // grouped or one by one, to the same value.
        let report = NetworkReport::new(
            "huge".into(),
            bsc_mac::MacKind::Bsc,
            2000.0,
            vec![layer("conv", Precision::Int8, u64::MAX, 1.0)],
        );
        let tenant = TenantId::new("a");
        let mut one_by_one = SloAccountant::new(100);
        for _ in 0..3 {
            one_by_one.observe_completion(&tenant, 150, 150, None, &report);
        }
        let mut grouped = SloAccountant::new(100);
        grouped.observe_completions(CompletionGroup {
            tenant: &tenant,
            report: &report,
            count: 3,
            deadline_jobs: 0,
            deadline_met: 0,
            windows: &[(199, 3)],
        });
        assert_eq!(rows(&grouped, "a"), rows(&one_by_one, "a"));
        assert_eq!(rows(&grouped, "a"), vec![(1, 100, 3, 0, u64::MAX - 2)]);
    }

    #[test]
    fn window_width_is_a_power_of_two_scaling_with_horizon() {
        assert_eq!(window_width_for_horizon(0), 1);
        assert_eq!(window_width_for_horizon(31), 1);
        assert_eq!(window_width_for_horizon(32 * 100), 128);
        let w = window_width_for_horizon(1_002_550_920);
        assert!(w.is_power_of_two());
        let windows = 1_002_550_920 / w;
        assert!((16..=64).contains(&windows), "{windows} windows of {w}");
    }

    #[test]
    fn quantization_is_stable_under_grouping() {
        // The exactness claim in one line: integer adds regroup freely.
        let parts = [1234.4, 567.8, 90.1, 2.49, 1e12 + 0.6];
        let total: u64 = parts.iter().map(|&p| quantize_energy_fj(p)).sum();
        let (a, b): (Vec<_>, Vec<_>) = parts.iter().partition(|&&p| p < 100.0);
        let grouped: u64 = a.iter().map(|&&p| quantize_energy_fj(p)).sum::<u64>()
            + b.iter().map(|&&p| quantize_energy_fj(p)).sum::<u64>();
        assert_eq!(total, grouped);
        assert_eq!(quantize_energy_fj(-5.0), 0);
    }
}
