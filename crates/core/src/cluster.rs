//! Multi-shard online serving: open-loop arrivals dispatched across
//! heterogeneous accelerators on the discrete-event clock.
//!
//! A [`Cluster`](OnlineConfig) is a set of [`ShardSpec`]s — each its
//! own [`AcceleratorConfig`], so shards may mix MAC kinds (BSC / LPC /
//! HPS) *and* memory hierarchies — fed by seeded
//! [`ArrivalProcess`](crate::des::ArrivalProcess) traffic sources.
//! [`run_online`] interleaves job-arrival events (one pending head per
//! source, [`crate::des::ArrivalHeads`]) with shard-completion events
//! ([`crate::des::CompletionLanes`]) in the `(time, priority, seq)`
//! order of a single [`crate::des::EventQueue`]:
//!
//! 1. **Arrival** at cycle *t*: the [`DispatchPolicy`] picks a shard,
//!    then the batch engine's admission ladder runs against that shard,
//!    on its backlog `busy_until − t` plus the job's DMA-aware estimate
//!    ([`crate::Engine::estimate_cycles`] semantics): outstanding-job
//!    cap (`queue_full`), backlog limit (`overloaded`), deadline lower
//!    bound (`deadline_infeasible`).  Survivors get the shard's *exact*
//!    stall-inclusive schedule; if even that misses the absolute
//!    deadline (`arrival + relative deadline`) the job is shed at *t*
//!    without occupying the shard (the batch engine's shed check, run
//!    at the arrival cycle).  Dispatched jobs advance the shard's
//!    busy-until clock and enqueue a completion event.
//! 2. **Completion** at cycle *c*: the shard's outstanding count drops;
//!    at equal times completions precede arrivals
//!    ([`crate::des::PRIORITY_COMPLETION`]) so freed capacity is
//!    visible to same-cycle arrivals.
//!
//! Every scheduling decision happens serially on the event clock.
//! Workers enter only afterwards, in the evaluation phase batch serving
//! shares, to evaluate the expensive per-layer
//! [`NetworkReport`](crate::NetworkReport) **once per distinct (traffic
//! source × shard) pair** — results merge by pair index, so the whole
//! [`OnlineReport`], including the folded [`SloReport`], is
//! bit-identical at any worker count.  Latency is `completion −
//! arrival` on the event clock.  Each outcome is folded as it is
//! decided, into per-pair counts, per-source latency sketches and
//! power-of-two window counts ([`WindowCounts`]); the
//! [`SloAccountant`] then folds those once per pair, so per-tenant p99 /
//! goodput / shed series cost O(pairs) after 10⁶–10⁷ simulated jobs.
//! Each outcome is also counted once in its shard's [`ShardFunnel`]; the
//! [`ShardReport`] tallies, the aggregate counts and the `engine.jobs`
//! metrics derive from the funnels after the loop, which never touches
//! the metrics registry: it is written once, at the end of the run.

use std::time::Instant;

use bsc_mac::MacKind;
use bsc_nn::SharedNetwork;
use bsc_telemetry::profile::{PhaseHandle, Profiler};
use bsc_telemetry::{HistogramSnapshot, QuantileSketch, Registry, Telemetry};

use crate::des::{ArrivalGen, ArrivalHeads, ArrivalProcess, CompletionLanes};
use crate::engine::{
    admit, estimate_cycles_for, evaluate_distinct, schedule_cycles_for, schedule_or_shed,
    CharacterizationCache, Evaluation, PrecisionPolicy, QUEUE_WAIT_BOUNDS_CYCLES, REJECT_SLUGS,
    SHED_SLUG,
};
use crate::slo::{
    quantize_energy_fj, window_width_for_horizon, CompletionGroup, SloAccountant, SloReport,
    SloTarget, TenantId, WindowCounts,
};
use crate::{AccelError, AcceleratorConfig};

/// One shard of the cluster: a named accelerator configuration.  Shards
/// may differ in MAC kind *and* memory hierarchy.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Stable shard name (metric label, report key, Perfetto track
    /// group).
    pub name: String,
    /// The accelerator this shard models.
    pub accel: AcceleratorConfig,
}

/// How arrivals choose a shard.  All policies are deterministic
/// functions of the event-clock state; ties always break toward the
/// lowest shard index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Cycle through shards in index order, one arrival each.
    RoundRobin,
    /// Pick the shard with the least outstanding work
    /// (`busy_until − now`).
    LeastOutstanding,
    /// Deficit-counter fairness: route each tenant to the shard where
    /// that tenant has consumed the fewest execution cycles so far, so
    /// heavy tenants spread out instead of monopolizing one shard.
    TenantFair,
}

impl std::fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastOutstanding => "least-outstanding",
            DispatchPolicy::TenantFair => "tenant-fair",
        })
    }
}

impl std::str::FromStr for DispatchPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().replace('_', "-").as_str() {
            "round-robin" | "rr" => Ok(DispatchPolicy::RoundRobin),
            "least-outstanding" | "least-loaded" | "lo" => Ok(DispatchPolicy::LeastOutstanding),
            "tenant-fair" | "fair" => Ok(DispatchPolicy::TenantFair),
            other => Err(format!(
                "unknown dispatch policy {other:?} (expected round-robin, least-outstanding or tenant-fair)"
            )),
        }
    }
}

/// The job every arrival of one traffic source instantiates.
#[derive(Debug, Clone)]
pub struct JobTemplate {
    /// Template name; job instances are `name#<arrival-seq>`.
    pub name: String,
    /// Tenant the instances are accounted to.
    pub tenant: TenantId,
    /// The network to run.
    pub network: SharedNetwork,
    /// Precision policy applied once, up front.
    pub precision: PrecisionPolicy,
    /// Deadline **relative to arrival** (absolute deadline =
    /// `arrival + deadline_cycles`), or `None` for best-effort.
    pub deadline_cycles: Option<u64>,
    /// The tenant's SLO target, if any (declared to the accountant).
    pub slo: Option<SloTarget>,
}

/// One open-loop traffic source: a job template plus the arrival
/// process that emits its instances.
#[derive(Debug, Clone)]
pub struct TrafficSource {
    /// What each arrival runs.
    pub template: JobTemplate,
    /// When arrivals happen.
    pub process: ArrivalProcess,
}

/// Configuration of one online-serving run.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// The heterogeneous shards jobs dispatch onto (must be non-empty).
    pub shards: Vec<ShardSpec>,
    /// Shard-selection policy.
    pub policy: DispatchPolicy,
    /// Seed for all arrival processes (each source derives its own
    /// stream deterministically from this and its index).
    pub seed: u64,
    /// Arrivals are generated while their timestamp is ≤ this horizon.
    pub horizon_cycles: u64,
    /// Hard cap on total arrivals (guards runaway rate tables).
    pub max_jobs: u64,
    /// Per-shard cap on dispatched-but-incomplete jobs; the `queue_full`
    /// rejection.
    pub max_outstanding: u64,
    /// Per-shard backlog limit in cycles: an arrival is rejected as
    /// `overloaded` when the shard's backlog (`busy_until − now`) plus
    /// the job's estimate would pass it.  `None` disables the check.
    pub max_backlog_cycles: Option<u64>,
    /// Cap on retained per-job decision records.  Decisions beyond the
    /// cap are dropped from [`OnlineReport::events`], counted in
    /// [`OnlineReport::events_truncated`] and surfaced through the
    /// `engine.decision_log.truncated` counter.  Use [`EVENT_LOG_CAP`]
    /// unless a test needs a tiny log.
    pub event_log_cap: usize,
    /// Worker threads for the report-evaluation phase (`None` = auto).
    /// **Never** affects results.
    pub workers: Option<usize>,
    /// The traffic sources (must be non-empty).
    pub sources: Vec<TrafficSource>,
}

/// Per-shard tallies of one online run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard name.
    pub name: String,
    /// Shard MAC architecture.
    pub kind: MacKind,
    /// Jobs this shard completed.
    pub completed: u64,
    /// Jobs rejected while this shard was the dispatch choice.
    pub rejected: u64,
    /// Jobs shed while this shard was the dispatch choice.
    pub shed: u64,
    /// Sum of exact execution cycles of completed jobs.
    pub busy_cycles: u64,
    /// Cycle of the shard's last completion (0 if none).
    pub last_completion_cycle: u64,
    /// High-water mark of dispatched-but-incomplete jobs.
    pub peak_outstanding: u64,
    /// High-water mark of the backlog (`busy_until − now`) observed at
    /// arrival decisions against this shard, in cycles.
    pub peak_backlog_cycles: u64,
    /// Useful MACs completed.
    pub macs: u64,
    /// fJ-exact energy of completed jobs (integer sum of per-layer
    /// quantized energies — see [`crate::slo::quantize_energy_fj`]).
    pub energy_fj: u64,
}

/// One (capped) event-log record for the JSONL / Perfetto exports.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineEvent {
    /// Job instance name (`template#seq`).
    pub job: String,
    /// Template the instance came from.
    pub template: String,
    /// Tenant accounted.
    pub tenant: TenantId,
    /// The dispatch-chosen shard.
    pub shard: String,
    /// `"completed"`, `"rejected"` or `"shed"`.
    pub outcome: &'static str,
    /// Machine-readable reason slug for rejected/shed.
    pub reason: Option<&'static str>,
    /// Arrival cycle.
    pub arrival_cycle: u64,
    /// Execution start cycle (= arrival for immediate dispatch;
    /// equal to `arrival_cycle` on rejected/shed records).
    pub start_cycle: u64,
    /// Completion cycle (decision cycle on rejected/shed records).
    pub completion_cycle: u64,
}

/// Cap on retained [`OnlineEvent`] records: the aggregate numbers cover
/// every job, but per-job logs over 10⁶ arrivals would dwarf the run,
/// so the log keeps the first [`EVENT_LOG_CAP`] decisions and counts
/// the rest in [`OnlineReport::events_truncated`].
pub const EVENT_LOG_CAP: usize = 10_000;

/// Per-shard admission-ladder funnel: how many arrivals each stage
/// passed or stopped while this shard was the dispatch choice.  The
/// stages are checked in order, so
/// `offered = queue_full + overloaded + deadline_infeasible +
/// shed_deadline + dispatched` holds exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardFunnel {
    /// Shard name.
    pub shard: String,
    /// Arrivals routed to this shard by the dispatch policy.
    pub offered: u64,
    /// Stopped by the outstanding-job cap.
    pub queue_full: u64,
    /// Stopped by the backlog limit: the shard's backlog plus the job's
    /// estimate would pass `max_backlog_cycles`.
    pub overloaded: u64,
    /// Stopped by the DMA-aware deadline lower bound.
    pub deadline_infeasible: u64,
    /// Passed admission but shed because the exact schedule missed the
    /// absolute deadline.
    pub shed_deadline: u64,
    /// Dispatched onto the shard.
    pub dispatched: u64,
}

impl ShardFunnel {
    /// Arrivals stopped by any admission rung.
    pub(crate) fn rejected(&self) -> u64 {
        self.queue_full + self.overloaded + self.deadline_infeasible
    }
}

/// One virtual-clock depth sample of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthSample {
    /// Sample cycle (a multiple of [`OnlineReport::depth_stride_cycles`]).
    pub cycle: u64,
    /// Dispatched-but-incomplete jobs at that cycle.
    pub outstanding: u64,
    /// Backlog (`busy_until − cycle`) at that cycle.
    pub backlog_cycles: u64,
}

/// The depth series of one shard, sampled on the virtual clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDepth {
    /// Shard name.
    pub shard: String,
    /// Samples in cycle order.
    pub samples: Vec<DepthSample>,
}

/// Power-of-two sampling stride for the depth observatory: ~256 samples
/// per shard across the horizon, so the series stays dashboard-sized no
/// matter how many million events the run pops.
pub fn depth_stride_for_horizon(horizon_cycles: u64) -> u64 {
    (horizon_cycles / 256).max(1).next_power_of_two()
}

/// The deterministic result of one [`run_online`] call.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Dispatch policy that ran.
    pub policy: DispatchPolicy,
    /// Seed of the arrival streams.
    pub seed: u64,
    /// Configured arrival horizon.
    pub horizon_cycles: u64,
    /// Total arrivals (= completed + rejected + shed).
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs refused at admission.
    pub rejected: u64,
    /// Jobs shed at dispatch (exact schedule missed the deadline).
    pub shed: u64,
    /// Last completion cycle across all shards.
    pub makespan_cycles: u64,
    /// Per-shard tallies, in shard order.
    pub shards: Vec<ShardReport>,
    /// Per-tenant SLO accounting (latency = completion − arrival).
    pub slo: SloReport,
    /// First [`OnlineConfig::event_log_cap`] per-job decisions, in
    /// event order.
    pub events: Vec<OnlineEvent>,
    /// Decisions beyond the event-log cap.
    pub events_truncated: u64,
    /// Stride of the depth observatory samples (power of two, derived
    /// from the horizon by [`depth_stride_for_horizon`]).
    pub depth_stride_cycles: u64,
    /// Per-shard depth series sampled on the virtual clock, in shard
    /// order.
    pub depth: Vec<ShardDepth>,
    /// Per-shard admission-ladder funnels, in shard order.
    pub funnel: Vec<ShardFunnel>,
}

impl OnlineReport {
    /// Total fJ-exact energy across shards.
    pub fn total_energy_fj(&self) -> u64 {
        self.shards.iter().map(|s| s.energy_fj).sum()
    }
}

/// Mutable per-shard dispatch state.
struct ShardState {
    busy_until: u64,
    outstanding: u64,
    peak_outstanding: u64,
    peak_backlog_cycles: u64,
}

/// Chooses the shard for one arrival.  Deterministic; ties break toward
/// the lowest index.  `tenant_cycles[i]` is the execution cycles the
/// arrival's source has consumed on shard `i`.
fn choose_shard(
    policy: DispatchPolicy,
    now: u64,
    shards: &[ShardState],
    rr_cursor: &mut usize,
    tenant_cycles: &[u64],
) -> usize {
    match policy {
        DispatchPolicy::RoundRobin => {
            let pick = *rr_cursor % shards.len();
            *rr_cursor = (*rr_cursor + 1) % shards.len();
            pick
        }
        DispatchPolicy::LeastOutstanding => shards
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.busy_until.saturating_sub(now), *i))
            .map(|(i, _)| i)
            .unwrap_or(0),
        DispatchPolicy::TenantFair => (0..shards.len())
            .min_by_key(|&i| (tenant_cycles[i], i))
            .unwrap_or(0),
    }
}

/// The self-profiler phases of one online run, prefetched so the event
/// loop never touches the profiler's shared state.
struct OnlinePhases {
    arrival: PhaseHandle,
    dispatch: PhaseHandle,
    admission: PhaseHandle,
    schedule: PhaseHandle,
    slo: PhaseHandle,
}

/// Arrivals drawn per source refill: one lockstep sampler block.
const ARRIVAL_BATCH: usize = 64;

/// One source's block of upcoming arrival cycles, consumed front to back.
struct ArrivalBlock {
    cycles: [u64; ARRIVAL_BATCH],
    next: usize,
}

impl Default for ArrivalBlock {
    /// An empty block: the first `peek` needs a `refill`.
    fn default() -> Self {
        ArrivalBlock { cycles: [0; ARRIVAL_BATCH], next: ARRIVAL_BATCH }
    }
}

impl ArrivalBlock {
    fn is_empty(&self) -> bool {
        self.next == ARRIVAL_BATCH
    }

    fn refill(&mut self, gen: &mut ArrivalGen) {
        gen.fill(&mut self.cycles);
        self.next = 0;
    }

    fn peek(&self) -> u64 {
        self.cycles[self.next]
    }

    fn advance(&mut self) {
        self.next += 1;
    }
}

/// The clock reads of one sampled arrival: dispatch ran from `t0` to
/// `t1`, admission from `t1` until the guard drops.
struct SampledArrival<'a> {
    clock: &'a mut PhaseClock,
    t0: Instant,
    t1: Instant,
}

impl Drop for SampledArrival<'_> {
    fn drop(&mut self) {
        let t2 = Instant::now();
        let floor = self.clock.read_floor_ns;
        let ns = |d: std::time::Duration| {
            u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).saturating_sub(floor)
        };
        self.clock.samples += 1;
        self.clock.sampled_dispatch_ns += ns(self.t1 - self.t0);
        self.clock.sampled_admission_ns += ns(t2 - self.t1);
    }
}

/// Every `2^PHASE_SAMPLE_LOG2`-th arrival (by arrival index, so the
/// choice is deterministic) reads the clock around its dispatch and
/// admission; the other arrivals pay no clock read at all.
const PHASE_SAMPLE_LOG2: u32 = 6;

/// Nanoseconds since `t`, saturating.
fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The wall-clock side of a profiled online run, tallied in plain
/// integers and flushed once.
///
/// Refills, the schedule evaluation and the SLO fold are rare, so they
/// are timed exactly.  Dispatch and admission run once per arrival —
/// millions of times — so only every `2^PHASE_SAMPLE_LOG2`-th arrival is
/// timed and the walls are estimated by scaling those samples to all
/// arrivals.  The estimate is capped at the loop time the exact phases
/// leave free, and whatever the run spent outside every phase goes to
/// the profiler's residual, so the phases plus the residual partition
/// the run's wall clock with no term negative.  `calls` stay exact: one
/// per arrival for dispatch and admission.
struct PhaseClock {
    profiler: Profiler,
    phases: OnlinePhases,
    run_start: Instant,
    /// The cheapest back-to-back clock-read pair: the read overhead one
    /// sampled interval carries, subtracted from each sample.
    read_floor_ns: u64,
    arrival_calls: u64,
    arrival_ns: u64,
    /// The part of `arrival_ns` spent inside the event loop.
    arrival_loop_ns: u64,
    schedule_ns: u64,
    slo_ns: u64,
    loop_start: Option<Instant>,
    loop_ns: u64,
    samples: u64,
    sampled_dispatch_ns: u64,
    sampled_admission_ns: u64,
}

impl PhaseClock {
    fn start(profiler: &Profiler) -> PhaseClock {
        let read_floor_ns = (0..16)
            .map(|_| {
                let t = Instant::now();
                ns_since(t)
            })
            .min()
            .unwrap_or(0);
        PhaseClock {
            profiler: profiler.clone(),
            phases: OnlinePhases {
                arrival: profiler.phase("arrival-sampling"),
                dispatch: profiler.phase("dispatch"),
                admission: profiler.phase("admission"),
                schedule: profiler.phase("schedule-eval"),
                slo: profiler.phase("slo-fold"),
            },
            run_start: Instant::now(),
            read_floor_ns,
            arrival_calls: 0,
            arrival_ns: 0,
            arrival_loop_ns: 0,
            schedule_ns: 0,
            slo_ns: 0,
            loop_start: None,
            loop_ns: 0,
            samples: 0,
            sampled_dispatch_ns: 0,
            sampled_admission_ns: 0,
        }
    }

    /// One refill scope: timed exactly.
    fn arrival(&mut self, t: Instant) {
        let ns = ns_since(t);
        self.arrival_calls += 1;
        self.arrival_ns += ns;
        if self.loop_start.is_some() {
            self.arrival_loop_ns += ns;
        }
    }

    /// Flushes into the phases: `arrivals` dispatch/admission calls,
    /// sampled walls scaled up, the rest of the run into the residual.
    fn flush(&self, arrivals: u64) {
        let run_ns = ns_since(self.run_start);
        let scale = |sampled: u64| {
            let est = u128::from(sampled) * u128::from(arrivals) / u128::from(self.samples.max(1));
            u64::try_from(est).unwrap_or(u64::MAX)
        };
        let (mut dispatch, mut admission) =
            (scale(self.sampled_dispatch_ns), scale(self.sampled_admission_ns));
        // Never attribute more than the loop left free.
        let free = self.loop_ns.saturating_sub(self.arrival_loop_ns);
        let claimed = dispatch.saturating_add(admission);
        if claimed > free {
            dispatch = u64::try_from(u128::from(dispatch) * u128::from(free) / u128::from(claimed))
                .unwrap_or(free);
            admission = free - dispatch;
        }
        let ph = &self.phases;
        ph.arrival.record(self.arrival_calls, self.arrival_ns);
        ph.dispatch.record(arrivals, dispatch);
        ph.admission.record(arrivals, admission);
        // Two schedule-eval scopes (cycle tables before the loop, report
        // evaluation after it) and one SLO fold.
        ph.schedule.record(2, self.schedule_ns);
        ph.slo.record(1, self.slo_ns);
        let attributed = [self.arrival_ns, dispatch, admission, self.schedule_ns, self.slo_ns]
            .into_iter()
            .fold(0u64, u64::saturating_add);
        self.profiler.add_residual(run_ns.saturating_sub(attributed));
    }
}

/// Writes one run's outcome metrics into `m`, once, from the funnels:
/// the flat `engine.jobs.*` counters, one `engine.jobs{outcome,reason,
/// shard}` point per funnel count and the queue-wait histogram.  Zero
/// counts are not written — the registry registers a metric on first
/// touch, so a metric no job reached stays out of the snapshot.
fn write_outcome_metrics(m: &Registry, funnel: &[ShardFunnel], wait: &HistogramSnapshot) {
    let add = |name: &str, n: u64| {
        if n > 0 {
            m.counter(name).add(n);
        }
    };
    let total = |count: fn(&ShardFunnel) -> u64| funnel.iter().map(count).sum::<u64>();
    add("engine.jobs.submitted", total(|f| f.offered));
    add("engine.jobs.rejected", total(ShardFunnel::rejected));
    add("engine.jobs.shed", total(|f| f.shed_deadline));
    add("engine.jobs.completed", total(|f| f.dispatched));
    for f in funnel {
        let point = |labels: &[(&str, &str)], n: u64| {
            if n > 0 {
                m.labeled_counter("engine.jobs").with(labels).add(n);
            }
        };
        let shard = ("shard", f.shard.as_str());
        point(&[("outcome", "completed"), shard], f.dispatched);
        let rejections = [f.queue_full, f.overloaded, f.deadline_infeasible];
        for (slug, n) in REJECT_SLUGS.into_iter().zip(rejections) {
            point(&[("outcome", "rejected"), ("reason", slug), shard], n);
        }
        point(&[("outcome", "shed"), ("reason", SHED_SLUG), shard], f.shed_deadline);
    }
    if wait.count > 0 {
        m.histogram("engine.queue.wait_cycles", &wait.bounds).merge(wait);
    }
}

/// Runs one online-serving simulation.  See the module docs for the
/// event semantics and determinism contract.
///
/// The returned report and the metrics recorded into `telemetry` are a
/// pure function of `config` — bit-identical at any worker count and on
/// every platform.  The metrics are written once, after the event loop.
///
/// # Errors
///
/// Propagates characterization and mapping failures; rejects empty
/// shard or source lists as
/// [`AccelError::Config`](crate::AccelError).
pub fn run_online(
    config: &OnlineConfig,
    telemetry: &Telemetry,
) -> Result<OnlineReport, AccelError> {
    run_online_profiled(config, telemetry, None)
}

/// [`run_online`] with an optional self-profiler attached.
///
/// When `profiler` is `Some`, the run accumulates wall-clock time into
/// the phases `arrival-sampling`, `dispatch`, `admission`,
/// `schedule-eval` and `slo-fold`, plus deterministic work counters per
/// phase (events popped, heap ops, map touches, metric increments, ...).
/// The counters are a pure function of `config` — byte-identical at any
/// worker count — while the wall-clock side is machine-dependent and
/// never gated.  Profiling never changes the report: the deterministic
/// work is tallied in loop-local integers and flushed once at the end.
///
/// # Errors
///
/// Same contract as [`run_online`].
pub fn run_online_profiled(
    config: &OnlineConfig,
    telemetry: &Telemetry,
    profiler: Option<&Profiler>,
) -> Result<OnlineReport, AccelError> {
    if config.shards.is_empty() {
        return Err(AccelError::Config("online cluster needs at least one shard".into()));
    }
    if config.sources.is_empty() {
        return Err(AccelError::Config("online cluster needs at least one traffic source".into()));
    }
    let _wall = telemetry.metrics.timer("engine.run_online_ns");
    let m = &telemetry.metrics;
    let mut clock = profiler.map(PhaseClock::start);

    // Precision policies apply once; per-(source × shard) cycle numbers
    // are computed up front — the event loop then runs on pure integers.
    let networks: Vec<SharedNetwork> =
        config.sources.iter().map(|s| s.template.precision.apply(&s.template.network)).collect();
    let n_shards = config.shards.len();
    let mut estimate = vec![0u64; config.sources.len() * n_shards];
    let mut exact = vec![0u64; config.sources.len() * n_shards];
    {
        let t = clock.is_some().then(Instant::now);
        for (si, net) in networks.iter().enumerate() {
            for (hi, shard) in config.shards.iter().enumerate() {
                estimate[si * n_shards + hi] = estimate_cycles_for(&shard.accel, net);
                exact[si * n_shards + hi] = schedule_cycles_for(&shard.accel, net)?;
            }
        }
        if let (Some(c), Some(t)) = (clock.as_mut(), t) {
            c.schedule_ns += ns_since(t);
        }
    }

    // Arrivals wait in one head slot per source (each source has at most
    // one pending); shard completions live in per-lane monotone FIFOs and
    // pop as coalesced same-cycle bursts.  The merge below preserves a
    // unified queue's exact (time, priority, seq) order — see
    // `ArrivalHeads` and `CompletionLanes`.
    let mut heads = ArrivalHeads::new(config.sources.len());
    let mut lanes = CompletionLanes::new(n_shards);
    let mut gens: Vec<ArrivalGen> = config
        .sources
        .iter()
        .enumerate()
        .map(|(i, s)| {
            // Distinct, deterministic stream per source: golden-ratio
            // hashing keeps seeds apart even for adjacent indices.
            let seed = config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ArrivalGen::new(s.process.clone(), seed)
        })
        .collect();
    // Per-source blocks of upcoming arrivals, refilled through the
    // sampler's lockstep fast path.  The heads only ever hold each
    // source's *next* arrival, so push gating — horizon and max_jobs —
    // happens per arrival; a buffered timestamp past the horizon stays
    // put as a sentinel, so a dead source is never refilled again.
    let mut arrival_bufs: Vec<ArrivalBlock> =
        config.sources.iter().map(|_| ArrivalBlock::default()).collect();
    let mut arrivals_pushed = 0u64;
    let mut arrival_samples = 0u64;
    let mut arrival_refills = 0u64;
    {
        let t = clock.is_some().then(Instant::now);
        for (i, g) in gens.iter_mut().enumerate() {
            arrival_bufs[i].refill(g);
            arrival_refills += 1;
            arrival_samples += ARRIVAL_BATCH as u64;
            let t = arrival_bufs[i].peek();
            if t <= config.horizon_cycles && arrivals_pushed < config.max_jobs {
                arrival_bufs[i].advance();
                heads.push(i, t);
                arrivals_pushed += 1;
            }
        }
        if let (Some(c), Some(t)) = (clock.as_mut(), t) {
            c.arrival(t);
        }
    }

    let mut shards: Vec<ShardState> = (0..n_shards)
        .map(|_| ShardState {
            busy_until: 0,
            outstanding: 0,
            peak_outstanding: 0,
            peak_backlog_cycles: 0,
        })
        .collect();

    let mut rr_cursor = 0usize;
    // Execution cycles per (source × shard) pair, read by tenant-fair
    // dispatch.  Pair index: `source * n_shards + shard`.
    let n_pairs = config.sources.len() * n_shards;
    let mut tenant_cycles: Vec<u64> = vec![0; n_pairs];
    let mut per_source_seq: Vec<u64> = vec![0; config.sources.len()];
    let mut submitted = 0u64;
    let mut event_log: Vec<OnlineEvent> = Vec::new();
    let mut events_truncated = 0u64;
    // The streaming SLO fold: every outcome is counted as it is decided,
    // allocation-free, and the accountant folds the counts once per group
    // after the loop.  A completed job's attribution depends only on its
    // (source × shard) pair, so completions keep a count per pair (pairs
    // in first-completion order, the evaluation order), one latency
    // sketch per source and per-pair window counts; rejections keep a
    // count per (source × reason), sheds a count and window counts per
    // source (the table's rows after the pairs).
    let mut pair_completed: Vec<u64> = vec![0; n_pairs];
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut latency: Vec<QuantileSketch> =
        config.sources.iter().map(|_| QuantileSketch::new()).collect();
    let mut window_counts = WindowCounts::new(
        n_pairs + config.sources.len(),
        window_width_for_horizon(config.horizon_cycles),
    );
    let mut reject_counts: Vec<u64> = vec![0; config.sources.len() * REJECT_SLUGS.len()];
    let mut shed_counts: Vec<u64> = vec![0; config.sources.len()];
    // Queue waits (`start − arrival`) of completed jobs, in a plain
    // accumulator merged into the registry histogram once.
    let mut wait = HistogramSnapshot::with_bounds(QUEUE_WAIT_BOUNDS_CYCLES);

    // Depth observatory: per-shard (outstanding, backlog) sampled on the
    // virtual clock at a power-of-two stride.  Boundaries are drained
    // *before* the event that crosses them, and the queue delivers
    // events in time order, so the state recorded at boundary `b` is
    // exactly the state after every event with time ≤ `b` — a pure
    // function of the event stream, independent of worker count.
    let stride = depth_stride_for_horizon(config.horizon_cycles);
    let mut next_sample = stride;
    let mut depth: Vec<ShardDepth> = config
        .shards
        .iter()
        .map(|s| ShardDepth { shard: s.name.clone(), samples: Vec::new() })
        .collect();
    let mut funnel: Vec<ShardFunnel> = config
        .shards
        .iter()
        .map(|s| ShardFunnel { shard: s.name.clone(), ..ShardFunnel::default() })
        .collect();

    let event_log_cap = config.event_log_cap;
    let mut burst: Vec<usize> = Vec::with_capacity(n_shards.max(4));
    let mut completion_bursts = 0u64;
    const SAMPLE_MASK: u64 = (1 << PHASE_SAMPLE_LOG2) - 1;

    if let Some(c) = clock.as_mut() {
        c.loop_start = Some(Instant::now());
    }
    loop {
        // Merge the arrival heads with the completion lanes: at equal
        // times completions come first (the PRIORITY_COMPLETION rule),
        // so `c <= a` picks the burst.
        let (now, is_completion) = match (lanes.peek_time(), heads.peek_time()) {
            (Some(c), Some(a)) if c <= a => (c, true),
            (Some(c), None) => (c, true),
            (None, Some(a)) => (a, false),
            (Some(_), Some(a)) => (a, false),
            (None, None) => break,
        };
        while next_sample < now {
            for (d, s) in depth.iter_mut().zip(&shards) {
                d.samples.push(DepthSample {
                    cycle: next_sample,
                    outstanding: s.outstanding,
                    backlog_cycles: s.busy_until.saturating_sub(next_sample),
                });
            }
            // Saturating: past the last stride multiple below `u64::MAX`
            // the boundary pins there and the drain ends.
            next_sample = next_sample.saturating_add(stride);
        }
        if is_completion {
            // One lane scan pops every completion due this cycle — a
            // single batch operation per burst instead of one heap pop
            // (plus sift-down) per job.
            lanes.pop_burst(&mut burst);
            completion_bursts += 1;
            for &lane in &burst {
                shards[lane].outstanding -= 1;
            }
            continue;
        }
        let (_, source) = heads.pop().expect("peeked arrival");

        // Keep the source's stream flowing before anything else, so
        // admission decisions can't perturb arrival times.  The buffer
        // refills through the batched sampler; the push gate below runs
        // per arrival, exactly as the per-draw path did.
        {
            if arrival_bufs[source].is_empty() {
                let t = clock.is_some().then(Instant::now);
                arrival_bufs[source].refill(&mut gens[source]);
                if let (Some(c), Some(t)) = (clock.as_mut(), t) {
                    c.arrival(t);
                }
                arrival_refills += 1;
                arrival_samples += ARRIVAL_BATCH as u64;
            }
            let next = arrival_bufs[source].peek();
            if next <= config.horizon_cycles && arrivals_pushed < config.max_jobs {
                arrival_bufs[source].advance();
                heads.push(source, next);
                arrivals_pushed += 1;
            }
        }

        let tmpl = &config.sources[source].template;
        let seq = per_source_seq[source];
        per_source_seq[source] += 1;
        let sampled = clock.is_some() && (submitted & SAMPLE_MASK) == 0;
        submitted += 1;

        let t_dispatch = sampled.then(Instant::now);
        let hi = choose_shard(
            config.policy,
            now,
            &shards,
            &mut rr_cursor,
            &tenant_cycles[source * n_shards..(source + 1) * n_shards],
        );
        // Admission ends with this iteration; the sample closes when
        // this guard drops.
        let _sample = t_dispatch.zip(clock.as_mut()).map(|(t0, clock)| SampledArrival {
            clock,
            t0,
            t1: Instant::now(),
        });
        let pair = source * n_shards + hi;
        let backlog = shards[hi].busy_until.saturating_sub(now);
        shards[hi].peak_backlog_cycles = shards[hi].peak_backlog_cycles.max(backlog);
        let f = &mut funnel[hi];
        f.offered += 1;

        // The engine's admission ladder, against this shard, then its
        // exact-schedule shed check; the funnel counts the rung that
        // stops the job by its slot.
        let decision = admit(
            shards[hi].outstanding,
            config.max_outstanding,
            backlog,
            estimate[pair],
            config.max_backlog_cycles,
            tmpl.deadline_cycles,
        )
        .map(|_| schedule_or_shed(shards[hi].busy_until, now, exact[pair], tmpl.deadline_cycles));
        let (outcome, reason, start, completion) = match decision {
            Err(rejected) => {
                let slot = rejected.slot();
                *[&mut f.queue_full, &mut f.overloaded, &mut f.deadline_infeasible][slot] += 1;
                reject_counts[source * REJECT_SLUGS.len() + slot] += 1;
                ("rejected", Some(REJECT_SLUGS[slot]), now, now)
            }
            Ok(Err(_shed)) => {
                f.shed_deadline += 1;
                shed_counts[source] += 1;
                window_counts.add(n_pairs + source, now);
                ("shed", Some(SHED_SLUG), now, now)
            }
            Ok(Ok((start, completion))) => {
                // Dispatch.
                let st = &mut shards[hi];
                st.busy_until = completion;
                st.outstanding += 1;
                st.peak_outstanding = st.peak_outstanding.max(st.outstanding);
                st.peak_backlog_cycles = st.peak_backlog_cycles.max(completion - now);
                f.dispatched += 1;
                tenant_cycles[pair] += exact[pair];
                wait.record(start - now);
                lanes.push(hi, completion);
                if pair_completed[pair] == 0 {
                    pairs.push((source, hi));
                }
                pair_completed[pair] += 1;
                latency[source].record(completion - now);
                window_counts.add(pair, completion);
                ("completed", None, start, completion)
            }
        };
        // The log caps out within the first 10⁴ decisions of a
        // multi-million-job run; skip the record (and its string
        // formatting) entirely once it is full.
        if event_log.len() < event_log_cap {
            event_log.push(OnlineEvent {
                job: format!("{}#{seq}", tmpl.name),
                template: tmpl.name.clone(),
                tenant: tmpl.tenant.clone(),
                shard: config.shards[hi].name.clone(),
                outcome,
                reason,
                arrival_cycle: now,
                start_cycle: start,
                completion_cycle: completion,
            });
        } else {
            events_truncated += 1;
        }
    }
    if let Some(c) = clock.as_mut() {
        c.loop_ns = c.loop_start.map_or(0, ns_since);
    }
    write_outcome_metrics(m, &funnel, &wait);
    // The drop count is also a counter, so a truncated decision log is
    // visible in every metrics export, not just in the report.
    m.counter("engine.decision_log.truncated").add(events_truncated);

    // Report-evaluation phase: the only parallel section.  One
    // NetworkReport per distinct (source × shard) pair that completed at
    // least one job; merged by pair index, so worker count is invisible.
    let t_schedule = clock.is_some().then(Instant::now);
    // Only shards that completed a job need their design characterized.
    let characs = (0..n_shards)
        .map(|hi| {
            let used = pairs.iter().any(|&(_, h)| h == hi);
            used.then(|| CharacterizationCache::global().get_for(&config.shards[hi].accel))
                .transpose()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (reports, _) = evaluate_distinct(&pairs, config.workers, None, |i| {
        let (si, hi) = pairs[i];
        Evaluation {
            accel: &config.shards[hi].accel,
            charac: characs[hi].as_ref().expect("characterized above"),
            network: &networks[si],
            name: &config.sources[si].template.name,
        }
    })?;
    if let (Some(c), Some(t)) = (clock.as_mut(), t_schedule) {
        c.schedule_ns += ns_since(t);
    }

    // Shard tallies from the funnel and the dispatch state.  A shard's
    // busy-until clock only moves forward, to each dispatch's completion,
    // so its final value is the shard's last completion and the largest
    // is the makespan.
    let makespan = shards.iter().map(|s| s.busy_until).max().unwrap_or(0);
    let mut shard_reports: Vec<ShardReport> = config
        .shards
        .iter()
        .zip(&shards)
        .zip(&funnel)
        .enumerate()
        .map(|(hi, ((spec, st), f))| ShardReport {
            name: spec.name.clone(),
            kind: spec.accel.kind,
            completed: f.dispatched,
            rejected: f.rejected(),
            shed: f.shed_deadline,
            busy_cycles: tenant_cycles[hi..].iter().step_by(n_shards).sum(),
            last_completion_cycle: st.busy_until,
            peak_outstanding: st.peak_outstanding,
            peak_backlog_cycles: st.peak_backlog_cycles,
            macs: 0,
            energy_fj: 0,
        })
        .collect();

    // Serial SLO fold, O(pairs): order never matters for the
    // accountant's BTree state.  The window width derives from the full
    // horizon — completions may legitimately land past the arrival
    // horizon — and is a power-of-two multiple of the fine width the
    // loop counted at (see `WindowCounts`).
    let t_slo = clock.is_some().then(Instant::now);
    let horizon = config.horizon_cycles.max(makespan);
    let mut acc = SloAccountant::new(window_width_for_horizon(horizon));
    debug_assert!(window_counts.width() <= window_width_for_horizon(horizon));
    for s in &config.sources {
        if let Some(target) = s.template.slo {
            acc.declare_target(s.template.tenant.clone(), target);
        }
    }
    for (si, counts) in reject_counts.chunks(REJECT_SLUGS.len()).enumerate() {
        let tenant = &config.sources[si].template.tenant;
        for (slot, &n) in counts.iter().enumerate() {
            if n > 0 {
                acc.observe_rejections(tenant, REJECT_SLUGS[slot], n);
            }
        }
    }
    for (si, &n) in shed_counts.iter().enumerate() {
        if n > 0 {
            acc.observe_sheds(
                &config.sources[si].template.tenant,
                &[(SHED_SLUG, n)],
                &window_counts.row(n_pairs + si),
            );
        }
    }
    for (&(si, hi), report) in pairs.iter().zip(&reports) {
        let tmpl = &config.sources[si].template;
        let count = pair_completed[si * n_shards + hi];
        // An online job that would miss its deadline is shed, so every
        // completion with a deadline met it.
        let deadline_jobs = if tmpl.deadline_cycles.is_some() { count } else { 0 };
        acc.observe_completions(CompletionGroup {
            tenant: &tmpl.tenant,
            report,
            count,
            deadline_jobs,
            deadline_met: deadline_jobs,
            windows: &window_counts.row(si * n_shards + hi),
        });
        let sr = &mut shard_reports[hi];
        sr.macs = sr.macs.wrapping_add(count.wrapping_mul(report.total_macs()));
        for layer in report.layers() {
            let fj = count.wrapping_mul(quantize_energy_fj(layer.energy_fj));
            sr.energy_fj = sr.energy_fj.wrapping_add(fj);
        }
    }
    for (s, sketch) in config.sources.iter().zip(&latency) {
        if sketch.count() > 0 {
            acc.observe_latencies(&s.template.tenant, sketch);
        }
    }
    let completed: u64 = pair_completed.iter().sum();
    let rejected: u64 = shard_reports.iter().map(|s| s.rejected).sum();
    let shed: u64 = shard_reports.iter().map(|s| s.shed).sum();
    let slo_observations = acc.observations();
    let slo_report = acc.report();
    if let (Some(c), Some(t)) = (clock.as_mut(), t_slo) {
        c.slo_ns += ns_since(t);
    }
    m.gauge("engine.online.makespan_cycles").set(makespan.min(i64::MAX as u64) as i64);

    // Flush the deterministic work tallies into the profiler.  Every
    // value below is a pure function of `config` (the parallel report
    // phase merges by pair index), so the counter side of the profile is
    // byte-identical at any worker count.
    if let Some(c) = clock.as_ref() {
        c.flush(submitted);
        let ph = &c.phases;
        ph.arrival.add("samples", arrival_samples);
        ph.arrival.add("refills", arrival_refills);
        ph.arrival.add("arrivals_enqueued", arrivals_pushed);

        // Logical event deliveries (arrivals + completions).  `heap_*`
        // count arrival-queue traffic (pushes into and pops from the
        // per-source heads); completions move through the monotone lanes
        // and surface as `lane_pushes` / `completion_bursts`.
        ph.dispatch.add("events_popped", heads.pops() + lanes.pops());
        ph.dispatch.add("arrivals_popped", submitted);
        ph.dispatch.add("completions_popped", lanes.pops());
        ph.dispatch.add("completion_bursts", completion_bursts);
        ph.dispatch.add("lane_pushes", lanes.pushes());
        ph.dispatch.add("heap_pushes", heads.pushes());
        ph.dispatch.add("heap_ops", heads.pushes() + heads.pops());
        ph.dispatch.add("decisions", submitted);
        // Shards examined per decision: round-robin reads one cursor,
        // the other policies scan every shard.
        let scan = match config.policy {
            DispatchPolicy::RoundRobin => 1,
            _ => n_shards as u64,
        };
        ph.dispatch.add("shard_scans", submitted * scan);

        ph.admission.add("offered", submitted);
        ph.admission.add("rejected_queue_full", funnel.iter().map(|f| f.queue_full).sum());
        ph.admission.add("rejected_overloaded", funnel.iter().map(|f| f.overloaded).sum());
        ph.admission.add(
            "rejected_deadline_infeasible",
            funnel.iter().map(|f| f.deadline_infeasible).sum(),
        );
        ph.admission.add("shed_deadline_missed", shed);
        ph.admission.add("dispatched", completed);
        // Tenant-cycle map writes (one per dispatch) plus the reads the
        // tenant-fair scan performs per decision.
        let tf_reads = match config.policy {
            DispatchPolicy::TenantFair => submitted * n_shards as u64,
            _ => 0,
        };
        ph.admission.add("tenant_map_touches", completed + tf_reads);
        // The per-job metric updates the outcomes stand for: one
        // `submitted` count per arrival, two per rejection or shed (flat
        // counter + labeled point), three per completion (flat counter +
        // labeled point + wait record).  The registry itself is written
        // once, after the loop.
        ph.admission
            .add("metric_increments", submitted + 2 * (rejected + shed) + 3 * completed);
        ph.admission.add("log_appends", event_log.len() as u64);
        ph.admission.add("log_dropped", events_truncated);

        ph.schedule.add("cycle_tables", (config.sources.len() * n_shards) as u64);
        ph.schedule.add("pairs_evaluated", pairs.len() as u64);
        ph.schedule.add("layers_evaluated", reports.iter().map(|r| r.layers().len() as u64).sum());

        ph.slo.add("observations", slo_observations);
        ph.slo.add("completions_folded", completed);
        ph.slo.add("depth_samples", depth.iter().map(|d| d.samples.len() as u64).sum());
    }

    Ok(OnlineReport {
        policy: config.policy,
        seed: config.seed,
        horizon_cycles: config.horizon_cycles,
        submitted,
        completed,
        rejected,
        shed,
        makespan_cycles: makespan,
        shards: shard_reports,
        slo: slo_report,
        events: event_log,
        events_truncated,
        depth_stride_cycles: stride,
        depth,
        funnel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::ArrivalProcess;
    use crate::engine::tests::toy_net;
    use bsc_mac::Precision;
    use std::collections::BTreeMap;

    fn quick_shards() -> Vec<ShardSpec> {
        [MacKind::Bsc, MacKind::Lpc, MacKind::Hps]
            .into_iter()
            .enumerate()
            .map(|(i, kind)| ShardSpec {
                name: format!("shard{i}"),
                accel: AcceleratorConfig::quick(kind),
            })
            .collect()
    }

    fn quick_config(policy: DispatchPolicy, workers: Option<usize>) -> OnlineConfig {
        OnlineConfig {
            shards: quick_shards(),
            policy,
            seed: 7,
            horizon_cycles: 200_000,
            max_jobs: 10_000,
            max_outstanding: 8,
            max_backlog_cycles: Some(50_000),
            event_log_cap: EVENT_LOG_CAP,
            workers,
            sources: vec![
                TrafficSource {
                    template: JobTemplate {
                        name: "steady".into(),
                        tenant: TenantId::new("gold"),
                        network: toy_net("a", 64, 8, Precision::Int8),
                        precision: PrecisionPolicy::AsTrained,
                        deadline_cycles: Some(20_000),
                        slo: Some(SloTarget {
                            latency_p99_cycles: 50_000,
                            min_goodput: 0.5,
                        }),
                    },
                    process: ArrivalProcess::Poisson { mean_interarrival_cycles: 500 },
                },
                TrafficSource {
                    template: JobTemplate {
                        name: "burst".into(),
                        tenant: TenantId::new("bronze"),
                        network: toy_net("b", 128, 16, Precision::Int4),
                        precision: PrecisionPolicy::AsTrained,
                        deadline_cycles: None,
                        slo: None,
                    },
                    process: ArrivalProcess::Bursty {
                        on_cycles: 5_000,
                        off_cycles: 20_000,
                        mean_interarrival_cycles: 200,
                    },
                },
            ],
        }
    }

    #[test]
    fn online_report_is_worker_count_independent() {
        let runs: Vec<OnlineReport> = [Some(1), Some(2), Some(8)]
            .into_iter()
            .map(|w| {
                run_online(&quick_config(DispatchPolicy::LeastOutstanding, w), &Telemetry::metrics_only())
                    .unwrap()
            })
            .collect();
        assert!(runs[0].submitted > 100, "traffic actually flowed");
        assert!(runs[0].completed > 0);
        for r in &runs[1..] {
            assert_eq!(r.submitted, runs[0].submitted);
            assert_eq!(r.shards, runs[0].shards);
            assert_eq!(r.slo, runs[0].slo);
            assert_eq!(r.events, runs[0].events);
            assert_eq!(r.depth, runs[0].depth);
            assert_eq!(r.funnel, runs[0].funnel);
        }
    }

    #[test]
    fn profile_counters_are_worker_count_independent() {
        use bsc_telemetry::profile::profile_json;
        let snaps: Vec<String> = [Some(1), Some(2), Some(8)]
            .into_iter()
            .map(|w| {
                let prof = Profiler::new();
                run_online_profiled(
                    &quick_config(DispatchPolicy::TenantFair, w),
                    &Telemetry::metrics_only(),
                    Some(&prof),
                )
                .unwrap();
                let mut snap = prof.snapshot();
                // Deterministic side only: wall-clock is machine noise.
                for p in &mut snap.phases {
                    p.wall_ns = 0;
                }
                snap.residual_ns = 0;
                profile_json(&snap)
            })
            .collect();
        assert_eq!(snaps[0], snaps[1]);
        assert_eq!(snaps[0], snaps[2]);
    }

    #[test]
    fn profiled_run_reproduces_the_unprofiled_report() {
        let config = quick_config(DispatchPolicy::LeastOutstanding, Some(2));
        let plain = run_online(&config, &Telemetry::metrics_only()).unwrap();
        let prof = Profiler::new();
        let profiled =
            run_online_profiled(&config, &Telemetry::metrics_only(), Some(&prof)).unwrap();
        assert_eq!(plain.shards, profiled.shards);
        assert_eq!(plain.slo, profiled.slo);
        assert_eq!(plain.events, profiled.events);
        assert_eq!(plain.depth, profiled.depth);
        assert_eq!(plain.funnel, profiled.funnel);
        // The profiler actually saw the run.
        let snap = prof.snapshot();
        let dispatch = snap.phase("dispatch").unwrap();
        assert_eq!(dispatch.counter("arrivals_popped"), plain.submitted);
        assert_eq!(
            dispatch.counter("events_popped"),
            plain.submitted + plain.completed,
            "every dispatch pushes exactly one completion"
        );
        let admission = snap.phase("admission").unwrap();
        assert_eq!(admission.counter("offered"), plain.submitted);
        assert_eq!(admission.counter("dispatched"), plain.completed);
        assert_eq!(
            snap.phase("slo-fold").unwrap().counter("observations"),
            plain.submitted,
            "every arrival is observed exactly once"
        );
    }

    #[test]
    fn sampled_phase_clock_keeps_exact_calls_and_never_over_attributes() {
        let config = quick_config(DispatchPolicy::LeastOutstanding, Some(2));
        let prof = Profiler::new();
        let started = Instant::now();
        let report = run_online_profiled(&config, &Telemetry::metrics_only(), Some(&prof)).unwrap();
        let run_wall_ns = ns_since(started);
        let snap = prof.snapshot();
        let phase = |name: &str| snap.phase(name).unwrap_or_else(|| panic!("missing phase {name}"));
        // Calls are exact even though only every 2^k-th arrival reads the
        // clock: one per arrival for dispatch and admission, one per
        // refill scope (the priming refill of all sources is one scope).
        assert!(report.submitted > 1 << PHASE_SAMPLE_LOG2, "several arrivals are sampled");
        assert_eq!(phase("dispatch").calls, report.submitted);
        assert_eq!(phase("admission").calls, report.submitted);
        let arrival = phase("arrival-sampling");
        assert_eq!(
            arrival.calls,
            arrival.counter("refills") - config.sources.len() as u64 + 1
        );
        assert_eq!((phase("schedule-eval").calls, phase("slo-fold").calls), (2, 1));
        // The phase walls plus the residual are the run's own wall clock:
        // a partition of at most the time measured around the call.
        let accounted = snap.total_wall_ns() + snap.residual_ns;
        assert!(
            accounted <= run_wall_ns,
            "phases + residual ({accounted} ns) exceed the run's wall clock ({run_wall_ns} ns)"
        );
        assert!(arrival.wall_ns > 0 && snap.residual_ns > 0);
    }

    #[test]
    fn funnel_stages_partition_offered_arrivals() {
        let mut config = quick_config(DispatchPolicy::RoundRobin, Some(1));
        config.sources[0].template.deadline_cycles = Some(9_000);
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
        assert_eq!(report.funnel.len(), report.shards.len());
        let mut offered_total = 0;
        for (f, s) in report.funnel.iter().zip(&report.shards) {
            assert_eq!(f.shard, s.name);
            assert_eq!(
                f.offered,
                f.queue_full + f.overloaded + f.deadline_infeasible + f.shed_deadline
                    + f.dispatched,
                "funnel stages must partition {}",
                f.shard
            );
            assert_eq!(f.dispatched, s.completed);
            assert_eq!(f.queue_full + f.overloaded + f.deadline_infeasible, s.rejected);
            assert_eq!(f.shed_deadline, s.shed);
            offered_total += f.offered;
        }
        assert_eq!(offered_total, report.submitted);
    }

    #[test]
    fn depth_series_samples_on_the_stride_grid() {
        let config = quick_config(DispatchPolicy::LeastOutstanding, Some(2));
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
        let stride = report.depth_stride_cycles;
        assert_eq!(stride, depth_stride_for_horizon(config.horizon_cycles));
        assert!(stride.is_power_of_two());
        assert_eq!(report.depth.len(), report.shards.len());
        for d in &report.depth {
            assert!(!d.samples.is_empty(), "busy shard {} must be sampled", d.shard);
            for pair in d.samples.windows(2) {
                assert!(pair[0].cycle < pair[1].cycle, "samples must advance");
            }
            for s in &d.samples {
                assert_eq!(s.cycle % stride, 0, "samples sit on the stride grid");
            }
        }
        // The peaks bound the sampled series.
        for (d, s) in report.depth.iter().zip(&report.shards) {
            let max_out = d.samples.iter().map(|x| x.outstanding).max().unwrap_or(0);
            assert!(max_out <= s.peak_outstanding);
        }
    }

    #[test]
    fn tiny_event_log_cap_truncates_and_counts() {
        let mut config = quick_config(DispatchPolicy::RoundRobin, Some(1));
        config.event_log_cap = 5;
        let tel = Telemetry::metrics_only();
        let report = run_online(&config, &tel).unwrap();
        assert_eq!(report.events.len(), 5);
        assert_eq!(report.events_truncated, report.submitted - 5);
        assert_eq!(
            tel.metrics.snapshot().counter("engine.decision_log.truncated"),
            report.events_truncated,
            "silent truncation must surface as a counter"
        );
        // An uncapped run drops nothing and the counter reads zero.
        let tel2 = Telemetry::metrics_only();
        config.event_log_cap = EVENT_LOG_CAP;
        let full = run_online(&config, &tel2).unwrap();
        assert_eq!(full.events_truncated, 0);
        assert_eq!(tel2.metrics.snapshot().counter("engine.decision_log.truncated"), 0);
    }

    #[test]
    fn round_robin_touches_every_shard() {
        let report =
            run_online(&quick_config(DispatchPolicy::RoundRobin, Some(2)), &Telemetry::metrics_only())
                .unwrap();
        for s in &report.shards {
            assert!(
                s.completed + s.rejected + s.shed > 0,
                "round-robin must route to {}",
                s.name
            );
        }
        assert_eq!(
            report.submitted,
            report.completed + report.rejected + report.shed,
            "every arrival gets exactly one outcome"
        );
    }

    #[test]
    fn policies_are_deterministic_but_distinct() {
        let tel = Telemetry::metrics_only;
        let rr = run_online(&quick_config(DispatchPolicy::RoundRobin, Some(2)), &tel()).unwrap();
        let rr2 = run_online(&quick_config(DispatchPolicy::RoundRobin, Some(2)), &tel()).unwrap();
        let lo = run_online(&quick_config(DispatchPolicy::LeastOutstanding, Some(2)), &tel()).unwrap();
        assert_eq!(rr.events, rr2.events, "same config, same stream");
        // Same arrivals, different placement bookkeeping.
        assert_eq!(rr.submitted, lo.submitted);
    }

    #[test]
    fn tenant_fair_spreads_one_tenant_across_shards() {
        let mut config = quick_config(DispatchPolicy::TenantFair, Some(2));
        config.sources.truncate(1); // single hot tenant
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
        let used = report.shards.iter().filter(|s| s.completed > 0).count();
        assert!(used >= 2, "tenant-fair must not pin one tenant to one shard");
    }

    #[test]
    fn deadlines_reject_or_shed_under_pressure() {
        let mut config = quick_config(DispatchPolicy::RoundRobin, Some(1));
        // Deadline below even the estimate: every arrival of source 0 is
        // rejected as infeasible.
        config.sources[0].template.deadline_cycles = Some(1);
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
        assert!(report.rejected > 0);
        let gold = report.slo.tenant("gold").expect("gold tenant present");
        assert_eq!(gold.completed, 0);
        assert!(gold
            .rejected_by_reason
            .iter()
            .any(|(slug, n)| slug == "deadline_infeasible" && *n == gold.rejected));
    }

    #[test]
    fn an_estimate_that_carries_the_backlog_past_the_limit_is_overloaded() {
        let mut config = quick_config(DispatchPolicy::LeastOutstanding, Some(1));
        config.shards.truncate(1);
        config.sources.truncate(1);
        config.sources[0].template.deadline_cycles = None;
        let tmpl = &config.sources[0].template;
        let estimate =
            estimate_cycles_for(&config.shards[0].accel, &tmpl.precision.apply(&tmpl.network));
        // The first arrival meets an idle shard: backlog 0 ≤ limit <
        // 0 + estimate, so the backlog alone would pass the limit.
        config.max_backlog_cycles = Some(estimate - 1);
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
        let first = &report.events[0];
        assert_eq!((first.outcome, first.reason), ("rejected", Some("overloaded")));
        assert_eq!(report.funnel[0].overloaded, report.submitted);
        // A projected backlog equal to the limit is admitted.
        config.max_backlog_cycles = Some(estimate);
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
        assert_eq!(report.events[0].outcome, "completed");
    }

    #[test]
    fn a_relative_deadline_near_u64_max_never_wraps() {
        let run = |deadline| {
            let mut config = quick_config(DispatchPolicy::LeastOutstanding, Some(1));
            config.sources[0].template.deadline_cycles = Some(deadline);
            run_online(&config, &Telemetry::metrics_only()).unwrap()
        };
        let (far, max) = (run(1 << 63), run(u64::MAX));
        assert!(far.slo.tenant("gold").expect("gold tenant present").completed > 0);
        assert_eq!(max.shards, far.shards);
        assert_eq!(max.funnel, far.funnel);
        assert_eq!(max.slo, far.slo);
        assert_eq!(max.events, far.events);
    }

    #[test]
    fn cycle_arithmetic_near_u64_max_saturates() {
        // Arrivals with a mean gap of 2^63 cycles saturate at `u64::MAX`
        // within a few draws.  The depth sampler's next boundary and each
        // completion must pin there instead of wrapping: a wrapped
        // boundary never passes `now` and samples without end, and a
        // wrapped completion lands before its own arrival.
        let mut config = quick_config(DispatchPolicy::LeastOutstanding, Some(1));
        config.shards.truncate(1);
        config.sources.truncate(1);
        config.sources[0].process = ArrivalProcess::Poisson { mean_interarrival_cycles: 1 << 63 };
        config.horizon_cycles = u64::MAX;
        config.max_jobs = 6;
        config.seed = 0;
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
        assert_eq!(report.submitted, 6);
        assert!(
            report.events.iter().any(|e| e.arrival_cycle == u64::MAX),
            "arrivals must saturate: {:?}",
            report.events
        );
        for e in &report.events {
            assert!(
                e.arrival_cycle <= e.start_cycle && e.start_cycle <= e.completion_cycle,
                "{e:?}"
            );
        }
        let bound = config.horizon_cycles / report.depth_stride_cycles + 1;
        for d in &report.depth {
            assert!(d.samples.len() as u64 <= bound, "{} depth samples", d.samples.len());
        }
    }

    /// Rebuilds every tenant's latency sketch and completed / shed window
    /// counts from the full decision log and checks them against the
    /// streamed SLO fold's report.
    fn assert_slo_matches_decision_log(report: &OnlineReport) {
        assert_eq!(report.events_truncated, 0, "the log must hold every decision");
        let width = report.slo.window_width_cycles;
        assert_eq!(
            width,
            window_width_for_horizon(report.horizon_cycles.max(report.makespan_cycles))
        );
        let mut latency: BTreeMap<&str, QuantileSketch> = BTreeMap::new();
        let mut windows: BTreeMap<(&str, u64), (u64, u64)> = BTreeMap::new();
        for e in &report.events {
            let tenant = e.tenant.as_str();
            match e.outcome {
                "completed" => {
                    latency
                        .entry(tenant)
                        .or_default()
                        .record(e.completion_cycle - e.arrival_cycle);
                    windows.entry((tenant, e.completion_cycle / width)).or_default().0 += 1;
                }
                "shed" => {
                    windows.entry((tenant, e.completion_cycle / width)).or_default().1 += 1;
                }
                _ => {}
            }
        }
        for t in &report.slo.tenants {
            let name = t.tenant.as_str();
            let expect = latency.get(name).map(|s| s.snapshot()).unwrap_or_default();
            assert_eq!(t.latency, expect, "latency sketch of {name}");
            let rebuilt: Vec<(u64, u64, u64)> = windows
                .range((name, 0)..=(name, u64::MAX))
                .map(|(&(_, w), &(c, s))| (w, c, s))
                .collect();
            let streamed: Vec<(u64, u64, u64)> =
                t.windows.iter().map(|w| (w.window, w.completed, w.shed)).collect();
            assert_eq!(streamed, rebuilt, "window series of {name}");
            assert_eq!(t.windows.iter().map(|w| w.macs).sum::<u64>(), t.macs);
        }
    }

    /// `quick_config` under deadline pressure: gold's deadline sits
    /// between its estimate and its exact schedule (256 / 1024 cycles on
    /// every shard), bronze runs `bronze_net` under a loose deadline, and
    /// nothing caps the backlog — both tenants complete *and* shed, and
    /// completions run past the arrival horizon.
    fn shedding_config(
        horizon_cycles: u64,
        bronze_net: SharedNetwork,
        bronze_deadline: u64,
    ) -> OnlineConfig {
        let mut config = quick_config(DispatchPolicy::LeastOutstanding, Some(2));
        config.horizon_cycles = horizon_cycles;
        config.max_backlog_cycles = None;
        config.max_outstanding = 1_000;
        config.event_log_cap = config.max_jobs as usize;
        config.sources[0].template.network = toy_net("a", 1024, 8, Precision::Int8);
        config.sources[0].template.deadline_cycles = Some(2_000);
        config.sources[1].template.network = bronze_net;
        config.sources[1].template.deadline_cycles = Some(bronze_deadline);
        config
    }

    #[test]
    fn streamed_slo_fold_matches_the_decision_log_past_the_horizon() {
        // The makespan passes the horizon, so the report's windows are
        // 2^k fine windows with k >= 1.
        let config = shedding_config(200_000, toy_net("b", 1024, 64, Precision::Int8), 100_000);
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
        assert!(
            report.slo.window_width_cycles > window_width_for_horizon(config.horizon_cycles),
            "makespan {} must widen the windows",
            report.makespan_cycles
        );
        for t in &report.slo.tenants {
            assert!(t.completed > 0 && t.shed > 0, "{} must complete and shed", t.tenant);
        }
        assert_slo_matches_decision_log(&report);
    }

    #[test]
    fn streamed_slo_fold_matches_the_decision_log_when_the_fine_table_compacts() {
        // A short horizon and heavy bronze jobs: the makespan overruns
        // the fine table, which doubles its width at least twice.
        let config = shedding_config(20_000, toy_net("c", 2048, 256, Precision::Int8), 500_000);
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
        let fine = window_width_for_horizon(config.horizon_cycles);
        assert!(
            report.makespan_cycles >= 2 * crate::slo::FINE_WINDOWS as u64 * fine,
            "makespan {} must overrun the fine table twice",
            report.makespan_cycles
        );
        for t in &report.slo.tenants {
            assert!(t.completed > 0 && t.shed > 0, "{} must complete and shed", t.tenant);
        }
        assert_slo_matches_decision_log(&report);
    }

    #[test]
    fn online_latency_is_completion_minus_arrival() {
        let config = quick_config(DispatchPolicy::LeastOutstanding, Some(2));
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
        // Every logged completed event's latency is bounded by the SLO
        // sketch's max.
        let max_latency: u64 = report
            .events
            .iter()
            .filter(|e| e.outcome == "completed")
            .map(|e| e.completion_cycle - e.arrival_cycle)
            .max()
            .unwrap();
        let sketch_max = report
            .slo
            .tenants
            .iter()
            .map(|t| t.latency.max)
            .max()
            .unwrap();
        assert!(max_latency <= sketch_max || report.events_truncated > 0);
        assert!(sketch_max > 0);
    }
}
