//! `online-steady` and `online-overload`: open-loop multi-shard serving
//! through `online::online`, traced through `online::online_profiled`.
//! The seed is the manifest's `cluster.seed`, the arrival-stream seed.

use std::time::Instant;

use bsc_accel::cluster::OnlineReport;
use bsc_accel::CharacterizationCache;
use bsc_bench::online::{
    events_jsonl, online, online_profiled, parse_online_manifest, perfetto_json, report_json,
    slo_json, OnlineRun,
};
use bsc_bench::profile::{profile_document, ProfileRun};
use bsc_mac::ppa::characterize_runs;
use bsc_telemetry::profile::Profiler;
use bsc_telemetry::SpanCollector;

use crate::stats::{median, window_coverage, Digest};
use crate::trace::{span, total_s};
use crate::workload::{diff_clean, ensure, Pass, Workload, Writer};

/// Which online workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Balanced load: most jobs complete and every admission rung fires.
    Steady,
    /// `examples/profile_10m_manifest.json`: one saturated shard rejects
    /// nearly every arrival as `queue_full`.
    Overload,
}

impl Scenario {
    fn manifest(self) -> &'static str {
        match self {
            Scenario::Steady => include_str!("../inputs/online_steady.json"),
            Scenario::Overload => include_str!("../../examples/profile_10m_manifest.json"),
        }
    }

    /// The checked-in profile the traced pass must match at the default
    /// seed.
    fn profile_baseline(self) -> Option<(&'static str, &'static str)> {
        match self {
            Scenario::Steady => None,
            Scenario::Overload => Some((
                "BENCH_profile_10m_baseline.json",
                include_str!("../../BENCH_profile_10m_baseline.json"),
            )),
        }
    }

    /// The checked-in manifest's arrival seed.
    pub fn default_seed(self) -> u64 {
        parse_online_manifest(self.manifest()).map_or(0, |c| c.seed)
    }

    /// The manifest with its arrival seed set to `seed`.
    pub fn manifest_for_seed(self, seed: u64) -> Result<String, String> {
        let text = self.manifest();
        let from = format!("\"seed\": {}", self.default_seed());
        ensure!(
            text.matches(&from).count() == 1,
            "online manifest: expected one `{from}`"
        );
        Ok(text.replace(&from, &format!("\"seed\": {seed}")))
    }

    /// The input properties that keep the two workloads apart.
    fn check_properties(self, r: &OnlineReport) -> Result<(), String> {
        let [queue_full, overloaded, infeasible, shed] = rungs(r);
        let share = |n: u64| n as f64 / r.submitted.max(1) as f64;
        match self {
            Scenario::Steady => {
                ensure!(
                    share(r.completed) >= 0.8,
                    "online-steady: completed share {:.4} below 0.8",
                    share(r.completed)
                );
                ensure!(
                    queue_full > 0 && overloaded > 0 && infeasible > 0 && shed > 0,
                    "online-steady: every admission rung must fire, got {:?}",
                    rungs(r)
                );
            }
            Scenario::Overload => ensure!(
                share(queue_full) >= 0.9,
                "online-overload: queue_full share {:.4} below 0.9",
                share(queue_full)
            ),
        }
        Ok(())
    }
}

/// Funnel rung totals: queue_full, overloaded, deadline_infeasible, shed.
fn rungs(r: &OnlineReport) -> [u64; 4] {
    r.funnel.iter().fold([0; 4], |[q, o, d, s], f| {
        [
            q + f.queue_full,
            o + f.overloaded,
            d + f.deadline_infeasible,
            s + f.shed_deadline,
        ]
    })
}

/// An online workload.
pub struct Online {
    scenario: Scenario,
    seed: u64,
    workers: usize,
    text: String,
    /// (seconds, designs) of the characterization in each set-up round.
    setup_characterize: Vec<(f64, u64)>,
}

impl Online {
    /// `scenario` at arrival seed `seed` on `workers` threads.
    pub fn new(scenario: Scenario, seed: u64, workers: usize) -> Self {
        Online {
            scenario,
            seed,
            workers,
            text: String::new(),
            setup_characterize: Vec::new(),
        }
    }

    /// Characterizes every shard's design into `cache`.
    fn characterize(&self, cache: &CharacterizationCache) -> Result<(), String> {
        let config = parse_online_manifest(&self.text)?;
        for shard in &config.shards {
            let mut cc = shard.accel.characterize.clone();
            cc.length = shard.accel.array.vector_length;
            cache
                .get_or_characterize(shard.accel.kind, &cc)
                .map_err(|e| format!("characterizing {}: {e}", shard.name))?;
        }
        Ok(())
    }
}

impl Workload for Online {
    fn work_per_s_name(&self) -> &'static str {
        "arrivals_per_s"
    }

    fn setup(&mut self) -> Result<(), String> {
        self.text = self.scenario.manifest_for_seed(self.seed)?;
        let runs_before = characterize_runs();
        let started = Instant::now();
        self.characterize(&CharacterizationCache::new())?;
        self.setup_characterize.push((
            started.elapsed().as_secs_f64(),
            characterize_runs() - runs_before,
        ));
        Ok(())
    }

    fn warm(&mut self) -> Result<(), String> {
        self.characterize(CharacterizationCache::global())
    }

    fn pass(&mut self, t: Option<&SpanCollector>) -> Result<Pass, String> {
        let cache = CharacterizationCache::global();
        let (runs_before, hits_before, misses_before) =
            (characterize_runs(), cache.hits(), cache.misses());
        let writers: [Writer<OnlineRun>; 4] = [
            (
                "export.report",
                "export.report_s",
                "export.report_bytes",
                report_json,
            ),
            ("export.slo", "export.slo_s", "export.slo_bytes", slo_json),
            (
                "export.events",
                "export.events_s",
                "export.events_bytes",
                events_jsonl,
            ),
            (
                "export.perfetto",
                "export.perfetto_s",
                "export.perfetto_bytes",
                perfetto_json,
            ),
        ];
        let mut digest = Digest::default();
        let mut sizes = Vec::new();
        let started = Instant::now();
        // The traced pass mirrors `repro profile`: the run under the
        // self-profiler, then every export under its `export` phase.
        let prof = t.map(|_| Profiler::new());
        let run = span(t, "cluster.online", || match &prof {
            Some(p) => online_profiled(&self.text, Some(self.workers), Some(p)),
            None => online(&self.text, Some(self.workers)),
        })?;
        {
            let _export = prof.as_ref().map(|p| p.enter("export"));
            for (name, secs, len, write) in writers {
                let doc = span(t, name, || write(&run));
                digest.update(doc.as_bytes());
                sizes.push((name, secs, len, doc.len() as u64));
            }
            if let Some(p) = &prof {
                p.add("export", "bytes_written", sizes.iter().map(|s| s.3).sum());
                p.add("export", "documents", sizes.len() as u64);
            }
        }
        let run_wall_ns = started.elapsed().as_nanos() as u64;
        let pass_designs = characterize_runs() - runs_before;

        let traced = prof.is_some();
        let p = ProfileRun {
            run,
            snapshot: prof.map(|p| p.snapshot()).unwrap_or_default(),
            run_wall_ns,
        };
        let r = &p.run.report;
        let mut check = check_online(r).and_then(|()| self.scenario.check_properties(r));
        if let (true, Some((label, baseline))) = (traced, self.scenario.profile_baseline()) {
            if self.seed == self.scenario.default_seed() {
                check = check.and_then(|()| diff_clean(label, baseline, &profile_document(&p)));
            }
        }
        let share = |n: u64| n as f64 / r.submitted.max(1) as f64;
        let rung = rungs(r);
        let notes = vec![format!(
            "seed {}: {} arrivals, completed_frac {:.4}, queue_full share {:.4}, rungs [queue_full, overloaded, deadline_infeasible, shed] = {rung:?}",
            self.seed,
            r.submitted,
            share(r.completed),
            share(rung[0])
        )];

        let mut layers = Vec::new();
        if let Some(t) = t {
            let snap = t.snapshot();
            let phase_s =
                |name: &str| p.snapshot.phase(name).map_or(0, |ph| ph.wall_ns) as f64 / 1e9;
            let counter = |phase: &str, name: &str| {
                p.snapshot.phase(phase).map_or(0, |ph| ph.counter(name)) as f64
            };
            let setup_s: Vec<f64> = self.setup_characterize.iter().map(|(s, _)| *s).collect();
            let setup_designs = self.setup_characterize.last().map_or(0, |(_, n)| *n);
            layers = vec![
                ("mac.characterize_s", median(&setup_s).unwrap_or(0.0)),
                (
                    "mac.designs_characterized",
                    (setup_designs + pass_designs) as f64,
                ),
                ("mac.cache_hits", (cache.hits() - hits_before) as f64),
                ("mac.cache_misses", (cache.misses() - misses_before) as f64),
                ("cluster.online_s", total_s(&snap, "cluster.online")),
                ("cluster.arrival_sampling_s", phase_s("arrival-sampling")),
                ("cluster.dispatch_s", phase_s("dispatch")),
                ("cluster.admission_s", phase_s("admission")),
                ("cluster.schedule_eval_s", phase_s("schedule-eval")),
                ("cluster.slo_fold_s", phase_s("slo-fold")),
                ("cluster.export_s", phase_s("export")),
                (
                    "cluster.unattributed_frac",
                    1.0 - p.snapshot.total_wall_ns() as f64 / p.run_wall_ns.max(1) as f64,
                ),
                (
                    "cluster.events_popped",
                    counter("dispatch", "events_popped"),
                ),
                ("cluster.heap_ops", counter("dispatch", "heap_ops")),
                ("cluster.refills", counter("arrival-sampling", "refills")),
                (
                    "cluster.completion_bursts",
                    counter("dispatch", "completion_bursts"),
                ),
                (
                    "cluster.metric_increments",
                    counter("admission", "metric_increments"),
                ),
                (
                    "cluster.slo_observations",
                    counter("slo-fold", "observations"),
                ),
                ("cluster.submitted", r.submitted as f64),
                ("cluster.completed", r.completed as f64),
                ("cluster.queue_full", rung[0] as f64),
                ("cluster.overloaded", rung[1] as f64),
                ("cluster.deadline_infeasible", rung[2] as f64),
                ("cluster.shed", rung[3] as f64),
                ("cluster.completed_frac", share(r.completed)),
                (
                    "export.decision_log_coverage",
                    window_coverage(r.events.iter().map(|e| e.arrival_cycle), r.makespan_cycles),
                ),
            ];
            for (name, secs, len, n) in sizes {
                layers.push((secs, total_s(&snap, name)));
                layers.push((len, n as f64));
            }
        }
        Ok(Pass {
            work: r.submitted as f64,
            work_s: None,
            digest,
            check,
            layers,
            notes,
        })
    }
}

/// The report invariants CI asserts on every online run.
fn check_online(r: &OnlineReport) -> Result<(), String> {
    let (sub, done, rej, shed) = (r.submitted, r.completed, r.rejected, r.shed);
    ensure!(
        sub == done + rej + shed,
        "online: submitted {sub} != {done} + {rej} + {shed}"
    );
    let mut totals = [0u64; 3];
    for f in &r.funnel {
        let stopped = f.queue_full + f.overloaded + f.deadline_infeasible;
        ensure!(
            f.offered == stopped + f.shed_deadline + f.dispatched,
            "online: shard {} funnel does not partition its {} offered jobs",
            f.shard,
            f.offered
        );
        totals = [
            totals[0] + f.offered,
            totals[1] + stopped,
            totals[2] + f.dispatched,
        ];
    }
    ensure!(
        totals == [sub, rej, done] && rungs(r)[3] == shed,
        "online: funnel totals {totals:?} + shed {} do not match the report",
        rungs(r)[3]
    );
    ensure!(
        r.slo.tenants.iter().map(|t| t.submitted).sum::<u64>() == sub,
        "online: tenant submissions do not sum to {sub}"
    );
    ensure!(
        r.slo.total_energy_fj() == r.total_energy_fj(),
        "online: tenant energy {} fJ != shard energy {} fJ",
        r.slo.total_energy_fj(),
        r.total_energy_fj()
    );
    Ok(())
}
