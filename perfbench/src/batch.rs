//! `batch-serve`: a paper-scale batch of VGG-16/ResNet-18/NAS/LeNet-5
//! jobs across the precisions through `serve::serve`.  Most jobs repeat
//! an earlier (network, precision) pair; a fixed tail hits every
//! admission rung.  The seed shuffles the submission order of the
//! repeated body, which keeps the work and every rung count the same.

use std::time::Instant;

use bsc_accel::slo::quantize_energy_fj;
use bsc_accel::{CharacterizationCache, Engine, JobOutcome};
use bsc_bench::serve::{self, ServeRun};
use bsc_mac::ppa::characterize_runs;
use bsc_netlist::Rng64;
use bsc_telemetry::{parse_json, JsonBuilder, JsonValue, SpanCollector};

use crate::stats::{median, percentile, window_coverage, Digest};
use crate::trace::{self_s, span, total_s};
use crate::workload::{ensure, Pass, Workload, Writer};

/// The checked-in manifest.  Its extra `shuffled_jobs` member (ignored
/// by `repro serve`) counts the leading job specs the seed may reorder.
const MANIFEST: &str = include_str!("../inputs/batch_serve.json");

/// The seed whose inputs are the checked-in manifest, byte for byte.
pub const DEFAULT_SEED: u64 = 20_261_017;

/// The least share of jobs that repeat an earlier (network, precision).
const MIN_DUPLICATE_FRAC: f64 = 0.5;

/// The `batch-serve` workload.
pub struct BatchServe {
    seed: u64,
    text: String,
    jobs: usize,
    duplicate_frac: f64,
    /// (seconds, designs) of the characterization in each set-up round.
    setup_characterize: Vec<(f64, u64)>,
}

impl BatchServe {
    /// The workload at `seed`.
    pub fn new(seed: u64) -> Self {
        BatchServe {
            seed,
            text: String::new(),
            jobs: 0,
            duplicate_frac: 0.0,
            setup_characterize: Vec::new(),
        }
    }
}

/// The serve manifest for `seed`: the checked-in text at
/// [`DEFAULT_SEED`]; otherwise the `shuffled_jobs` leading specs are
/// expanded one job each (named `name#i` as `count` would) and shuffled,
/// and the tail specs follow unchanged.
pub fn manifest_for_seed(seed: u64) -> Result<String, String> {
    if seed == DEFAULT_SEED {
        return Ok(MANIFEST.to_string());
    }
    let doc = parse_json(MANIFEST).map_err(|e| format!("batch manifest: {e}"))?;
    let JsonValue::Object(members) = &doc else {
        return Err("batch manifest: expected an object".into());
    };
    let specs = doc
        .get("jobs")
        .and_then(JsonValue::as_array)
        .ok_or("batch manifest: no `jobs`")?;
    let shuffled = doc
        .get("shuffled_jobs")
        .and_then(JsonValue::as_f64)
        .map(|n| n as usize)
        .filter(|n| *n <= specs.len())
        .ok_or("batch manifest: `shuffled_jobs` must count leading `jobs` specs")?;
    let mut body = Vec::new();
    for spec in &specs[..shuffled] {
        let JsonValue::Object(fields) = spec else {
            return Err("batch manifest: job specs must be objects".into());
        };
        let name = spec
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or("job");
        let count = spec.get("count").and_then(JsonValue::as_f64).unwrap_or(1.0) as usize;
        for rep in 0..count {
            let mut job: Vec<(String, JsonValue)> = fields
                .iter()
                .filter(|(k, _)| k != "count" && k != "name")
                .cloned()
                .collect();
            let job_name = if count == 1 {
                name.to_string()
            } else {
                format!("{name}#{rep}")
            };
            job.insert(0, ("name".into(), JsonValue::String(job_name)));
            body.push(JsonValue::Object(job));
        }
    }
    let mut rng = Rng64::seed_from_u64(seed);
    for i in (1..body.len()).rev() {
        body.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    body.extend_from_slice(&specs[shuffled..]);
    let members: Vec<(String, JsonValue)> = members
        .iter()
        .map(|(k, v)| match k.as_str() {
            "jobs" => (k.clone(), JsonValue::Array(body.clone())),
            "shuffled_jobs" => (k.clone(), JsonValue::Number(0.0)),
            _ => (k.clone(), v.clone()),
        })
        .collect();
    let mut j = JsonBuilder::new();
    write_value(&mut j, &JsonValue::Object(members));
    Ok(j.finish())
}

fn write_value(j: &mut JsonBuilder, v: &JsonValue) {
    match v {
        JsonValue::Null => {
            j.null();
        }
        JsonValue::Bool(b) => {
            j.bool(*b);
        }
        JsonValue::Number(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => {
            j.i64(*n as i64);
        }
        JsonValue::Number(n) => {
            j.f64(*n);
        }
        JsonValue::String(s) => {
            j.string(s);
        }
        JsonValue::Array(items) => {
            j.begin_array();
            for item in items {
                write_value(j, item);
            }
            j.end_array();
        }
        JsonValue::Object(members) => {
            j.begin_object();
            for (k, item) in members {
                j.key(k);
                write_value(j, item);
            }
            j.end_object();
        }
    }
}

/// Share of jobs whose (network, precision) pair an earlier job had.
pub fn duplicate_frac<'a>(pairs: impl IntoIterator<Item = (&'a str, String)>) -> f64 {
    let mut seen = std::collections::BTreeSet::new();
    let (mut jobs, mut repeats) = (0usize, 0usize);
    for pair in pairs {
        jobs += 1;
        if !seen.insert(pair) {
            repeats += 1;
        }
    }
    if jobs == 0 {
        0.0
    } else {
        repeats as f64 / jobs as f64
    }
}

impl Workload for BatchServe {
    fn work_per_s_name(&self) -> &'static str {
        "jobs_per_s"
    }

    fn setup(&mut self) -> Result<(), String> {
        let text = manifest_for_seed(self.seed)?;
        let manifest = serve::parse_manifest(&text)?;
        self.jobs = manifest.jobs.len();
        self.duplicate_frac = duplicate_frac(
            manifest
                .jobs
                .iter()
                .map(|j| (j.network.name.as_str(), j.policy.to_string())),
        );
        let runs_before = characterize_runs();
        let started = Instant::now();
        Engine::with_cache(manifest.engine, &CharacterizationCache::new())
            .map_err(|e| format!("characterization: {e}"))?;
        self.setup_characterize.push((
            started.elapsed().as_secs_f64(),
            characterize_runs() - runs_before,
        ));
        self.text = text;
        Ok(())
    }

    fn warm(&mut self) -> Result<(), String> {
        Engine::new(serve::parse_manifest(&self.text)?.engine)
            .map(drop)
            .map_err(|e| format!("characterization: {e}"))
    }

    fn pass(&mut self, t: Option<&SpanCollector>) -> Result<Pass, String> {
        let cache = CharacterizationCache::global();
        let (runs_before, hits_before, misses_before) =
            (characterize_runs(), cache.hits(), cache.misses());
        let run = span(t, "accel.serve", || serve::serve(&self.text))?;
        let pass_designs = characterize_runs() - runs_before;
        let writers: [Writer<ServeRun>; 3] = [
            (
                "export.report",
                "export.report_s",
                "export.report_bytes",
                serve::report_json,
            ),
            (
                "export.slo",
                "export.slo_s",
                "export.slo_bytes",
                serve::slo_json,
            ),
            (
                "export.events",
                "export.events_s",
                "export.events_bytes",
                serve::events_jsonl,
            ),
        ];
        let mut bytes = Vec::new();
        let mut digest = Digest::default();
        for (name, secs, len, write) in writers {
            let doc = span(t, name, || write(&run));
            // The report and event log carry wall-clock fields; the SLO
            // report is deterministic.
            if name == "export.slo" {
                digest.update(doc.as_bytes());
            }
            bytes.push((name, secs, len, doc.len()));
        }
        for o in run.batch.outcomes() {
            let r = o.report();
            digest.update(
                format!(
                    "{}:{}:{}:{}\n",
                    o.name(),
                    o.label(),
                    r.map_or(0, |r| r.completion_cycle),
                    r.map_or(0, |r| r.energy_fj().to_bits())
                )
                .as_bytes(),
            );
        }

        let b = &run.batch;
        let rungs = rung_counts(b.outcomes());
        let check = check_batch(&run, self.jobs).and_then(|()| {
            ensure!(
                rungs.iter().all(|(_, n)| *n > 0),
                "batch: every admission rung must fire, got {rungs:?}"
            );
            ensure!(
                self.duplicate_frac >= MIN_DUPLICATE_FRAC,
                "batch: duplicate_job_frac {:.3} below {MIN_DUPLICATE_FRAC}",
                self.duplicate_frac
            );
            Ok(())
        });
        let completed_frac = b.completed_count() as f64 / b.submitted().max(1) as f64;
        let notes = vec![format!(
            "seed {}: {} jobs, duplicate_job_frac {:.4}, completed_frac {:.4}, rungs {:?}",
            self.seed,
            b.submitted(),
            self.duplicate_frac,
            completed_frac,
            rungs
        )];

        let mut layers = Vec::new();
        if let Some(t) = t {
            let snap = t.snapshot();
            let run_batch_ns = run
                .spans
                .by_name("engine.run_batch")
                .map_or(0, |s| s.duration_ns());
            let job_ms: Vec<f64> = run
                .spans
                .spans
                .iter()
                .filter(|s| s.name.starts_with("engine.job."))
                .map(|s| s.duration_ns() as f64 / 1e6)
                .collect();
            let setup_s: Vec<f64> = self.setup_characterize.iter().map(|(s, _)| *s).collect();
            let setup_designs = self.setup_characterize.last().map_or(0, |(_, n)| *n);
            let decisions = b.outcomes().iter().map(|o| match o {
                JobOutcome::Completed(r) => r.completion_cycle,
                JobOutcome::Shed { reason, .. } => reason.decision_cycle(),
                JobOutcome::Rejected { .. } => 0,
            });
            layers = vec![
                ("mac.characterize_s", median(&setup_s).unwrap_or(0.0)),
                (
                    "mac.designs_characterized",
                    (setup_designs + pass_designs) as f64,
                ),
                ("mac.cache_hits", (cache.hits() - hits_before) as f64),
                ("mac.cache_misses", (cache.misses() - misses_before) as f64),
                ("accel.serve_s", total_s(&snap, "accel.serve")),
                (
                    "accel.serve_self_s",
                    self_s(&snap, "accel.serve", run_batch_ns),
                ),
                ("accel.run_batch_s", run_batch_ns as f64 / 1e9),
                ("accel.job_ms_p50", percentile(&job_ms, 50.0).unwrap_or(0.0)),
                ("accel.job_ms_p90", percentile(&job_ms, 90.0).unwrap_or(0.0)),
                ("accel.jobs_timed", job_ms.len() as f64),
                ("accel.submitted", b.submitted() as f64),
                ("accel.completed", b.completed_count() as f64),
                ("accel.rejected", b.rejected_count() as f64),
                ("accel.shed", b.shed_count() as f64),
                ("accel.completed_frac", completed_frac),
                ("accel.duplicate_job_frac", self.duplicate_frac),
                (
                    "export.decision_log_coverage",
                    window_coverage(decisions, b.makespan_cycles()),
                ),
            ];
            for (name, secs, len, n) in bytes {
                layers.push((secs, total_s(&snap, name)));
                layers.push((len, n as f64));
            }
        }
        Ok(Pass {
            work: b.submitted() as f64,
            work_s: None,
            digest,
            check,
            layers,
            notes,
        })
    }
}

/// Rejections by reason, then sheds, over a batch.
fn rung_counts(outcomes: &[JobOutcome]) -> [(&'static str, usize); 4] {
    let mut rungs = [
        ("queue_full", 0),
        ("overloaded", 0),
        ("deadline_infeasible", 0),
        ("shed", 0),
    ];
    for o in outcomes {
        let slug = match o {
            JobOutcome::Rejected { reason, .. } => reason.slug(),
            JobOutcome::Shed { .. } => "shed",
            JobOutcome::Completed(_) => continue,
        };
        if let Some(r) = rungs.iter_mut().find(|(s, _)| *s == slug) {
            r.1 += 1;
        }
    }
    rungs
}

/// Outcome and energy sums of one batch.
fn check_batch(run: &ServeRun, jobs: usize) -> Result<(), String> {
    let b = &run.batch;
    let (sub, done, rej, shed) = (
        b.submitted(),
        b.completed_count(),
        b.rejected_count(),
        b.shed_count(),
    );
    ensure!(sub == jobs, "batch: {sub} outcomes for {jobs} jobs");
    ensure!(
        sub == done + rej + shed,
        "batch: submitted {sub} != {done} + {rej} + {shed}"
    );
    let slo = &b.slo;
    let tenant_sum = |f: fn(&bsc_accel::TenantSlo) -> u64| slo.tenants.iter().map(f).sum::<u64>();
    ensure!(
        [
            tenant_sum(|t| t.submitted),
            tenant_sum(|t| t.completed),
            tenant_sum(|t| t.rejected),
            tenant_sum(|t| t.shed)
        ] == [sub, done, rej, shed].map(|n| n as u64),
        "batch: tenant outcome counts do not sum to the batch's"
    );
    let layer_fj: u64 = b
        .completed()
        .flat_map(|r| r.report.layers())
        .map(|l| quantize_energy_fj(l.energy_fj))
        .sum();
    ensure!(
        slo.total_energy_fj() == layer_fj,
        "batch: tenant energy {} fJ != layer energy {layer_fj} fJ",
        slo.total_energy_fj()
    );
    for t in &slo.tenants {
        let by_precision: u64 = t.energy_by_precision.iter().map(|(_, fj)| fj).sum();
        ensure!(
            by_precision == t.energy_fj,
            "batch: tenant {} energy by precision {by_precision} != {}",
            t.tenant.as_str(),
            t.energy_fj
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_the_checked_in_manifest_and_others_permute_its_body() {
        assert_eq!(manifest_for_seed(DEFAULT_SEED).unwrap(), MANIFEST);
        let names = |text: &str| {
            let m = serve::parse_manifest(text).unwrap();
            m.jobs.iter().map(|j| j.name.clone()).collect::<Vec<_>>()
        };
        let base = names(MANIFEST);
        let (a, b) = (
            names(&manifest_for_seed(1).unwrap()),
            names(&manifest_for_seed(2).unwrap()),
        );
        assert_ne!(a, base);
        assert_ne!(a, b);
        assert_eq!(
            a,
            names(&manifest_for_seed(1).unwrap()),
            "same seed, same inputs"
        );
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        assert_eq!(
            sorted(a.clone()),
            sorted(base.clone()),
            "a permutation of the same jobs"
        );
        // The rung-hitting tail keeps its place.
        assert_eq!(a[a.len() - 6..], base[base.len() - 6..]);
    }

    #[test]
    fn duplicate_frac_counts_repeats_of_earlier_pairs() {
        assert_eq!(duplicate_frac(Vec::<(&str, String)>::new()), 0.0);
        let pairs = [
            ("vgg", "int8"),
            ("vgg", "int4"),
            ("vgg", "int8"),
            ("lenet", "int8"),
        ];
        assert_eq!(duplicate_frac(pairs.map(|(n, p)| (n, p.to_string()))), 0.25);
    }
}
