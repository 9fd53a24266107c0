//! `perfbench`: the repository's performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-design|batch-serve|online-steady|online-overload|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run sets its workload up several times (`setup_s` is the median
//! round), then measures passes for `--seconds`.  With `--trace 0` it
//! alternates an untraced and a traced pass and reports the end-to-end
//! metrics; with `--trace 1` it runs traced passes only and reports the
//! per-layer metrics.  Every pass is checked; the last stdout line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/README.md` for the workloads and the metric map.

#![deny(unsafe_code)]

mod batch;
mod online;
mod paper;
mod stats;
#[allow(unsafe_code)]
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use bsc_telemetry::{JsonBuilder, SpanCollector};

use crate::online::Scenario;
use crate::stats::{median, percentile, supported_percentile, Digest};
use crate::workload::{Pass, Workload};

const USAGE: &str = "usage: perfbench --workload <paper-design|batch-serve|online-steady|online-overload|all> [--seed N] [--seconds S] [--trace 0|1]";

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "paper-design",
    "batch-serve",
    "online-steady",
    "online-overload",
];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("profiler_overhead_x", "x"),
];

/// Per-layer metrics (`--trace 1`): name and unit.  A layer a workload
/// does not exercise reports 0.
const PER_LAYER: [(&str, &str); 64] = [
    ("bench.pass_s", "s"),
    ("bench.pass_self_s", "s"),
    ("mac.characterize_s", "s"),
    ("mac.designs_characterized", "count"),
    ("mac.cache_hits", "count"),
    ("mac.cache_misses", "count"),
    ("synth.fig7_s", "s"),
    ("synth.fig8a_s", "s"),
    ("synth.fig8b_s", "s"),
    ("synth.ppa_sweep_s", "s"),
    ("synth.ppa_points", "count"),
    ("synth.fig9_s", "s"),
    ("synth.fig9_ratio_error_pct", "pct"),
    ("dse.call_s", "s"),
    ("dse.self_s", "s"),
    ("dse.enumerate_s", "s"),
    ("dse.evaluate_s", "s"),
    ("dse.pareto_s", "s"),
    ("dse.export_s", "s"),
    ("dse.layer_schedules", "count"),
    ("dse.points", "count"),
    ("dse.pareto_points", "count"),
    ("accel.serve_s", "s"),
    ("accel.serve_self_s", "s"),
    ("accel.run_batch_s", "s"),
    ("accel.job_ms_p50", "ms"),
    ("accel.job_ms_p90", "ms"),
    ("accel.jobs_timed", "count"),
    ("accel.submitted", "count"),
    ("accel.completed", "count"),
    ("accel.rejected", "count"),
    ("accel.shed", "count"),
    ("accel.completed_frac", "frac"),
    ("accel.duplicate_job_frac", "frac"),
    ("cluster.online_s", "s"),
    ("cluster.arrival_sampling_s", "s"),
    ("cluster.dispatch_s", "s"),
    ("cluster.admission_s", "s"),
    ("cluster.schedule_eval_s", "s"),
    ("cluster.slo_fold_s", "s"),
    ("cluster.export_s", "s"),
    ("cluster.unattributed_frac", "frac"),
    ("cluster.events_popped", "count"),
    ("cluster.heap_ops", "count"),
    ("cluster.refills", "count"),
    ("cluster.completion_bursts", "count"),
    ("cluster.metric_increments", "count"),
    ("cluster.slo_observations", "count"),
    ("cluster.submitted", "count"),
    ("cluster.completed", "count"),
    ("cluster.queue_full", "count"),
    ("cluster.overloaded", "count"),
    ("cluster.deadline_infeasible", "count"),
    ("cluster.shed", "count"),
    ("cluster.completed_frac", "frac"),
    ("export.report_s", "s"),
    ("export.report_bytes", "bytes"),
    ("export.slo_s", "s"),
    ("export.slo_bytes", "bytes"),
    ("export.events_s", "s"),
    ("export.events_bytes", "bytes"),
    ("export.perfetto_s", "s"),
    ("export.perfetto_bytes", "bytes"),
    ("export.decision_log_coverage", "frac"),
];

/// Set-up rounds per run: at least this many...
const MIN_SETUP_ROUNDS: usize = 5;
/// ...and more, up to [`MAX_SETUP_ROUNDS`], until this much time is spent,
/// so a millisecond set-up still yields a steady median.
const MIN_SETUP_SECONDS: f64 = 1.0;
const MAX_SETUP_ROUNDS: usize = 10_000;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag}: missing value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                parsed.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds: expected a positive number")?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload: unknown workload `{}`",
            parsed.workload
        ));
    }
    Ok(parsed)
}

/// The named workload at `seed` (its checked-in inputs when `None`).
fn build(name: &str, seed: Option<u64>, workers: usize) -> (Box<dyn Workload>, u64) {
    match name {
        "paper-design" => {
            let seed = seed.unwrap_or_else(paper::default_seed);
            (Box::new(paper::PaperDesign::new(seed, workers)), seed)
        }
        "batch-serve" => {
            let seed = seed.unwrap_or(batch::DEFAULT_SEED);
            (Box::new(batch::BatchServe::new(seed)), seed)
        }
        _ => {
            let scenario = if name == "online-steady" {
                Scenario::Steady
            } else {
                Scenario::Overload
            };
            let seed = seed.unwrap_or_else(|| scenario.default_seed());
            (Box::new(online::Online::new(scenario, seed, workers)), seed)
        }
    }
}

/// Everything one run measured.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    untraced_s: Vec<f64>,
    /// Resident-set high-water mark of each untraced pass, in MiB.
    peak_rss_mb: Vec<f64>,
    /// Traced ÷ untraced wall of each alternating pair.
    overhead_x: Vec<f64>,
    work_per_s: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
    reference: Option<Digest>,
    notes: Vec<String>,
}

impl Tally {
    /// Books one pass; returns its wall time when it passed its checks.
    fn record(&mut self, result: Result<Pass, String>, wall_s: f64, traced: bool) -> Option<f64> {
        self.attempted += 1;
        let failure = match &result {
            Err(e) => Some(e.clone()),
            Ok(p) => match (&p.check, self.reference) {
                (Err(e), _) => Some(e.clone()),
                (Ok(()), Some(d)) if d != p.digest => Some(format!(
                    "outputs differ from the first pass of the run ({} pass)",
                    if traced { "traced" } else { "untraced" }
                )),
                _ => None,
            },
        };
        if let Some(e) = failure {
            self.failed += 1;
            eprintln!("perfbench: pass {} failed: {e}", self.attempted);
            return None;
        }
        let pass = result.ok()?;
        self.reference.get_or_insert(pass.digest);
        if self.notes.is_empty() {
            self.notes = pass.notes;
        }
        if traced {
            for (name, value) in pass.layers {
                self.layers.entry(name).or_default().push(value);
            }
        } else {
            self.untraced_s.push(wall_s);
            self.work_per_s
                .push(pass.work / pass.work_s.unwrap_or(wall_s));
        }
        Some(wall_s)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Sets `w` up, then measures passes for `seconds`.
fn measure(w: &mut dyn Workload, seconds: f64, trace: bool) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let setup_started = Instant::now();
    while tally.setup_s.len() < MIN_SETUP_ROUNDS
        || (setup_started.elapsed().as_secs_f64() < MIN_SETUP_SECONDS
            && tally.setup_s.len() < MAX_SETUP_ROUNDS)
    {
        let (result, s) = timed(|| w.setup());
        result?;
        tally.setup_s.push(s);
    }
    w.warm()?;

    let started = Instant::now();
    let mut rounds = 0u32;
    loop {
        let untraced = if trace {
            None
        } else {
            sys::reset_peak_rss()?;
            let (result, s) = timed(|| w.pass(None));
            tally.peak_rss_mb.push(sys::peak_rss_mb()?);
            tally.record(result, s, false)
        };
        let spans = SpanCollector::new();
        let (result, s) =
            timed(|| trace::span(Some(&spans), "bench.pass", || w.pass(Some(&spans))));
        let result = result.map(|mut p| {
            let snap = spans.snapshot();
            p.layers
                .push(("bench.pass_s", trace::total_s(&snap, "bench.pass")));
            p.layers
                .push(("bench.pass_self_s", trace::self_s(&snap, "bench.pass", 0)));
            p
        });
        if let (Some(traced), Some(untraced)) = (tally.record(result, s, true), untraced) {
            tally.overhead_x.push(traced / untraced);
        }
        rounds += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / f64::from(rounds) > seconds {
            return Ok(tally);
        }
    }
}

fn run(name: &str, args: &Args, workers: usize) -> Result<(), String> {
    let (mut w, seed) = build(name, args.seed, workers);
    println!(
        "perfbench: {name}, seed {seed}, {workers} worker threads, {} s, trace {}",
        args.seconds,
        u8::from(args.trace)
    );
    let tally = measure(w.as_mut(), args.seconds, args.trace)?;
    for note in &tally.notes {
        println!("  input: {note}");
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let end_to_end = [
        med(&tally.setup_s),
        med(&tally.untraced_s),
        med(&tally.work_per_s),
        med(&tally.peak_rss_mb),
        med(&tally.overhead_x),
    ];
    let per_layer: Vec<f64> = PER_LAYER
        .iter()
        .map(|(n, _)| tally.layers.get(n).map_or(0.0, |v| med(v)))
        .collect();

    let range = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(0.0, f64::max);
        format!("min {lo} s, max {hi} s")
    };
    println!(
        "  setup_s = {} s (median of {} set-up rounds; {})",
        end_to_end[0],
        tally.setup_s.len(),
        range(&tally.setup_s)
    );
    if !args.trace {
        let n = tally.untraced_s.len();
        let tail = supported_percentile(n).map_or_else(
            || "no percentile keeps >= 10 passes beyond it".to_string(),
            |p| {
                format!(
                    "p{p} = {} s",
                    percentile(&tally.untraced_s, p).unwrap_or(0.0)
                )
            },
        );
        println!(
            "  wall_s = {} s (median of {n} untraced passes; {}; {tail})",
            end_to_end[1],
            range(&tally.untraced_s)
        );
        println!(
            "  {} = {} 1/s (work_per_s)",
            w.work_per_s_name(),
            end_to_end[2]
        );
        println!(
            "  peak_rss_mb = {} MB (median over untraced passes)",
            end_to_end[3]
        );
        println!(
            "  profiler_overhead_x = {} x (traced / untraced wall, median of {} pairs)",
            end_to_end[4],
            tally.overhead_x.len()
        );
    }
    for ((name, unit), value) in PER_LAYER.iter().zip(&per_layer) {
        println!("  {name} = {value} {unit}");
    }
    println!(
        "  checks: {} passes, {} failed",
        tally.attempted, tally.failed
    );

    let (specs, values): (&[(&str, &str)], &[f64]) = if args.trace {
        (&PER_LAYER, &per_layer)
    } else {
        (&END_TO_END, &end_to_end)
    };
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("correct")
        .bool(tally.failed == 0 && tally.attempted > 0);
    j.key("attempted").u64(tally.attempted);
    j.key("failed").u64(tally.failed);
    j.key("metrics").begin_object();
    for ((name, unit), value) in specs.iter().zip(values) {
        j.key(name).begin_object();
        j.key("value").f64(*value);
        j.key("unit").string(unit);
        j.end_object();
    }
    j.end_object();
    j.end_object();
    println!("{}", j.finish());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_each_in_own_process(&args);
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    match run(&args.workload, &args, workers) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// `--workload all`: runs every workload in a child process of its own,
/// one after another, so no workload's heap, high-water mark or warm
/// characterization cache carries into the next one's numbers.
fn run_each_in_own_process(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locating own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    for name in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", name, "--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(seed) = args.seed {
            child.args(["--seed", &seed.to_string()]);
        }
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perfbench: {name} exited with {status}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: starting {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_telemetry::{parse_json, JsonValue};

    /// `BENCHMARK.json` must name exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_lists_the_metrics_printed() {
        let doc = parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |specs: &[(&str, &str)]| -> Vec<(String, String)> {
            specs
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn arguments_parse_strictly() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload online-steady --seed 3 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("online-steady", Some(3), 12.0, true)
        );
        assert!(parse("--workload all").is_ok());
        for bad in [
            "",
            "--workload nope",
            "--workload all --trace 2",
            "--workload all --seed",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }
}
