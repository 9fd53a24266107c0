//! Reproduction harness: regenerates every table and figure of the paper.
//!
//! ```text
//! repro [all] [--quick] [--csv DIR] [--metrics-out FILE] [--trace-out FILE]
//!       [--no-timers]
//! repro fig7a|fig7b|fig8a|fig8b|fig8b-gate|fig9 [--quick] [--csv DIR]
//! repro table1 [--csv DIR]
//! repro extensions
//! repro telemetry [--metrics-out FILE] [--trace-out FILE] [--no-timers]
//! repro simbench [--quick] [--bench-out FILE]
//! repro mem [--quick] [--csv DIR] [--bench-out FILE]
//! repro trace [--perfetto-out FILE] [--svg-out FILE] [--trace-cap N]
//! repro serve <manifest.json> [--report-out FILE] [--slo-out FILE]
//!             [--dash-out FILE] [--events-out FILE]
//! repro online <manifest.json> [--workers N] [--report-out FILE]
//!              [--slo-out FILE] [--dash-out FILE] [--events-out FILE]
//!              [--perfetto-out FILE] [--profile-out FILE] [--folded-out FILE]
//! repro profile <manifest.json> [--workers N] [--profile-out FILE]
//!               [--folded-out FILE]
//! repro dse <manifest.json> [--workers N] [--bench-out FILE] [--csv DIR]
//!           [--svg-out FILE]
//! repro diff <baseline.json> <current.json> [--tol PCT] [--ignore PAT]...
//!            [--verbose]
//! ```
//!
//! * `--quick` uses a reduced vector length (8) and short activity runs —
//!   orderings hold but absolute numbers are noisier than the default
//!   paper-faithful configuration (vector length 32).
//! * `--csv DIR` additionally writes each experiment's raw data as CSV
//!   files into `DIR` (created if missing), ready for plotting.
//! * `--metrics-out FILE` writes the telemetry experiment's full JSON
//!   report (per-layer per-PE utilization, stall cycles, netlist toggle
//!   counts, metrics snapshot) to `FILE`.
//! * `--trace-out FILE` writes the telemetry experiment's captured
//!   cycle-event trace as JSON to `FILE`.
//! * `--no-timers` excludes wall-clock histograms from `--metrics-out`,
//!   making the document byte-identical across repeat runs.
//!
//! Passing `--metrics-out` / `--trace-out` / `--no-timers` without naming
//! an experiment runs just `telemetry` (which needs no characterization
//! pass); `--bench-out` alone runs `simbench`, `--perfetto-out` /
//! `--svg-out` alone run `trace`.
//!
//! * `simbench` benchmarks the netlist evaluator itself (full-sweep vs
//!   event-driven incremental) and reports the characterization
//!   wall-clock of a quick workbench; `--bench-out FILE` writes the
//!   machine-readable `BENCH_sim.json` baseline.
//! * `mem` sweeps the memory hierarchy (buffer size x DRAM bandwidth x
//!   precision x MAC kind) through the tiled double-buffered DMA
//!   schedule and reports stall cycles, DMA traffic and the roofline
//!   side of every point; `--bench-out FILE` writes the deterministic
//!   `BENCH_mem_baseline.json` the CI gate diffs at zero tolerance.  The
//!   sweep is analytic (no characterization), so `--quick` is accepted
//!   but changes nothing.
//! * `trace` runs the instrumented three-layer probe network on one
//!   shared trace ring and reconstructs a per-PE timeline;
//!   `--perfetto-out` writes Chrome trace-event JSON (open at
//!   <https://ui.perfetto.dev>), `--svg-out` a self-contained
//!   utilization heatmap, `--trace-cap` overrides the ring capacity.
//! * `serve` feeds a JSON job manifest to the multi-tenant batch
//!   inference engine (bounded queue, deadline-aware admission, shared
//!   characterization cache — see `docs/serving.md`) and prints per-job
//!   and aggregate reports; `--report-out` writes the deterministic JSON
//!   report the CI baseline gate diffs, `--slo-out` the per-tenant SLO
//!   report (latency quantiles, goodput, attainment, fJ-exact energy
//!   attribution) gated at `--tol 0`, `--dash-out` a self-contained
//!   HTML/SVG dashboard, and `--events-out` a JSONL structured event
//!   log stamped with span correlation IDs.
//! * `online` drives the deterministic discrete-event online serving
//!   simulator: open-loop arrival processes (Poisson / bursty / diurnal)
//!   over a multi-shard cluster of heterogeneous accelerators (see
//!   `docs/serving.md`).  `--workers N` overrides the manifest's worker
//!   count — reports are byte-identical at any worker count;
//!   `--report-out` writes the `BENCH_online_baseline.json` document the
//!   CI gate diffs at `--tol 0`, `--slo-out` the per-tenant SLO report,
//!   `--dash-out` the HTML dashboard, `--events-out` the JSONL decision
//!   log, and `--perfetto-out` a Chrome trace timeline with one track
//!   group per shard.
//!   Adding `--profile-out` (JSON) or `--folded-out` (folded stacks for
//!   flamegraph tools) runs the same simulation under the self-profiler
//!   and additionally writes the phase-attributed profile — the online
//!   report is unchanged by profiling.
//! * `profile` runs an online manifest under the simulator
//!   self-profiler and prints the phase table (calls, deterministic
//!   work units, wall clock) plus arrivals/sec.  The profile document's
//!   `counters` section is a pure function of the manifest
//!   (byte-identical at any worker count, gated by CI at `--tol 0`
//!   against `BENCH_profile_baseline.json`); its `wall` / `throughput`
//!   sections carry `*_ns` / `*_per_sec` names the differ never gates.
//!   See `docs/profiling.md`.
//! * `dse` sweeps dataflow × array geometry × memory config × precision
//!   × MAC kind from a JSON manifest (see `docs/dse.md`), evaluating
//!   every point's energy/latency/area through the calibrated PPA,
//!   schedule and roofline models over the work-stealing pool (reports
//!   byte-identical at any worker count), and extracts the 3-D Pareto
//!   front; `--bench-out` writes the `BENCH_dse_baseline.json` document
//!   the CI gate diffs at `--tol 0`, `--csv DIR` the per-point CSV, and
//!   `--svg-out` a self-contained Pareto scatter SVG.
//! * Every subcommand validates its flags strictly, before any work: an
//!   unknown or out-of-place flag, or a flag missing its value, exits
//!   with status 2 and the usage text.
//! * `diff` compares two benchmark/metrics JSON files field-by-field and
//!   exits nonzero when a deterministic field drifted beyond the
//!   tolerance (`--tol 5` = ±5 %, the default).  Wall-clock fields
//!   (`*_ns`, `*_per_sec`, speedups) are reported but never gated;
//!   `--ignore PAT` adds more exempt patterns; `--verbose` also prints
//!   bit-identical fields.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bsc_bench::diff::{diff_documents, render_diff, DiffOptions};
use bsc_bench::{
    dse, experiments, memexp, observatory, online, profile, serve, simbench, telemetry_probe,
    Workbench,
};
use bsc_mac::MacKind;

/// The flags that take a file (or, for `--csv`, directory) argument.
const PATH_FLAGS: &[&str] = &[
    "--csv",
    "--metrics-out",
    "--trace-out",
    "--bench-out",
    "--report-out",
    "--profile-out",
    "--folded-out",
    "--slo-out",
    "--dash-out",
    "--events-out",
    "--perfetto-out",
    "--svg-out",
];

struct Options {
    /// The subcommand needs the characterized workbench.
    characterize: bool,
    quick: bool,
    /// The given [`PATH_FLAGS`] and their paths.
    paths: BTreeMap<String, PathBuf>,
    trace_cap: usize,
    no_timers: bool,
    workers: Option<usize>,
    tol: f64,
    ignore: Vec<String>,
    verbose: bool,
    which: String,
    /// Positional arguments after the experiment name (diff's two files).
    files: Vec<PathBuf>,
}

impl Options {
    /// The path given to `flag`, if any.
    fn path(&self, flag: &str) -> Option<&Path> {
        self.paths.get(flag).map(PathBuf::as_path)
    }
}

fn parse_args() -> Options {
    let mut quick = false;
    let mut paths = BTreeMap::new();
    let mut trace_cap = observatory::DEFAULT_TRACE_CAPACITY;
    let mut no_timers = false;
    let mut workers = None;
    let mut seen_flags: Vec<String> = Vec::new();
    let mut tol = 5.0;
    let mut ignore = Vec::new();
    let mut verbose = false;
    let mut which = None;
    let mut files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg.starts_with("--") {
            seen_flags.push(arg.clone());
        }
        match arg.as_str() {
            "--quick" => quick = true,
            "--no-timers" => no_timers = true,
            "--verbose" => verbose = true,
            flag if PATH_FLAGS.contains(&flag) => {
                let path = args
                    .next()
                    .unwrap_or_else(|| die_usage(&format!("{flag} requires a file argument")));
                paths.insert(arg, PathBuf::from(path));
            }
            "--trace-cap" => trace_cap = number_arg("--trace-cap", &mut args),
            "--workers" => {
                let n = number_arg("--workers", &mut args);
                if n == 0 {
                    die("--workers: must be positive");
                }
                workers = Some(n);
            }
            "--tol" => tol = number_arg("--tol", &mut args),
            "--ignore" => {
                ignore.push(
                    args.next()
                        .unwrap_or_else(|| die_usage("--ignore requires a pattern argument")),
                );
            }
            other if !other.starts_with("--") => {
                if which.is_none() {
                    which = Some(other.to_owned());
                } else {
                    files.push(PathBuf::from(other));
                }
            }
            other => die_usage(&format!("unknown flag `{other}`")),
        }
    }
    // Telemetry flags without an explicit experiment mean "run the
    // telemetry probe"; a bench output alone means "run simbench"; trace
    // outputs alone mean "run the observatory" — all are self-contained
    // and skip characterization.
    let given = |flags: &[&str]| flags.iter().any(|f| seen_flags.iter().any(|s| s == f));
    let default = if given(&["--metrics-out", "--trace-out", "--no-timers"]) {
        "telemetry"
    } else if given(&["--bench-out"]) {
        "simbench"
    } else if given(&["--perfetto-out", "--svg-out"]) {
        "trace"
    } else {
        "all"
    };
    let which = which.unwrap_or_else(|| default.to_owned());
    let Some(&(_, characterize, flags)) = SUBCOMMANDS.iter().find(|s| s.0 == which) else {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|s| s.0).collect();
        let names = names.join("|");
        die(&format!("unknown experiment `{which}` (expected {names})"))
    };
    // Every subcommand accepts only its own flags — a stray flag
    // silently changing nothing is how baseline-generation runs go
    // wrong, so it is a usage error instead, raised before any work.
    for flag in &seen_flags {
        if !flags.contains(&flag.as_str()) {
            die_usage(&format!("`repro {which}` does not accept `{flag}`"));
        }
    }
    Options {
        characterize,
        quick,
        paths,
        trace_cap,
        no_timers,
        workers,
        tol,
        ignore,
        verbose,
        which,
        files,
    }
}

/// The numeric value of `flag`: missing is a usage error, malformed a
/// failure.
fn number_arg<T: std::str::FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> T {
    let n = args.next().unwrap_or_else(|| die_usage(&format!("{flag} requires a number argument")));
    n.parse().unwrap_or_else(|_| die(&format!("{flag}: `{n}` is not a number")))
}

/// The flags of the figure subcommands.
const FIGURE_FLAGS: &[&str] = &["--quick", "--csv"];

/// Every subcommand in usage order, as (name, whether it needs the
/// characterized workbench, the exact flags it accepts): the one table
/// the flag check, the characterization decision and the
/// unknown-experiment message read.
const SUBCOMMANDS: &[(&str, bool, &[&str])] = &[
    ("table1", false, &["--csv"]),
    ("fig7a", true, FIGURE_FLAGS),
    ("fig7b", true, FIGURE_FLAGS),
    ("fig8a", true, FIGURE_FLAGS),
    ("fig8b", true, FIGURE_FLAGS),
    ("fig8b-gate", false, FIGURE_FLAGS),
    ("fig9", true, FIGURE_FLAGS),
    ("telemetry", false, &["--metrics-out", "--trace-out", "--no-timers"]),
    ("simbench", false, &["--quick", "--bench-out"]),
    ("mem", false, &["--quick", "--csv", "--bench-out"]),
    ("dse", false, &["--workers", "--bench-out", "--csv", "--svg-out"]),
    ("trace", false, &["--perfetto-out", "--svg-out", "--trace-cap"]),
    ("serve", false, &["--report-out", "--slo-out", "--dash-out", "--events-out"]),
    (
        "online",
        false,
        &[
            "--workers",
            "--report-out",
            "--slo-out",
            "--dash-out",
            "--events-out",
            "--perfetto-out",
            "--profile-out",
            "--folded-out",
        ],
    ),
    ("profile", false, &["--workers", "--profile-out", "--folded-out"]),
    ("diff", false, &["--tol", "--ignore", "--verbose"]),
    ("extensions", false, &[]),
    ("all", true, &["--quick", "--csv", "--metrics-out", "--trace-out", "--no-timers"]),
];

fn main() {
    let opts = parse_args();
    if let Some(dir) = opts.path("--csv") {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("cannot create {}: {e}", dir.display()));
        }
    }

    let wb = if opts.characterize {
        eprintln!(
            "characterizing BSC/LPC/HPS netlists ({} mode)...",
            if opts.quick { "quick" } else { "paper" }
        );
        let wb = if opts.quick { Workbench::quick() } else { Workbench::paper() }
            .unwrap_or_else(|e| die(&format!("characterization failed: {e}")));
        // The workbench times itself through its bsc-telemetry registry.
        eprintln!(
            "characterized in {:.4}s (compiled-tape incremental evaluator, batch-sharded)\n",
            wb.characterize_wall_ns() as f64 / 1e9
        );
        Some(wb)
    } else {
        None
    };
    let wb = wb.as_ref();

    let write_csv = |name: &str, data: String| {
        write_out(opts.path("--csv").map(|d| d.join(name)).as_deref(), || data);
    };

    let run_table1 = || {
        print!("{}", experiments::render_table1());
        write_csv("table1.csv", experiments::table1_csv());
    };
    let run_fig7 = |wb: &Workbench, which: &str| {
        let pts = experiments::fig7_sweep(wb);
        if which != "fig7b" {
            print!("{}", experiments::render_fig7a(&pts));
        }
        if which != "fig7a" {
            print!("{}", experiments::render_fig7b(&pts));
        }
        write_csv("fig7_sweep.csv", experiments::fig7_csv(&pts));
    };
    let run_fig8a = |wb: &Workbench| match experiments::fig8a(wb) {
        Ok(rows) => {
            print!("{}", experiments::render_fig8a(&rows));
            write_csv("fig8a.csv", experiments::fig8a_csv(&rows));
        }
        Err(e) => die(&format!("fig8a failed: {e}")),
    };
    let run_fig8b = |wb: &Workbench| match experiments::fig8b(wb) {
        Ok(rows) => {
            print!("{}", experiments::render_fig8b(&rows));
            write_csv("fig8b.csv", experiments::fig8b_csv(&rows));
        }
        Err(e) => die(&format!("fig8b failed: {e}")),
    };
    let run_fig9 = |wb: &Workbench| match experiments::fig9(wb) {
        Ok(rows) => {
            print!("{}", experiments::render_fig9(&rows));
            write_csv("fig9.csv", experiments::fig9_csv(&rows));
        }
        Err(e) => die(&format!("fig9 failed: {e}")),
    };
    let run_telemetry = || {
        let report = telemetry_probe::telemetry_report(MacKind::Bsc)
            .unwrap_or_else(|e| die(&format!("telemetry probe failed: {e}")));
        print!("{}", telemetry_probe::render_telemetry(&report));
        write_out(opts.path("--metrics-out"), || {
            telemetry_probe::telemetry_json(&report, opts.no_timers)
        });
        write_out(opts.path("--trace-out"), || telemetry_probe::telemetry_trace_json(&report));
    };

    let run_simbench = || {
        eprintln!("benchmarking the netlist evaluator (full sweep vs incremental)...");
        let (cycles, length) = if opts.quick { (64, 4) } else { (256, 8) };
        let reports: Vec<_> = MacKind::ALL
            .into_iter()
            .map(|kind| simbench::run(kind, length, cycles))
            .collect();
        print!("{}", simbench::render(&reports));
        eprintln!("\ntiming a quick workbench characterization...");
        let wb_ns = match Workbench::quick() {
            Ok(wb) => {
                let ns = wb.characterize_wall_ns();
                println!(
                    "Workbench::quick() characterization wall-clock: {}",
                    bsc_bench::timing::fmt_ns(ns as f64)
                );
                Some(ns)
            }
            Err(e) => {
                eprintln!("workbench timing skipped: {e}");
                None
            }
        };
        write_out(opts.path("--bench-out"), || simbench::to_json(&reports, wb_ns));
    };

    let run_mem = || {
        eprintln!("sweeping the memory hierarchy (buffers x bandwidth x precision x kind)...");
        let points = memexp::sweep().unwrap_or_else(|e| die(&format!("mem sweep failed: {e}")));
        print!("{}", memexp::render(&points));
        write_csv("mem_sweep.csv", memexp::to_csv(&points));
        write_out(opts.path("--bench-out"), || memexp::to_json(&points));
    };

    let run_trace = || {
        eprintln!("running the instrumented probe network (trace observatory)...");
        let run = observatory::observe(MacKind::Bsc, opts.trace_cap)
            .unwrap_or_else(|e| die(&format!("trace observatory failed: {e}")));
        print!("{}", observatory::render_observatory(&run));
        write_out(opts.path("--perfetto-out"), || observatory::run_perfetto_json(&run));
        write_out(opts.path("--svg-out"), || observatory::run_svg(&run));
    };

    let run_serve = || {
        let text = read_manifest("serve", &opts.files);
        let run = serve::serve(&text).unwrap_or_else(|e| die(&e));
        print!("{}", serve::render(&run));
        write_out(opts.path("--report-out"), || serve::report_json(&run));
        write_out(opts.path("--slo-out"), || serve::slo_json(&run));
        write_out(opts.path("--dash-out"), || bsc_bench::dashboard::dashboard_html(&run));
        write_out(opts.path("--events-out"), || serve::events_jsonl(&run));
    };

    let run_online = || {
        let text = read_manifest("online", &opts.files);
        // A profile output upgrades the run to the self-profiled path;
        // the online report itself is identical either way.
        let profiling =
            opts.path("--profile-out").is_some() || opts.path("--folded-out").is_some();
        let run = if profiling {
            let p = profile::profile(&text, opts.workers).unwrap_or_else(|e| die(&e));
            print!("{}", online::render(&p.run));
            print!("{}", profile::render(&p));
            write_out(opts.path("--profile-out"), || profile::profile_document(&p));
            write_out(opts.path("--folded-out"), || profile::folded(&p));
            p.run
        } else {
            let run = online::online(&text, opts.workers).unwrap_or_else(|e| die(&e));
            print!("{}", online::render(&run));
            run
        };
        write_out(opts.path("--report-out"), || online::report_json(&run));
        write_out(opts.path("--slo-out"), || online::slo_json(&run));
        write_out(opts.path("--dash-out"), || bsc_bench::dashboard::online_dashboard_html(&run));
        write_out(opts.path("--events-out"), || online::events_jsonl(&run));
        write_out(opts.path("--perfetto-out"), || online::perfetto_json(&run));
    };

    let run_dse = || {
        let text = read_manifest("dse", &opts.files);
        eprintln!("sweeping dataflow x geometry x memory x precision x kind...");
        let run = dse::dse(&text, opts.workers).unwrap_or_else(|e| die(&e));
        print!("{}", dse::render(&run));
        write_csv("dse_sweep.csv", dse::to_csv(&run));
        write_out(opts.path("--bench-out"), || dse::to_json(&run));
        write_out(opts.path("--svg-out"), || bsc_bench::dashboard::dse_pareto_svg(&run));
    };

    let run_profile = || {
        let text = read_manifest("profile", &opts.files);
        eprintln!("profiling the online simulator (deterministic counters + wall clock)...");
        let p = profile::profile(&text, opts.workers).unwrap_or_else(|e| die(&e));
        print!("{}", profile::render(&p));
        write_out(opts.path("--profile-out"), || profile::profile_document(&p));
        write_out(opts.path("--folded-out"), || profile::folded(&p));
    };

    let run_diff = || {
        let [baseline, current] = opts.files.as_slice() else {
            die("diff requires exactly two file arguments: <baseline.json> <current.json>");
        };
        let read = |p: &std::path::Path| {
            std::fs::read_to_string(p)
                .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", p.display())))
        };
        let mut diff_opts = DiffOptions { tolerance: opts.tol / 100.0, ..DiffOptions::default() };
        diff_opts.ignore.extend(opts.ignore.iter().cloned());
        let report = diff_documents(&read(baseline), &read(current), &diff_opts)
            .unwrap_or_else(|e| die(&format!("malformed JSON: {e}")));
        print!("{}", render_diff(&report, opts.verbose));
        for row in report.missing() {
            eprintln!("warning: field `{}` present on only one side", row.path);
        }
        if report.regressed() {
            std::process::exit(2);
        }
    };

    match opts.which.as_str() {
        "table1" => run_table1(),
        "simbench" => run_simbench(),
        "mem" => run_mem(),
        "dse" => run_dse(),
        "trace" => run_trace(),
        "serve" => run_serve(),
        "online" => run_online(),
        "profile" => run_profile(),
        "diff" => run_diff(),
        "extensions" => match experiments::render_extensions() {
            Ok(text) => print!("{text}"),
            Err(e) => die(&format!("extensions report failed: {e}")),
        },
        "fig8b-gate" => {
            let (pes, length, steps) = if opts.quick { (2, 4, 24) } else { (4, 16, 48) };
            eprintln!("building and characterizing gate-level arrays ({pes} PEs x L={length})...");
            match experiments::fig8b_gate_level(pes, length, steps) {
                Ok(rows) => {
                    print!("{}", experiments::render_fig8b_gate_level(&rows, pes));
                    write_csv("fig8b_gate.csv", experiments::fig8b_csv(&rows));
                }
                Err(e) => die(&format!("fig8b-gate failed: {e}")),
            }
        }
        "fig7a" | "fig7b" => run_fig7(wb.expect("workbench"), &opts.which),
        "fig8a" => run_fig8a(wb.expect("workbench")),
        "fig8b" => run_fig8b(wb.expect("workbench")),
        "fig9" => run_fig9(wb.expect("workbench")),
        "telemetry" => run_telemetry(),
        "all" => {
            let wb = wb.expect("workbench");
            run_table1();
            println!();
            run_fig7(wb, "all");
            println!();
            run_fig8a(wb);
            println!();
            run_fig8b(wb);
            println!();
            run_fig9(wb);
            println!();
            run_telemetry();
        }
        other => unreachable!("`{other}` passed the subcommand table"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Writes one requested output file (or dies), saying so on stderr;
/// renders nothing when the output was not requested.
fn write_out(path: Option<&Path>, data: impl FnOnce() -> String) {
    if let Some(path) = path {
        if let Err(e) = std::fs::write(path, data()) {
            die(&format!("cannot write {}: {e}", path.display()));
        }
        eprintln!("wrote {}", path.display());
    }
}

/// Reads the single `<manifest.json>` argument of `which`; any other
/// number of file arguments is a usage error.
fn read_manifest(which: &str, files: &[PathBuf]) -> String {
    let [manifest] = files else {
        die_usage(&format!("{which} requires exactly one file argument: <manifest.json>"));
    };
    std::fs::read_to_string(manifest)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", manifest.display())))
}

const USAGE: &str = "\
usage:
  repro [all] [--quick] [--csv DIR] [--metrics-out FILE] [--trace-out FILE]
        [--no-timers]
  repro fig7a|fig7b|fig8a|fig8b|fig8b-gate|fig9 [--quick] [--csv DIR]
  repro table1 [--csv DIR]
  repro extensions
  repro telemetry [--metrics-out FILE] [--trace-out FILE] [--no-timers]
  repro simbench [--quick] [--bench-out FILE]
  repro mem [--quick] [--csv DIR] [--bench-out FILE]
  repro trace [--perfetto-out FILE] [--svg-out FILE] [--trace-cap N]
  repro serve <manifest.json> [--report-out FILE] [--slo-out FILE]
              [--dash-out FILE] [--events-out FILE]
  repro online <manifest.json> [--workers N] [--report-out FILE] [--slo-out FILE]
               [--dash-out FILE] [--events-out FILE] [--perfetto-out FILE]
               [--profile-out FILE] [--folded-out FILE]
  repro profile <manifest.json> [--workers N] [--profile-out FILE]
                [--folded-out FILE]
  repro dse <manifest.json> [--workers N] [--bench-out FILE] [--csv DIR]
            [--svg-out FILE]
  repro diff <baseline.json> <current.json> [--tol PCT] [--ignore PAT]... [--verbose]";

/// A malformed command line: the message, the usage block, exit 2 (so
/// CI distinguishes \"you called it wrong\" from a failing run).
fn die_usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}
