//! Golden-file and structural checks for the online run's metrics.
//!
//! The online loop counts each outcome once, in its shard's admission
//! funnel and the SLO fold's per-source counts, and writes the metrics
//! registry once after the loop from those tallies.  Two checks pin
//! that write:
//!
//! * **Golden files.**  `tests/golden/metrics_equivalence/` holds, per
//!   dispatch policy, the three exports that can observe a metric,
//!   frozen from the earlier per-event metrics path (one registry
//!   operation per counter update) on [`MANIFEST`].  Every policy ×
//!   worker-count cell must reproduce them byte for byte:
//!   * the full metrics snapshot JSON (flat counters, gauges, histogram
//!     buckets/sums/min/max, labeled counter families) via
//!     [`bsc_telemetry::sink::metrics_to_json`], timers stripped — wall
//!     clock is the one legitimately nondeterministic quantity;
//!   * the online report JSON (funnel, per-shard tallies, depth
//!     timeline);
//!   * the SLO JSON (windowed goodput/latency series, per-tenant
//!     rejection reasons, quantile sketches).
//! * **Structure.**  On any manifest, the registry restates the report:
//!   each `engine.jobs{outcome,reason,shard}` point equals its funnel
//!   count and exists exactly when that count is non-zero, the flat
//!   `engine.jobs.*` counters equal the report's aggregate, and the
//!   queue-wait histogram holds one sample per completion.
//!
//! A drift in any count, histogram bucket boundary, label
//! canonicalization or skipped zero shows up as a diff, with the
//! policy/worker cell named in the panic.

use bsc_accel::cluster::ShardFunnel;
use bsc_bench::online::{online, report_json, slo_json, OnlineRun};
use bsc_telemetry::sink::metrics_to_json;
use bsc_telemetry::LabelSet;

/// Seeded manifest exercising all three arrival processes (Poisson,
/// bursty, diurnal), heterogeneous shards, every admission-ladder rung
/// under every dispatch policy (queue_full via `max_outstanding`,
/// overloaded via `max_backlog_cycles`, deadline_infeasible via the
/// `squall` deadline — the one below the backlog limit, since
/// `overloaded` is tested first on the same projected backlog — and
/// shed via the tight `steady` and `squall` deadlines) and both
/// SLO-tracked and untracked tenants.  The dispatch policy is
/// substituted per test cell.
const MANIFEST: &str = r#"{
  "cluster": {
    "policy": "least-outstanding",
    "seed": 20260808,
    "horizon_cycles": 400000,
    "max_jobs": 6000,
    "max_outstanding": 3,
    "max_backlog_cycles": 1200,
    "workers": 2,
    "shards": [
      {"name": "bsc0", "kind": "bsc", "quick": true},
      {"name": "lpc0", "kind": "lpc", "quick": true, "mem": "edge"},
      {"name": "hps0", "kind": "hps", "quick": true, "mem": "edge",
       "bandwidth_bytes_per_cycle": 64}
    ]
  },
  "tenants": {
    "gold": {"latency_p99_cycles": 120000, "min_goodput": 0.5},
    "strict": {"latency_p99_cycles": 40000, "min_goodput": 0.9}
  },
  "sources": [
    {"name": "steady", "network": "micro", "tenant": "gold",
     "deadline_cycles": 4000,
     "arrivals": {"process": "poisson", "mean_interarrival_cycles": 350}},
    {"name": "squall", "network": "micro", "tenant": "strict", "precision": "int8",
     "deadline_cycles": 900,
     "arrivals": {"process": "bursty", "on_cycles": 5000, "off_cycles": 15000,
                  "mean_interarrival_cycles": 120}},
    {"name": "tide", "network": "micro",
     "arrivals": {"process": "diurnal", "segments": [
        {"duration_cycles": 60000, "mean_interarrival_cycles": 250},
        {"duration_cycles": 60000, "mean_interarrival_cycles": 2500}]}}
  ]
}"#;

const POLICIES: [&str; 3] = ["least-outstanding", "round-robin", "tenant-fair"];
const WORKERS: [usize; 3] = [1, 2, 8];

/// Every metric-observable export of one run.  Timers are stripped
/// (wall clock), as are the `engine.cache.*` / `telemetry.characterize.*`
/// counters: those publish the *process-global* characterization cache,
/// which warms monotonically across the runs of this test binary and is
/// orthogonal to the per-run metrics under test.
fn exports(run: &OnlineRun) -> [String; 3] {
    let mut snap = run.metrics.without_timers();
    snap.counters.retain(|(name, _)| {
        !name.starts_with("engine.cache.") && !name.starts_with("telemetry.characterize.")
    });
    [metrics_to_json(&snap), report_json(run), slo_json(run)]
}

/// The export kinds, in [`exports`] order.
const KINDS: [&str; 3] = ["metrics", "report", "slo"];

/// The golden exports of `policy`, in [`exports`] order.
fn golden(policy: &str) -> [String; 3] {
    KINDS.map(|kind| {
        let path = format!(
            "{}/tests/golden/metrics_equivalence/{policy}.{kind}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    })
}

/// The headline check: every export matches the golden files across
/// all three dispatch policies, all three arrival processes (the
/// manifest runs them concurrently) and 1/2/8 workers.
#[test]
fn online_exports_match_the_golden_files() {
    for policy in POLICIES {
        let manifest = MANIFEST.replace("least-outstanding", policy);
        let want = golden(policy);
        for workers in WORKERS {
            let cell = format!("policy={policy} workers={workers}");
            let run = online(&manifest, Some(workers)).unwrap();
            // The run must be non-trivial or the comparison is vacuous.
            assert!(run.report.submitted > 1000, "{cell}: too few arrivals");
            assert!(run.report.completed > 0, "{cell}: nothing completed");
            let got = exports(&run);
            for (i, kind) in KINDS.iter().enumerate() {
                assert_eq!(got[i], want[i], "{cell}: {kind} export diverged from its golden file");
            }
        }
    }
}

/// Checks that hold on any manifest: the registry's outcome metrics
/// restate the report's funnel and aggregate.
fn assert_metrics_restate_the_report(run: &OnlineRun, cell: &str) {
    let (r, m) = (&run.report, &run.metrics);
    let mut expected: Vec<(LabelSet, u64)> = Vec::new();
    for f in &r.funnel {
        for (outcome, reason, n) in [
            ("completed", None, f.dispatched),
            ("rejected", Some("queue_full"), f.queue_full),
            ("rejected", Some("overloaded"), f.overloaded),
            ("rejected", Some("deadline_infeasible"), f.deadline_infeasible),
            ("shed", Some("deadline_missed"), f.shed_deadline),
        ] {
            let mut labels = vec![("outcome", outcome), ("shard", f.shard.as_str())];
            labels.extend(reason.map(|reason| ("reason", reason)));
            if n > 0 {
                expected.push((LabelSet::new(&labels), n));
            }
        }
    }
    expected.sort();
    assert_eq!(
        m.labeled_counter("engine.jobs"),
        expected.as_slice(),
        "{cell}: engine.jobs points must equal the non-zero funnel counts"
    );
    for (name, n) in [
        ("engine.jobs.submitted", r.submitted),
        ("engine.jobs.rejected", r.rejected),
        ("engine.jobs.shed", r.shed),
        ("engine.jobs.completed", r.completed),
    ] {
        assert_eq!(m.counter(name), n, "{cell}: `{name}` must equal the report aggregate");
        let present = m.counters.iter().any(|(k, _)| k == name);
        assert_eq!(present, n > 0, "{cell}: `{name}` must be present exactly when non-zero");
    }
    let waits = m.histogram("engine.queue.wait_cycles").map_or(0, |h| h.count);
    assert_eq!(waits, r.completed, "{cell}: one queue-wait sample per completion");
}

/// The structural check in every policy × worker cell, on the golden
/// manifest (every rung fires) and on a loose variant where no job is
/// overloaded, deadline-infeasible or shed, so those points must stay
/// absent.
#[test]
fn registry_metrics_restate_the_report_in_every_cell() {
    // Each substitution must match, or the variant silently keeps the
    // golden manifest's pressure.
    let loose = [
        (r#""max_outstanding": 3"#, r#""max_outstanding": 6"#),
        (r#""max_backlog_cycles": 1200"#, r#""max_backlog_cycles": 150000"#),
        (r#""deadline_cycles": 4000"#, r#""deadline_cycles": 120000"#),
        (r#""deadline_cycles": 900"#, r#""deadline_cycles": 40000"#),
    ]
    .into_iter()
    .fold(MANIFEST.to_string(), |m, (from, to)| {
        assert!(m.contains(from), "loose variant: `{from}` not in the manifest");
        m.replace(from, to)
    });
    for (name, manifest) in [("golden", MANIFEST), ("loose", loose.as_str())] {
        for policy in POLICIES {
            let manifest = manifest.replace("least-outstanding", policy);
            for workers in WORKERS {
                let cell = format!("manifest={name} policy={policy} workers={workers}");
                let run = online(&manifest, Some(workers)).unwrap();
                assert_metrics_restate_the_report(&run, &cell);
            }
        }
    }
}

/// The golden files are not vacuous: under every policy the manifest
/// fires every admission-ladder rung, so (by the structural check) every
/// `engine.jobs` point family and the wait histogram are populated.
#[test]
fn harness_covers_every_outcome_family() {
    for policy in POLICIES {
        let run = online(&MANIFEST.replace("least-outstanding", policy), Some(2)).unwrap();
        let f = &run.report.funnel;
        let rung = |count: fn(&ShardFunnel) -> u64| f.iter().map(count).sum::<u64>();
        for (name, n) in [
            ("queue_full", rung(|s| s.queue_full)),
            ("overloaded", rung(|s| s.overloaded)),
            ("deadline_infeasible", rung(|s| s.deadline_infeasible)),
            ("shed_deadline", rung(|s| s.shed_deadline)),
            ("dispatched", rung(|s| s.dispatched)),
        ] {
            assert!(n > 0, "{policy}: funnel rung `{name}` never fired");
        }
    }
}
