//! Writers shared by the `repro serve` and `repro online` exports: the
//! outcome and tenant-verdict lines of the text view, the queue-wait
//! report section, the SLO document and the strict-JSONL event log.

use std::fmt::Write as _;

use bsc_accel::SloReport;
use bsc_telemetry::{JsonBuilder, MetricsSnapshot};

/// Closes a JSON document with the trailing newline every export ends
/// with.
pub(crate) fn finish_doc(j: JsonBuilder) -> String {
    let mut text = j.finish();
    text.push('\n');
    text
}

/// Text view: one line per `engine.jobs{...}` point in the family's
/// canonical order, then one line per tenant with its SLO verdict
/// (`p99` names the latency quantile in the tenant lines).
pub(crate) fn render_outcomes(
    out: &mut String,
    metrics: &MetricsSnapshot,
    slo: &SloReport,
    p99: &str,
) {
    for (labels, total) in metrics.labeled_counter("engine.jobs") {
        let _ = writeln!(out, "  engine.jobs{labels} {total}");
    }
    for t in &slo.tenants {
        let verdict = match &t.attainment {
            Some(a) if a.attained => "SLO met".to_string(),
            Some(a) => format!(
                "SLO MISSED (p99 {}, goodput {})",
                if t.latency.count == 0 {
                    "no data"
                } else if a.latency_p99_ok {
                    "ok"
                } else {
                    "over"
                },
                if a.goodput_ok { "ok" } else { "under" },
            ),
            None => "no target".to_string(),
        };
        let _ = writeln!(
            out,
            "tenant {:<12} {} submitted / {} completed / {} rejected / {} shed, {p99} {} cyc, goodput {:.2}, {:.1} pJ — {}",
            t.tenant,
            t.submitted,
            t.completed,
            t.rejected,
            t.shed,
            t.latency.p99,
            t.goodput,
            t.energy_fj as f64 / 1e3,
            verdict,
        );
    }
}

/// The `queue_wait_cycles` report section: admission → dispatch waits on
/// the virtual clock, deterministic and gated like every other count.
pub(crate) fn write_queue_wait(j: &mut JsonBuilder, metrics: &MetricsSnapshot) {
    j.key("queue_wait_cycles").begin_object();
    match metrics.histogram("engine.queue.wait_cycles") {
        Some(h) => {
            j.key("count").u64(h.count);
            j.key("max").u64(h.max);
            j.key("p50").f64(h.p50().unwrap_or(0.0));
            j.key("p95").f64(h.p95().unwrap_or(0.0));
            j.key("p99").f64(h.p99().unwrap_or(0.0));
        }
        None => {
            j.key("count").u64(0);
        }
    }
    j.end_object();
}

/// The per-tenant SLO document both `repro serve` and `repro online` gate
/// at `--tol 0`: a `header` object (`label`, the window width, the fJ
/// total), then one `tenants` entry per tenant keyed by `name`, so diff
/// paths follow tenants, not array positions.
pub(crate) fn slo_document(header: &str, label: (&str, &str), slo: &SloReport) -> String {
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key(header).begin_object();
    j.key(label.0).string(label.1);
    j.key("window_width_cycles").u64(slo.window_width_cycles);
    j.key("total_energy_fj").u64(slo.total_energy_fj());
    j.end_object();

    j.key("tenants").begin_array();
    for t in &slo.tenants {
        j.begin_object();
        j.key("name").string(t.tenant.as_str());
        j.key("submitted").u64(t.submitted);
        j.key("completed").u64(t.completed);
        j.key("rejected").u64(t.rejected);
        j.key("shed").u64(t.shed);
        j.key("goodput").f64(t.goodput);
        j.key("reject_rate").f64(t.reject_rate());
        j.key("shed_rate").f64(t.shed_rate());
        j.key("deadline_jobs").u64(t.deadline_jobs);
        j.key("deadline_met").u64(t.deadline_met);
        j.key("macs").u64(t.macs);
        j.key("energy_fj").u64(t.energy_fj);

        j.key("latency_cycles").begin_object();
        j.key("count").u64(t.latency.count);
        j.key("min").u64(t.latency.min);
        j.key("max").u64(t.latency.max);
        j.key("p50").u64(t.latency.p50);
        j.key("p95").u64(t.latency.p95);
        j.key("p99").u64(t.latency.p99);
        j.end_object();

        for (key, counts) in [
            ("rejected_by_reason", &t.rejected_by_reason),
            ("shed_by_reason", &t.shed_by_reason),
            ("energy_by_precision", &t.energy_by_precision),
        ] {
            j.key(key).begin_object();
            for (name, n) in counts {
                j.key(name).u64(*n);
            }
            j.end_object();
        }

        if let Some(target) = &t.target {
            j.key("target").begin_object();
            j.key("latency_p99_cycles").u64(target.latency_p99_cycles);
            j.key("min_goodput").f64(target.min_goodput);
            j.end_object();
        }
        if let Some(a) = &t.attainment {
            j.key("attainment").begin_object();
            j.key("latency_p99_ok").bool(a.latency_p99_ok);
            j.key("goodput_ok").bool(a.goodput_ok);
            j.key("attained").bool(a.attained);
            j.key("p99_ratio").f64(a.p99_ratio);
            j.key("burn_rate").f64(a.burn_rate);
            j.end_object();
        }

        j.key("windows").begin_array();
        for w in &t.windows {
            j.begin_object();
            j.key("window").u64(w.window);
            j.key("start_cycle").u64(w.start_cycle);
            j.key("completed").u64(w.completed);
            j.key("shed").u64(w.shed);
            j.key("macs").u64(w.macs);
            j.end_object();
        }
        j.end_array();
        j.end_object();
    }
    j.end_array();
    j.end_object();
    finish_doc(j)
}

/// Joins event lines into a JSONL log, asserting each is strict RFC 8259
/// JSON on the way.
pub(crate) fn jsonl(lines: impl IntoIterator<Item = String>) -> String {
    let mut out = String::new();
    for line in lines {
        bsc_telemetry::parse_json(&line).expect("event line must be strict RFC 8259 JSON");
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_accel::{SloAccountant, SloTarget, TenantId};
    use bsc_telemetry::Registry;

    #[test]
    fn a_targeted_tenant_without_completions_renders_no_p99_data() {
        let mut acc = SloAccountant::new(64);
        let tenant = TenantId::new("idle");
        acc.declare_target(tenant.clone(), SloTarget { latency_p99_cycles: 100, min_goodput: 0.0 });
        acc.observe_rejections(&tenant, "queue_full", 3);
        let mut out = String::new();
        render_outcomes(&mut out, &Registry::new().snapshot(), &acc.report(), "p99");
        assert!(
            out.contains("SLO MISSED (p99 no data, goodput ok)"),
            "unexpected verdict line: {out}"
        );
    }
}
