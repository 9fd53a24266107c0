//! Benchmark-owned spans around each call of a traced pass.  Untraced
//! passes get `None` and run the same calls without touching a clock.

use bsc_telemetry::{SpanCollector, SpanSnapshot};

use crate::stats::self_ns;

/// Runs `f` inside a span named `name` when tracing, bare otherwise.
pub fn span<T>(tracer: Option<&SpanCollector>, name: &str, f: impl FnOnce() -> T) -> T {
    let _guard = tracer.map(|t| t.begin(name));
    f()
}

/// Total seconds spent in spans named `name`.
pub fn total_s(snap: &SpanSnapshot, name: &str) -> f64 {
    snap.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns())
        .sum::<u64>() as f64
        / 1e9
}

/// Self seconds of the spans named `name`: their time minus the time of
/// their child spans and of `other_children_ns`, work the program's own
/// profiles attribute inside them.
pub fn self_s(snap: &SpanSnapshot, name: &str, other_children_ns: u64) -> f64 {
    let own: u64 = snap
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            self_ns(
                s.duration_ns(),
                snap.children(s.id).iter().map(|c| c.duration_ns()),
            )
        })
        .sum();
    own.saturating_sub(other_children_ns) as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_child_spans_and_attributed_work() {
        let spans = SpanCollector::new();
        span(Some(&spans), "pass", || {
            span(Some(&spans), "child", || {
                std::thread::sleep(Duration::from_millis(20))
            });
            std::thread::sleep(Duration::from_millis(10));
        });
        let snap = spans.snapshot();
        let (pass, child) = (total_s(&snap, "pass"), total_s(&snap, "child"));
        assert!(pass >= 0.030 && child >= 0.020, "pass {pass} child {child}");
        let own = self_s(&snap, "pass", 0);
        assert!((own - (pass - child)).abs() < 1e-9);
        assert!(self_s(&snap, "pass", 5_000_000) < own);
        assert_eq!(span(None, "untraced", || 7), 7);
    }
}
