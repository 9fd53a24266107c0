//! Chrome trace-event JSON export, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Two process groups are emitted:
//!
//! * **pid 1 — "array (cycle domain)"**: one thread track per PE with
//!   `busy` / `stall` slices and instant `weight_load` markers, a
//!   `layers` track and a `passes` track with nested layer/pass slices,
//!   and one counter track per observed precision mode
//!   (`macs_per_cycle`, `macs_per_cycle.int8`, ...).  One array cycle is
//!   mapped to one trace microsecond (`ts`/`dur` are in µs in the
//!   chrome format), so the cycle number reads directly off the ruler.
//! * **pid 2 — "harness (wall clock)"**: the hierarchical span layer
//!   ([`crate::span`]) as properly nested `B`/`E` events, timestamped in
//!   real microseconds; span correlation IDs and annotations ride along
//!   in `args`.
//!
//! Everything is written with [`JsonBuilder`] and validated round-trip
//! against the in-crate parser ([`crate::json`]) in tests.

use crate::sink::JsonBuilder;
use crate::span::SpanSnapshot;
use crate::timeline::{Timeline, IMPLICIT_LAYER};

const ARRAY_PID: u64 = 1;
const HARNESS_PID: u64 = 2;
const LAYERS_TID: u64 = 1;
const PASSES_TID: u64 = 2;
const DMA_TID: u64 = 3;
/// PE `n` renders on tid `PE_TID_BASE + n`.
const PE_TID_BASE: u64 = 16;

/// Writes one metadata (`"ph":"M"`) event naming process `pid` (`which`
/// = `"process_name"`) or its thread `tid` (`"thread_name"`).
pub fn meta(j: &mut JsonBuilder, pid: u64, tid: Option<u64>, which: &str, name: &str) {
    j.begin_object();
    j.key("ph").string("M");
    j.key("pid").u64(pid);
    if let Some(tid) = tid {
        j.key("tid").u64(tid);
    }
    j.key("name").string(which);
    j.key("args").begin_object();
    j.key("name").string(name);
    j.end_object();
    j.end_object();
}

#[allow(clippy::too_many_arguments)]
fn complete_event(
    j: &mut JsonBuilder,
    pid: u64,
    tid: u64,
    name: &str,
    cat: &str,
    ts: u64,
    dur: u64,
    args: &[(&str, u64)],
) {
    j.begin_object();
    j.key("ph").string("X");
    j.key("pid").u64(pid);
    j.key("tid").u64(tid);
    j.key("name").string(name);
    j.key("cat").string(cat);
    j.key("ts").u64(ts);
    j.key("dur").u64(dur);
    if !args.is_empty() {
        j.key("args").begin_object();
        for (k, v) in args {
            j.key(k).u64(*v);
        }
        j.end_object();
    }
    j.end_object();
}

/// Serializes a reconstructed [`Timeline`] (and optionally the
/// wall-clock span tree) as one Chrome trace-event JSON document.
pub fn perfetto_json(timeline: &Timeline, spans: Option<&SpanSnapshot>) -> String {
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("displayTimeUnit").string("ms");
    j.key("otherData").begin_object();
    j.key("cycles").u64(timeline.total_cycles);
    j.key("events").u64(timeline.events);
    j.key("dropped").u64(timeline.dropped);
    j.key("truncated").bool(timeline.dropped > 0);
    j.end_object();
    j.key("traceEvents").begin_array();

    // --- metadata: name the processes and threads ---
    meta(&mut j, ARRAY_PID, None, "process_name", "array (cycle domain, 1 cycle = 1us)");
    meta(&mut j, ARRAY_PID, Some(LAYERS_TID), "thread_name", "layers");
    meta(&mut j, ARRAY_PID, Some(PASSES_TID), "thread_name", "passes");
    if !timeline.dma.is_empty() {
        meta(&mut j, ARRAY_PID, Some(DMA_TID), "thread_name", "DMA");
    }
    for pe in &timeline.pes {
        meta(
            &mut j,
            ARRAY_PID,
            Some(PE_TID_BASE + pe.pe as u64),
            "thread_name",
            &format!("PE {:02}", pe.pe),
        );
    }

    // --- layer and pass slices (nested: layers above, passes below) ---
    for layer in &timeline.layers {
        let name = if layer.layer == IMPLICIT_LAYER {
            "untracked".to_string()
        } else {
            format!("layer {}", layer.layer)
        };
        complete_event(
            &mut j,
            ARRAY_PID,
            LAYERS_TID,
            &name,
            "layer",
            layer.start,
            layer.end.saturating_sub(layer.start),
            &[("passes", layer.passes as u64)],
        );
    }
    for pass in &timeline.passes {
        let name = if pass.layer == IMPLICIT_LAYER {
            format!("segment {}", pass.pass)
        } else {
            format!("L{} pass {}", pass.layer, pass.pass)
        };
        complete_event(
            &mut j,
            ARRAY_PID,
            PASSES_TID,
            &name,
            "pass",
            pass.start,
            pass.end.saturating_sub(pass.start),
            &[
                ("rows", pass.rows as u64),
                ("cols", pass.cols as u64),
                ("inner", pass.inner as u64),
                ("span", pass.span),
                ("mode_bits", pass.mode_bits as u64),
            ],
        );
    }

    // --- DMA bursts between DRAM and the SRAM tile buffers ---
    for burst in &timeline.dma {
        complete_event(
            &mut j,
            ARRAY_PID,
            DMA_TID,
            if burst.store { "store" } else { "load" },
            "dma",
            burst.start,
            burst.end.saturating_sub(burst.start),
            &[("bytes", burst.bytes as u64)],
        );
    }

    // --- per-PE busy/stall slices and weight-load instants ---
    for pe in &timeline.pes {
        let tid = PE_TID_BASE + pe.pe as u64;
        for iv in &pe.busy {
            complete_event(&mut j, ARRAY_PID, tid, "busy", "pe", iv.start, iv.len(), &[]);
        }
        for iv in &pe.stall {
            complete_event(&mut j, ARRAY_PID, tid, "stall", "pe", iv.start, iv.len(), &[]);
        }
        for &cycle in &pe.weight_loads {
            j.begin_object();
            j.key("ph").string("i");
            j.key("pid").u64(ARRAY_PID);
            j.key("tid").u64(tid);
            j.key("name").string("weight_load");
            j.key("cat").string("pe");
            j.key("ts").u64(cycle);
            j.key("s").string("t");
            j.end_object();
        }
    }

    // --- counter tracks (MACs per cycle, total and per mode) ---
    for track in &timeline.counters {
        for point in &track.points {
            j.begin_object();
            j.key("ph").string("C");
            j.key("pid").u64(ARRAY_PID);
            j.key("name").string(&track.name);
            j.key("ts").u64(point.cycle);
            j.key("args").begin_object();
            j.key("macs").f64(point.value);
            j.end_object();
            j.end_object();
        }
    }

    // --- wall-clock span tree as nested B/E events ---
    if let Some(spans) = spans {
        if !spans.spans.is_empty() {
            meta(&mut j, HARNESS_PID, None, "process_name", "harness (wall clock)");
            meta(&mut j, HARNESS_PID, Some(1), "thread_name", "spans");
            // Spans are recorded begin-ordered and properly nested, so
            // emitting B at start_ns and E at end_ns, sorted by time,
            // yields a well-formed duration stack.
            let mut edges: Vec<(u64, bool, usize)> = Vec::new();
            for (i, s) in spans.spans.iter().enumerate() {
                edges.push((s.start_ns, true, i));
                if let Some(end) = s.end_ns {
                    edges.push((end, false, i));
                }
            }
            // Ends before begins at equal timestamps keeps nesting legal.
            edges.sort_by_key(|&(ts, is_begin, i)| (ts, is_begin, std::cmp::Reverse(i)));
            for (ts, is_begin, i) in edges {
                let s = &spans.spans[i];
                j.begin_object();
                j.key("ph").string(if is_begin { "B" } else { "E" });
                j.key("pid").u64(HARNESS_PID);
                j.key("tid").u64(1);
                if is_begin {
                    j.key("name").string(&s.name);
                    j.key("cat").string("span");
                }
                j.key("ts").u64(ts / 1000); // ns → µs
                if is_begin {
                    j.key("args").begin_object();
                    j.key("span_id").u64(s.id);
                    j.key("parent").u64(s.parent);
                    for (k, v) in &s.args {
                        j.key(k).string(v);
                    }
                    j.end_object();
                }
                j.end_object();
            }
        }
    }

    j.end_array();
    j.end_object();
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, JsonValue};
    use crate::span::SpanCollector;
    use crate::timeline::build_timeline;
    use crate::trace::{TraceEvent, TraceRing};

    fn sample_timeline() -> Timeline {
        let ring = TraceRing::new(64);
        ring.push(TraceEvent::ModeSet { bits: 4 });
        ring.push(TraceEvent::TileStart { layer: 0, pass: 0, rows: 2, cols: 2, inner: 8 });
        ring.push(TraceEvent::WeightLoad { cycle: 0, pe: 0, elems: 8 });
        ring.push(TraceEvent::PeFired { cycle: 0, pe: 0, row: 0, macs: 8 });
        ring.push(TraceEvent::PeFired { cycle: 1, pe: 1, row: 0, macs: 8 });
        ring.push(TraceEvent::VectorStall { cycle: 2, pe: 1 });
        ring.push(TraceEvent::Dma { cycle: 0, cycles: 2, bytes: 128, store: false });
        build_timeline(&ring.snapshot())
    }

    #[test]
    fn export_parses_and_has_one_track_per_pe() {
        let col = SpanCollector::new();
        {
            let _outer = col.begin("run");
            let _inner = col.begin("layer.0");
        }
        let json = perfetto_json(&sample_timeline(), Some(&col.snapshot()));
        let doc = parse_json(&json).expect("exporter must emit valid JSON");

        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(thread_names.contains(&"PE 00"));
        assert!(thread_names.contains(&"PE 01"));
        assert!(thread_names.contains(&"layers"));
        assert!(thread_names.contains(&"passes"));
        assert!(thread_names.contains(&"DMA"));

        // Nested layer/pass slices exist as complete events.
        let x_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .filter_map(|e| e.get("name")?.as_str())
            .collect();
        assert!(x_names.contains(&"layer 0"));
        assert!(x_names.contains(&"L0 pass 0"));
        assert!(x_names.contains(&"busy"));
        assert!(x_names.contains(&"stall"));
        assert!(x_names.contains(&"load"));

        // Counter samples for combined + int4 tracks.
        let counters: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C"))
            .filter_map(|e| e.get("name")?.as_str())
            .collect();
        assert!(counters.contains(&"macs_per_cycle"));
        assert!(counters.contains(&"macs_per_cycle.int4"));

        // Span B/E events are balanced.
        let begins = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("B"))
            .count();
        let ends = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("E"))
            .count();
        assert_eq!(begins, 2);
        assert_eq!(begins, ends);
    }

    #[test]
    fn truncation_is_flagged_in_metadata() {
        let ring = TraceRing::new(1);
        ring.push(TraceEvent::PeFired { cycle: 0, pe: 0, row: 0, macs: 1 });
        ring.push(TraceEvent::PeFired { cycle: 1, pe: 0, row: 0, macs: 1 });
        let json = perfetto_json(&build_timeline(&ring.snapshot()), None);
        let doc = parse_json(&json).unwrap();
        assert_eq!(
            doc.get("otherData").unwrap().get("truncated").unwrap(),
            &JsonValue::Bool(true)
        );
        assert_eq!(doc.get("otherData").unwrap().get("dropped").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn empty_timeline_still_exports_valid_json() {
        let json = perfetto_json(&Timeline::default(), None);
        assert!(parse_json(&json).is_ok());
    }
}
