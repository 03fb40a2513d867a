//! Exporters: Chrome-trace/Perfetto JSON and compact JSONL.
//!
//! Both formats are rendered with hand-rolled serialization (no
//! dependencies) and deterministic field/element order, so for a fixed
//! seed the output is byte-identical across runs. All numbers are
//! plain decimal integers — the JSONL form round-trips exactly through
//! `crate::json`'s source-text number handling.

use std::fmt::Write as _;

use crate::json::json_escape;
use crate::{LatencyHistogram, Sample, Span, Stage, TraceRecorder};

/// Schema tag stamped into both export formats.
pub const SCHEMA: &str = "barre-trace/1";

/// Run identification attached to an export.
#[derive(Debug, Clone, Default)]
pub struct TraceMeta {
    /// Workload name (e.g. `gemv`).
    pub app: String,
    /// Translation mode (`baseline`/`barre`/`fbarre`).
    pub mode: String,
    /// Simulation seed.
    pub seed: u64,
    /// Span-ring window the trace was recorded with.
    pub window: u64,
}

/// Renders one histogram as a JSON object:
/// `{"buckets":[[index,count],…],"count":N,"sum":N,"min":N,"max":N}`.
fn hist_json(h: &LatencyHistogram) -> String {
    let mut out = String::from("{\"buckets\":[");
    for (i, (b, c)) in h.nonempty().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{b},{c}]");
    }
    let _ = write!(
        out,
        "],\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max()
    );
    out
}

fn sample_json(s: &Sample) -> String {
    format!(
        "{{\"cycle\":{},\"events\":{},\"l1_hits\":{},\"l1_misses\":{},\"l2_hits\":{},\
         \"l2_misses\":{},\"ats_in_flight\":{},\"pcie_bytes\":{},\"mesh_bytes\":{},\
         \"queue_spills\":{},\"queue_rebins\":{},\"queue_growths\":{},\"queue_buckets\":{}}}",
        s.cycle,
        s.events,
        s.l1_hits,
        s.l1_misses,
        s.l2_hits,
        s.l2_misses,
        s.ats_in_flight,
        s.pcie_bytes,
        s.mesh_bytes,
        s.queue_spills,
        s.queue_rebins,
        s.queue_growths,
        s.queue_buckets
    )
}

/// Spans in deterministic display order: by start cycle, then end,
/// chiplet, journey id, and stage index. This also gives the exported
/// `traceEvents` a monotonically nondecreasing `ts`.
fn sorted_spans(rec: &TraceRecorder) -> Vec<Span> {
    let mut spans: Vec<Span> = rec.ring().iter().copied().collect();
    spans.sort_by_key(|s| (s.start, s.end, s.chiplet, s.id, s.stage.index()));
    spans
}

fn barre_section(rec: &TraceRecorder, meta: &TraceMeta) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{}\",\"app\":{},\"mode\":{},\"seed\":{},\"window\":{},\
         \"spans_recorded\":{},\"spans_dropped\":{},\"spans_filtered\":{}",
        SCHEMA,
        json_escape(&meta.app),
        json_escape(&meta.mode),
        meta.seed,
        meta.window,
        rec.ring().recorded(),
        rec.ring().dropped(),
        rec.filtered()
    );
    out.push_str(",\"stage_histograms\":{");
    for (i, stage) in Stage::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{}",
            stage.name(),
            hist_json(rec.stage_histogram(*stage))
        );
    }
    out.push_str("},\"chiplet_histograms\":[");
    for (c, per_stage) in rec.chiplet_histograms().iter().enumerate() {
        if c > 0 {
            out.push(',');
        }
        out.push('{');
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{}",
                stage.name(),
                hist_json(&per_stage[stage.index()])
            );
        }
        out.push('}');
    }
    out.push_str("],\"samples\":[");
    for (i, s) in rec.samples().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&sample_json(s));
    }
    out.push_str("]}");
    out
}

/// Renders a Chrome-trace (Perfetto-loadable) JSON document.
///
/// Each retained span becomes a complete (`"ph":"X"`) event with
/// `ts`/`dur` in sim cycles, `pid` = chiplet, `tid` = journey id. The
/// run's histograms, time-series samples, and drop accounting ride in
/// a top-level `"barre"` object that Perfetto ignores but
/// `barre report` reads back.
pub fn chrome_trace(rec: &TraceRecorder, meta: &TraceMeta) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in sorted_spans(rec).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"translate\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{}}}",
            s.stage.name(),
            s.start,
            s.end.saturating_sub(s.start),
            s.chiplet,
            s.id
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"barre\":");
    out.push_str(&barre_section(rec, meta));
    out.push_str("}\n");
    out
}

/// Renders the compact JSONL stream: one `meta` line, the per-stage and
/// per-chiplet `hist` lines, the `sample` lines, then one `span` line
/// per retained span (deterministic order throughout).
pub fn jsonl(rec: &TraceRecorder, meta: &TraceMeta) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"t\":\"meta\",\"schema\":\"{}\",\"app\":{},\"mode\":{},\"seed\":{},\
         \"window\":{},\"spans_recorded\":{},\"spans_dropped\":{},\"spans_filtered\":{}}}",
        SCHEMA,
        json_escape(&meta.app),
        json_escape(&meta.mode),
        meta.seed,
        meta.window,
        rec.ring().recorded(),
        rec.ring().dropped(),
        rec.filtered()
    );
    for stage in Stage::ALL {
        let _ = writeln!(
            out,
            "{{\"t\":\"hist\",\"scope\":\"stage\",\"stage\":\"{}\",\"hist\":{}}}",
            stage.name(),
            hist_json(rec.stage_histogram(stage))
        );
    }
    for (c, per_stage) in rec.chiplet_histograms().iter().enumerate() {
        for stage in Stage::ALL {
            let _ = writeln!(
                out,
                "{{\"t\":\"hist\",\"scope\":\"chiplet\",\"chiplet\":{},\"stage\":\"{}\",\
                 \"hist\":{}}}",
                c,
                stage.name(),
                hist_json(&per_stage[stage.index()])
            );
        }
    }
    for s in rec.samples() {
        let _ = writeln!(out, "{{\"t\":\"sample\",\"sample\":{}}}", sample_json(s));
    }
    for s in sorted_spans(rec) {
        let _ = writeln!(
            out,
            "{{\"t\":\"span\",\"stage\":\"{}\",\"id\":{},\"chiplet\":{},\"start\":{},\"end\":{}}}",
            s.stage.name(),
            s.id,
            s.chiplet,
            s.start,
            s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StageMask, TraceOptions, Tracer};

    fn recorder_with_spans() -> Box<TraceRecorder> {
        let mut t = Tracer::recording(&TraceOptions {
            window: 16,
            filter: StageMask::all(),
        });
        t.span(Stage::CuIssue, 1, 0, 5, 9);
        t.span(Stage::TlbL1, 1, 0, 9, 13);
        t.span(Stage::Ptw, 1_000_000_001, 2, 20, 320);
        t.sample(Sample {
            cycle: 100,
            events: 65_536,
            l1_hits: 10,
            l1_misses: 2,
            l2_hits: 1,
            l2_misses: 1,
            ats_in_flight: 3,
            pcie_bytes: 256,
            mesh_bytes: 64,
            ..Sample::default()
        });
        t.take_recorder().expect("recording")
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            app: "gemv".into(),
            mode: "barre".into(),
            seed: 42,
            window: 16,
        }
    }

    #[test]
    fn chrome_trace_shape_and_monotonic_ts() {
        let doc = chrome_trace(&recorder_with_spans(), &meta());
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"barre\":{\"schema\":\"barre-trace/1\""));
        // ts values appear in nondecreasing order.
        let ts: Vec<u64> = doc
            .match_indices("\"ts\":")
            .map(|(i, _)| {
                doc[i + 5..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .expect("digit run")
            })
            .collect();
        assert_eq!(ts.len(), 3);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn exports_are_deterministic() {
        let a = chrome_trace(&recorder_with_spans(), &meta());
        let b = chrome_trace(&recorder_with_spans(), &meta());
        assert_eq!(a, b);
        let c = jsonl(&recorder_with_spans(), &meta());
        let d = jsonl(&recorder_with_spans(), &meta());
        assert_eq!(c, d);
    }

    #[test]
    fn jsonl_carries_every_record_kind() {
        let doc = jsonl(&recorder_with_spans(), &meta());
        assert!(doc.lines().any(|l| l.contains("\"t\":\"meta\"")));
        assert!(doc.lines().any(|l| l.contains("\"t\":\"hist\"")));
        assert!(doc.lines().any(|l| l.contains("\"t\":\"sample\"")));
        assert!(doc.lines().any(|l| l.contains("\"t\":\"span\"")));
        // One stage-hist line per stage, plus 3 chiplets' worth.
        let hists = doc.lines().filter(|l| l.contains("\"t\":\"hist\"")).count();
        assert_eq!(hists, Stage::COUNT + 3 * Stage::COUNT);
    }

    #[test]
    fn hist_json_snapshot_is_byte_stable_at_bucket_boundaries() {
        // Values straddling every interesting boundary of the 3-sub-bit
        // layout: the exact range end (7), the first log bucket (8), an
        // octave edge (15/16), a shared sub-bucket (16 and 17), a power
        // of two (1023/1024), and the final bucket (u64::MAX).
        let values = [0u64, 7, 8, 15, 16, 17, 1023, 1024, u64::MAX];
        let mut h = LatencyHistogram::new();
        for v in values {
            h.record(v);
        }
        let expected = "{\"buckets\":[[0,1],[7,1],[8,1],[15,1],[16,2],[63,1],[64,1],[495,1]],\
                        \"count\":9,\"sum\":18446744073709553725,\"min\":0,\
                        \"max\":18446744073709551615}";
        assert_eq!(hist_json(&h), expected);
        // Insertion order must not leak into the bytes.
        let mut g = LatencyHistogram::new();
        for v in values.iter().rev() {
            g.record(*v);
        }
        assert_eq!(hist_json(&g), expected);
    }
}
