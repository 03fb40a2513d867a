//! Prometheus text-exposition (format 0.0.4) encoding.
//!
//! The daemons do not register metrics with a global registry — their
//! counters already live in relaxed atomics and
//! [`barre_trace::LatencyHistogram`]s. A `/metrics` scrape builds a
//! [`PromText`], appends each family in a fixed order, and ships the
//! rendered string, so the exposition is a pure snapshot function of
//! the counters: no extra synchronization, nothing on the hot path.
//!
//! Encoding rules implemented here (the subset the fleet needs):
//!
//! * every family gets `# HELP` and `# TYPE` lines, help text escaped
//!   (`\\` and `\n`);
//! * label values are escaped (`\\`, `\"`, `\n`);
//! * histograms emit cumulative `le` buckets ending in `+Inf`, plus
//!   `_sum` and `_count`, derived from the fixed HDR bucket layout
//!   ([`barre_trace::bucket_upper`]) so the bucket boundaries are
//!   byte-stable across runs and hosts.

use barre_trace::hist::{bucket_upper, BUCKETS};
use barre_trace::LatencyHistogram;

/// Escapes a `# HELP` text: backslashes and newlines.
pub fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a label value: backslashes, double quotes, and newlines.
pub fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A Prometheus text-format document under construction. Append
/// families with [`counter`](PromText::counter) and friends, then
/// [`render`](PromText::render) the final body.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty exposition document.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(&escape_help(help));
        self.out.push('\n');
        self.out.push_str("# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: &str) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                self.out.push_str(&escape_label(v));
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(value);
        self.out.push('\n');
    }

    /// Appends an unlabeled counter family with one sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.sample(name, &[], &value.to_string());
    }

    /// Appends an unlabeled gauge family with one sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "gauge");
        self.sample(name, &[], &value.to_string());
    }

    /// Appends a 0/1 gauge for a boolean condition.
    pub fn gauge_bool(&mut self, name: &str, help: &str, value: bool) {
        self.gauge(name, help, u64::from(value));
    }

    /// Appends a histogram family from a fixed-bucket
    /// [`LatencyHistogram`]: cumulative `le` buckets over the nonempty
    /// HDR buckets, a final `+Inf` bucket, `_sum`, and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, h: &LatencyHistogram) {
        self.header(name, help, "histogram");
        let bucket = format!("{name}_bucket");
        let mut cum = 0u64;
        for (i, c) in h.nonempty() {
            cum = cum.saturating_add(c);
            // The last HDR bucket's upper bound is u64::MAX; that count
            // belongs to the +Inf bucket below.
            if i + 1 < BUCKETS {
                let le = bucket_upper(i).to_string();
                self.sample(&bucket, &[("le", &le)], &cum.to_string());
            }
        }
        self.sample(&bucket, &[("le", "+Inf")], &h.count().to_string());
        self.sample(&format!("{name}_sum"), &[], &h.sum().to_string());
        self.sample(&format!("{name}_count"), &[], &h.count().to_string());
    }

    /// The finished exposition body.
    pub fn render(self) -> String {
        self.out
    }
}

/// The `Content-Type` a `/metrics` response must carry.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_exposition_format() {
        let mut p = PromText::new();
        p.counter("barre_test_total", "Things counted.", 3);
        p.gauge("barre_test_depth", "Current depth.", 7);
        p.gauge_bool("barre_test_draining", "Whether draining.", false);
        assert_eq!(
            p.render(),
            "# HELP barre_test_total Things counted.\n\
             # TYPE barre_test_total counter\n\
             barre_test_total 3\n\
             # HELP barre_test_depth Current depth.\n\
             # TYPE barre_test_depth gauge\n\
             barre_test_depth 7\n\
             # HELP barre_test_draining Whether draining.\n\
             # TYPE barre_test_draining gauge\n\
             barre_test_draining 0\n"
        );
    }

    #[test]
    fn help_and_label_escaping() {
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(escape_label("say \"hi\"\\now"), "say \\\"hi\\\"\\\\now");
        let mut p = PromText::new();
        p.counter("barre_test_total", "Multi\nline help", 1);
        let body = p.render();
        assert!(body.contains("# HELP barre_test_total Multi\\nline help\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_in_inf() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 1, 5, 100, 100, 100, 5_000] {
            h.record(v);
        }
        let mut p = PromText::new();
        p.histogram("barre_test_ms", "Latency.", &h);
        let body = p.render();
        let mut last = 0u64;
        let mut bucket_lines = 0usize;
        for line in body.lines() {
            let Some(rest) = line.strip_prefix("barre_test_ms_bucket{le=\"") else {
                continue;
            };
            bucket_lines += 1;
            let (le, count) = rest.split_once("\"} ").expect("bucket line shape");
            let count: u64 = count.parse().expect("bucket count");
            assert!(count >= last, "buckets must be cumulative: {line}");
            last = count;
            if le == "+Inf" {
                assert_eq!(count, h.count());
            }
        }
        assert_eq!(bucket_lines, 5, "{body}");
        assert!(body.contains(&format!("barre_test_ms_sum {}\n", h.sum())));
        assert!(body.contains(&format!("barre_test_ms_count {}\n", h.count())));
    }

    #[test]
    fn empty_histogram_still_exposes_inf_sum_count() {
        let mut p = PromText::new();
        p.histogram("barre_empty_ms", "Nothing yet.", &LatencyHistogram::new());
        let body = p.render();
        assert!(body.contains("barre_empty_ms_bucket{le=\"+Inf\"} 0\n"));
        assert!(body.contains("barre_empty_ms_sum 0\n"));
        assert!(body.contains("barre_empty_ms_count 0\n"));
    }

    #[test]
    fn max_value_samples_land_in_inf_only() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(3);
        let mut p = PromText::new();
        p.histogram("barre_edge_ms", "Edge.", &h);
        let body = p.render();
        // The u64::MAX sample must not produce a finite le bound.
        assert!(!body.contains(&format!("le=\"{}\"", u64::MAX)));
        assert!(body.contains("barre_edge_ms_bucket{le=\"3\"} 1\n"));
        assert!(body.contains("barre_edge_ms_bucket{le=\"+Inf\"} 2\n"));
    }
}
