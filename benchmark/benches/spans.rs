//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as Chrome/Perfetto trace events when a run ends.
//!
//! A disabled [`Spans`] records nothing and never reads the clock, which
//! is how untraced runs stay free of tracing cost.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use barre_system::journal::json_escape;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u64,
    /// What ran, e.g. `build_machine` or `request`.
    pub name: String,
    /// Layer the span belongs to, e.g. `system.runner`.
    pub layer: &'static str,
    /// Timeline track (thread or connection).
    pub track: u32,
    /// Start, microseconds since the run's epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    epoch_wall_ms: f64,
    next: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; `enabled == false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Self {
        let wall = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3);
        Spans {
            enabled,
            epoch: Instant::now(),
            epoch_wall_ms: wall,
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span. `f` receives the span's id so the calls it
    /// makes can record child spans under it (0 when disabled).
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &str,
        track: u32,
        parent: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let out = f(id);
        self.record(Span {
            id,
            parent,
            name: name.to_string(),
            layer,
            track,
            start_us,
            dur_us: self.epoch.elapsed().as_secs_f64() * 1e6 - start_us,
        });
        out
    }

    /// Records a span another process logged, from its wall-clock
    /// millisecond timestamps (Unix epoch).
    pub fn push_wall(
        &self,
        layer: &'static str,
        name: &str,
        track: u32,
        start_ms: u64,
        end_ms: u64,
    ) {
        if !self.enabled {
            return;
        }
        let us = |ms: u64| (ms as f64 - self.epoch_wall_ms) * 1e3;
        self.record(Span {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            name: name.to_string(),
            layer,
            track,
            start_us: us(start_ms),
            dur_us: (us(end_ms) - us(start_ms)).max(0.0),
        });
    }

    fn record(&self, span: Span) {
        self.done
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(span);
    }

    /// Every span recorded so far, in start order.
    pub fn finished(&self) -> Vec<Span> {
        let mut v = self
            .done
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone();
        v.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        v
    }
}

/// The smallest share of any span whose name starts with `parent_name`
/// that the union of its direct children's intervals covers. `None` when
/// no such span exists.
pub fn min_child_coverage(spans: &[Span], parent_name: &str) -> Option<f64> {
    spans
        .iter()
        .filter(|s| s.name.starts_with(parent_name) && s.dur_us > 0.0)
        .map(|p| {
            // `spans` is in start order, so one sweep merges the intervals.
            let (mut covered, mut reach) = (0.0f64, p.start_us);
            for c in spans.iter().filter(|c| c.parent == p.id) {
                let end = c.start_us + c.dur_us;
                if end > reach {
                    covered += end - c.start_us.max(reach);
                    reach = end;
                }
            }
            covered / p.dur_us
        })
        .min_by(f64::total_cmp)
}

/// Renders spans as a Chrome trace (`chrome://tracing`, Perfetto):
/// complete (`"ph":"X"`) events, one track per `track`, with the span and
/// parent ids in `args`.
pub fn chrome_trace(spans: &[Span], process: &str) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        s,
        "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":{}}}}}",
        json_escape(process)
    );
    for sp in spans {
        let _ = write!(
            s,
            ",\n{{\"ph\":\"X\",\"name\":{},\"cat\":{},\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            json_escape(&sp.name),
            json_escape(sp.layer),
            sp.track,
            sp.start_us,
            sp.dur_us,
            sp.id,
            sp.parent
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_pass_through() {
        let t = Spans::new(false);
        assert_eq!(t.span("l", "x", 0, 0, |id| id + 41), 41);
        assert!(t.finished().is_empty());
    }

    #[test]
    fn children_nest_and_export_parses() {
        let t = Spans::new(true);
        t.span("sim", "cell a", 0, 0, |cell| {
            t.span("system.runner", "build_machine", 0, cell, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("system.machine", "run", 0, cell, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.finished();
        assert_eq!(spans.len(), 3);
        let cover = min_child_coverage(&spans, "cell").expect("cell span");
        assert!(cover > 0.5 && cover <= 1.0, "{cover}");
        let doc = barre_system::Json::parse(&chrome_trace(&spans, "t")).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        assert_eq!(events.len(), 4);
    }
}
