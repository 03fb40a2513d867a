//! `barre-trace` — deterministic translation-path tracing.
//!
//! The simulator's argument lives in the translation path (L1/L2 TLB,
//! PTW queueing, ATS/PCIe round-trips), yet aggregate `RunMetrics`
//! can't say *where* cycles go inside a run. This crate provides the
//! observability layer:
//!
//! * a per-request **lifecycle tracer** stamping each memory request's
//!   journey (CU issue → L1 TLB → L2 TLB → PEC lookup → IOMMU/ATS →
//!   PTW → fill) into a bounded ring with deterministic drop
//!   accounting ([`ring::SpanRing`]);
//! * **fixed-boundary log-bucketed latency histograms** per stage and
//!   per chiplet ([`hist::LatencyHistogram`]), plus cycle-windowed
//!   time-series [`Sample`]s taken on the sanitizer's 65536-event
//!   cadence;
//! * exporters to Chrome-trace/Perfetto JSON and compact JSONL
//!   ([`export`]);
//! * the workspace's one JSON reader and string escaper ([`json`]).
//!
//! Everything is keyed on **sim cycles** — this crate never reads the
//! wall clock and has no entropy source, so for a fixed seed the
//! exported bytes are identical across runs, hosts, and `--jobs`
//! settings. Instrumentation goes through the enum-dispatch
//! [`Tracer`]: the [`Tracer::Noop`] arms compile to a discriminant
//! test, keeping the untraced hot path on its current profile.

pub mod export;
pub mod hist;
pub mod json;
pub mod ring;

pub use hist::LatencyHistogram;
pub use ring::SpanRing;

/// Simulation timestamp, in cycles (mirrors `barre_sim::Cycle` without
/// taking a dependency — this crate is deliberately standalone).
pub type Cycle = u64;

/// A stage of a memory request's translation journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Whole journey: from CU issue of the access to its translation
    /// resolving (L1 hit, peer hit, L2 hit, or fill wake-up). The
    /// top-N slowest journeys in `barre report` are the longest spans
    /// of this stage.
    CuIssue = 0,
    /// L1 (per-CU) TLB lookup.
    TlbL1 = 1,
    /// L2 (per-chiplet) TLB lookup.
    TlbL2 = 2,
    /// Coalescing-group / PEC calculation serving an L2 miss locally.
    PecLookup = 3,
    /// ATS round trip over PCIe (request out to response back).
    AtsPcie = 4,
    /// Page-table walk (IOMMU PTW or per-chiplet GMMU walker), from
    /// walker start to response ready.
    Ptw = 5,
    /// L2-miss fill: from miss detection to the translation being
    /// filled and waiters woken.
    Fill = 6,
}

impl Stage {
    /// All stages, in journey order.
    pub const ALL: [Stage; 7] = [
        Stage::CuIssue,
        Stage::TlbL1,
        Stage::TlbL2,
        Stage::PecLookup,
        Stage::AtsPcie,
        Stage::Ptw,
        Stage::Fill,
    ];

    /// Number of stages.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable machine-readable name (used by exporters, `--filter`, and
    /// `barre report`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::CuIssue => "cu-issue",
            Stage::TlbL1 => "tlb-l1",
            Stage::TlbL2 => "tlb-l2",
            Stage::PecLookup => "pec",
            Stage::AtsPcie => "ats-pcie",
            Stage::Ptw => "ptw",
            Stage::Fill => "fill",
        }
    }

    /// Inverse of [`Stage::name`].
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// Dense index in `[0, COUNT)`.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One completed stage of one request's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Journey id: the request's trace id for CU/TLB/PEC/fill stages,
    /// or the ATS request id (offset into a disjoint namespace by the
    /// machine) for ATS/PTW infrastructure spans.
    pub id: u64,
    /// Chiplet the stage executed on.
    pub chiplet: u16,
    /// Which stage completed.
    pub stage: Stage,
    /// Stage start, in sim cycles.
    pub start: Cycle,
    /// Stage end, in sim cycles (`end ≥ start`).
    pub end: Cycle,
}

/// A cycle-windowed counter snapshot, taken every 65536 processed
/// events (the sanitizer cadence). All fields are cumulative since the
/// start of the run; consumers difference adjacent samples to get
/// per-window rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// Sim cycle at the snapshot.
    pub cycle: Cycle,
    /// Events processed so far.
    pub events: u64,
    /// Cumulative L1 TLB hits (all CUs).
    pub l1_hits: u64,
    /// Cumulative L1 TLB misses.
    pub l1_misses: u64,
    /// Cumulative L2 TLB hits (all chiplets).
    pub l2_hits: u64,
    /// Cumulative L2 TLB misses.
    pub l2_misses: u64,
    /// ATS requests currently in flight.
    pub ats_in_flight: u64,
    /// Cumulative PCIe bytes (both directions).
    pub pcie_bytes: u64,
    /// Cumulative mesh + filter-VC bytes.
    pub mesh_bytes: u64,
    /// Cumulative event-queue calendar-wheel overflow spills.
    pub queue_spills: u64,
    /// Cumulative overflow entries rebinned back into the wheel.
    pub queue_rebins: u64,
    /// Adaptive wheel growths performed so far.
    pub queue_growths: u64,
    /// Current calendar-wheel bucket count.
    pub queue_buckets: u64,
}

/// Bitmask over [`Stage`]s, used for `--filter stage=...`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageMask(u8);

impl StageMask {
    /// Mask accepting every stage.
    pub fn all() -> Self {
        StageMask((1 << Stage::COUNT) - 1)
    }

    /// Mask accepting nothing.
    pub fn none() -> Self {
        StageMask(0)
    }

    /// Adds `stage` to the mask.
    pub fn insert(&mut self, stage: Stage) {
        self.0 |= 1 << stage.index();
    }

    /// Whether `stage` is accepted.
    pub fn contains(self, stage: Stage) -> bool {
        self.0 & (1 << stage.index()) != 0
    }

    /// Parses a comma-separated stage-name list (`"ptw,ats-pcie"`).
    /// Returns `None` if any name is unknown.
    pub fn parse(list: &str) -> Option<Self> {
        let mut mask = StageMask::none();
        for part in list.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            mask.insert(Stage::from_name(part)?);
        }
        Some(mask)
    }
}

impl Default for StageMask {
    fn default() -> Self {
        Self::all()
    }
}

/// Recorder configuration.
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Span-ring retention window (spans). `barre trace --window N`.
    pub window: usize,
    /// Which stages are recorded into the span ring. Histograms always
    /// see every stage regardless of the filter, so percentiles stay
    /// complete.
    pub filter: StageMask,
}

impl Default for TraceOptions {
    fn default() -> Self {
        Self {
            window: 65_536,
            filter: StageMask::all(),
        }
    }
}

/// The recording backend behind [`Tracer::Recording`].
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    filter: StageMask,
    ring: SpanRing,
    /// Per-stage latency histograms over the whole machine.
    stage_hist: [LatencyHistogram; Stage::COUNT],
    /// Per-chiplet, per-stage histograms (indexed by chiplet id; grown
    /// on demand).
    chiplet_hist: Vec<[LatencyHistogram; Stage::COUNT]>,
    samples: Vec<Sample>,
    /// Spans skipped by the stage filter (not counted as ring drops).
    filtered: u64,
}

impl TraceRecorder {
    /// Creates a recorder with the given options.
    pub fn new(opts: &TraceOptions) -> Self {
        Self {
            filter: opts.filter,
            ring: SpanRing::new(opts.window),
            stage_hist: Default::default(),
            chiplet_hist: Vec::new(),
            samples: Vec::new(),
            filtered: 0,
        }
    }

    /// Records a completed stage span: always folded into the stage and
    /// chiplet histograms; retained in the ring only if the stage
    /// passes the filter.
    pub fn span(&mut self, stage: Stage, id: u64, chiplet: u16, start: Cycle, end: Cycle) {
        let latency = end.saturating_sub(start);
        self.stage_hist[stage.index()].record(latency);
        let c = chiplet as usize;
        if self.chiplet_hist.len() <= c {
            self.chiplet_hist.resize_with(c + 1, Default::default);
        }
        self.chiplet_hist[c][stage.index()].record(latency);
        if self.filter.contains(stage) {
            self.ring.push(Span {
                id,
                chiplet,
                stage,
                start,
                end,
            });
        } else {
            self.filtered = self.filtered.saturating_add(1);
        }
    }

    /// Appends a time-series sample.
    pub fn sample(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// The span ring.
    pub fn ring(&self) -> &SpanRing {
        &self.ring
    }

    /// Per-stage histogram (whole machine).
    pub fn stage_histogram(&self, stage: Stage) -> &LatencyHistogram {
        &self.stage_hist[stage.index()]
    }

    /// Per-chiplet stage histograms, indexed by chiplet id.
    pub fn chiplet_histograms(&self) -> &[[LatencyHistogram; Stage::COUNT]] {
        &self.chiplet_hist
    }

    /// Recorded time-series samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Spans excluded by the stage filter.
    pub fn filtered(&self) -> u64 {
        self.filtered
    }
}

/// Enum-dispatch tracer threaded through the machine. [`Tracer::Noop`]
/// keeps every call site to a discriminant test so the untraced hot
/// path is unperturbed; [`Tracer::Recording`] forwards to a boxed
/// [`TraceRecorder`].
#[derive(Debug, Default)]
pub enum Tracer {
    /// Tracing disabled (the default).
    #[default]
    Noop,
    /// Tracing enabled.
    Recording(Box<TraceRecorder>),
}

impl Tracer {
    /// Creates a recording tracer with `opts`.
    pub fn recording(opts: &TraceOptions) -> Self {
        Tracer::Recording(Box::new(TraceRecorder::new(opts)))
    }

    /// Whether spans/samples are being recorded. Callers gate any
    /// non-trivial argument computation on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        matches!(self, Tracer::Recording(_))
    }

    /// Records a completed stage span (no-op when disabled).
    #[inline]
    pub fn span(&mut self, stage: Stage, id: u64, chiplet: u16, start: Cycle, end: Cycle) {
        if let Tracer::Recording(r) = self {
            r.span(stage, id, chiplet, start, end);
        }
    }

    /// Records a time-series sample (no-op when disabled).
    #[inline]
    pub fn sample(&mut self, sample: Sample) {
        if let Tracer::Recording(r) = self {
            r.sample(sample);
        }
    }

    /// Takes the recorder out, leaving `Noop`. `None` if disabled.
    pub fn take_recorder(&mut self) -> Option<Box<TraceRecorder>> {
        match std::mem::take(self) {
            Tracer::Recording(r) => Some(r),
            Tracer::Noop => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("bogus"), None);
    }

    #[test]
    fn stage_mask_parse_and_filter() {
        let m = StageMask::parse("ptw,ats-pcie").expect("valid list");
        assert!(m.contains(Stage::Ptw));
        assert!(m.contains(Stage::AtsPcie));
        assert!(!m.contains(Stage::TlbL1));
        assert!(StageMask::parse("ptw,nope").is_none());
        assert!(StageMask::all().contains(Stage::Fill));
    }

    #[test]
    fn noop_tracer_records_nothing() {
        let mut t = Tracer::Noop;
        assert!(!t.is_enabled());
        t.span(Stage::TlbL1, 1, 0, 0, 10);
        t.sample(Sample::default());
        assert!(t.take_recorder().is_none());
    }

    #[test]
    fn recorder_histograms_ignore_filter_but_ring_honors_it() {
        let opts = TraceOptions {
            window: 8,
            filter: StageMask::parse("ptw").expect("valid"),
        };
        let mut t = Tracer::recording(&opts);
        assert!(t.is_enabled());
        t.span(Stage::TlbL1, 1, 0, 100, 104);
        t.span(Stage::Ptw, 2, 1, 100, 400);
        let r = t.take_recorder().expect("recording");
        assert_eq!(r.stage_histogram(Stage::TlbL1).count(), 1);
        assert_eq!(r.stage_histogram(Stage::Ptw).count(), 1);
        assert_eq!(r.ring().len(), 1);
        assert_eq!(r.filtered(), 1);
        assert_eq!(r.chiplet_histograms().len(), 2);
        assert_eq!(r.chiplet_histograms()[1][Stage::Ptw.index()].count(), 1);
    }

    #[test]
    fn per_chiplet_histograms_grow_on_demand() {
        let mut t = Tracer::recording(&TraceOptions::default());
        t.span(Stage::Fill, 9, 3, 0, 50);
        let r = t.take_recorder().expect("recording");
        assert_eq!(r.chiplet_histograms().len(), 4);
        assert_eq!(r.chiplet_histograms()[3][Stage::Fill.index()].count(), 1);
        assert_eq!(r.chiplet_histograms()[0][Stage::Fill.index()].count(), 0);
    }
}
