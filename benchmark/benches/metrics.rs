//! The metric catalogue: every name the benchmark emits, with its unit
//! and direction. `BENCHMARK.json` at the repository root must list
//! exactly these (a unit test holds the two together); the regression
//! bounds live only there.

use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, counts of waste).
    Lower,
    /// Larger is better (throughputs, useful-outcome ratios).
    Higher,
}

/// One metric: name, unit, direction.
pub type Def = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run of every workload.
/// What "operation" and "set-up" mean per workload is in README.md.
pub const END_TO_END: &[Def] = &[
    ("op_ms.p50", "ms", Lower),
    ("events_per_s", "1/s", Higher),
    ("setup_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics, reported by every traced run of every workload; a
/// layer the workload does not pass through reads 0.
pub const PER_LAYER: &[Def] = &[
    // system.runner / system.machine / system.journal
    ("runner.build_machine_ms", "ms", Lower),
    ("machine.run_ns_per_event.baseline", "ns", Lower),
    ("machine.run_ns_per_event.barre", "ns", Lower),
    ("machine.run_ns_per_event.fbarre", "ns", Lower),
    ("machine.events.baseline", "count", Lower),
    ("machine.events.barre", "count", Lower),
    ("machine.events.fbarre", "count", Lower),
    ("journal.encode_us", "us", Lower),
    ("journal.decode_us", "us", Lower),
    ("journal.digest_us", "us", Lower),
    // sim.pool
    ("pool.busy_frac", "ratio", Higher),
    // modelled components (simulated, deterministic per seed)
    ("sim_speedup.barre", "ratio", Higher),
    ("sim_speedup.fbarre", "ratio", Higher),
    ("tlb.l1_miss_rate", "ratio", Lower),
    ("tlb.l2_miss_rate", "ratio", Lower),
    ("iommu.ats_requests", "count", Lower),
    ("iommu.walks", "count", Lower),
    ("iommu.pw_queue_rejections", "count", Lower),
    ("iommu.ats_latency_p50_cycles", "cycles", Lower),
    ("iommu.ats_latency_p99_cycles", "cycles", Lower),
    ("pec.coalesced", "count", Higher),
    ("filters.lcf_true_hit_ratio", "ratio", Higher),
    ("filters.peer_probe_nack_ratio", "ratio", Lower),
    ("filters.updates_sent", "count", Lower),
    ("filters.updates_dropped", "count", Lower),
    ("mesh.bytes", "bytes", Lower),
    ("pcie.bytes", "bytes", Lower),
    // structures, host time per operation on the workload's VPN stream
    ("filters.key_hash_ns", "ns", Lower),
    ("filters.contains_hashed_ns", "ns", Lower),
    ("filters.insert_ns", "ns", Lower),
    ("filters.rcf_probe_ns", "ns", Lower),
    ("pec.for_each_candidate_ns", "ns", Lower),
    ("pec.calc_pfn_ns", "ns", Lower),
    ("tlb.lookup_ns", "ns", Lower),
    ("tlb.insert_ns", "ns", Lower),
    ("mem.page_table_walk_ns", "ns", Lower),
    ("sim.queue_push_pop_ns", "ns", Lower),
    // serve
    ("serve.server_ms_mean", "ms", Lower),
    ("serve.wire_ms_mean", "ms", Lower),
    ("serve.cache_hit_ratio", "ratio", Higher),
    ("serve.queue_max_depth", "count", Lower),
    ("serve.shed", "count", Lower),
    ("serve.child_retries", "count", Lower),
    // cli child processes (serve and worker spawn them)
    ("cli.run_child_ms", "ms", Lower),
    ("system.simulate_ms", "ms", Lower),
    ("serve.spawn_overhead_ms", "ms", Lower),
    // jobq
    ("jobq.queued_ms_p50", "ms", Lower),
    ("jobq.attempt_ms_p50", "ms", Lower),
    ("jobq.collect_lag_ms_p50", "ms", Lower),
    ("jobq.lease_expiries", "count", Lower),
    ("jobq.heartbeats_lost", "count", Lower),
    ("jobq.overhead_frac", "ratio", Lower),
    // the benchmark's own tracing
    ("trace.overhead_frac", "ratio", Lower),
];

/// Metric values of one run, keyed by name.
pub type Values = BTreeMap<&'static str, f64>;

/// `BENCHMARK.json`, compiled in so `compare` and the tests use the
/// bounds and names it lists.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The regression bound of each end-to-end metric in `BENCHMARK.json`.
pub fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let doc = barre_system::Json::parse(BENCHMARK_JSON)?;
    let list = doc
        .get("end_to_end")
        .and_then(|v| v.as_arr())
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(|v| v.as_str());
            let bound = m.get("bound").and_then(|v| v.as_f64());
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err(format!("BENCHMARK.json: malformed end_to_end entry {m:?}")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use barre_system::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|(n, u, b)| {
                let b = if *b == Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                (n.to_string(), u.to_string(), b.to_string())
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json_exactly() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(PER_LAYER));
        let b = bounds().expect("bounds");
        assert_eq!(b.len(), END_TO_END.len());
        let setup = b["setup_s"];
        assert!(b.values().all(|&v| v > 0.0 && v <= 0.25 && v <= setup));
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let valid = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
    }
}
