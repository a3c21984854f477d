//! Metric names and units (the same tables `BENCHMARK.json` lists)
//! and the result line the driver reads.

use std::collections::BTreeMap;

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics: the same names on every workload. `failed_frac`
/// is printed beside them but reported to the driver through the
/// result line's `failed` / `attempted` / `correct` keys, because the
/// driver's contract takes only metrics that are never 0.
pub const END_TO_END: &[MetricDef] = &[
    ("ops_per_s", "ops/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("sim_us_per_op", "sim_us"),
    ("index_bytes_per_key", "B"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, measured by the traced run. Every name is
/// printed on every workload; a layer the workload does not load
/// reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("bloom.hash_ns_per_key", "ns"),
    ("bloom.sweep_ns_per_key", "ns"),
    ("bloom.buckets_swept_per_key", "count"),
    ("bloom.filter_probes_per_key", "count"),
    ("bloom.insert_ns_per_key", "ns"),
    ("btree.search_le_ns_per_key", "ns"),
    ("btree.floor_cursor_hit_rate", "ratio"),
    ("btree.probe_ns_per_key", "ns"),
    ("hashindex.probe_ns_per_key", "ns"),
    ("fdtree.probe_ns_per_key", "ns"),
    ("core.probe_batch_ns_per_key", "ns"),
    ("core.probe_self_ns_per_key", "ns"),
    ("core.probe_scalar_ns_per_key", "ns"),
    ("core.range_page_ns_per_page", "ns"),
    ("core.scan_pages_per_match", "ratio"),
    ("core.false_reads_per_probe", "count"),
    ("core.index_reads_per_probe", "count"),
    ("core.data_reads_per_probe", "count"),
    ("core.insert_batch_ns_per_key", "ns"),
    ("core.leaf_fpp_after", "ratio"),
    ("core.build_s", "s"),
    ("core.index_bytes", "B"),
    ("model.predicted_reads_per_probe", "count"),
    ("model.regret_reads_per_probe", "count"),
    ("storage.heap_scan_ns_per_page", "ns"),
    ("storage.charge_cold_ns_per_read", "ns"),
    ("storage.charge_warm_ns_per_read", "ns"),
    ("storage.dev_reads_per_op", "count"),
    ("storage.dev_writes_per_op", "count"),
    ("storage.cache_hit_rate", "ratio"),
    ("storage.append_tuple_ns", "ns"),
    ("storage.file_read_ns_per_page", "ns"),
    ("storage.file_write_ns_per_page", "ns"),
    ("storage.file_sync_ns_per_barrier", "ns"),
    ("storage.file_syncs_per_write", "ratio"),
    ("storage.write_amp", "ratio"),
    ("storage.disk_bytes_per_user_byte", "ratio"),
    ("storage.retries", "count"),
    ("storage.failed_ops", "count"),
    ("bufferpool.touch_ns_per_access", "ns"),
    ("bufferpool.contention_ratio", "ratio"),
    ("bufferpool.hit_rate", "ratio"),
    ("bufferpool.misses_per_op", "count"),
    ("bufferpool.evictions_per_op", "count"),
    ("wal.append_ns_per_record", "ns"),
    ("wal.sync_ns_per_barrier", "ns"),
    ("wal.fsyncs_per_write", "ratio"),
    ("wal.bytes_per_write", "B"),
    ("wal.log_pages_per_write", "ratio"),
    ("access.durable_probe_self_ns", "ns"),
    ("access.flush_ns_per_op", "ns"),
    ("access.flushes", "count"),
    ("access.memtable_bytes_peak", "B"),
    ("access.probe_p50_us", "us"),
    ("access.insert_ack_p50_us", "us"),
    ("access.insert_ack_p99_us", "us"),
    ("access.delete_ack_p50_us", "us"),
    ("access.concurrent_self_ns_per_op", "ns"),
    ("access.cursor_self_ns_per_page", "ns"),
    ("access.recover_s", "s"),
    ("access.recover_records_per_s", "1/s"),
    ("shard.route_self_ns_per_req", "ns"),
    ("shard.range_page_self_ns", "ns"),
    ("shard.insert_route_ns", "ns"),
    ("shard.shards_touched_per_batch", "count"),
    ("shard.imbalance", "ratio"),
    ("shard.makespan_sim_us_per_op", "sim_us"),
    ("net.rtt_1client_ns_per_req", "ns"),
    ("net.codec_ns_per_req", "ns"),
    ("net.frame_ns_per_req", "ns"),
    ("net.bytes_per_req", "B"),
    ("net.dispatch_self_ns_per_req", "ns"),
    ("net.socket_self_ns_per_req", "ns"),
    ("net.wire_vs_inproc", "ratio"),
    ("net.probe_rtt_p50_us", "us"),
    ("net.probe_rtt_p99_us", "us"),
    ("net.range_rtt_p50_us", "us"),
    ("net.range_rtt_p99_us", "us"),
    ("net.insert_rtt_p50_us", "us"),
    ("net.insert_rtt_p99_us", "us"),
    ("net.errors", "count"),
    ("obs.armed_overhead_frac", "ratio"),
    ("obs.spans_per_op", "count"),
    ("bench.unattributed_frac", "ratio"),
    ("bench.timer_overhead_ns", "ns"),
    ("bench.drift_frac", "ratio"),
];

/// Metric values by name, checked against one of the tables above.
#[derive(Debug, Clone)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self {
            defs,
            values: BTreeMap::new(),
        }
    }

    /// Record `value` under `name`. Non-finite values (an empty
    /// sample's ratio) are stored as 0 so the result line stays JSON.
    ///
    /// # Panics
    /// If `name` is not in the table — a typo must not silently drop
    /// a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.defs.iter().any(|(n, _)| *n == name),
            "unknown metric `{name}`"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric of the table in table order, unset ones as 0.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.defs
            .iter()
            .map(|&(name, unit)| (name, unit, self.get(name)))
    }

    /// One `name = value unit` line per metric (what `--all` and
    /// `--check-repeat` parse back from their child processes).
    pub fn print(&self) {
        for (name, unit, value) in self.iter() {
            println!("{name} = {value:?} {unit}");
        }
    }
}

/// What a run attempted and how much of it failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Check {
    /// Operations and verification probes attempted.
    pub attempted: u64,
    /// Errors, answers that differ from the oracle, acked writes
    /// missing after verification.
    pub failed: u64,
}

impl Check {
    pub fn add(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The driver's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, every value printed
/// with all its digits.
pub fn result_line(check: Check, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed == 0,
        check.attempted.max(1),
        check.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_short_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_has_the_contract_keys_and_every_metric() {
        let mut m = Metrics::new(END_TO_END);
        m.set("ops_per_s", 1234.5678);
        m.set("setup_s", f64::NAN);
        let line = result_line(
            Check {
                attempted: 10,
                failed: 0,
            },
            &m,
        );
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"ops/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn a_misspelt_metric_name_panics() {
        Metrics::new(PER_LAYER).set("bloom.hash_ns", 1.0);
    }
}
