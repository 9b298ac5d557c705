//! Metric names, units and the run's output record.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run prints every [`END_TO_END`] metric,
//! a traced run every [`PER_LAYER`] metric, each with its unit. A layer a
//! workload does not exercise reports 0 for its per-layer metrics (it did
//! no work); every end-to-end metric is measured on every workload.

use crate::Options;
use std::collections::BTreeMap;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("solve_s", "s"),
    ("batch_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p99", "ms"),
    ("max_rate_rps", "1/s"),
    ("chordal_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("storage.load_s", "s"),
    ("storage.validate_s", "s"),
    ("storage.bytes_read", "bytes"),
    ("alg1.extract_s", "s"),
    ("alg1.iterations", "count"),
    ("alg1.queue_entries", "count"),
    ("alg1.tail_entries", "count"),
    ("alg1.edges_per_entry", "ratio"),
    ("pool.regions", "count"),
    ("pool.steals", "count"),
    ("pool.tickets_dropped", "count"),
    ("repair.s", "s"),
    ("repair.examined", "count"),
    ("repair.added", "count"),
    ("repair.accept_ratio", "ratio"),
    ("io.write_s", "s"),
    ("io.bytes_written", "bytes"),
    ("serve.extract_ms.p50", "ms"),
    ("serve.wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.unattributed_ms.p50", "ms"),
    ("serve.payload_bytes", "bytes"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.overloads", "count"),
    ("serve.deadline_expired", "count"),
    ("gen.late_ms.p99", "ms"),
    ("gen.backlog_growing", "count"),
    ("session.fanout_graphs", "count"),
    ("session.intra_graphs", "count"),
    ("session.rebalanced", "count"),
    ("session.ewma_ns_per_edge", "ns"),
    ("verify.chordal_s", "s"),
    ("verify.maximality_violations", "count"),
    ("baseline.dearing_s", "s"),
    ("baseline.alg1_serial_s", "s"),
    ("alg1.speedup_vs_serial", "ratio"),
    ("alg1_repair.vs_dearing", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.phase_sum_ratio", "ratio"),
    ("latency.samples", "count"),
    ("latency.tail_pct", "pct"),
    ("error_rate", "ratio"),
    ("baseline.dearing_edges", "count"),
    ("baseline.alg1_serial_edges", "count"),
    ("baseline.alg1_serial_iterations", "count"),
    ("output.edges", "count"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (solves, requests, batches) attempted.
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Provenance and input description (key, JSON value), printed as
    /// one JSON record.
    pub record: Vec<(&'static str, String)>,
    /// One line per failed check (the first few are printed).
    pub failures: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one failed operation with the reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.failures.push(reason);
    }

    /// Adds a string provenance field.
    pub fn note(&mut self, key: &'static str, value: &str) {
        self.record.push((key, format!("\"{}\"", escape(value))));
    }

    /// Adds a numeric provenance field.
    pub fn note_num(&mut self, key: &'static str, value: impl Into<f64>) {
        let value: f64 = value.into();
        self.record.push((key, format!("{value}")));
    }

    /// Whether every attempted operation succeeded and passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Adds the host, pool and build provenance every record carries.
    pub fn provenance(&mut self, options: &Options) {
        self.note("workload", options.workload.name());
        self.record.push(("seed", options.seed.to_string()));
        self.note_num("trace", u8::from(options.trace));
        self.note_num("host_cpus", chordal_runtime::available_threads() as f64);
        self.note_num("pool_threads", chordal_runtime::pool_size() as f64);
        self.note("git_rev", &crate::git_rev());
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("error_rate", error_rate);
        self.set("peak_rss_mb", crate::peak_rss_mb());
    }

    /// End-to-end metrics this report lacks (empty for a complete run).
    pub fn missing_end_to_end(&self) -> Vec<&'static str> {
        END_TO_END
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !self.metrics.contains_key(name))
            .collect()
    }

    /// The provenance record as one JSON line.
    pub fn record_line(&self) -> String {
        let mut fields: Vec<String> = vec!["\"record\":\"perfbench\"".to_string()];
        for (key, value) in &self.record {
            fields.push(format!("\"{key}\":{value}"));
        }
        let failures: Vec<String> = self
            .failures
            .iter()
            .take(8)
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        fields.push(format!("\"failures\":[{}]", failures.join(",")));
        format!("{{{}}}", fields.join(","))
    }

    /// The result line: `correct`, `attempted`, `failed` and either every
    /// end-to-end metric (`trace == false`) or every per-layer metric.
    pub fn result_line(&self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                // A limit missed outright (an error reply in a latency
                // sample) reads as the largest number, never as 0.
                let value = if value.is_nan() {
                    f64::MAX
                } else {
                    value.clamp(-f64::MAX, f64::MAX)
                };
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}
