//! Metric catalogue and the one-line JSON result.
//!
//! The catalogue is the single list of metric names, units and better
//! directions; `BENCHMARK.json` must list the same (a test checks it).

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `(name, unit, better)` of each end-to-end metric, measured with tracing off.
pub const END_TO_END: [(&str, &str, Better); 8] = [
    ("jobs_per_s", "1/s", Better::Higher),
    ("job_p50_ms", "ms", Better::Lower),
    ("job_p90_ms", "ms", Better::Lower),
    ("cpu_ms_per_job", "ms", Better::Lower),
    ("ok_frac", "frac", Better::Higher),
    ("sim_s_per_job", "s", Better::Lower),
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mb", "MiB", Better::Lower),
];

/// `(name, unit, better)` of each per-layer metric, from the traced pass.
pub const PER_LAYER: [(&str, &str, Better); 30] = [
    ("phantom.build_ms", "ms", Better::Lower),
    ("cache.key_ms", "ms", Better::Lower),
    ("cache.key_ns_per_byte", "ns/B", Better::Lower),
    ("cache.hit_frac", "frac", Better::Higher),
    ("cache.disk_hit_frac", "frac", Better::Higher),
    ("cache.disk_put_ms", "ms", Better::Lower),
    ("cache.disk_get_ms", "ms", Better::Lower),
    ("mcmc.loop_cached_us", "us", Better::Lower),
    ("mcmc.loop_plain_us", "us", Better::Lower),
    ("estimation.wall_s", "s", Better::Lower),
    ("estimation.us_per_voxel_loop", "us", Better::Lower),
    ("estimation.sim_s", "s", Better::Lower),
    ("estimation.runs_per_key", "ratio", Better::Lower),
    ("gpu_sim.launches_per_job", "count", Better::Lower),
    ("gpu_sim.wavefront_util", "frac", Better::Higher),
    ("tracking.ns_per_lane_step", "ns", Better::Lower),
    ("tracking.lane_steps_per_job", "count", Better::Lower),
    ("tracking.sim_s", "s", Better::Lower),
    ("tracking.core_busy_frac", "frac", Better::Higher),
    ("batch.occupancy", "jobs", Better::Higher),
    ("batch.merge_overhead_frac", "frac", Better::Lower),
    ("service.unattributed_frac", "frac", Better::Lower),
    ("journal.record_us", "us", Better::Lower),
    ("journal.records_per_job", "count", Better::Lower),
    ("checkpoint.save_ms", "ms", Better::Lower),
    ("proto.codec_us_per_kib", "us/KiB", Better::Lower),
    ("proto.frames_per_job", "count", Better::Lower),
    ("socket.rtt_us", "us", Better::Lower),
    ("fleet.route_ns", "ns", Better::Lower),
    ("trace.overhead_frac", "frac", Better::Lower),
];

/// One run's result: the verdict, the job counts and every metric of one
/// catalogue.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every checked output matched its solo reference.
    pub correct: bool,
    /// Jobs submitted.
    pub attempted: usize,
    /// Jobs that failed, were shed, or produced a mismatching output.
    pub failed: usize,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Build a report over `catalogue`, taking each value from `values`.
    /// Panics if a catalogue metric has no value or a value names no
    /// catalogue metric: the printed names must equal the catalogue's.
    pub fn new(
        catalogue: &[(&'static str, &'static str, Better)],
        mut values: BTreeMap<&'static str, f64>,
        correct: bool,
        attempted: usize,
        failed: usize,
    ) -> Report {
        let metrics = catalogue
            .iter()
            .map(|&(name, unit, _)| {
                let v = values
                    .remove(name)
                    .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
                (name, v, unit)
            })
            .collect();
        assert!(
            values.is_empty(),
            "metrics outside the catalogue: {values:?}"
        );
        Report {
            correct,
            attempted: attempted.max(1),
            failed,
            metrics,
        }
    }

    /// The single JSON line the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // `{:?}` prints the shortest exact round-trip form; JSON has
                // no NaN or infinity, so those become 0 (never expected).
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_trace::json::{parse, Json};

    fn bench_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        match doc.get(key) {
            Some(Json::Array(items)) => items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no `{key}` list"),
        }
    }

    fn catalogue(c: &[(&str, &str, Better)]) -> Vec<(String, String, String)> {
        c.iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
            .collect()
    }

    fn full(c: &[(&'static str, &'static str, Better)]) -> Report {
        let values = c.iter().map(|(n, _, _)| (*n, 1.5)).collect();
        Report::new(c, values, true, 3, 0)
    }

    fn printed_names(report: &Report) -> Vec<String> {
        let doc = parse(&report.to_json()).expect("report line is JSON");
        match doc.get("metrics") {
            Some(Json::Object(m)) => m.keys().cloned().collect(),
            _ => panic!("no metrics object"),
        }
    }

    #[test]
    fn printed_metric_names_equal_benchmark_json() {
        let doc = bench_json();
        assert_eq!(listed(&doc, "end_to_end"), catalogue(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), catalogue(&PER_LAYER));
        let mut e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        e2e.sort();
        assert_eq!(printed_names(&full(&END_TO_END)), e2e);
        let mut layers: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        layers.sort();
        assert_eq!(printed_names(&full(&PER_LAYER)), layers);
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = bench_json();
        let names: Vec<String> = match doc.get("workloads") {
            Some(Json::Array(items)) => items
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string()
                })
                .collect(),
            _ => panic!("no workloads"),
        };
        let ours: Vec<String> = crate::schedule::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn report_line_carries_counts_and_units() {
        let doc = parse(&full(&END_TO_END).to_json()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(3.0));
        let unit = doc
            .get("metrics")
            .and_then(|m| m.get("jobs_per_s"))
            .and_then(|m| m.get("unit"))
            .and_then(Json::as_str);
        assert_eq!(unit, Some("1/s"));
    }
}
