//! The metric catalogue (mirrored by `BENCHMARK.json`) and the result
//! record every run prints.
//!
//! Every workload prints every metric of the catalogue it runs under:
//! all end-to-end metrics with `--trace 0`, all per-layer metrics with
//! `--trace 1`. A per-layer metric that a workload's run does not time
//! (a layer it never calls, or one it cannot wrap from outside) reads 0;
//! `perfbench/README.md` lists which workload measures which metric.

use crate::host::json_str;
use std::collections::BTreeMap;

/// `(name, unit, better, bound)` of the end-to-end metrics.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
];

/// `(name, unit, better)` of the per-layer metrics.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // Set-up and the trainer's own preamble (train_seq).
    ("data.generate_ms", "ms", "lower"),
    ("graph.tcsr_build_ms", "ms", "lower"),
    ("core.static_pretrain_ms", "ms", "lower"),
    ("data.negative_store_ms", "ms", "lower"),
    // The rebuilt training loop (train_seq).
    ("core.batch.prepare_static_ms", "ms", "lower"),
    ("mem.read_ms", "ms", "lower"),
    ("mem.write_ms", "ms", "lower"),
    ("mem.rows_read", "count", "lower"),
    ("core.batch.fold_ratio", "ratio", "higher"),
    ("core.batch.complete_ms", "ms", "lower"),
    ("core.model.forward_ms", "ms", "lower"),
    ("core.model.backward_ms", "ms", "lower"),
    ("nn.attention.layer0_ms", "ms", "lower"),
    ("nn.adam.step_ms", "ms", "lower"),
    ("step.count", "count", "lower"),
    ("step.p50_ms", "ms", "lower"),
    ("step.tail_ms", "ms", "lower"),
    ("step.tail_pct", "%", "higher"),
    ("step.residual_ms", "ms", "lower"),
    ("core.eval.replay_ms", "ms", "lower"),
    ("core.eval.test_ms", "ms", "lower"),
    ("core.eval.rss_growth_mb", "MB", "lower"),
    ("core.eval.test_mrr", "ratio", "higher"),
    ("job.wall_ms", "ms", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
    // Kernel attribution on the calling thread (all workloads).
    ("tensor.matmul_ms", "ms", "lower"),
    ("tensor.gru_ms", "ms", "lower"),
    ("tensor.softmax_ms", "ms", "lower"),
    ("tensor.gather_ms", "ms", "lower"),
    // The distributed trainer's own breakdown (train_dist).
    ("dist.prep_ms", "ms", "lower"),
    ("dist.mem_wait_ms", "ms", "lower"),
    ("dist.compute_ms", "ms", "lower"),
    ("dist.allreduce_ms", "ms", "lower"),
    ("dist.residual_ms", "ms", "lower"),
    ("mem.daemon.rows_read", "count", "lower"),
    ("mem.daemon.spec_rows", "count", "lower"),
    ("mem.daemon.delta_rows", "count", "lower"),
    ("mem.daemon.payload_bytes", "bytes", "lower"),
    ("mem.daemon.stale_frac", "frac", "lower"),
    ("cluster.comm.allreduce_bytes", "bytes", "lower"),
    // The serving plane (serve_mixed).
    ("serve.query_samples", "count", "higher"),
    ("serve.query_tail_pct", "%", "higher"),
    ("serve.query_tail_ms", "ms", "lower"),
    ("serve.query_capacity_qps", "1/s", "higher"),
    ("serve.query_service_p50_ms", "ms", "lower"),
    ("serve.query_service_tail_ms", "ms", "lower"),
    ("serve.query_wait_tail_ms", "ms", "lower"),
    ("serve.ingest_visible_p50_ms", "ms", "lower"),
    ("serve.ingest_visible_tail_ms", "ms", "lower"),
    ("serve.slab_tail_pct", "%", "higher"),
    ("serve.drain_ms", "ms", "lower"),
    ("serve.drain_calls", "count", "lower"),
    ("serve.enqueue_ms", "ms", "lower"),
    ("serve.clean_frac", "frac", "higher"),
    ("serve.repaired_queries", "count", "lower"),
    ("serve.resampled_queries", "count", "lower"),
    ("serve.repaired_rows", "count", "lower"),
    ("serve.backpressure_rejections", "count", "lower"),
    ("serve.max_queue_depth", "count", "lower"),
    ("gen.late_max_ms", "ms", "lower"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (jobs, queries, slabs) plus gate checks.
    pub attempted: u64,
    /// Failed operations plus failed gate checks.
    pub failed: u64,
    /// Every metric the run measured, by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// `(gate, passed)` in the order checked.
    pub gates: Vec<(String, bool)>,
    /// Extra JSON members for the detail record (sample counts etc.).
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// Records a measured metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a correctness gate; a failed gate fails the run.
    pub fn gate(&mut self, name: &str, passed: bool) {
        self.op(passed);
        if !passed {
            eprintln!("perfbench: gate failed: {name}");
        }
        self.gates.push((name.to_string(), passed));
    }

    /// Adds a detail member (`value` is raw JSON).
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// True when every gate passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.1)
    }

    /// The detail record: stamp, gates, notes and every metric measured.
    pub fn detail_json(&self, stamp: &str) -> String {
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|(g, ok)| format!("{}:{ok}", json_str(g)))
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), num(*v)))
            .collect();
        format!(
            "{{\"record\":{{{stamp},\"gates\":{{{}}},\"notes\":{{{}}},\"measured\":{{{}}}}}}}",
            gates.join(","),
            notes.join(","),
            metrics.join(",")
        )
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// metrics of the selected catalogue, each with its unit.
    pub fn result_json(&self, trace: bool) -> String {
        let pick: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.0, m.1)).collect()
        };
        let metrics: Vec<String> = pick
            .iter()
            .map(|(name, unit)| {
                let v = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    num(v),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with every digit Rust prints (non-finite reads 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric_of_its_catalogue() {
        let mut r = Report::default();
        for (name, ..) in END_TO_END {
            r.set(name, 1.5);
        }
        r.set("mem.rows_read", 7.0);
        r.op(true);
        let line = r.result_json(false);
        for (name, unit, ..) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":1.5,\"unit\":\"{unit}\"}}")));
        }
        assert!(!line.contains("mem.rows_read"));
        let traced = r.result_json(true);
        assert!(traced.contains("\"mem.rows_read\":{\"value\":7,\"unit\":\"count\"}"));
        assert!(traced.contains("\"serve.drain_ms\":{\"value\":0,\"unit\":\"ms\"}"));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
    }

    #[test]
    fn a_failed_gate_fails_the_run() {
        let mut r = Report::default();
        r.op(true);
        r.gate("replay matches", false);
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
    }

    #[test]
    fn catalogue_names_are_unique_and_match_benchmark_json() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let compact: String = spec.split_whitespace().collect();
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\",\"bound\":{bound}}}"
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            compact.matches("\"name\":").count(),
            n + 3,
            "3 workloads + metrics"
        );
    }
}
