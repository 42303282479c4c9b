//! The metric registry, summary statistics, failure accounting, and the
//! result line the benchmark prints last.

use crate::host::json_string;

/// Every end-to-end metric, `(name, unit)`, emitted by every workload with
/// `--trace 0`. `BENCHMARK.json` declares the same list.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("first_frame_ms", "ms"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, `(name, unit)`, emitted by the traced run
/// (`--trace 1`). `BENCHMARK.json` declares the same list.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("workloads.gen_benchmark_ns_per_op", "ns/op"),
    ("workloads.gen_scenario_ns_per_op", "ns/op"),
    ("workloads.materialize_ns_per_op", "ns/op"),
    ("workloads.spill_ns_per_op", "ns/op"),
    ("workloads.replay_resident_ns_per_op", "ns/op"),
    ("workloads.replay_spilled_ns_per_op", "ns/op"),
    ("workloads.stream_dedup_x", "x"),
    ("predictors.branch_update_ns", "ns"),
    ("predictors.mispredict_frac", "frac"),
    ("cache.dprobe.parallel_ns", "ns"),
    ("cache.dprobe.sequential_ns", "ns"),
    ("cache.dprobe.waypred-pc_ns", "ns"),
    ("cache.dprobe.waypred-xor_ns", "ns"),
    ("cache.dprobe.seldm-parallel_ns", "ns"),
    ("cache.dprobe.seldm-waypred_ns", "ns"),
    ("cache.dprobe.seldm-sequential_ns", "ns"),
    ("cache.dprobe.perfect-waypred_ns", "ns"),
    ("cache.dprobe_lane_w1_ns", "ns"),
    ("cache.dprobe_lane_w2_ns", "ns"),
    ("cache.dprobe_lane_w4_ns", "ns"),
    ("cache.dprobe_lane_w8_ns", "ns"),
    ("cache.ifetch.parallel_ns", "ns"),
    ("cache.ifetch.waypred_ns", "ns"),
    ("cache.waypred_first_hit_frac", "frac"),
    ("cache.d_miss_frac", "frac"),
    ("mem.l2_ns", "ns"),
    ("mem.l2_miss_frac", "frac"),
    ("cpu.scalar_ns_per_op", "ns/op"),
    ("cpu.lane_ns_per_op_lane.w2", "ns"),
    ("cpu.lane_ns_per_op_lane.w4", "ns"),
    ("cpu.lane_ns_per_op_lane.w8", "ns"),
    ("cpu.branch_per_op", "1/op"),
    ("cpu.mem_per_op", "1/op"),
    ("cpu.fetch_per_op", "1/op"),
    ("cpu.l2_per_op", "1/op"),
    ("cpu.sched_residual_ns_per_op", "ns/op"),
    ("experiments.process_s", "s"),
    ("experiments.engine_s", "s"),
    ("experiments.table4_s", "s"),
    ("experiments.render_s", "s"),
    ("experiments.process_residual_s", "s"),
    ("experiments.streaming_s", "s"),
    ("experiments.matrix_load_us", "us"),
    ("experiments.matrix_store_us", "us"),
    ("experiments.lane_fill_frac", "frac"),
    ("serve.parse_request_us", "us"),
    ("serve.render_ok_us", "us"),
    ("serve.render_frame_us", "us"),
    ("serve.matrix_load_us", "us"),
    ("serve.roundtrip_p50_us", "us"),
    ("serve.roundtrip_p99_us", "us"),
    ("serve.roundtrip_residual_us", "us"),
    ("serve.shed", "count"),
    ("serve.coalesced", "count"),
    ("fidelity.table4_err_pp", "pp"),
    ("fidelity.table5_err_pp", "pp"),
    ("fidelity.table4_cells", "count"),
    ("fidelity.table5_cells", "count"),
];

/// Looks up the unit of a registered metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric `{name}` is not registered"))
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank percentile `p` (0 < p <= 100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one attempted operation that failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            eprintln!("ledger: FAILED: {message}");
            self.failures.push(message);
        }
    }
}

/// A measured metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Self {
        Self { name, value }
    }
}

/// Keeps the finite metrics of `metrics` and counts a failure for each
/// metric of `registry` that is then missing, so a run whose phase failed
/// still prints its result line, with `"correct":false`.
pub fn complete(
    metrics: Vec<Metric>,
    registry: &[(&str, &str)],
    outcome: &mut Outcome,
) -> Vec<Metric> {
    let kept: Vec<Metric> = metrics
        .into_iter()
        .filter(|m| m.value.is_finite())
        .collect();
    for (name, _) in registry {
        if !kept.iter().any(|m| m.name == *name) {
            outcome.check(false, || format!("no value for `{name}`"));
        }
    }
    kept
}

/// `{"name":{"value":v,"unit":"u"},...}` with every digit of each value.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(m.name),
                m.value,
                json_string(unit_of(m.name))
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line: the last line the benchmark prints.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn result_line_carries_every_digit_and_unit() {
        let mut outcome = Outcome::default();
        outcome.check(true, String::new);
        let line = result_line(&outcome, &[Metric::new("cold_s", 0.123456789012)]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\
             \"metrics\":{\"cold_s\":{\"value\":0.123456789012,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn missing_and_non_finite_metrics_fail_the_run() {
        let mut outcome = Outcome::default();
        let kept = complete(
            vec![Metric::new("setup_s", 0.5), Metric::new("cold_s", f64::NAN)],
            &END_TO_END[..2],
            &mut outcome,
        );
        assert_eq!(kept, vec![Metric::new("setup_s", 0.5)]);
        assert_eq!((outcome.attempted, outcome.failed), (1, 1));
        assert!(result_line(&outcome, &kept).starts_with("{\"correct\":false,"));
    }

    #[test]
    fn registered_names_are_unique_and_legal() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
