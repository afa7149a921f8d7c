//! The metric declarations (one table, mirrored by `/BENCHMARK.json`),
//! the order statistics every reported timing goes through, and the
//! result line a run prints last.

use eraser::netlist::json::{self, JsonValue};

/// Bumped whenever a metric's definition, a workload's inputs or the
/// results-file layout changes; `compare` refuses files that differ.
pub const VERSION: u64 = 1;

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before a change counts as a
/// regression; per-layer metrics carry none.
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        higher_is_better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// them from the untraced run (README "End-to-end metrics" defines each
/// per workload kind).
pub const END_TO_END: &[MetricDecl] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("campaign_wall_s", "s", false, 0.2),
    e2e("fault_steps_per_s", "1/s", true, 0.2),
    e2e("campaigns_per_s", "1/s", true, 0.2),
    e2e("turnaround_p50_s", "s", false, 0.2),
    e2e("turnaround_p90_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

/// Single-layer metrics, from the traced run. A metric whose layer the
/// workload does not exercise (service metrics on an engine workload, a
/// knob probe whose spec value the product rejects) reads 0.
pub const PER_LAYER: &[MetricDecl] = &[
    // Intake -> setup_s everywhere, first-time share of turnaround_p90_s.
    lower("frontend.compile_s", "s"),
    higher("frontend.bytes_per_s", "B/s"),
    lower("netlist.import_s", "s"),
    lower("netlist.json_parse_s", "s"),
    lower("fault.generate_s", "s"),
    lower("fault.universe", "count"),
    lower("designs.stimulus_s", "s"),
    lower("designs.stimulus_steps", "count"),
    // Program compile and static collapse -> campaign_wall_s on
    // gate_batch and twodim_ckpt.
    lower("ir.tape_compile_s", "s"),
    lower("ir.batch_compile_s", "s"),
    lower("fault.collapse_s", "s"),
    higher("fault.collapse_ratio", "ratio"),
    // Good run -> campaign_wall_s on twodim_ckpt.
    lower("sim.good_run_s", "s"),
    higher("sim.good_steps_per_s", "1/s"),
    lower("sim.deltas", "count"),
    lower("core.good_run_s", "s"),
    lower("core.good_run_checkpoints", "count"),
    lower("sim.probe_overhead", "ratio"),
    lower("sim.snapshot_ns", "ns"),
    // Fault phase -> campaign_wall_s on beh_heavy.
    lower("core.fault_phase_s", "s"),
    lower("core.ns_per_fault_step", "ns"),
    lower("core.behavioral_s", "s"),
    lower("core.behavioral_share", "ratio"),
    lower("core.opportunities", "count"),
    higher("core.explicit_skipped", "count"),
    higher("core.implicit_skipped", "count"),
    lower("core.fault_executions", "count"),
    higher("core.elimination_ratio", "ratio"),
    // RTL evaluation -> campaign_wall_s on rtl_heavy and gate_batch.
    lower("core.rtl_good_evals", "count"),
    lower("core.rtl_fault_evals", "count"),
    lower("core.deltas", "count"),
    higher("core.dropped_faults", "count"),
    higher("ir.tape_speedup", "ratio"),
    // Bit-parallel batching -> campaign_wall_s on gate_batch only.
    higher("ir.batch_lane_occupancy", "ratio"),
    lower("ir.batch_groups", "count"),
    lower("ir.batch_scalar_fallbacks", "count"),
    higher("ir.batch_speedup", "ratio"),
    lower("logic.plane_transpose_ns", "ns"),
    // Four-state word arithmetic -> rtl_heavy first, beh_heavy second.
    lower("logic.word_op_ns", "ns"),
    lower("logic.wide_op_ns", "ns"),
    // Two-dimensional schedule -> campaign_wall_s on twodim_ckpt.
    lower("core.window_groups", "count"),
    higher("core.skipped_prefix_steps", "count"),
    higher("core.skipped_faults", "count"),
    lower("core.compute_s", "s"),
    higher("core.parallel_speedup", "ratio"),
    lower("core.ckpt_slowdown", "ratio"),
    // Reproduction fidelity (paper Fig. 6 / Fig. 7); no end-to-end metric
    // depends on these.
    lower("core.mode_none_s", "s"),
    lower("core.mode_explicit_s", "s"),
    higher("core.implicit_speedup", "ratio"),
    lower("baselines.ifsim_s", "s"),
    lower("baselines.cfsim_s", "s"),
    higher("core.speedup_vs_ifsim", "ratio"),
    higher("core.speedup_vs_cfsim", "ratio"),
    // Service request path -> turnaround_p50_s; queue wait -> p90.
    lower("service.http.post_s", "s"),
    lower("service.http.status_s", "s"),
    lower("service.http.result_s", "s"),
    lower("service.http.list_s", "s"),
    lower("service.queue_wait_s", "s"),
    lower("service.run_s", "s"),
    lower("core.spec.parse_s", "s"),
    lower("service.record.encode_s", "s"),
    lower("service.record.decode_s", "s"),
    // Service caches and admission -> campaigns_per_s.
    higher("service.cache_hit_ratio", "ratio"),
    higher("service.good_run_steps_saved", "count"),
    lower("service.rejected_503", "count"),
    lower("service.failed", "count"),
    // Result store -> service.restart_replay_s, tail of turnaround_p90_s.
    lower("service.store.put_s", "s"),
    lower("service.store.get_s", "s"),
    lower("service.store.journal_open_s", "s"),
    lower("service.store.journal_bytes", "B"),
    lower("service.restart_replay_s", "s"),
    // Traced wall over untraced wall of the same pass, same process.
    lower("trace_overhead", "ratio"),
];

/// The metrics of one run, by declared name.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records `value` under a declared name, once.
    ///
    /// # Panics
    ///
    /// On an undeclared or repeated name: both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let decl = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        assert!(
            self.get(name).is_none(),
            "metric `{name}` reported more than once"
        );
        self.values.push((decl.name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `decls`, in
    /// declaration order. An end-to-end metric must have been set; a
    /// per-layer metric the workload does not exercise reads 0.
    pub fn to_json(&self, decls: &[MetricDecl]) -> JsonValue {
        JsonValue::Obj(
            decls
                .iter()
                .map(|d| {
                    let value = match (self.get(d.name), d.bound) {
                        (Some(v), _) => v,
                        (None, None) => 0.0,
                        (None, Some(_)) => panic!("end-to-end metric `{}` not measured", d.name),
                    };
                    assert!(value.is_finite(), "metric `{}` is not finite", d.name);
                    (
                        d.name.to_string(),
                        JsonValue::Obj(vec![
                            ("value".into(), JsonValue::Num(value)),
                            ("unit".into(), JsonValue::str(d.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The last line of a run's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: JsonValue) -> String {
    json::to_string(&JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::num(attempted)),
        ("failed".into(), JsonValue::num(failed)),
        ("metrics".into(), metrics),
    ]))
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q` quantile by linear interpolation between closest ranks.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) computes them; both equal the sample when there
/// is only one.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        // statistics.quantiles: j = i*(n+1)//4 clamped to [1, n-1],
        // delta = i*(n+1) - j*4, result = (v[j-1]*(4-delta) + v[j]*delta)/4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    }

    #[test]
    fn declared_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
