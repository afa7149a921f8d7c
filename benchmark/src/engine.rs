//! The four engine workloads: campaigns driven through the product's own
//! public path (`CampaignSpec::from_json` -> `prepare_spec` -> `resolve`
//! -> `run_campaign_with`), timed from outside.

use crate::calib::Calibrator;
use crate::digest::{coverage_digest, Verifier};
use crate::metrics::{median, percentile, Metrics};
use crate::trace::{self, Tracer};
use crate::workloads::{sample_faults, spec_text, Item, Rng, Workload};
use crate::{Outcome, RunOpts};
use eraser::baselines::{CfSim, IFsim};
use eraser::core::{
    collapse_plan, record_good_run, run_campaign_with, BatchProgram, CampaignConfig,
    CampaignContext, CampaignProgress, CampaignResult, CampaignSpec, FaultSimEngine,
    RedundancyStats, TapeProgram,
};
use eraser::designs::Benchmark;
use eraser::fault::{generate_faults, CoverageReport, Detection, FaultId, FaultList};
use eraser::logic::{LanePlanes, LogicVec};
use eraser::netlist::json::{self, JsonValue};
use eraser::service::{prepare_spec, PreparedCampaign};
use eraser::sim::{SimSnapshot, Simulator};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Cold rebuilds of the workload's inputs that `setup_s` is the median of.
const SETUP_REBUILDS: usize = 51;
/// Repetitions a probe's wall is the median of.
const PROBE_REPS: usize = 3;
/// The checkpoint interval of the checkpoint probes (twodim_ckpt's own).
const PROBE_CKPT: &str = "64";

/// One campaign of a workload, resolved and ready to run.
struct Campaign {
    item: &'static Item,
    text: String,
    prepared: PreparedCampaign,
    /// The seeded 3/4 sample actually simulated.
    faults: FaultList,
    config: CampaignConfig,
    /// The digest every run of this campaign must reproduce.
    reference: u64,
}

impl Campaign {
    fn fault_steps(&self) -> u64 {
        (self.faults.len() * self.prepared.stimulus.steps.len()) as u64
    }
}

/// The product's spec path, start to finish.
fn resolve_text(text: &str) -> Result<(PreparedCampaign, CampaignConfig), String> {
    let spec = CampaignSpec::from_json(text).map_err(|e| e.to_string())?;
    let prepared = prepare_spec(&spec)?;
    let config = spec.resolve();
    Ok((prepared, config))
}

/// The workload's own config with one knob changed, per campaign; `None`
/// when the product rejects the spec (the knob value no longer exists),
/// which turns the probe's metric into "absent".
fn variant_configs(
    w: &Workload,
    campaigns: &[Campaign],
    overrides: &[(&str, &str)],
    opts: &RunOpts,
) -> Option<Vec<CampaignConfig>> {
    campaigns
        .iter()
        .map(|c| {
            let text = spec_text(c.item, w.knobs, overrides, opts.seed, opts.quick);
            CampaignSpec::from_json(&text).ok().map(|s| s.resolve())
        })
        .collect()
}

/// A copy of `coverage` with one detection record moved a step later —
/// the deliberately wrong result of `--flip-one`.
fn flipped(coverage: &CoverageReport) -> CoverageReport {
    let mut out = CoverageReport::new(coverage.total());
    let mut flipped_one = false;
    for i in 0..coverage.total() {
        if let Some(mut d) = coverage.detection(FaultId(i as u32)) {
            if !flipped_one {
                d.step += 1;
                flipped_one = true;
            }
            out.record(FaultId(i as u32), d);
        }
    }
    if !flipped_one && coverage.total() > 0 {
        let output = eraser::ir::SignalId(0);
        out.record(FaultId(0), Detection { step: 0, output });
    }
    out
}

/// Operation bookkeeping: one operation is one campaign; it fails on a
/// panic or on a digest that differs from the reference.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    flip_next: bool,
}

impl Ops {
    fn check(&mut self, c: &Campaign, result: Option<&CampaignResult>) {
        self.attempted += 1;
        let digest = result.map(|r| {
            if std::mem::take(&mut self.flip_next) {
                coverage_digest(&flipped(&r.coverage))
            } else {
                coverage_digest(&r.coverage)
            }
        });
        if digest != Some(c.reference) {
            self.failed += 1;
            eprintln!(
                "FAILED {}: digest {:?}, reference {:016x}",
                c.item.label,
                digest.map(|d| format!("{d:016x}")),
                c.reference
            );
        }
    }
}

/// One campaign through `run_campaign_with` with an empty context, raw
/// wall measured around the call. `None` on a panic.
fn run_plain(c: &Campaign, config: &CampaignConfig) -> (f64, Option<CampaignResult>) {
    let design = c.prepared.source.design();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_campaign_with(
            design,
            &c.faults,
            &c.prepared.stimulus,
            config,
            &CampaignContext::default(),
        )
    }))
    .ok();
    (t0.elapsed().as_secs_f64(), result)
}

/// The same campaign taken apart: the benchmark builds the pieces
/// `run_campaign_with` would build and hands them over in the context, so
/// each piece gets its own span. Produces the same coverage.
fn run_traced(
    c: &Campaign,
    inner: &CampaignConfig,
    tracer: &Tracer,
    id: &str,
) -> (f64, Option<CampaignResult>) {
    // Raw wall; the caller scales it by the calibration factor.
    let design = c.prepared.source.design();
    let stimulus = &c.prepared.stimulus;
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let root = tracer.begin("campaign", None, id);
        let tapes = tracer.child("ir.tape_compile", root, id, || {
            TapeProgram::for_backend(design, c.config.backend)
        });
        let batch = tracer.child("ir.batch_compile", root, id, || {
            c.config
                .batch
                .enabled
                .then(|| BatchProgram::compile(design))
        });
        let plan = tracer.child("fault.collapse", root, id, || {
            collapse_plan(design, &c.faults, &c.config.collapse)
        });
        let simulated = plan.as_ref().map_or(&c.faults, |p| p.representatives());
        let good = tracer.child("core.good_run", root, id, || {
            (c.config.checkpoint.is_enabled()
                && !simulated.is_empty()
                && !stimulus.steps.is_empty())
            .then(|| record_good_run(design, simulated, stimulus, inner, tapes.as_ref()))
        });
        let mut result = tracer.child("core.fault_phase", root, id, || {
            let ctx = CampaignContext {
                tapes: tapes.as_ref(),
                batch: batch.as_ref(),
                good_run: good.as_ref(),
                progress: None,
            };
            run_campaign_with(design, simulated, stimulus, inner, &ctx)
        });
        if let Some(plan) = &plan {
            result.coverage = plan.lift_coverage(&result.coverage);
        }
        tracer.end(root);
        result
    }))
    .ok();
    (t0.elapsed().as_secs_f64(), result)
}

/// One pass over the workload's campaigns.
struct Pass {
    /// Per campaign, in reference seconds (see `calib`).
    walls: Vec<f64>,
    /// Per campaign, as the clock read.
    raw_walls: Vec<f64>,
    stats: Vec<RedundancyStats>,
}

impl Pass {
    fn wall(&self) -> f64 {
        self.walls.iter().sum()
    }
}

fn run_pass(
    campaigns: &[Campaign],
    configs: &[CampaignConfig],
    ops: &mut Ops,
    cal: &mut Calibrator,
) -> Pass {
    let mut pass = Pass {
        walls: Vec::new(),
        raw_walls: Vec::new(),
        stats: Vec::new(),
    };
    for (c, config) in campaigns.iter().zip(configs) {
        let before = cal.last();
        let (raw, result) = run_plain(c, config);
        let after = cal.sample();
        ops.check(c, result.as_ref());
        pass.walls.push(raw * Calibrator::factor(before, after));
        pass.raw_walls.push(raw);
        pass.stats.push(result.map(|r| r.stats).unwrap_or_default());
    }
    pass
}

fn sum_stats(stats: &[RedundancyStats]) -> RedundancyStats {
    let mut total = RedundancyStats::default();
    for s in stats {
        total.merge(s);
    }
    total
}

/// `PROBE_REPS` passes under one configuration: the median pass wall, the
/// median wall of each campaign, and the counters of the last pass.
struct Probe {
    wall: f64,
    by_campaign: Vec<f64>,
    stats: RedundancyStats,
}

/// Probe campaigns are checked against the reference like any other:
/// every configuration must reproduce the records.
fn probe(
    campaigns: &[Campaign],
    configs: &[CampaignConfig],
    ops: &mut Ops,
    cal: &mut Calibrator,
) -> Probe {
    cal.sample();
    let passes: Vec<Pass> = (0..PROBE_REPS)
        .map(|_| run_pass(campaigns, configs, ops, cal))
        .collect();
    let walls: Vec<f64> = passes.iter().map(Pass::wall).collect();
    Probe {
        wall: median(&walls),
        by_campaign: (0..campaigns.len())
            .map(|i| median(&passes.iter().map(|p| p.walls[i]).collect::<Vec<_>>()))
            .collect(),
        stats: sum_stats(&passes[PROBE_REPS - 1].stats),
    }
}

/// `{label: value}` over the workload's campaigns, for the side file.
fn by_design(campaigns: &[Campaign], values: impl Iterator<Item = f64>) -> JsonValue {
    JsonValue::Obj(
        campaigns
            .iter()
            .zip(values)
            .map(|(c, v)| (c.item.label.to_string(), JsonValue::Num(v)))
            .collect(),
    )
}

/// Runs one engine workload and returns its metrics.
pub fn run(w: &'static Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let sizes = crate::workloads::sizes_fingerprint(opts.quick);
    let texts: Vec<String> = w
        .items
        .iter()
        .map(|item| spec_text(item, w.knobs, &[], opts.seed, opts.quick))
        .collect();

    // Set-up: cold rebuilds of every input of the workload, through the
    // product's spec path, on one thread. The last rebuild is the one the
    // run keeps.
    let rebuilds = if opts.quick { 5 } else { SETUP_REBUILDS };
    let mut serial = Calibrator::new(1);
    let mut setup_walls = Vec::new();
    let mut built = Vec::new();
    for _ in 0..rebuilds {
        let (wall, rebuilt) = serial.time(|| {
            texts
                .iter()
                .map(|t| resolve_text(t))
                .collect::<Result<Vec<_>, _>>()
        });
        built = rebuilt?;
        setup_walls.push(wall);
    }

    // References, outside every timed section.
    let mut verifier = Verifier::new(opts.seed, &sizes, opts.verify);
    let mut campaigns: Vec<Campaign> = Vec::new();
    for ((item, text), (prepared, config)) in w.items.iter().zip(texts).zip(built) {
        let mut rng = Rng::new(opts.seed, &format!("{}/{}", w.name, item.label));
        let faults = sample_faults(&prepared.faults, &mut rng);
        let mut c = Campaign {
            item,
            text,
            prepared,
            faults,
            config,
            reference: 0,
        };
        let own = run_plain(&c, &c.config)
            .1
            .ok_or_else(|| format!("{}: reference campaign panicked", item.label))?;
        let key = format!("{}/{}", w.name, item.label);
        c.reference = verifier.reference(key, &own.coverage, || {
            let serial = spec_text(item, &[("threads", "1")], &[], opts.seed, opts.quick);
            let serial = CampaignSpec::from_json(&serial).map_err(|e| e.to_string())?;
            let design = c.prepared.source.design();
            Ok(IFsim
                .run(design, &c.faults, &c.prepared.stimulus, &serial.resolve())
                .coverage)
        })?;
        campaigns.push(c);
    }

    // Campaigns are bracketed by as many kernel threads as they use.
    let threads = campaigns
        .iter()
        .map(|c| c.config.parallel.effective_threads())
        .max()
        .unwrap_or(1);
    let mut cal = Calibrator::new(threads);
    let configs: Vec<CampaignConfig> = campaigns.iter().map(|c| c.config.clone()).collect();
    let fault_steps: u64 = campaigns.iter().map(Campaign::fault_steps).sum();
    let mut ops = Ops {
        flip_next: opts.flip_one,
        ..Ops::default()
    };
    let mut metrics = Metrics::default();
    let mut details = vec![
        ("workload".to_string(), JsonValue::str(w.name)),
        ("seed".to_string(), JsonValue::num(opts.seed)),
        ("sizes".to_string(), JsonValue::str(sizes)),
        (
            "verified_against".to_string(),
            JsonValue::str(if verifier.cross_checked {
                "IFsim"
            } else {
                "golden.json"
            }),
        ),
        (
            "campaigns".to_string(),
            JsonValue::Arr(
                campaigns
                    .iter()
                    .map(|c| {
                        JsonValue::Obj(vec![
                            ("label".into(), JsonValue::str(c.item.label)),
                            ("spec".into(), JsonValue::str(c.text.clone())),
                            ("resolved".into(), JsonValue::str(format!("{:?}", c.config))),
                            (
                                "universe".into(),
                                JsonValue::num(c.prepared.faults.len() as u64),
                            ),
                            ("faults".into(), JsonValue::num(c.faults.len() as u64)),
                            (
                                "steps".into(),
                                JsonValue::num(c.prepared.stimulus.steps.len() as u64),
                            ),
                            (
                                "digest".into(),
                                JsonValue::str(format!("{:016x}", c.reference)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];

    if !opts.trace {
        // The timed section: whole passes until the time is up.
        let t0 = Instant::now();
        let mut passes = Vec::new();
        cal.sample();
        while passes.len() < 3 || t0.elapsed().as_secs_f64() < opts.seconds {
            passes.push(run_pass(&campaigns, &configs, &mut ops, &mut cal));
        }
        let pass_walls: Vec<f64> = passes.iter().map(Pass::wall).collect();
        let turnarounds: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.walls.iter().copied())
            .collect();
        let wall = median(&pass_walls);
        metrics.set("setup_s", median(&setup_walls));
        metrics.set("campaign_wall_s", wall);
        metrics.set("fault_steps_per_s", fault_steps as f64 / wall);
        metrics.set("campaigns_per_s", campaigns.len() as f64 / wall);
        metrics.set("turnaround_p50_s", median(&turnarounds));
        metrics.set("turnaround_p90_s", percentile(&turnarounds, 0.9));
        metrics.set("peak_rss_mb", crate::host::peak_rss_mb());
        details.push((
            "campaign_wall_by_design_s".into(),
            JsonValue::Obj(
                campaigns
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let walls: Vec<f64> = passes.iter().map(|p| p.walls[i]).collect();
                        (c.item.label.to_string(), JsonValue::Num(median(&walls)))
                    })
                    .collect(),
            ),
        ));
        let raw_walls: Vec<f64> = passes.iter().map(|p| p.raw_walls.iter().sum()).collect();
        details.push((
            "raw_campaign_wall_s".into(),
            JsonValue::Num(median(&raw_walls)),
        ));
        // Every pass, raw and in reference seconds: how well the
        // calibration tracked the host during this run.
        let series =
            |walls: &[f64]| JsonValue::Arr(walls.iter().map(|w| JsonValue::Num(*w)).collect());
        details.push(("raw_pass_walls_s".into(), series(&raw_walls)));
        details.push(("pass_walls_s".into(), series(&pass_walls)));
        details.push(("passes".into(), JsonValue::num(passes.len() as u64)));
        details.push(("setup_rebuilds".into(), JsonValue::num(rebuilds as u64)));
        details.push((
            "turnaround_samples".into(),
            JsonValue::num(turnarounds.len() as u64),
        ));
        details.push(("fault_steps_per_pass".into(), JsonValue::num(fault_steps)));
    } else {
        let tracer = Tracer::new();
        traced_section(
            w,
            &campaigns,
            &configs,
            opts,
            &tracer,
            &mut ops,
            &mut cal,
            &mut serial,
            &mut metrics,
            &mut details,
        );
        let spans = tracer.spans();
        let path = crate::host::out_dir().join(format!("trace-{}.json", w.name));
        std::fs::write(&path, json::to_string(&trace::to_json(&spans)))
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    }

    details.push(("host_slowdown".into(), JsonValue::Num(cal.host_slowdown())));
    Ok(Outcome {
        correct: verifier.correct && ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        details: JsonValue::Obj(details),
        references: verifier.references,
    })
}

/// The spans of one traced campaign, by name, in seconds.
fn child_seconds(spans: &[trace::Span], root: usize, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(root) && s.name == name)
        .map(trace::Span::seconds)
        .sum()
}

const CAMPAIGN_CHILDREN: [&str; 5] = [
    "ir.tape_compile",
    "ir.batch_compile",
    "fault.collapse",
    "core.good_run",
    "core.fault_phase",
];

/// The traced run: alternating untraced and traced passes (their ratio is
/// the tracing overhead), then the per-layer probes.
#[allow(clippy::too_many_arguments)]
fn traced_section(
    w: &Workload,
    campaigns: &[Campaign],
    configs: &[CampaignConfig],
    opts: &RunOpts,
    tracer: &Tracer,
    ops: &mut Ops,
    cal: &mut Calibrator,
    serial: &mut Calibrator,
    m: &mut Metrics,
    details: &mut Vec<(String, JsonValue)>,
) {
    // Inside a collapsed campaign the product simulates the
    // representatives with collapsing off; the taken-apart campaign needs
    // that same inner configuration.
    let inner: Vec<CampaignConfig> = campaigns
        .iter()
        .zip(configs)
        .map(|(c, own)| {
            if own.collapse.enabled {
                let text = spec_text(
                    c.item,
                    w.knobs,
                    &[("collapse", "false")],
                    opts.seed,
                    opts.quick,
                );
                CampaignSpec::from_json(&text)
                    .expect("the workload's own knob parses")
                    .resolve()
            } else {
                own.clone()
            }
        })
        .collect();

    let t0 = Instant::now();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut fault_phase_walls = Vec::new();
    let mut children_shares = Vec::new();
    let mut own_stats = RedundancyStats::default();
    let mut own_pass_stats = Vec::new();
    cal.sample();
    while traced_walls.len() < 3 || t0.elapsed().as_secs_f64() < opts.seconds * 0.4 {
        let pass = run_pass(campaigns, configs, ops, cal);
        plain_walls.push(pass.wall());
        own_stats = sum_stats(&pass.stats);
        own_pass_stats = pass.stats;
        let pass_no = traced_walls.len();
        let (mut wall, mut fault_phase, mut root_s, mut children_s) = (0.0, 0.0, 0.0, 0.0);
        for (c, inner) in campaigns.iter().zip(&inner) {
            let id = format!("{}/{}#{pass_no}", w.name, c.item.label);
            let first_span = tracer.len();
            let before = cal.last();
            let (raw, result) = run_traced(c, inner, tracer, &id);
            let factor = Calibrator::factor(before, cal.sample());
            ops.check(c, result.as_ref());
            wall += raw * factor;
            let spans = tracer.spans();
            fault_phase += child_seconds(&spans, first_span, "core.fault_phase") * factor;
            root_s += spans[first_span].seconds();
            children_s += CAMPAIGN_CHILDREN
                .iter()
                .map(|n| child_seconds(&spans, first_span, n))
                .sum::<f64>();
        }
        traced_walls.push(wall);
        fault_phase_walls.push(fault_phase);
        children_shares.push(children_s / root_s);
    }
    let own_wall = median(&plain_walls);
    m.set("trace_overhead", median(&traced_walls) / own_wall);
    details.push((
        "traced_passes".into(),
        JsonValue::num(traced_walls.len() as u64),
    ));
    details.push((
        "campaign_children_share".into(),
        JsonValue::Num(median(&children_shares)),
    ));
    // Where each design's campaign goes: every child span's share of the
    // campaign span, summed over the traced passes.
    let spans = tracer.spans();
    let shares = campaigns.iter().map(|c| {
        let prefix = format!("{}/{}#", w.name, c.item.label);
        let roots: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].parent.is_none() && spans[i].campaign.starts_with(&prefix))
            .collect();
        let total: f64 = roots.iter().map(|&r| spans[r].seconds()).sum();
        JsonValue::Obj(
            CAMPAIGN_CHILDREN
                .iter()
                .map(|name| {
                    let part: f64 = roots.iter().map(|&r| child_seconds(&spans, r, name)).sum();
                    (name.to_string(), JsonValue::Num(part / total))
                })
                .collect(),
        )
    });
    details.push((
        "phase_share_by_design".into(),
        JsonValue::Obj(
            campaigns
                .iter()
                .zip(shares)
                .map(|(c, s)| (c.item.label.to_string(), s))
                .collect(),
        ),
    ));
    details.push((
        "behavioral_share_by_design".into(),
        by_design(
            campaigns,
            own_pass_stats
                .iter()
                .map(|s| s.time_behavioral.as_secs_f64() / s.time_total.as_secs_f64()),
        ),
    ));

    let fault_steps: u64 = campaigns.iter().map(Campaign::fault_steps).sum();
    let fault_phase_s = median(&fault_phase_walls);
    m.set("core.fault_phase_s", fault_phase_s);
    m.set(
        "core.ns_per_fault_step",
        fault_phase_s * 1e9 / fault_steps as f64,
    );

    // Counters of one pass under the workload's own configuration. The
    // two durations are the product's own clocks (raw seconds), so only
    // their ratio is reported as a share; `core.compute_s` is rescaled by
    // the pass's own raw-to-reference factor.
    let compute_raw = own_stats.time_total.as_secs_f64();
    let behavioral_share = own_stats.time_behavioral.as_secs_f64() / compute_raw;
    m.set("core.behavioral_share", behavioral_share);
    m.set("core.opportunities", own_stats.opportunities as f64);
    m.set("core.explicit_skipped", own_stats.explicit_skipped as f64);
    m.set("core.implicit_skipped", own_stats.implicit_skipped as f64);
    m.set("core.fault_executions", own_stats.fault_executions as f64);
    m.set(
        "core.elimination_ratio",
        own_stats.eliminated() as f64 / own_stats.opportunities.max(1) as f64,
    );
    m.set("core.rtl_good_evals", own_stats.rtl_good_evals as f64);
    m.set("core.rtl_fault_evals", own_stats.rtl_fault_evals as f64);
    m.set("core.deltas", own_stats.deltas as f64);
    m.set("core.dropped_faults", own_stats.dropped_faults as f64);

    // Compute time (summed over shard workers) against wall, measured on
    // one more pass so that both sides are raw seconds of the same run.
    let pass = run_pass(campaigns, configs, ops, cal);
    let pass_raw: f64 = pass.raw_walls.iter().sum();
    let pass_compute = sum_stats(&pass.stats).time_total.as_secs_f64();
    m.set("core.parallel_speedup", pass_compute / pass_raw);
    m.set("core.compute_s", pass_compute * pass.wall() / pass_raw);
    m.set(
        "core.behavioral_s",
        behavioral_share * pass_compute * pass.wall() / pass_raw,
    );

    let inputs: Vec<IntakeInput> = campaigns
        .iter()
        .map(|c| IntakeInput {
            kind: c.item.kind,
            design: c.item.design,
            prepared: &c.prepared,
        })
        .collect();
    intake_probes(&inputs, serial, m);
    let texts: Vec<&str> = campaigns.iter().map(|c| c.text.as_str()).collect();
    m.set(
        "core.spec.parse_s",
        timed(serial, || {
            texts
                .iter()
                .for_each(|t| drop(black_box(CampaignSpec::from_json(t))))
        })
        .0 / texts.len() as f64,
    );
    program_probes(w, campaigns, opts, serial, m);
    good_run_probes(w, campaigns, configs, opts, serial, m);
    logic_probes(serial, m);

    // Knob probes: the workload's own configuration with one knob
    // changed, both sides measured the same way.
    let mut design_ratios: Vec<(String, JsonValue)> = Vec::new();
    let mut ratio = |name: &str, top: &[(&str, &str)], bottom: &[(&str, &str)], ops: &mut Ops| {
        let a = probe(
            campaigns,
            &variant_configs(w, campaigns, top, opts)?,
            ops,
            cal,
        );
        let b = probe(
            campaigns,
            &variant_configs(w, campaigns, bottom, opts)?,
            ops,
            cal,
        );
        let per_design = a.by_campaign.iter().zip(&b.by_campaign).map(|(a, b)| a / b);
        design_ratios.push((name.to_string(), by_design(campaigns, per_design)));
        Some((a.wall / b.wall, a.stats, b.stats))
    };
    if let Some((speedup, ..)) = ratio(
        "ir.tape_speedup",
        &[("eval", "\"tree\"")],
        &[("eval", "\"tape\"")],
        ops,
    ) {
        m.set("ir.tape_speedup", speedup);
    }
    if let Some((speedup, _, on)) = ratio(
        "ir.batch_speedup",
        &[("batch", "false")],
        &[("batch", "true")],
        ops,
    ) {
        m.set("ir.batch_speedup", speedup);
        m.set("ir.batch_groups", on.batch_groups as f64);
        m.set(
            "ir.batch_scalar_fallbacks",
            on.batch_scalar_fallbacks as f64,
        );
        m.set(
            "ir.batch_lane_occupancy",
            on.batch_lanes as f64 / (on.batch_groups.max(1) * 64) as f64,
        );
    }
    let ckpt_on = [("checkpoint_interval", PROBE_CKPT), ("threads", "1")];
    if let Some((slowdown, on, _)) = ratio(
        "core.ckpt_slowdown",
        &ckpt_on,
        &[("checkpoint_interval", "0"), ("threads", "1")],
        ops,
    ) {
        m.set("core.ckpt_slowdown", slowdown);
        m.set("core.skipped_prefix_steps", on.skipped_prefix_steps as f64);
        m.set("core.skipped_faults", on.skipped_faults as f64);
    }
    if let Some(cfgs) = variant_configs(w, campaigns, &ckpt_on, opts) {
        // The window plan's size, read from the progress block the
        // scheduler announces its plan to.
        let mut groups = 0;
        for (c, cfg) in campaigns.iter().zip(&cfgs) {
            let progress = CampaignProgress::new();
            let ctx = CampaignContext {
                progress: Some(&progress),
                ..CampaignContext::default()
            };
            let result = run_campaign_with(
                c.prepared.source.design(),
                &c.faults,
                &c.prepared.stimulus,
                cfg,
                &ctx,
            );
            ops.check(c, Some(&result));
            groups += progress.snapshot().groups_total;
        }
        m.set("core.window_groups", groups as f64);
    }

    details.push(("ratios_by_design".into(), JsonValue::Obj(design_ratios)));

    // Reproduction fidelity: the ablation modes (Fig. 7) and the baseline
    // engines (Fig. 6) on the same inputs.
    for (name, mode) in [
        ("core.mode_none_s", "\"none\""),
        ("core.mode_explicit_s", "\"explicit\""),
    ] {
        if let Some(cfgs) = variant_configs(w, campaigns, &[("mode", mode)], opts) {
            m.set(name, probe(campaigns, &cfgs, ops, cal).wall);
        }
    }
    if let Some(explicit) = m.get("core.mode_explicit_s") {
        m.set("core.implicit_speedup", explicit / own_wall);
    }
    let mut baseline = |engine: &dyn FaultSimEngine, ops: &mut Ops| -> f64 {
        let mut wall = 0.0;
        for (c, cfg) in campaigns.iter().zip(configs) {
            let (s, r) = cal.time(|| {
                engine.run(
                    c.prepared.source.design(),
                    &c.faults,
                    &c.prepared.stimulus,
                    cfg,
                )
            });
            wall += s;
            ops.check(
                c,
                Some(&CampaignResult {
                    coverage: r.coverage,
                    stats: RedundancyStats::default(),
                }),
            );
        }
        wall
    };
    let cfsim_s = baseline(&CfSim, ops);
    let ifsim_s = baseline(&IFsim, ops);
    m.set("baselines.cfsim_s", cfsim_s);
    m.set("baselines.ifsim_s", ifsim_s);
    m.set("core.speedup_vs_cfsim", cfsim_s / own_wall);
    m.set("core.speedup_vs_ifsim", ifsim_s / own_wall);
}

/// Median over `PROBE_REPS` repetitions of `work`'s wall, in reference
/// seconds.
fn timed<T>(cal: &mut Calibrator, mut work: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::new();
    let mut last = None;
    cal.sample();
    for _ in 0..PROBE_REPS {
        let (wall, out) = cal.time(&mut work);
        walls.push(wall);
        last = Some(out);
    }
    (median(&walls), last.expect("PROBE_REPS is at least one"))
}

/// One design as the intake probes see it: its spec reference and what
/// `prepare_spec` made of it.
pub struct IntakeInput<'a> {
    pub kind: &'a str,
    pub design: &'a str,
    pub prepared: &'a PreparedCampaign,
}

/// The intake layers, each called directly on the workload's designs:
/// Verilog compile or netlist import, fault generation, stimulus.
pub fn intake_probes(inputs: &[IntakeInput], cal: &mut Calibrator, m: &mut Metrics) {
    let (mut compile_s, mut bytes, mut import_s, mut parse_s) = (0.0, 0usize, 0.0, 0.0);
    let (mut generate_s, mut universe, mut stimulus_s, mut steps) = (0.0, 0usize, 0.0, 0usize);
    for c in inputs {
        match c.kind {
            "benchmark" => {
                let bench = Benchmark::all()
                    .into_iter()
                    .find(|b| b.name() == c.design)
                    .expect("prepare_spec resolved the same name");
                compile_s += timed(cal, || {
                    eraser::frontend::compile(bench.source(), Some(bench.top()))
                })
                .0;
                bytes += bench.source().len();
            }
            "fixture" => {
                let text = match c.design {
                    "counter8_gate" => eraser::designs::COUNTER8_GATE_JSON,
                    _ => eraser::designs::MAC16_GATE_JSON,
                };
                import_s += timed(cal, || eraser::netlist::import_str(text, None)).0;
                parse_s += timed(cal, || json::parse(text)).0;
            }
            _ => {
                let text =
                    std::fs::read_to_string(c.design).expect("prepare_spec read the same file");
                compile_s += timed(cal, || eraser::frontend::compile(&text, None)).0;
                bytes += text.len();
            }
        }
        let source = &c.prepared.source;
        let (g, faults) = timed(cal, || {
            generate_faults(source.design(), source.fault_config())
        });
        generate_s += g;
        universe += faults.len();
        let (s, stim) = timed(cal, || source.stimulus());
        stimulus_s += s;
        steps += stim.steps.len();
    }
    m.set("frontend.compile_s", compile_s);
    if compile_s > 0.0 {
        m.set("frontend.bytes_per_s", bytes as f64 / compile_s);
    }
    m.set("netlist.import_s", import_s);
    m.set("netlist.json_parse_s", parse_s);
    m.set("fault.generate_s", generate_s);
    m.set("fault.universe", universe as f64);
    m.set("designs.stimulus_s", stimulus_s);
    m.set("designs.stimulus_steps", steps as f64);
}

/// Program compilation and static collapsing, called directly.
fn program_probes(
    w: &Workload,
    campaigns: &[Campaign],
    opts: &RunOpts,
    cal: &mut Calibrator,
    m: &mut Metrics,
) {
    let (mut tape_s, mut batch_s) = (0.0, 0.0);
    for c in campaigns {
        let design = c.prepared.source.design();
        tape_s += timed(cal, || TapeProgram::compile(design)).0;
        batch_s += timed(cal, || BatchProgram::compile(design)).0;
    }
    m.set("ir.tape_compile_s", tape_s);
    m.set("ir.batch_compile_s", batch_s);
    if let Some(cfgs) = variant_configs(w, campaigns, &[("collapse", "true")], opts) {
        let (mut collapse_s, mut classes, mut total) = (0.0, 0usize, 0usize);
        for (c, cfg) in campaigns.iter().zip(&cfgs) {
            let (s, plan) = timed(cal, || {
                collapse_plan(c.prepared.source.design(), &c.faults, &cfg.collapse)
            });
            collapse_s += s;
            if let Some(plan) = plan {
                classes += plan.num_classes();
                total += plan.total();
            }
        }
        m.set("fault.collapse_s", collapse_s);
        m.set(
            "fault.collapse_ratio",
            1.0 - classes as f64 / total.max(1) as f64,
        );
    }
}

/// The good machine alone: the plain simulator, then the instrumented
/// good run of the two-dimensional schedule, then snapshot round trips.
fn good_run_probes(
    w: &Workload,
    campaigns: &[Campaign],
    configs: &[CampaignConfig],
    opts: &RunOpts,
    cal: &mut Calibrator,
    m: &mut Metrics,
) {
    let ckpt = variant_configs(w, campaigns, &[("checkpoint_interval", PROBE_CKPT)], opts);
    let (mut plain_s, mut deltas, mut steps) = (0.0, 0u64, 0usize);
    let (mut recorded_s, mut checkpoints) = (0.0, 0usize);
    let (mut snapshot_s, mut round_trips) = (0.0, 0usize);
    for (i, (c, own)) in campaigns.iter().zip(configs).enumerate() {
        let design = c.prepared.source.design();
        let stimulus = &c.prepared.stimulus;
        let tapes = TapeProgram::for_backend(design, own.backend);
        let simulator = || match &tapes {
            Some(tp) => Simulator::with_tapes(design, tp),
            None => Simulator::with_backend(design, own.backend),
        };
        let (s, mut sim) = timed(cal, || {
            let mut sim = simulator();
            sim.run_stimulus(stimulus);
            sim
        });
        plain_s += s;
        deltas += sim.deltas();
        steps += stimulus.steps.len();
        if let Some(ckpt) = &ckpt {
            let (s, good) = timed(cal, || {
                record_good_run(design, &c.faults, stimulus, &ckpt[i], tapes.as_ref())
            });
            recorded_s += s;
            checkpoints += good.num_checkpoints();
        }
        let mut snap = SimSnapshot::new();
        const ROUND_TRIPS: usize = 200;
        snapshot_s += timed(cal, || {
            for _ in 0..ROUND_TRIPS {
                sim.capture_into(&mut snap);
                sim.restore_from(black_box(&snap));
            }
        })
        .0;
        round_trips += ROUND_TRIPS;
    }
    m.set("sim.good_run_s", plain_s);
    m.set("sim.good_steps_per_s", steps as f64 / plain_s);
    m.set("sim.deltas", deltas as f64);
    m.set("sim.snapshot_ns", snapshot_s * 1e9 / round_trips as f64);
    if ckpt.is_some() {
        m.set("core.good_run_s", recorded_s);
        m.set("core.good_run_checkpoints", checkpoints as f64);
        m.set("sim.probe_overhead", recorded_s / plain_s);
    }
}

/// Four-state word arithmetic and the 64x64 lane transpose, on fixed
/// operands: the same numbers on every workload, reported with each so a
/// traced run is self-contained.
pub fn logic_probes(cal: &mut Calibrator, m: &mut Metrics) {
    let mut op_mix_ns = |width: u32| {
        let words = width.div_ceil(64);
        let fill = |salt: u64| {
            let mut v = LogicVec::zeros(width);
            for word in 0..words {
                let bits = 64.min(width - word * 64);
                let value = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15 + u64::from(word));
                v.assign_slice(word * 64, &LogicVec::from_u64(bits, value));
            }
            v
        };
        let (mut a, b, c) = (fill(3), fill(5), fill(7));
        const ROUNDS: usize = 20_000;
        const OPS_PER_ROUND: usize = 7;
        let (wall, ()) = timed(cal, || {
            for _ in 0..ROUNDS {
                a.xor_assign(black_box(&b));
                a.add_assign(black_box(&c));
                a.and_assign(black_box(&b));
                a.or_assign(black_box(&c));
                a.sub_assign(black_box(&b));
                a.shl_assign(3);
                a.not_assign();
            }
            black_box(&a);
        });
        wall * 1e9 / (ROUNDS * OPS_PER_ROUND) as f64
    };
    m.set("logic.word_op_ns", op_mix_ns(64));
    m.set("logic.wide_op_ns", op_mix_ns(512));

    let mut planes = LanePlanes::new();
    let mut rng = Rng::new(1, "planes");
    let lanes: [u64; 64] = std::array::from_fn(|_| rng.next_u64());
    const TRANSPOSES: usize = 5_000;
    let (wall, ()) = timed(cal, || {
        for _ in 0..TRANSPOSES {
            let (mut a, mut b) = (lanes, [0u64; 64]);
            planes.load_lanes(64, black_box(&mut a), &mut b);
            planes.store_lanes(&mut a, &mut b);
            black_box(&a);
        }
    });
    m.set(
        "logic.plane_transpose_ns",
        wall * 1e9 / (TRANSPOSES * 2) as f64,
    );
}
