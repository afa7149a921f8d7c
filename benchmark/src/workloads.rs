//! The five workloads: which designs, how long a stimulus, which spec
//! knobs — all fixed constants, never adapted to the host — and how
//! `--seed` turns them into inputs.
//!
//! A campaign is named to the product only as spec JSON text; a knob a
//! workload does not pin is absent from that text and follows the
//! product's default.

use crate::digest::{fnv1a, FNV_OFFSET};
use eraser::fault::FaultList;

/// One design of a workload. `kind` is the spec's design-reference key
/// (`benchmark`, `fixture` or `path`).
pub struct Item {
    pub kind: &'static str,
    pub design: &'static str,
    /// Short name used in campaign ids, golden keys and reports.
    pub label: &'static str,
    /// Stimulus length in clock cycles (the spec's `steps`), ~10x the
    /// design's Table II default so fault dropping reaches steady state.
    pub cycles: usize,
    /// Cap on the generated universe (the spec's `max_faults`), set where
    /// the full universe would make one design dominate a pass. Within a
    /// workload the designs are sized well apart in cost, with a design
    /// whose cost barely depends on the fault sample in third and in fifth
    /// place, so that the median and the 90th-percentile turnaround fall
    /// inside one design's cluster at every seed and do not jump between
    /// two designs of similar cost.
    pub max_faults: Option<usize>,
    /// Whether the design's stimulus is seeded (fixtures and path
    /// designs); benchmarks carry their own fixed stimulus.
    pub seeded: bool,
    /// Added to `--seed` for seeded stimuli, so one design can appear
    /// twice in a workload with different inputs.
    pub seed_offset: u64,
}

const fn bench(
    design: &'static str,
    label: &'static str,
    cycles: usize,
    max_faults: Option<usize>,
) -> Item {
    Item {
        kind: "benchmark",
        design,
        label,
        cycles,
        max_faults,
        seeded: false,
        seed_offset: 0,
    }
}

/// A design whose spec carries a seed: fixtures and file designs (seeded
/// stimulus), and everything the service workload submits (the seed is part
/// of the service's cache identity).
pub const fn seeded(
    kind: &'static str,
    design: &'static str,
    label: &'static str,
    cycles: usize,
    seed_offset: u64,
) -> Item {
    Item {
        kind,
        design,
        label,
        cycles,
        max_faults: None,
        seeded: true,
        seed_offset,
    }
}

/// The service workload's file design, relative to the repository root.
pub const PATH_DESIGN: &str = "benchmark/designs/fifo_crc.v";

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists — which layers it puts the weight on.
    pub why: &'static str,
    /// Spec knobs the workload pins, as `(key, JSON value text)`.
    pub knobs: &'static [(&'static str, &'static str)],
    pub items: &'static [Item],
}

pub const SERVICE_MIX: &str = "service_mix";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "beh_heavy",
        why: "behavioral share 44-96%: Algorithm 1 and the behavioral interpreter do most of the work (the paper's target)",
        knobs: &[("threads", "1")],
        items: &[
            bench("FPU", "FPU", 3000, Some(96)),
            bench("ALU", "ALU", 1800, None),
            bench("SHA256_HV", "SHA256_HV", 4500, Some(72)),
            bench("PicoRV32", "PicoRV32", 12000, None),
            bench("Sodor Core", "Sodor", 12000, None),
        ],
    },
    Workload {
        name: "rtl_heavy",
        why: "behavioral share 6-44%: RTL-node evaluation, diff commit and detection dominate; a behavioral-path change should show nothing here",
        knobs: &[("threads", "1")],
        items: &[
            bench("SHA256_C2V", "SHA256_C2V", 4500, Some(104)),
            bench("MIPS CPU", "MIPS", 6000, None),
            bench("RISCV Mini", "RISCV_Mini", 12000, None),
            bench("Conv_acc", "Conv_acc", 6000, None),
            bench("APB", "APB", 16000, None),
        ],
    },
    Workload {
        name: "gate_batch",
        why: "hundreds of 1-bit cells with batch on and tape eval: per-node dispatch, BatchProgram kernels and LanePlanes transposes do the work",
        knobs: &[("threads", "1"), ("batch", "true"), ("eval", "\"tape\"")],
        items: &[
            seeded("fixture", "counter8_gate", "counter8", 4000, 0),
            seeded("fixture", "mac16_gate", "mac16_a", 5000, 0),
            seeded("fixture", "mac16_gate", "mac16_b", 3400, 1),
        ],
    },
    Workload {
        name: "twodim_ckpt",
        why: "checkpoint 64, 2 threads, collapse: one good run then many short engines resumed from snapshots, so start-up, restore and queue costs show",
        knobs: &[("checkpoint_interval", "64"), ("threads", "2"), ("collapse", "true")],
        items: &[
            bench("APB", "APB", 2400, None),
            bench("Conv_acc", "Conv_acc", 2200, None),
            bench("SHA256_HV", "SHA256_HV", 4500, Some(36)),
            bench("RISCV Mini", "RISCV_Mini", 3400, None),
            bench("MIPS CPU", "MIPS", 3000, None),
        ],
    },
    Workload {
        name: SERVICE_MIX,
        why: "HTTP service, 2 workers, 2 closed-loop clients, 1/3 first-time specs and 2/3 repeats, journal store, restart replay: writes beside reads",
        knobs: &[],
        items: &[],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `--quick` (the smoke test's sizes): a twentieth of the stimulus and a
/// small universe. Fixed constants as well.
const QUICK_DIVISOR: usize = 20;
const QUICK_MAX_FAULTS: usize = 48;

/// Spec JSON text for `item` under `knobs`, with `overrides` replacing or
/// extending the workload's own knobs (a probe's one changed knob).
pub fn spec_text(
    item: &Item,
    knobs: &[(&str, &str)],
    overrides: &[(&str, &str)],
    seed: u64,
    quick: bool,
) -> String {
    let cycles = if quick {
        (item.cycles / QUICK_DIVISOR).max(40)
    } else {
        item.cycles
    };
    let max_faults = match (quick, item.max_faults) {
        (true, m) => Some(m.map_or(QUICK_MAX_FAULTS, |m| m.min(QUICK_MAX_FAULTS))),
        (false, m) => m,
    };
    let mut fields: Vec<(String, String)> = vec![
        (
            "design".into(),
            format!("{{\"{}\": \"{}\"}}", item.kind, item.design),
        ),
        ("steps".into(), cycles.to_string()),
    ];
    if let Some(m) = max_faults {
        fields.push(("max_faults".into(), m.to_string()));
    }
    if item.seeded {
        fields.push((
            "seed".into(),
            stimulus_seed(seed + item.seed_offset).to_string(),
        ));
    }
    for (k, v) in knobs.iter().chain(overrides) {
        match fields.iter_mut().find(|(key, _)| key == k) {
            Some(field) => field.1 = v.to_string(),
            None => fields.push((k.to_string(), v.to_string())),
        }
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The spec `seed` for the benchmark's `n`-th stimulus stream. Always odd:
/// the product's clocked-random generator ORs the seed with 1, so `2k` and
/// `2k + 1` would give the same stimulus.
pub fn stimulus_seed(n: u64) -> u64 {
    2 * n + 1
}

/// A fingerprint of everything that fixes the inputs besides the seed:
/// the workload table, the quick divisor and the metric version. Golden
/// digests and results files are only comparable at equal fingerprints.
pub fn sizes_fingerprint(quick: bool) -> String {
    let mut text = format!("v{} quick={quick}", crate::metrics::VERSION);
    for w in WORKLOADS {
        text.push_str(w.name);
        for item in w.items {
            text.push_str(&spec_text(item, w.knobs, &[], 0, quick));
        }
    }
    text.push_str(&crate::service::mix_fingerprint(quick));
    format!("{:016x}", fnv1a(FNV_OFFSET, text.as_bytes()))
}

/// xorshift64*: the benchmark's only randomness, a pure function of the
/// seed and a stream label.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        let state = fnv1a(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x2545_f491_4f6c_dd1d,
            stream.as_bytes(),
        );
        Rng(state | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The seeded, order-preserving 3/4 sample of a fault universe: exactly
/// `3n/4` faults (selection sampling), so the amount of work is the same
/// at every seed and only *which* faults are simulated changes.
pub fn sample_faults(universe: &FaultList, rng: &mut Rng) -> FaultList {
    let n = universe.len();
    let mut need = n * 3 / 4;
    universe
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let take = need > 0 && rng.below((n - i) as u64) < need as u64;
            need -= usize::from(take);
            take
        })
        .map(|(_, f)| *f)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_text_applies_overrides_in_place() {
        let item = seeded("fixture", "mac16_gate", "mac16", 4000, 1);
        let text = spec_text(
            &item,
            &[("batch", "true")],
            &[("batch", "false"), ("mode", "\"none\"")],
            6,
            false,
        );
        assert_eq!(
            text,
            r#"{"design": {"fixture": "mac16_gate"}, "steps": 4000, "seed": 15, "batch": false, "mode": "none"}"#
        );
        eraser::core::CampaignSpec::from_json(&text).unwrap();
    }

    #[test]
    fn samples_are_seeded_and_exactly_three_quarters() {
        let spec = eraser::core::CampaignSpec::from_json(
            r#"{"design": {"benchmark": "APB"}, "steps": 10}"#,
        )
        .unwrap();
        let universe = eraser::service::prepare_spec(&spec).unwrap().faults;
        let a = sample_faults(&universe, &mut Rng::new(1, "x"));
        let b = sample_faults(&universe, &mut Rng::new(1, "x"));
        let c = sample_faults(&universe, &mut Rng::new(2, "x"));
        assert_eq!(a.len(), universe.len() * 3 / 4);
        assert_eq!(c.len(), a.len());
        let sites = |l: &FaultList| {
            l.iter()
                .map(|f| (f.signal, f.bit, f.stuck))
                .collect::<Vec<_>>()
        };
        assert_eq!(sites(&a), sites(&b));
        assert_ne!(sites(&a), sites(&c));
    }
}
