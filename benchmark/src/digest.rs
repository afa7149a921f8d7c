//! The correctness check: an FNV-1a digest over a campaign's full
//! detection records, and the committed reference digests for seed 1.

use eraser::fault::{CoverageReport, FaultId};
use eraser::netlist::json::{self, JsonValue};

const GOLDEN_TEXT: &str = include_str!("../golden.json");

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a: folds `bytes` into `hash`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the universe size and every `(fault, step, output)`
/// detection record in fault order — equal digests mean equal detected
/// sets *and* equal first-detection steps and outputs.
pub fn coverage_digest(coverage: &CoverageReport) -> u64 {
    let word = |hash: u64, w: usize| fnv1a(hash, &(w as u64).to_le_bytes());
    let mut hash = word(FNV_OFFSET, coverage.total());
    for i in 0..coverage.total() {
        if let Some(d) = coverage.detection(FaultId(i as u32)) {
            hash = word(word(word(hash, i), d.step), d.output.index());
        }
    }
    hash
}

/// The committed digests: valid for one seed and one set of sizes.
pub struct Golden {
    seed: u64,
    sizes: String,
    digests: Vec<(String, u64)>,
}

impl Golden {
    /// Parses the committed `golden.json`.
    ///
    /// # Panics
    ///
    /// On a malformed file: it is compiled in, so that is a build defect.
    pub fn committed() -> Golden {
        let v = json::parse(GOLDEN_TEXT).expect("golden.json is valid JSON");
        let digests = v
            .get("digests")
            .and_then(JsonValue::as_obj)
            .expect("golden.json has a `digests` object")
            .iter()
            .map(|(k, d)| {
                let hex = d.as_str().expect("golden digests are hex strings");
                (
                    k.clone(),
                    u64::from_str_radix(hex, 16).expect("golden digests are hex"),
                )
            })
            .collect();
        Golden {
            seed: v
                .get("seed")
                .and_then(JsonValue::as_u64)
                .expect("golden.json has a seed"),
            sizes: v
                .get("sizes")
                .and_then(JsonValue::as_str)
                .expect("golden.json has a sizes fingerprint")
                .to_string(),
            digests,
        }
    }

    /// The reference digest of `key`, if the file was recorded for this
    /// seed and these sizes.
    pub fn lookup(&self, seed: u64, sizes: &str, key: &str) -> Option<u64> {
        (self.seed == seed && self.sizes == sizes)
            .then(|| self.digests.iter().find(|(k, _)| k == key).map(|(_, d)| *d))
            .flatten()
    }
}

/// Establishes the reference digest of each campaign of a run, outside
/// every timed section: the digest of one run under the workload's own
/// configuration, which must equal the committed one (seed 1, same sizes)
/// or else detect the same set as the serial IFsim baseline.
pub struct Verifier {
    golden: Golden,
    seed: u64,
    sizes: String,
    /// Ignore `golden.json` and always cross-check against IFsim.
    always_cross_check: bool,
    /// False once any campaign failed its check.
    pub correct: bool,
    /// Whether any campaign was cross-checked against IFsim.
    pub cross_checked: bool,
    /// `(golden key, reference digest)` of every campaign seen.
    pub references: Vec<(String, u64)>,
}

impl Verifier {
    pub fn new(seed: u64, sizes: &str, always_cross_check: bool) -> Verifier {
        Verifier {
            golden: Golden::committed(),
            seed,
            sizes: sizes.to_string(),
            always_cross_check,
            correct: true,
            cross_checked: false,
            references: Vec::new(),
        }
    }

    /// The reference for the campaign `key` whose own configuration gave
    /// `own`; `baseline` runs IFsim on the same inputs when needed.
    pub fn reference(
        &mut self,
        key: String,
        own: &CoverageReport,
        baseline: impl FnOnce() -> Result<CoverageReport, String>,
    ) -> Result<u64, String> {
        let mut reference = coverage_digest(own);
        let committed = (!self.always_cross_check)
            .then(|| self.golden.lookup(self.seed, &self.sizes, &key))
            .flatten();
        match committed {
            Some(g) if g == reference => {}
            Some(g) => {
                eprintln!("FAILED {key}: digest {reference:016x}, committed {g:016x}");
                self.correct = false;
                reference = g;
            }
            None => {
                let baseline = baseline()?;
                self.cross_checked = true;
                if !baseline.same_detected_set(own) {
                    eprintln!(
                        "FAILED {key}: detected set differs from IFsim ({} vs {})",
                        own.detected(),
                        baseline.detected()
                    );
                    self.correct = false;
                }
            }
        }
        self.references.push((key, reference));
        Ok(reference)
    }
}

/// Renders a `golden.json` from freshly verified digests.
pub fn render_golden(seed: u64, sizes: &str, digests: &[(String, u64)]) -> String {
    let mut text = json::to_string_pretty(&JsonValue::Obj(vec![
        ("seed".into(), JsonValue::num(seed)),
        ("sizes".into(), JsonValue::str(sizes)),
        (
            "digests".into(),
            JsonValue::Obj(
                digests
                    .iter()
                    .map(|(k, d)| (k.clone(), JsonValue::str(format!("{d:016x}"))))
                    .collect(),
            ),
        ),
    ]));
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use eraser::fault::Detection;
    use eraser::ir::SignalId;

    fn report() -> CoverageReport {
        let mut c = CoverageReport::new(8);
        c.record(
            FaultId(1),
            Detection {
                step: 4,
                output: SignalId(2),
            },
        );
        c.record(
            FaultId(6),
            Detection {
                step: 9,
                output: SignalId(3),
            },
        );
        c
    }

    #[test]
    fn a_flipped_detection_record_changes_the_digest() {
        let reference = coverage_digest(&report());
        assert_eq!(reference, coverage_digest(&report()));
        // Same detected set, one step later: set equality alone would miss it.
        let mut later = CoverageReport::new(8);
        later.record(
            FaultId(1),
            Detection {
                step: 5,
                output: SignalId(2),
            },
        );
        later.record(
            FaultId(6),
            Detection {
                step: 9,
                output: SignalId(3),
            },
        );
        assert_ne!(reference, coverage_digest(&later));
        // Same step, other output.
        let mut other = CoverageReport::new(8);
        other.record(
            FaultId(1),
            Detection {
                step: 4,
                output: SignalId(3),
            },
        );
        other.record(
            FaultId(6),
            Detection {
                step: 9,
                output: SignalId(3),
            },
        );
        assert_ne!(reference, coverage_digest(&other));
        // One detection dropped, and a different universe size.
        let mut fewer = CoverageReport::new(8);
        fewer.record(
            FaultId(1),
            Detection {
                step: 4,
                output: SignalId(2),
            },
        );
        assert_ne!(reference, coverage_digest(&fewer));
        assert_ne!(
            coverage_digest(&CoverageReport::new(8)),
            coverage_digest(&CoverageReport::new(9))
        );
    }

    #[test]
    fn golden_applies_only_to_its_seed_and_sizes() {
        let text = render_golden(1, "abc", &[("w/d".into(), 0x1234)]);
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(1));
        let g = Golden {
            seed: 1,
            sizes: "abc".into(),
            digests: vec![("w/d".into(), 0x1234)],
        };
        assert_eq!(g.lookup(1, "abc", "w/d"), Some(0x1234));
        assert_eq!(g.lookup(2, "abc", "w/d"), None);
        assert_eq!(g.lookup(1, "abd", "w/d"), None);
        assert_eq!(g.lookup(1, "abc", "w/e"), None);
    }
}
