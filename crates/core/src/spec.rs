//! `CampaignSpec`: the one serializable campaign description.
//!
//! A [`CampaignSpec`] names the design, the stimulus, and every execution
//! knob in one serializable struct, consumed uniformly by
//! [`run_campaign`], the `eraser` CLI, and the campaign service's
//! `POST /campaigns` endpoint.
//!
//! # Precedence
//!
//! A knob field is an `Option`: `Some` is the campaign's value, `None`
//! takes the built-in default (serial, tree walker, checkpointing /
//! batching / collapsing off) when [`resolve`](CampaignSpec::resolve)d.
//! Resolution is pure — a spec determines its [`CampaignConfig`] by
//! itself, so a stored spec reproduces its campaign on any host.
//!
//! The one other configuration source, the `eraser` CLI's flags, reaches
//! a campaign by being written into the spec before it is resolved: the
//! CLI fills each field the spec file left unset from its flag. That
//! yields the documented order default < flag < explicit spec field with
//! this module knowing nothing of flags.
//!
//! # JSON
//!
//! Specs round-trip through the `eraser-netlist` JSON layer
//! ([`to_json`](CampaignSpec::to_json) /
//! [`from_json`](CampaignSpec::from_json)); unknown keys, ill-typed
//! values and out-of-range sizes ([`validate`](CampaignSpec::validate))
//! are errors naming the key, so a typo in a spec file fails
//! loudly instead of silently falling back to a default. The design
//! reference is a one-key object:
//!
//! ```json
//! {
//!   "design": { "benchmark": "APB" },
//!   "seed": 1,
//!   "steps": 400,
//!   "mode": "full",
//!   "drop_detected": true,
//!   "threads": 4,
//!   "eval": "tape",
//!   "checkpoint_interval": 8
//! }
//! ```

use crate::batch::BatchConfig;
use crate::campaign::CampaignConfig;
use crate::checkpoint::CheckpointConfig;
use crate::collapse::CollapseConfig;
use crate::parallel::ParallelConfig;
use crate::RedundancyMode;
use eraser_ir::EvalBackend;
use eraser_netlist::json::{self, JsonValue};

#[cfg(doc)]
use crate::run_campaign;

/// Which design a campaign targets. Carries only names and paths — the
/// service and CLI layers resolve a `DesignRef` into a compiled design
/// (via `eraser-designs`), keeping this crate free of frontend
/// dependencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignRef {
    /// A built-in benchmark by name (e.g. `"APB"`).
    Benchmark(String),
    /// A checked-in gate-level netlist fixture by name (e.g.
    /// `"mac16_gate"`).
    Fixture(String),
    /// A design file on disk: Verilog subset (`.v`) or Yosys JSON
    /// (`.json`).
    Path(String),
}

impl DesignRef {
    /// A stable identity string (`kind:name`), also the `Display` form.
    pub fn key(&self) -> String {
        match self {
            DesignRef::Benchmark(n) => format!("benchmark:{n}"),
            DesignRef::Fixture(n) => format!("fixture:{n}"),
            DesignRef::Path(p) => format!("path:{p}"),
        }
    }
}

impl std::fmt::Display for DesignRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.key())
    }
}

/// Longest stimulus a spec may ask for, in settle steps. The stimulus is
/// materialized before the campaign starts, and an allocation failure
/// aborts the process — a service worker's `catch_unwind` never sees it.
const MAX_STEPS: usize = 10_000_000;

/// Most worker threads a spec may ask for (each runs its own engine).
const MAX_THREADS: usize = 256;

/// A malformed campaign spec (bad JSON, unknown key, ill-typed or
/// out-of-range value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What went wrong, naming the offending key where applicable.
    pub message: String,
}

impl SpecError {
    fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid campaign spec: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// One serializable campaign description: design, stimulus, and every
/// execution knob. See the module docs of `spec.rs` for the precedence
/// rule and the JSON schema.
///
/// Knob fields are `Option`s: `None` takes the built-in default when
/// [`resolve`](Self::resolve)d; `Some` always wins.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// The design under test.
    pub design: DesignRef,
    /// Top module override for file designs.
    pub top: Option<String>,
    /// Clock signal override for file designs.
    pub clock: Option<String>,
    /// Reset signal override for file designs.
    pub reset: Option<String>,
    /// Stimulus seed for the clocked-random generator (fixtures and file
    /// designs; benchmarks carry their own stimulus).
    pub seed: u64,
    /// Stimulus length in settle steps; `None` uses the design source's
    /// default.
    pub steps: Option<usize>,
    /// Redundancy-elimination mode (the ablation axis).
    pub mode: RedundancyMode,
    /// Stop simulating a fault once detected.
    pub drop_detected: bool,
    /// Cap the generated fault universe.
    pub max_faults: Option<usize>,
    /// Worker threads (`0` = one per hardware thread). `None`: 1.
    pub threads: Option<usize>,
    /// Expression-evaluation backend. `None`: the tree walker.
    pub backend: Option<EvalBackend>,
    /// Good-state checkpoint interval (`0` disables). `None`: off.
    pub checkpoint_interval: Option<usize>,
    /// Bit-parallel fault batching. `None`: off.
    pub batch: Option<bool>,
    /// Static fault collapsing. `None`: off.
    pub collapse: Option<bool>,
}

impl CampaignSpec {
    /// A spec over `design` with every other field at its unset default:
    /// seed 1, source-default stimulus length, full redundancy
    /// elimination, fault dropping on, and every knob at its built-in
    /// default.
    pub fn new(design: DesignRef) -> Self {
        CampaignSpec {
            design,
            top: None,
            clock: None,
            reset: None,
            seed: 1,
            steps: None,
            mode: RedundancyMode::Full,
            drop_detected: true,
            max_faults: None,
            threads: None,
            backend: None,
            checkpoint_interval: None,
            batch: None,
            collapse: None,
        }
    }

    /// A spec over the built-in benchmark `name`.
    pub fn benchmark(name: impl Into<String>) -> Self {
        Self::new(DesignRef::Benchmark(name.into()))
    }

    /// A spec over the checked-in netlist fixture `name`.
    pub fn fixture(name: impl Into<String>) -> Self {
        Self::new(DesignRef::Fixture(name.into()))
    }

    /// A spec over a design file on disk.
    pub fn path(path: impl Into<String>) -> Self {
        Self::new(DesignRef::Path(path.into()))
    }

    /// Sets the top module override.
    pub fn top(mut self, top: impl Into<String>) -> Self {
        self.top = Some(top.into());
        self
    }

    /// Sets the clock signal override.
    pub fn clock(mut self, clock: impl Into<String>) -> Self {
        self.clock = Some(clock.into());
        self
    }

    /// Sets the reset signal override.
    pub fn reset(mut self, reset: impl Into<String>) -> Self {
        self.reset = Some(reset.into());
        self
    }

    /// Sets the stimulus seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the stimulus length in settle steps.
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = Some(steps);
        self
    }

    /// Sets the redundancy-elimination mode.
    pub fn mode(mut self, mode: RedundancyMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets whether detected faults stop simulating.
    pub fn drop_detected(mut self, drop: bool) -> Self {
        self.drop_detected = drop;
        self
    }

    /// Caps the generated fault universe.
    pub fn max_faults(mut self, max: usize) -> Self {
        self.max_faults = Some(max);
        self
    }

    /// Pins the worker thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Pins the expression-evaluation backend.
    pub fn backend(mut self, backend: EvalBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Pins the checkpoint interval (`0` disables checkpointing).
    pub fn checkpoint_interval(mut self, interval: usize) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Pins bit-parallel fault batching on or off.
    pub fn batch(mut self, enabled: bool) -> Self {
        self.batch = Some(enabled);
        self
    }

    /// Pins static fault collapsing on or off.
    pub fn collapse(mut self, enabled: bool) -> Self {
        self.collapse = Some(enabled);
        self
    }

    /// Resolves the execution knobs into a [`CampaignConfig`]: every
    /// `Some` field as given, every `None` field at
    /// [`CampaignConfig::default`]'s constant. Pure — no environment read
    /// (see the module docs of `spec.rs`).
    pub fn resolve(&self) -> CampaignConfig {
        let default = CampaignConfig::default();
        CampaignConfig {
            mode: self.mode,
            drop_detected: self.drop_detected,
            parallel: self
                .threads
                .map_or(default.parallel, ParallelConfig::with_threads),
            backend: self.backend.unwrap_or(default.backend),
            checkpoint: self
                .checkpoint_interval
                .map_or(default.checkpoint, CheckpointConfig::every),
            batch: self
                .batch
                .map_or(default.batch, |enabled| BatchConfig { enabled }),
            collapse: self
                .collapse
                .map_or(default.collapse, |enabled| CollapseConfig { enabled }),
        }
    }

    /// Rejects a spec whose size no host should be asked for: a stimulus
    /// allocates per step and a campaign starts one engine per thread, so
    /// `steps` is at most 10 000 000 and `threads` at most 256 — constants,
    /// not options. Called by [`from_json_value`](Self::from_json_value)
    /// and by the CLI once its flags are merged in.
    pub fn validate(&self) -> Result<(), SpecError> {
        for (key, value, max) in [
            ("steps", self.steps, MAX_STEPS),
            ("threads", self.threads, MAX_THREADS),
        ] {
            if let Some(value) = value.filter(|v| *v > max) {
                return Err(SpecError::new(format!(
                    "key `{key}`: {value} exceeds the limit of {max}"
                )));
            }
        }
        Ok(())
    }

    /// The spec as a JSON value (only set fields are emitted).
    pub fn to_json_value(&self) -> JsonValue {
        let mut obj: Vec<(String, JsonValue)> = Vec::new();
        let (dk, dv) = match &self.design {
            DesignRef::Benchmark(n) => ("benchmark", n),
            DesignRef::Fixture(n) => ("fixture", n),
            DesignRef::Path(p) => ("path", p),
        };
        obj.push((
            "design".into(),
            JsonValue::Obj(vec![(dk.into(), JsonValue::str(dv.clone()))]),
        ));
        let put_str = |obj: &mut Vec<(String, JsonValue)>, k: &str, v: &Option<String>| {
            if let Some(v) = v {
                obj.push((k.into(), JsonValue::str(v.clone())));
            }
        };
        put_str(&mut obj, "top", &self.top);
        put_str(&mut obj, "clock", &self.clock);
        put_str(&mut obj, "reset", &self.reset);
        obj.push(("seed".into(), JsonValue::num(self.seed)));
        if let Some(steps) = self.steps {
            obj.push(("steps".into(), JsonValue::num(steps as u64)));
        }
        obj.push(("mode".into(), JsonValue::str(self.mode.spec_name())));
        obj.push(("drop_detected".into(), JsonValue::Bool(self.drop_detected)));
        if let Some(m) = self.max_faults {
            obj.push(("max_faults".into(), JsonValue::num(m as u64)));
        }
        if let Some(t) = self.threads {
            obj.push(("threads".into(), JsonValue::num(t as u64)));
        }
        if let Some(b) = self.backend {
            obj.push(("eval".into(), JsonValue::str(b.to_string())));
        }
        if let Some(i) = self.checkpoint_interval {
            obj.push(("checkpoint_interval".into(), JsonValue::num(i as u64)));
        }
        if let Some(b) = self.batch {
            obj.push(("batch".into(), JsonValue::Bool(b)));
        }
        if let Some(c) = self.collapse {
            obj.push(("collapse".into(), JsonValue::Bool(c)));
        }
        JsonValue::Obj(obj)
    }

    /// The spec as compact JSON.
    pub fn to_json(&self) -> String {
        json::to_string(&self.to_json_value())
    }

    /// Parses a spec from a JSON value. Unknown keys, ill-typed values and
    /// sizes [`validate`](Self::validate) rejects are errors naming the key.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, SpecError> {
        let obj = v
            .as_obj()
            .ok_or_else(|| SpecError::new("expected a JSON object"))?;
        let design = obj
            .iter()
            .find(|(k, _)| k == "design")
            .map(|(_, v)| parse_design(v))
            .transpose()?
            .ok_or_else(|| SpecError::new("missing required key `design`"))?;
        let mut spec = CampaignSpec::new(design);
        for (key, value) in obj {
            match key.as_str() {
                "design" => {}
                "top" => spec.top = Some(want_str(key, value)?),
                "clock" => spec.clock = Some(want_str(key, value)?),
                "reset" => spec.reset = Some(want_str(key, value)?),
                "seed" => spec.seed = want_u64(key, value)?,
                "steps" => spec.steps = Some(want_usize(key, value)?),
                "mode" => {
                    spec.mode = want_str(key, value)?
                        .parse()
                        .map_err(|e: String| SpecError::new(format!("key `mode`: {e}")))?
                }
                "drop_detected" => spec.drop_detected = want_bool(key, value)?,
                "max_faults" => spec.max_faults = Some(want_usize(key, value)?),
                "threads" => spec.threads = Some(want_usize(key, value)?),
                "eval" => {
                    spec.backend = Some(
                        want_str(key, value)?
                            .parse()
                            .map_err(|e: String| SpecError::new(format!("key `eval`: {e}")))?,
                    )
                }
                "checkpoint_interval" => spec.checkpoint_interval = Some(want_usize(key, value)?),
                "batch" => spec.batch = Some(want_bool(key, value)?),
                "collapse" => spec.collapse = Some(want_bool(key, value)?),
                other => return Err(SpecError::new(format!("unknown key `{other}`"))),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let v = json::parse(text).map_err(|e| SpecError::new(e.to_string()))?;
        Self::from_json_value(&v)
    }
}

fn parse_design(v: &JsonValue) -> Result<DesignRef, SpecError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| SpecError::new("key `design`: expected a one-key object"))?;
    match obj {
        [(k, v)] => {
            let name = want_str(k, v)?;
            match k.as_str() {
                "benchmark" => Ok(DesignRef::Benchmark(name)),
                "fixture" => Ok(DesignRef::Fixture(name)),
                "path" => Ok(DesignRef::Path(name)),
                other => Err(SpecError::new(format!(
                    "key `design`: unknown kind `{other}` (expected benchmark, fixture or path)"
                ))),
            }
        }
        _ => Err(SpecError::new(
            "key `design`: expected exactly one of benchmark, fixture or path",
        )),
    }
}

fn want_str(key: &str, v: &JsonValue) -> Result<String, SpecError> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| SpecError::new(format!("key `{key}`: expected a string")))
}

fn want_bool(key: &str, v: &JsonValue) -> Result<bool, SpecError> {
    v.as_bool()
        .ok_or_else(|| SpecError::new(format!("key `{key}`: expected true or false")))
}

fn want_u64(key: &str, v: &JsonValue) -> Result<u64, SpecError> {
    v.as_u64()
        .ok_or_else(|| SpecError::new(format!("key `{key}`: expected a non-negative integer")))
}

fn want_usize(key: &str, v: &JsonValue) -> Result<usize, SpecError> {
    Ok(want_u64(key, v)? as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_json() {
        let spec = CampaignSpec::fixture("mac16_gate")
            .seed(0x3a6)
            .steps(400)
            .mode(RedundancyMode::Explicit)
            .drop_detected(false)
            .max_faults(100)
            .threads(4)
            .backend(EvalBackend::Tape)
            .checkpoint_interval(8)
            .batch(true)
            .collapse(false);
        let text = spec.to_json();
        assert_eq!(CampaignSpec::from_json(&text).unwrap(), spec);

        let minimal = CampaignSpec::benchmark("APB");
        assert_eq!(
            CampaignSpec::from_json(&minimal.to_json()).unwrap(),
            minimal
        );
    }

    #[test]
    fn rejects_unknown_and_ill_typed_keys() {
        let e =
            CampaignSpec::from_json(r#"{"design": {"benchmark": "APB"}, "sede": 1}"#).unwrap_err();
        assert!(e.message.contains("sede"), "{e}");
        let e = CampaignSpec::from_json(r#"{"design": {"benchmark": "APB"}, "seed": "x"}"#)
            .unwrap_err();
        assert!(e.message.contains("seed"), "{e}");
        let e = CampaignSpec::from_json(r#"{"seed": 1}"#).unwrap_err();
        assert!(e.message.contains("design"), "{e}");
        let e = CampaignSpec::from_json(r#"{"design": {"bench": "APB"}}"#).unwrap_err();
        assert!(e.message.contains("bench"), "{e}");
        let e = CampaignSpec::from_json("{nope").unwrap_err();
        assert!(
            e.message.contains("invalid") || !e.message.is_empty(),
            "{e}"
        );
    }

    #[test]
    fn explicit_fields_override_defaults() {
        let cfg = CampaignSpec::benchmark("APB")
            .mode(RedundancyMode::Explicit)
            .drop_detected(false)
            .threads(2)
            .backend(EvalBackend::Tape)
            .checkpoint_interval(16)
            .batch(true)
            .collapse(true)
            .resolve();
        assert_eq!(cfg.mode, RedundancyMode::Explicit);
        assert!(!cfg.drop_detected);
        assert_eq!(cfg.parallel.threads, 2);
        assert_eq!(cfg.backend, EvalBackend::Tape);
        assert_eq!(cfg.checkpoint.interval, 16);
        assert!(cfg.batch.enabled);
        assert!(cfg.collapse.enabled);
    }

    #[test]
    fn unset_fields_resolve_to_builtin_defaults() {
        let cfg = CampaignSpec::benchmark("APB").resolve();
        assert_eq!(cfg.mode, RedundancyMode::Full);
        assert!(cfg.drop_detected);
        assert_eq!(cfg.parallel.threads, 1);
        assert_eq!(cfg.backend, EvalBackend::Tree);
        assert!(!cfg.checkpoint.is_enabled());
        assert!(!cfg.batch.enabled);
        assert!(!cfg.collapse.enabled);
        assert_eq!(
            format!("{cfg:?}"),
            format!("{:?}", CampaignConfig::default())
        );
    }

    #[test]
    fn design_keys_are_distinct() {
        assert_ne!(
            CampaignSpec::benchmark("x").design.key(),
            CampaignSpec::fixture("x").design.key()
        );
        assert_eq!(DesignRef::Path("a.v".into()).key(), "path:a.v");
    }
}
