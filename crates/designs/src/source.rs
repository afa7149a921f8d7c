//! The design-source layer: one abstraction over every way a design can
//! enter the framework.
//!
//! A [`DesignSource`] bundles what a fault-simulation campaign needs to
//! run — a name, a compiled [`Design`], a deterministic [`Stimulus`]
//! factory, and a [`FaultListConfig`] — regardless of where the design
//! came from:
//!
//! * the built-in [`Benchmark`] suite ([`DesignSource::benchmark`]),
//! * an external Verilog-subset (`.v`) or Yosys-JSON (`.json`) file
//!   ([`DesignSource::load`]),
//! * Yosys-JSON netlist text ([`DesignSource::from_netlist_str`]), or
//! * the bundled gate-level netlist fixtures ([`DesignSource::fixture`],
//!   [`netlist_fixtures`]).
//!
//! External designs get a generic clocked-random stimulus: the clock and
//! reset are found by name heuristics (overridable), reset is held for
//! the first two cycles (active-low when its name ends in `_n`), and the
//! remaining inputs are driven from a seeded LCG — a pure function of
//! the seed, so every engine replays identical inputs.

use crate::Benchmark;
use eraser_fault::FaultListConfig;
use eraser_frontend::compile;
use eraser_ir::{Design, SignalId};
use eraser_logic::LogicVec;
use eraser_netlist::import_str;
use eraser_sim::{Stimulus, StimulusBuilder};
use std::path::Path;

/// The bundled counter fixture (`yosys write_json` format, simple-gate
/// cells): an 8-bit sync-reset counter with enable, ripple carry chain,
/// terminal-count AND tree, and buffer chains.
pub const COUNTER8_GATE_JSON: &str = include_str!("../netlists/counter8_gate.json");

/// The bundled accumulator fixture: a 16-bit Fibonacci LFSR (taps
/// 16,15,13,4) feeding a gate-level ripple-carry accumulator with an XOR
/// parity tree — 179 one-bit cells.
pub const MAC16_GATE_JSON: &str = include_str!("../netlists/mac16_gate.json");

/// How a [`DesignSource`] builds its stimulus.
#[derive(Debug, Clone)]
enum StimulusKind {
    /// A built-in benchmark with its hand-written stimulus generator.
    Benchmark(Benchmark),
    /// Generic seeded clocked-random inputs for external designs.
    ClockedRandom {
        clock: SignalId,
        reset: Option<SignalId>,
        seed: u64,
    },
}

/// One fault-simulation target: a compiled design plus everything needed
/// to campaign against it deterministically.
#[derive(Debug, Clone)]
pub struct DesignSource {
    name: String,
    design: Design,
    stimulus: StimulusKind,
    fault_config: FaultListConfig,
    default_cycles: usize,
}

impl DesignSource {
    /// Wraps a built-in [`Benchmark`] (its design, stimulus generator,
    /// fault config, and cycle budget).
    pub fn benchmark(bench: Benchmark) -> DesignSource {
        DesignSource {
            name: bench.name().to_string(),
            design: bench.build(),
            stimulus: StimulusKind::Benchmark(bench),
            fault_config: bench.fault_config(),
            default_cycles: bench.default_cycles(),
        }
    }

    /// The bundled netlist fixture called `name` (ASCII case-insensitive),
    /// with its pinned seed and cycle budget — importing only that one.
    pub fn fixture(name: &str) -> Option<DesignSource> {
        NETLIST_FIXTURES
            .iter()
            .find(|f| f.0.eq_ignore_ascii_case(name))
            .map(import_fixture)
    }

    /// Wraps an already-compiled design with the generic clocked-random
    /// stimulus. `clock`/`reset` override the name heuristics.
    ///
    /// # Errors
    ///
    /// When no clock input can be identified (or a requested signal does
    /// not exist).
    pub fn from_design(
        design: Design,
        clock: Option<&str>,
        reset: Option<&str>,
        seed: u64,
        default_cycles: usize,
    ) -> Result<DesignSource, String> {
        let clock_sig = match clock {
            Some(name) => design
                .find_signal(name)
                .ok_or_else(|| format!("design has no signal named `{name}`"))?,
            None => find_clock(&design)
                .ok_or_else(|| "no clock input found (specify one by name)".to_string())?,
        };
        let reset_sig = match reset {
            Some(name) => Some(
                design
                    .find_signal(name)
                    .ok_or_else(|| format!("design has no signal named `{name}`"))?,
            ),
            None => find_reset(&design),
        };
        // Faulting the clock or reset turns the campaign into a
        // clock-gating experiment; exclude both from the universe.
        let mut exclude = vec![design.signal(clock_sig).name.clone()];
        if let Some(r) = reset_sig {
            exclude.push(design.signal(r).name.clone());
        }
        Ok(DesignSource {
            name: design.name().to_string(),
            design,
            stimulus: StimulusKind::ClockedRandom {
                clock: clock_sig,
                reset: reset_sig,
                seed,
            },
            fault_config: FaultListConfig {
                include_inputs: false,
                exclude_names: exclude,
                max_faults: None,
            },
            default_cycles,
        })
    }

    /// Imports Yosys-JSON netlist text into a design source.
    ///
    /// # Errors
    ///
    /// Import errors (unsupported cells, JSON syntax with line/column)
    /// and clock-detection failures, as text.
    pub fn from_netlist_str(
        text: &str,
        top: Option<&str>,
        seed: u64,
    ) -> Result<DesignSource, String> {
        let design = import_str(text, top).map_err(|e| e.to_string())?;
        Self::from_design(design, None, None, seed, DEFAULT_EXTERNAL_CYCLES)
    }

    /// Loads a design from a file path, dispatching on the extension:
    /// `.json` is treated as a Yosys-JSON netlist, anything else as
    /// Verilog-subset source. `clock`/`reset` override the detection
    /// heuristics (the CLI's `--clock`/`--reset`).
    ///
    /// # Errors
    ///
    /// Read failures, compile/import errors (prefixed with the path),
    /// and clock-detection failures, as text.
    pub fn load(
        path: &Path,
        top: Option<&str>,
        clock: Option<&str>,
        reset: Option<&str>,
        seed: u64,
    ) -> Result<DesignSource, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        let is_json = path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("json"));
        let result = (|| {
            let design = if is_json {
                import_str(&text, top).map_err(|e| e.to_string())?
            } else {
                compile(&text, top).map_err(|e| e.to_string())?
            };
            Self::from_design(design, clock, reset, seed, DEFAULT_EXTERNAL_CYCLES)
        })();
        result.map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The design name (benchmark name, or the module name for external
    /// designs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compiled design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The fault-universe configuration for this design.
    pub fn fault_config(&self) -> &FaultListConfig {
        &self.fault_config
    }

    /// Mutable access, for callers layering caps (`--max-faults`) on top.
    pub fn fault_config_mut(&mut self) -> &mut FaultListConfig {
        &mut self.fault_config
    }

    /// The cycle budget this source was configured with.
    pub fn default_cycles(&self) -> usize {
        self.default_cycles
    }

    /// Overrides the cycle budget (`--stimulus-steps`).
    pub fn set_default_cycles(&mut self, cycles: usize) {
        self.default_cycles = cycles;
    }

    /// Re-seeds the clocked-random stimulus (`--seed`). No effect on
    /// benchmark sources, whose stimuli are fixed by construction.
    pub fn set_seed(&mut self, seed: u64) {
        if let StimulusKind::ClockedRandom { seed: s, .. } = &mut self.stimulus {
            *s = seed;
        }
    }

    /// The clock driving the stimulus, for external designs.
    pub fn clock(&self) -> Option<SignalId> {
        match &self.stimulus {
            StimulusKind::ClockedRandom { clock, .. } => Some(*clock),
            StimulusKind::Benchmark(_) => None,
        }
    }

    /// The detected reset, for external designs.
    pub fn reset(&self) -> Option<SignalId> {
        match &self.stimulus {
            StimulusKind::ClockedRandom { reset, .. } => *reset,
            StimulusKind::Benchmark(_) => None,
        }
    }

    /// The deterministic stimulus over the default cycle budget.
    pub fn stimulus(&self) -> Stimulus {
        self.stimulus_with_cycles(self.default_cycles)
    }

    /// The deterministic stimulus over `cycles` clock cycles.
    pub fn stimulus_with_cycles(&self, cycles: usize) -> Stimulus {
        match &self.stimulus {
            StimulusKind::Benchmark(b) => b.stimulus_with_cycles(&self.design, cycles),
            StimulusKind::ClockedRandom { clock, reset, seed } => {
                clocked_random_stimulus(&self.design, *clock, *reset, *seed, cycles)
            }
        }
    }
}

/// Cycle budget for external designs when the caller does not say.
const DEFAULT_EXTERNAL_CYCLES: usize = 500;

/// The bundled netlist fixtures — `(module name, Yosys-JSON text, stimulus
/// seed, cycle budget)` — the budgets sized so the counter wraps
/// (exercising the terminal-count cone).
const NETLIST_FIXTURES: [(&str, &str, u64, usize); 2] = [
    ("counter8_gate", COUNTER8_GATE_JSON, 0xc8, 600),
    ("mac16_gate", MAC16_GATE_JSON, 0x3a6, 400),
];

fn import_fixture(&(name, json, seed, cycles): &(&str, &str, u64, usize)) -> DesignSource {
    let mut source = DesignSource::from_netlist_str(json, None, seed)
        .unwrap_or_else(|e| panic!("bundled {name} fixture imports: {e}"));
    source.set_default_cycles(cycles);
    source
}

/// The module names of the bundled netlist fixtures, in
/// [`netlist_fixtures`] order.
pub const NETLIST_FIXTURE_NAMES: [&str; 2] = [NETLIST_FIXTURES[0].0, NETLIST_FIXTURES[1].0];

/// The two bundled gate-level netlist fixtures as ready-to-run design
/// sources, with their pinned seeds and cycle budgets.
pub fn netlist_fixtures() -> Vec<DesignSource> {
    NETLIST_FIXTURES.iter().map(import_fixture).collect()
}

/// Picks the clock input: a 1-bit input named like a clock, else the
/// first 1-bit input.
fn find_clock(design: &Design) -> Option<SignalId> {
    let one_bit_inputs: Vec<SignalId> = design
        .inputs()
        .iter()
        .copied()
        .filter(|s| design.signal(*s).width == 1)
        .collect();
    one_bit_inputs
        .iter()
        .copied()
        .find(|s| {
            let n = design.signal(*s).name.to_ascii_lowercase();
            n == "clk" || n == "clock" || n == "pclk" || n.ends_with("_clk")
        })
        .or_else(|| one_bit_inputs.first().copied())
}

/// Picks the reset input by name (`rst`, `reset`, `*rst_n`), if any.
fn find_reset(design: &Design) -> Option<SignalId> {
    design.inputs().iter().copied().find(|s| {
        let n = design.signal(*s).name.to_ascii_lowercase();
        design.signal(*s).width == 1 && (n == "rst" || n == "reset" || n.ends_with("rst_n"))
    })
}

/// Clocked random stimulus over all non-clock/reset inputs; reset
/// (active high, or active low if its name ends in `_n`) held for two
/// cycles.
fn clocked_random_stimulus(
    design: &Design,
    clock: SignalId,
    reset: Option<SignalId>,
    seed: u64,
    cycles: usize,
) -> Stimulus {
    let mut sb = StimulusBuilder::new();
    let reset_active_low = reset
        .map(|r| design.signal(r).name.ends_with("_n"))
        .unwrap_or(false);
    let data_inputs: Vec<SignalId> = design
        .inputs()
        .iter()
        .copied()
        .filter(|s| Some(*s) != reset && *s != clock)
        .collect();
    let mut state = seed | 1;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 16
    };
    for cycle in 0..cycles {
        let mut changes = Vec::new();
        if let Some(r) = reset {
            let asserted = cycle < 2;
            // Active-high: asserted -> 1; active-low (`*_n`): asserted -> 0.
            changes.push((
                r,
                LogicVec::from_u64(1, (asserted ^ reset_active_low) as u64),
            ));
        }
        for &inp in &data_inputs {
            let w = design.signal(inp).width;
            let mut v = LogicVec::zeros(w);
            for word in 0..w.div_ceil(64) {
                let bits = LogicVec::from_u64(64.min(w - word * 64), rng());
                v.assign_slice(word * 64, &bits);
            }
            changes.push((inp, v));
        }
        sb.add_cycle(clock, &changes);
    }
    sb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eraser_fault::generate_faults;

    #[test]
    fn benchmark_source_matches_the_enum() {
        let src = DesignSource::benchmark(Benchmark::Alu64);
        assert_eq!(src.name(), Benchmark::Alu64.name());
        assert_eq!(src.default_cycles(), Benchmark::Alu64.default_cycles());
        let direct = Benchmark::Alu64.stimulus_with_cycles(src.design(), 10);
        assert_eq!(src.stimulus_with_cycles(10), direct);
    }

    #[test]
    fn fixtures_import_and_exclude_clock_and_reset() {
        let fixtures = netlist_fixtures();
        for (f, name) in fixtures.iter().zip(NETLIST_FIXTURE_NAMES) {
            assert_eq!(f.name(), name);
        }
        for f in &fixtures {
            assert!(f.fault_config().exclude_names.contains(&"clk".to_string()));
            assert!(f.fault_config().exclude_names.contains(&"rst".to_string()));
            assert!(f.clock().is_some());
            assert!(f.reset().is_some());
        }
    }

    #[test]
    fn fixture_by_name_equals_the_listed_fixture() {
        let listed = netlist_fixtures();
        for (want, name) in listed.iter().zip(NETLIST_FIXTURE_NAMES) {
            for spelled in [name.to_string(), name.to_ascii_uppercase()] {
                let got = DesignSource::fixture(&spelled).expect("bundled fixture resolves");
                assert_eq!(got.name(), want.name());
                assert_eq!(got.default_cycles(), want.default_cycles());
                assert_eq!(
                    generate_faults(got.design(), got.fault_config()).faults(),
                    generate_faults(want.design(), want.fault_config()).faults()
                );
                assert_eq!(got.stimulus(), want.stimulus());
            }
        }
        assert!(DesignSource::fixture("no_such_gate").is_none());
    }

    #[test]
    fn clocked_random_stimulus_is_seed_deterministic() {
        let a = DesignSource::from_netlist_str(COUNTER8_GATE_JSON, None, 7).unwrap();
        let b = DesignSource::from_netlist_str(COUNTER8_GATE_JSON, None, 7).unwrap();
        let c = DesignSource::from_netlist_str(COUNTER8_GATE_JSON, None, 8).unwrap();
        assert_eq!(a.stimulus_with_cycles(20), b.stimulus_with_cycles(20));
        assert_ne!(a.stimulus_with_cycles(20), c.stimulus_with_cycles(20));
    }

    #[test]
    fn verilog_and_netlist_paths_dispatch_on_extension() {
        let dir = std::env::temp_dir().join("eraser-source-test");
        std::fs::create_dir_all(&dir).unwrap();
        let vpath = dir.join("toy.v");
        std::fs::write(
            &vpath,
            "module toy(input clk, input rst, input d, output reg q);\n\
             always @(posedge clk) q <= rst ? 1'b0 : d;\nendmodule\n",
        )
        .unwrap();
        let src = DesignSource::load(&vpath, None, None, None, 1).unwrap();
        assert_eq!(src.name(), "toy");
        let jpath = dir.join("counter8_gate.json");
        std::fs::write(&jpath, COUNTER8_GATE_JSON).unwrap();
        let src = DesignSource::load(&jpath, None, None, None, 1).unwrap();
        assert_eq!(src.name(), "counter8_gate");
        let missing = DesignSource::load(&dir.join("nope.v"), None, None, None, 1).unwrap_err();
        assert!(missing.contains("nope.v"));
    }
}
