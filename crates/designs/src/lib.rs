//! The benchmark suite of the ERASER evaluation (paper Table II).
//!
//! Ten designs written in the frontend's Verilog subset. The paper's
//! benchmarks are third-party cores that this subset cannot compile and
//! this workspace does not vendor, so each one is substituted by a
//! smaller design with the same *character*: the mix of behavioral and
//! RTL nodes, datapath width and control structure that decide where a
//! fault simulator spends its time (the fixtures' intake is described in
//! `crates/designs/DESIGN.md`):
//!
//! | Benchmark | Character |
//! |---|---|
//! | `Alu64` | wide arithmetic datapath, behavioral case decode |
//! | `Fpu32` | branch-heavy floating-point add/multiply |
//! | `Sha256Hv` | behavioral-node-dominated crypto rounds |
//! | `Apb` | protocol FSM + register file |
//! | `SodorCore` | multicycle CPU (FSM) |
//! | `RiscvMini` | single-cycle CPU |
//! | `PicoRv32` | state-machine CPU with casez decoder |
//! | `ConvAcc` | hierarchical MAC array accelerator |
//! | `Sha256C2v` | same function as `Sha256Hv`, flattened into RTL nodes |
//! | `MipsCpu` | single-cycle CPU, assign-heavy ALU |
//!
//! Each benchmark provides its compiled [`Design`], a deterministic
//! [`Stimulus`] generator, and a fault-list configuration; golden software
//! models for the datapath designs live in [`golden`].
//!
//! The [`DesignSource`] layer generalizes this: benchmarks, external
//! Verilog files, and Yosys-JSON netlists (including the bundled
//! gate-level fixtures from [`netlist_fixtures`]) all resolve to the same
//! design + stimulus + fault-config bundle.

pub mod golden;
mod source;
mod stim;

pub use source::{
    netlist_fixtures, DesignSource, COUNTER8_GATE_JSON, MAC16_GATE_JSON, NETLIST_FIXTURE_NAMES,
};

use eraser_fault::FaultListConfig;
use eraser_frontend::compile;
use eraser_ir::Design;
use eraser_sim::Stimulus;

/// Simple deterministic PRNG (64-bit LCG, top bits) used by all stimulus
/// generators — identical streams on every run and platform.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        Lcg {
            state: seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1),
        }
    }

    /// Next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 1 ^ self.state >> 33
    }

    /// Next value in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// One benchmark of the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// 64-bit ALU.
    Alu64,
    /// Floating-point unit.
    Fpu32,
    /// SHA-256, handwritten behavioral style.
    Sha256Hv,
    /// APB slave with register file.
    Apb,
    /// Multicycle CPU.
    SodorCore,
    /// Single-cycle CPU.
    RiscvMini,
    /// State-machine CPU with casez decoder.
    PicoRv32,
    /// Convolution accelerator.
    ConvAcc,
    /// SHA-256, flattened generator style.
    Sha256C2v,
    /// MIPS-flavored CPU.
    MipsCpu,
}

impl Benchmark {
    /// All benchmarks, in the paper's Table II order.
    pub fn all() -> [Benchmark; 10] {
        [
            Benchmark::Alu64,
            Benchmark::Fpu32,
            Benchmark::Sha256Hv,
            Benchmark::Apb,
            Benchmark::SodorCore,
            Benchmark::RiscvMini,
            Benchmark::PicoRv32,
            Benchmark::ConvAcc,
            Benchmark::Sha256C2v,
            Benchmark::MipsCpu,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Alu64 => "ALU",
            Benchmark::Fpu32 => "FPU",
            Benchmark::Sha256Hv => "SHA256_HV",
            Benchmark::Apb => "APB",
            Benchmark::SodorCore => "Sodor Core",
            Benchmark::RiscvMini => "RISCV Mini",
            Benchmark::PicoRv32 => "PicoRV32",
            Benchmark::ConvAcc => "Conv_acc",
            Benchmark::Sha256C2v => "SHA256_C2V",
            Benchmark::MipsCpu => "MIPS CPU",
        }
    }

    /// Verilog source text.
    pub fn source(self) -> &'static str {
        match self {
            Benchmark::Alu64 => include_str!("../rtl/alu64.v"),
            Benchmark::Fpu32 => include_str!("../rtl/fpu32.v"),
            Benchmark::Sha256Hv => include_str!("../rtl/sha256_hv.v"),
            Benchmark::Apb => include_str!("../rtl/apb_regs.v"),
            Benchmark::SodorCore => include_str!("../rtl/sodor_core.v"),
            Benchmark::RiscvMini => include_str!("../rtl/riscv_mini.v"),
            Benchmark::PicoRv32 => include_str!("../rtl/picorv32.v"),
            Benchmark::ConvAcc => include_str!("../rtl/conv_acc.v"),
            Benchmark::Sha256C2v => include_str!("../rtl/sha256_c2v.v"),
            Benchmark::MipsCpu => include_str!("../rtl/mips_cpu.v"),
        }
    }

    /// Top module name.
    pub fn top(self) -> &'static str {
        match self {
            Benchmark::Alu64 => "alu64",
            Benchmark::Fpu32 => "fpu32",
            Benchmark::Sha256Hv => "sha256_hv",
            Benchmark::Apb => "apb_regs",
            Benchmark::SodorCore => "sodor_core",
            Benchmark::RiscvMini => "riscv_mini",
            Benchmark::PicoRv32 => "picorv32",
            Benchmark::ConvAcc => "conv_acc",
            Benchmark::Sha256C2v => "sha256_c2v",
            Benchmark::MipsCpu => "mips_cpu",
        }
    }

    /// Compiles the benchmark to an elaborated design.
    ///
    /// # Panics
    ///
    /// Panics if the bundled source fails to compile — a build defect, not
    /// a runtime condition.
    pub fn build(self) -> Design {
        compile(self.source(), Some(self.top()))
            .unwrap_or_else(|e| panic!("bundled benchmark {} failed to compile: {e}", self.name()))
    }

    /// The clock/reset-style input names excluded from fault injection.
    fn excluded_names(self) -> Vec<String> {
        match self {
            Benchmark::Apb => vec!["pclk".into(), "presetn".into()],
            _ => vec!["clk".into(), "rst".into()],
        }
    }

    /// Fault-list configuration: per-bit stuck-at faults on named wires and
    /// regs, capped per design to keep campaign runtimes balanced (the
    /// paper's fault counts are of the same order).
    pub fn fault_config(self) -> FaultListConfig {
        let max_faults = match self {
            Benchmark::Alu64 => None,
            Benchmark::Fpu32 => Some(700),
            Benchmark::Sha256Hv => Some(660),
            Benchmark::Apb => Some(300),
            Benchmark::SodorCore => None,
            Benchmark::RiscvMini => None,
            Benchmark::PicoRv32 => None,
            Benchmark::ConvAcc => Some(400),
            Benchmark::Sha256C2v => Some(660),
            Benchmark::MipsCpu => Some(700),
        };
        FaultListConfig {
            include_inputs: false,
            exclude_names: self.excluded_names(),
            max_faults,
        }
    }

    /// Default stimulus length in clock cycles (what the benchmark harness
    /// runs; tests use shorter streams).
    pub fn default_cycles(self) -> usize {
        match self {
            Benchmark::Alu64 => 300,
            Benchmark::Fpu32 => 300,
            Benchmark::Sha256Hv => 450,
            Benchmark::Apb => 400,
            Benchmark::SodorCore => 400,
            Benchmark::RiscvMini => 400,
            Benchmark::PicoRv32 => 400,
            Benchmark::ConvAcc => 300,
            Benchmark::Sha256C2v => 450,
            Benchmark::MipsCpu => 400,
        }
    }

    /// Builds the deterministic stimulus for `design` (which must be this
    /// benchmark's design) with the default length.
    pub fn stimulus(self, design: &Design) -> Stimulus {
        self.stimulus_with_cycles(design, self.default_cycles())
    }

    /// Builds the deterministic stimulus with an explicit cycle budget.
    pub fn stimulus_with_cycles(self, design: &Design, cycles: usize) -> Stimulus {
        stim::build(self, design, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eraser_fault::generate_faults;

    #[test]
    fn all_benchmarks_compile() {
        for b in Benchmark::all() {
            let d = b.build();
            assert!(!d.outputs().is_empty(), "{} has no outputs", b.name());
            assert!(
                !d.behavioral_nodes().is_empty(),
                "{} has no behavioral nodes",
                b.name()
            );
        }
    }

    #[test]
    fn fault_universes_are_nonempty_and_capped() {
        for b in Benchmark::all() {
            let d = b.build();
            let cfg = b.fault_config();
            let fl = generate_faults(&d, &cfg);
            assert!(fl.len() > 50, "{}: only {} faults", b.name(), fl.len());
            if let Some(cap) = cfg.max_faults {
                assert!(fl.len() <= cap, "{}: cap exceeded", b.name());
            }
        }
    }

    #[test]
    fn stimuli_are_deterministic() {
        for b in [Benchmark::Alu64, Benchmark::Apb, Benchmark::ConvAcc] {
            let d = b.build();
            let s1 = b.stimulus_with_cycles(&d, 20);
            let s2 = b.stimulus_with_cycles(&d, 20);
            assert_eq!(s1, s2, "{}", b.name());
        }
    }

    /// Steps and input changes of every default stimulus. The layout may
    /// change; what an engine replays may not.
    #[test]
    fn default_stimulus_sizes_are_pinned() {
        let sizes: Vec<(&str, usize, usize)> = Benchmark::all()
            .into_iter()
            .map(|b| {
                let s = b.stimulus(&b.build());
                let changes = s.steps.iter().map(<[_]>::len).sum();
                (b.name(), s.num_steps(), changes)
            })
            .collect();
        assert_eq!(
            sizes,
            [
                ("ALU", 602, 2104),
                ("FPU", 602, 2104),
                ("SHA256_HV", 868, 883),
                ("APB", 796, 1856),
                ("Sodor Core", 800, 802),
                ("RISCV Mini", 800, 802),
                ("PicoRV32", 800, 802),
                ("Conv_acc", 600, 1499),
                ("SHA256_C2V", 868, 883),
                ("MIPS CPU", 800, 802),
            ]
        );
    }

    #[test]
    fn lcg_is_stable() {
        let mut a = Lcg::new(42);
        let mut b = Lcg::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Lcg::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
