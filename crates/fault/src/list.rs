//! Fault universe construction.

use crate::{Fault, FaultId, StuckAt};
use eraser_ir::{Design, PortDir, SignalId};

/// Configuration for fault list generation.
#[derive(Debug, Clone, Default)]
pub struct FaultListConfig {
    /// Also inject faults on primary inputs (off by default; commercial
    /// flows typically fault the logic, not the stimulus).
    pub include_inputs: bool,
    /// Signals excluded by name (e.g. clocks and resets — faulting a clock
    /// turns the fault simulation into a clock-gating experiment).
    pub exclude_names: Vec<String>,
    /// Keep at most this many faults, sampling deterministically with a
    /// fixed stride (evenly across the design). `None` keeps all.
    pub max_faults: Option<usize>,
}

/// An ordered fault universe for one design.
#[derive(Debug, Clone, Default)]
pub struct FaultList {
    faults: Vec<Fault>,
}

impl FaultList {
    /// All faults, indexed by [`FaultId`].
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// One fault.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fault(&self, id: FaultId) -> &Fault {
        &self.faults[id.index()]
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if the list is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterates over the faults.
    pub fn iter(&self) -> impl Iterator<Item = &Fault> {
        self.faults.iter()
    }
}

impl FromIterator<Fault> for FaultList {
    fn from_iter<T: IntoIterator<Item = Fault>>(iter: T) -> Self {
        let mut faults: Vec<Fault> = iter.into_iter().collect();
        for (i, f) in faults.iter_mut().enumerate() {
            f.id = FaultId(i as u32);
        }
        FaultList { faults }
    }
}

/// Generates per-bit stuck-at-0/1 faults for every named (non-synthetic)
/// wire and reg of the design, per the paper's fault model.
///
/// Synthetic intermediate nets (compiler temporaries, loop variables) are
/// excluded, as are primary inputs unless requested and any name listed in
/// `config.exclude_names`.
///
/// Ids are site-major: by signal index, then bit, then polarity (sa0
/// first), and sampling keeps that order. Every consumer relies on it to
/// find faults that share a site next to each other in id order.
pub fn generate_faults(design: &Design, config: &FaultListConfig) -> FaultList {
    let mut sites = Vec::new();
    for (i, sig) in design.signals().iter().enumerate() {
        if sig.synthetic {
            continue;
        }
        if sig.port == Some(PortDir::Input) && !config.include_inputs {
            continue;
        }
        if config.exclude_names.iter().any(|n| n == &sig.name) {
            continue;
        }
        let id = SignalId::from_index(i);
        for bit in 0..sig.width {
            for stuck in [StuckAt::Zero, StuckAt::One] {
                sites.push((id, bit, stuck));
            }
        }
    }
    // Deterministic even sampling when capped.
    if let Some(max) = config.max_faults {
        if sites.len() > max && max > 0 {
            let stride = sites.len() as f64 / max as f64;
            let mut sampled = Vec::with_capacity(max);
            let mut pos = 0.0f64;
            while sampled.len() < max {
                sampled.push(sites[pos as usize]);
                pos += stride;
            }
            sites = sampled;
        }
    }
    sites
        .into_iter()
        .enumerate()
        .map(|(i, (signal, bit, stuck))| Fault {
            id: FaultId(i as u32),
            signal,
            bit,
            stuck,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eraser_frontend::compile;

    fn design() -> Design {
        compile(
            "module m(input wire clk, input wire [3:0] a, output reg [3:0] q);
               wire [3:0] t;
               assign t = a ^ 4'h3;
               always @(posedge clk) q <= t;
             endmodule",
            None,
        )
        .unwrap()
    }

    #[test]
    fn default_universe_covers_wires_and_regs() {
        let d = design();
        let fl = generate_faults(&d, &FaultListConfig::default());
        // t (4 bits) + q (4 bits) = 8 bits x 2 polarities = 16 faults.
        // (clk and a are inputs; $t const node temp is synthetic.)
        assert_eq!(fl.len(), 16);
        // Ids are dense and ordered.
        for (i, f) in fl.iter().enumerate() {
            assert_eq!(f.id.index(), i);
        }
        let q = d.find_signal("q").unwrap();
        assert_eq!(fl.iter().filter(|f| f.signal == q).count(), 8);
    }

    #[test]
    fn include_inputs_adds_ports() {
        let d = design();
        let fl = generate_faults(
            &d,
            &FaultListConfig {
                include_inputs: true,
                exclude_names: vec!["clk".into()],
                ..Default::default()
            },
        );
        // + a (4 bits x 2) = 24; clk excluded by name.
        assert_eq!(fl.len(), 24);
        let clk = d.find_signal("clk").unwrap();
        assert!(fl.iter().all(|f| f.signal != clk));
    }

    #[test]
    fn sampling_is_deterministic_and_even() {
        let d = design();
        let cfg = FaultListConfig {
            max_faults: Some(5),
            ..Default::default()
        };
        let a = generate_faults(&d, &cfg);
        let b = generate_faults(&d, &cfg);
        assert_eq!(a.len(), 5);
        assert_eq!(
            a.iter().map(|f| (f.signal, f.bit)).collect::<Vec<_>>(),
            b.iter().map(|f| (f.signal, f.bit)).collect::<Vec<_>>()
        );
    }
}
