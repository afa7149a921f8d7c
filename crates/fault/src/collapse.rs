//! Static fault collapsing — structural redundancy removed before a
//! single cycle runs.
//!
//! Classic gate-level fault collapsing prunes the fault universe with
//! equivalence and dominance relations derived from circuit structure.
//! This module applies the idea at the RTL signal level, under the
//! framework's strongest correctness bar: the collapsed campaign must
//! reproduce every per-fault detection record (first-detection step and
//! observing output) **bit-identically**. That bar restricts the rules to
//! *true equivalences* — two faults are folded only when their faulty
//! networks are indistinguishable at every observation point at every
//! step — plus *provably-undetectable* drops. Dominance relations (input
//! stuck-at dominated by an AND gate's output stuck-at, say) preserve the
//! detected *set* but not per-fault first-detection records, so they are
//! deliberately excluded.
//!
//! # Rules (all width-aware, per bit)
//!
//! Only rules that fire on the checked-in designs are kept
//! (`collapse_parity::checked_in_designs_collapse_as_recorded` pins what
//! each does there).
//!
//! 1. **Alias fold**: for an alias/buffer node `assign a = b;` where `b`
//!    is read by **no one else** — its complete reader set is exactly this
//!    node: no other RTL node input, no behavioral read, no
//!    sensitivity-list membership — and `b` is not a primary output,
//!    `b[i]` stuck-at-`v` ≡ `a[i]` stuck-at-`v` for every bit `i` carried
//!    through (`i < min(w_a, w_b)`). The two faulty networks assign
//!    identical values to `a` at all times, and `b` has no other observer,
//!    so every downstream signal — hence every output at every step — is
//!    identical. This is the RTL form of the classic single-fanout rule: a
//!    stuck-at on the single-use input of a buffer collapses with the same
//!    stuck-at on the buffer's output.
//! 2. **Unobservable drop**: a site with no path to any primary output in
//!    the static influence graph
//!    ([`influence_adjacency`](eraser_ir::analysis::influence_adjacency))
//!    can never produce a detectable output mismatch — fault differences
//!    propagate only along influence edges.
//! 3. **Unread-bit drop**: a bit of a non-output signal that no reader
//!    ever observes
//!    ([`read_bit_coverage`](eraser_ir::analysis::read_bit_coverage) —
//!    every read of the signal is a slice, constant-position select or
//!    narrowing buffer that excludes it) can never spread a difference
//!    anywhere: the rule that fires on slice-heavy designs (decoders
//!    reading instruction fields, wide buses used partially).
//!
//! Folds are closed transitively (union-find), so `assign` chains of any
//! length collapse to one class. A class containing *any* dropped member
//! is dropped whole: members are pairwise equivalent, so one provably
//! undetectable member proves the class undetectable.
//!
//! # Using the result
//!
//! Simulate [`representatives`](CollapsedFaultList::representatives) with
//! any engine, then [`lift_coverage`](CollapsedFaultList::lift_coverage)
//! back to the full universe: each member inherits its representative's
//! record verbatim (equivalence makes the records identical anyway), and
//! dropped faults stay undetected — exactly what the uncollapsed run
//! reports for them.

use crate::{CoverageReport, Fault, FaultId, FaultList, StuckAt};
use eraser_ir::analysis::{observable_signals, read_bit_coverage};
use eraser_ir::{Design, RtlOp, SignalId};
use std::collections::HashMap;

/// A statically collapsed fault universe: one representative per
/// equivalence class plus the class→members map and the dropped set.
#[derive(Debug, Clone)]
pub struct CollapsedFaultList {
    /// Faults in the original universe.
    total: usize,
    /// One representative per kept class, dense local ids in ascending
    /// global-id order — an ordinary [`FaultList`] any engine can run.
    representatives: FaultList,
    /// Per representative (by local id): the global ids of every class
    /// member, ascending; `members[i][0]` is the representative itself.
    members: Vec<Vec<FaultId>>,
    /// Global ids of dropped (provably undetectable) faults, ascending.
    dropped: Vec<FaultId>,
    /// Global fault index → its class representative's *global* id
    /// (`None` for dropped faults).
    rep_of: Vec<Option<FaultId>>,
}

/// Union-find root with path halving; roots are always class minima
/// because [`union_min`] attaches the larger root under the smaller.
fn find(parent: &mut [u32], mut i: u32) -> u32 {
    while parent[i as usize] != i {
        parent[i as usize] = parent[parent[i as usize] as usize];
        i = parent[i as usize];
    }
    i
}

/// Unions two classes, keeping the minimum id as the root (deterministic
/// representatives independent of rule application order).
fn union_min(parent: &mut [u32], a: u32, b: u32) {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra == rb {
        return;
    }
    if ra < rb {
        parent[rb as usize] = ra;
    } else {
        parent[ra as usize] = rb;
    }
}

impl CollapsedFaultList {
    /// Builds the collapsed universe of `faults` over `design`'s static
    /// structure. Pure analysis: no simulation, no stimulus.
    pub fn build(design: &Design, faults: &FaultList) -> Self {
        let n = faults.len();
        let num_signals = design.num_signals();

        // Fault lookup by (site, bit, polarity): fold rules pair faults
        // across signals and survive sampled universes (a missing partner
        // simply means no union).
        let mut by_site: HashMap<(SignalId, u32, StuckAt), u32> = HashMap::with_capacity(n);
        for (i, f) in faults.iter().enumerate() {
            by_site.insert((f.signal, f.bit, f.stuck), i as u32);
        }

        // Complete reader census per signal: RTL reads (occurrence count +
        // the sole reading node when unique), behavioral reads and
        // sensitivity-list memberships, output membership.
        let mut rtl_reads: Vec<u32> = vec![0; num_signals];
        let mut sole_rtl_reader: Vec<usize> = vec![usize::MAX; num_signals];
        for (ni, node) in design.rtl_nodes().iter().enumerate() {
            for &s in &node.inputs {
                rtl_reads[s.index()] += 1;
                sole_rtl_reader[s.index()] = ni;
            }
        }
        let mut behavioral_read = vec![false; num_signals];
        for node in design.behavioral_nodes() {
            for &s in &node.reads {
                behavioral_read[s.index()] = true;
            }
            for s in node.activation_signals() {
                behavioral_read[s.index()] = true;
            }
        }
        let mut is_output = vec![false; num_signals];
        for &o in design.outputs() {
            is_output[o.index()] = true;
        }
        // True iff the node at `ni` is the signal's one and only reader.
        let solely_read_by = |s: SignalId, ni: usize| {
            rtl_reads[s.index()] == 1
                && sole_rtl_reader[s.index()] == ni
                && !behavioral_read[s.index()]
                && !is_output[s.index()]
        };

        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut dropped_flag = vec![false; n];

        // Rule 1: alias fold.
        for (ni, node) in design.rtl_nodes().iter().enumerate() {
            if !matches!(node.op, RtlOp::Buf) || node.inputs.len() != 1 {
                continue;
            }
            let b = node.inputs[0];
            let a = node.output;
            if a == b || !solely_read_by(b, ni) {
                continue;
            }
            let carried = design.signal(a).width.min(design.signal(b).width);
            for bit in 0..carried {
                for stuck in [StuckAt::Zero, StuckAt::One] {
                    if let (Some(&fb), Some(&fa)) =
                        (by_site.get(&(b, bit, stuck)), by_site.get(&(a, bit, stuck)))
                    {
                        union_min(&mut parent, fb, fa);
                    }
                }
            }
        }

        // Rule 2: unobservable drop.
        let observable = observable_signals(design);
        for (i, f) in faults.iter().enumerate() {
            if !observable[f.signal.index()] {
                dropped_flag[i] = true;
            }
        }

        // Rule 3: unread-bit drop.
        let read_bits = read_bit_coverage(design);
        for (i, f) in faults.iter().enumerate() {
            if !read_bits[f.signal.index()]
                .get(f.bit as usize)
                .copied()
                .unwrap_or(false)
            {
                dropped_flag[i] = true;
            }
        }

        // Assemble classes. Roots are minima, so walking faults in id
        // order visits each class's representative first.
        let mut class_of_root: HashMap<u32, usize> = HashMap::new();
        let mut classes: Vec<Vec<FaultId>> = Vec::new();
        let mut class_dropped: Vec<bool> = Vec::new();
        for i in 0..n as u32 {
            let root = find(&mut parent, i);
            let ci = *class_of_root.entry(root).or_insert_with(|| {
                classes.push(Vec::new());
                class_dropped.push(false);
                classes.len() - 1
            });
            classes[ci].push(FaultId(i));
            class_dropped[ci] |= dropped_flag[i as usize];
        }

        let mut representatives: Vec<Fault> = Vec::new();
        let mut members: Vec<Vec<FaultId>> = Vec::new();
        let mut dropped: Vec<FaultId> = Vec::new();
        let mut rep_of: Vec<Option<FaultId>> = vec![None; n];
        for (ci, class) in classes.into_iter().enumerate() {
            if class_dropped[ci] {
                dropped.extend(class.iter().copied());
            } else {
                let rep = class[0];
                for &m in &class {
                    rep_of[m.index()] = Some(rep);
                }
                representatives.push(*faults.fault(rep));
                members.push(class);
            }
        }
        dropped.sort_unstable();

        CollapsedFaultList {
            total: n,
            // FromIterator reassigns dense local ids 0..k in push order,
            // which is ascending global-representative order.
            representatives: representatives.into_iter().collect(),
            members,
            dropped,
            rep_of,
        }
    }

    /// Faults in the original (uncollapsed) universe.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The representative fault list — one fault per kept class, ready to
    /// run on any engine (dense local ids).
    pub fn representatives(&self) -> &FaultList {
        &self.representatives
    }

    /// Kept equivalence classes (= faults actually simulated).
    pub fn num_classes(&self) -> usize {
        self.members.len()
    }

    /// Faults folded into another class member's simulation:
    /// `total - classes - dropped`.
    pub fn collapsed_faults(&self) -> usize {
        self.total - self.num_classes() - self.dropped.len()
    }

    /// Global ids of provably undetectable faults, never simulated.
    pub fn dropped(&self) -> &[FaultId] {
        &self.dropped
    }

    /// Global member ids (ascending, representative first) of the class
    /// behind representative-local id `rep`.
    pub fn class_members(&self, rep: FaultId) -> &[FaultId] {
        &self.members[rep.index()]
    }

    /// The *global* id of the representative simulated on behalf of
    /// `fault` (a global id), or `None` if its class was dropped.
    pub fn representative_of(&self, fault: FaultId) -> Option<FaultId> {
        self.rep_of[fault.index()]
    }

    /// Expands a coverage report over the representative universe into the
    /// full universe: every class member inherits its representative's
    /// detection record verbatim; dropped faults stay undetected. See
    /// [`CoverageReport::lift_classes`].
    ///
    /// # Panics
    ///
    /// Panics if `local` was not produced over
    /// [`representatives`](Self::representatives).
    pub fn lift_coverage(&self, local: &CoverageReport) -> CoverageReport {
        local.lift_classes(self.total, &self.members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_faults, Detection, FaultListConfig};
    use eraser_frontend::compile;

    fn fid(faults: &FaultList, design: &Design, name: &str, bit: u32, stuck: StuckAt) -> FaultId {
        let sig = design.find_signal(name).unwrap();
        faults
            .iter()
            .find(|f| f.signal == sig && f.bit == bit && f.stuck == stuck)
            .unwrap_or_else(|| panic!("no fault {name}[{bit}] {stuck}"))
            .id
    }

    #[test]
    fn alias_chain_folds_to_one_class() {
        let design = compile(
            "module m(input wire clk, input wire [3:0] a, output reg [3:0] q);
               wire [3:0] b;
               wire [3:0] c;
               assign b = a;
               assign c = b;
               always @(posedge clk) q <= c;
             endmodule",
            None,
        )
        .unwrap();
        let faults = generate_faults(&design, &FaultListConfig::default());
        let col = CollapsedFaultList::build(&design, &faults);
        assert_eq!(col.total(), faults.len());
        // b is read only by the alias to c: every b fault folds with its c
        // counterpart, bit for bit, polarity for polarity.
        for bit in 0..4 {
            for stuck in [StuckAt::Zero, StuckAt::One] {
                let fb = fid(&faults, &design, "b", bit, stuck);
                let fc = fid(&faults, &design, "c", bit, stuck);
                let rb = col.representative_of(fb).expect("b class kept");
                let rc = col.representative_of(fc).expect("c class kept");
                assert_eq!(
                    rb, rc,
                    "b[{bit}] {stuck} must share c[{bit}] {stuck}'s class"
                );
            }
        }
        assert!(col.collapsed_faults() >= 8, "{}", col.collapsed_faults());
        assert_eq!(
            col.num_classes() + col.collapsed_faults() + col.dropped().len(),
            col.total()
        );
        assert!(col.representatives().len() < faults.len());
    }

    #[test]
    fn shared_fanout_blocks_the_fold() {
        // b feeds both the alias and the XOR: folding b with c would hide
        // b's second observation path, so no fold may happen.
        let design = compile(
            "module m(input wire clk, input wire [3:0] a,
                      output reg [3:0] q, output wire [3:0] w);
               wire [3:0] b;
               wire [3:0] c;
               assign b = a;
               assign c = b;
               assign w = b ^ 4'h1;
               always @(posedge clk) q <= c;
             endmodule",
            None,
        )
        .unwrap();
        let faults = generate_faults(&design, &FaultListConfig::default());
        let col = CollapsedFaultList::build(&design, &faults);
        for bit in 0..4 {
            for stuck in [StuckAt::Zero, StuckAt::One] {
                let fb = fid(&faults, &design, "b", bit, stuck);
                let fc = fid(&faults, &design, "c", bit, stuck);
                assert_ne!(
                    col.representative_of(fb),
                    col.representative_of(fc),
                    "b[{bit}] {stuck} has independent fanout, must not fold"
                );
            }
        }
    }

    #[test]
    fn unobservable_sites_drop() {
        let design = compile(
            "module m(input wire clk, input wire [3:0] a, output reg [3:0] q);
               wire [3:0] dead;
               assign dead = a ^ 4'h3;
               always @(posedge clk) q <= a;
             endmodule",
            None,
        )
        .unwrap();
        let faults = generate_faults(&design, &FaultListConfig::default());
        let col = CollapsedFaultList::build(&design, &faults);
        for bit in 0..4 {
            for stuck in [StuckAt::Zero, StuckAt::One] {
                let f = fid(&faults, &design, "dead", bit, stuck);
                assert_eq!(col.representative_of(f), None, "dead[{bit}] {stuck} kept");
                assert!(col.dropped().contains(&f));
            }
        }
        // q faults stay live.
        let fq = fid(&faults, &design, "q", 0, StuckAt::Zero);
        assert!(col.representative_of(fq).is_some());
        assert_eq!(
            col.num_classes() + col.collapsed_faults() + col.dropped().len(),
            col.total()
        );
    }

    #[test]
    fn lift_coverage_marks_every_member() {
        let design = compile(
            "module m(input wire clk, input wire [3:0] a, output reg [3:0] q);
               wire [3:0] b;
               wire [3:0] c;
               assign b = a;
               assign c = b;
               always @(posedge clk) q <= c;
             endmodule",
            None,
        )
        .unwrap();
        let faults = generate_faults(&design, &FaultListConfig::default());
        let col = CollapsedFaultList::build(&design, &faults);
        // Detect every representative at a per-class step.
        let mut local = CoverageReport::new(col.num_classes());
        for i in 0..col.num_classes() {
            local.record(
                FaultId(i as u32),
                Detection {
                    step: i + 1,
                    output: design.outputs()[0],
                },
            );
        }
        let lifted = col.lift_coverage(&local);
        assert_eq!(lifted.total(), faults.len());
        for i in 0..col.num_classes() {
            let rep = FaultId(i as u32);
            for &m in col.class_members(rep) {
                assert_eq!(
                    lifted.detection(m),
                    local.detection(rep),
                    "member {m} must inherit its representative's record"
                );
            }
        }
        assert_eq!(
            lifted.detected(),
            faults.len() - col.dropped().len(),
            "every kept member detected, dropped members untouched"
        );
    }

    #[test]
    fn sampled_universe_with_missing_partners_still_builds() {
        let design = compile(
            "module m(input wire clk, input wire [7:0] a, output reg [7:0] q);
               wire [7:0] b;
               wire [7:0] c;
               assign b = a;
               assign c = b;
               always @(posedge clk) q <= c;
             endmodule",
            None,
        )
        .unwrap();
        // Sampling breaks many (b, c) pairs: the build must stay sound,
        // keeping unpaired faults as their own class.
        let faults = generate_faults(
            &design,
            &FaultListConfig {
                max_faults: Some(13),
                ..Default::default()
            },
        );
        let col = CollapsedFaultList::build(&design, &faults);
        assert_eq!(col.total(), faults.len());
        assert_eq!(
            col.num_classes() + col.collapsed_faults() + col.dropped().len(),
            col.total()
        );
        for f in faults.iter() {
            if let Some(rep) = col.representative_of(f.id) {
                assert!(rep <= f.id, "representative is the class minimum");
            }
        }
    }
}
