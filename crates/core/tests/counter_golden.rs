//! Counter golden: the 20 [`RedundancyStats`] counters and the detected
//! set of every benchmark and both gate-level fixtures, pinned.
//!
//! Parity suites compare engines with each other; this file compares the
//! engine with itself across commits. An optimisation of the engine's
//! internals — a good-only lane, a candidate rule, a commit shortcut — must
//! leave every counter and every detection where it was, so a change here
//! is a change of semantics and needs a reason of its own. The exception
//! is the work-count columns (`rtl_good_evals`, `rtl_fault_evals` and the
//! three `batch_*` counters), which count the kernel's work order. So do
//! the activation counters of a design with level-sensitive blocks
//! (`good_activations`, `opportunities` and its split into skipped and
//! executed), as such a block runs once per wave, and of a gate netlist,
//! whose flops the importer folds into one register bank per sensitivity
//! list (one activation per clock edge, not one per flop). The `deltas`
//! column, the other counters and the detected sets pin semantics.
//!
//! Each design runs at a small size (its first 48 faults, 300 cycles)
//! under five configurations that reach every lane, both RTL fault
//! evaluators and a plan of more than one group: `Full`, `Explicit` and
//! `None`, `Full` with batching on, and `Full` on two threads, whose counters sum two groups' good passes. The
//! detected set is a mask: bit `i` is fault `i`. On a mismatch the test prints the whole table as it now
//! reads, in the form below.

use eraser_core::{run_campaign, BatchConfig, CampaignConfig, ParallelConfig, RedundancyMode};
use eraser_designs::{Benchmark, DesignSource};
use eraser_fault::generate_faults;

const MAX_FAULTS: usize = 48;
const CYCLES: usize = 300;

/// `(design/config, counters in `RedundancyStats::counters_mut` order,
/// detected mask)`.
type Row = (&'static str, [u64; 20], u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("ALU/full", [301, 6983, 3491, 3492, 0, 0, 0, 0, 0, 904, 0, 0, 25, 0, 0, 0, 0, 0, 0, 0], 0x1ffffff),
    ("ALU/explicit", [301, 6983, 3491, 0, 3492, 0, 0, 0, 0, 904, 0, 0, 25, 0, 0, 0, 0, 0, 0, 0], 0x1ffffff),
    ("ALU/none", [301, 6983, 0, 0, 6983, 0, 0, 0, 0, 904, 0, 0, 25, 0, 0, 0, 0, 0, 0, 0], 0x1ffffff),
    ("ALU/full-batch", [301, 6983, 3491, 3492, 0, 0, 0, 0, 0, 904, 0, 0, 25, 0, 0, 0, 0, 0, 0, 0], 0x1ffffff),
    ("ALU/full-t2", [307, 6983, 3491, 3492, 0, 0, 0, 0, 0, 923, 0, 0, 25, 0, 0, 0, 0, 0, 0, 0], 0x1ffffff),
    ("FPU/full", [301, 13257, 6856, 6401, 0, 0, 0, 0, 0, 904, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0], 0xf),
    ("FPU/explicit", [301, 13257, 6856, 0, 6401, 0, 0, 0, 0, 904, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0], 0xf),
    ("FPU/none", [301, 13257, 0, 0, 13257, 0, 0, 0, 0, 904, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0], 0xf),
    ("FPU/full-batch", [301, 13257, 6856, 6401, 0, 0, 0, 0, 0, 904, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0], 0xf),
    ("FPU/full-t2", [602, 13257, 6856, 6401, 0, 0, 0, 0, 0, 1808, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0], 0xf),
    ("SHA256_HV/full", [300, 5656, 2122, 1804, 1730, 0, 0, 0, 0, 901, 0, 0, 37, 0, 0, 0, 0, 0, 0, 0], 0x1fffffffff),
    ("SHA256_HV/explicit", [300, 5656, 2122, 0, 3534, 0, 0, 0, 0, 901, 0, 0, 37, 0, 0, 0, 0, 0, 0, 0], 0x1fffffffff),
    ("SHA256_HV/none", [300, 5656, 0, 0, 5656, 0, 0, 0, 0, 901, 0, 0, 37, 0, 0, 0, 0, 0, 0, 0], 0x1fffffffff),
    ("SHA256_HV/full-batch", [300, 5656, 2122, 1804, 1730, 0, 0, 0, 0, 901, 0, 0, 37, 0, 0, 0, 0, 0, 0, 0], 0x1fffffffff),
    ("SHA256_HV/full-t2", [476, 5656, 2122, 1804, 1730, 0, 0, 0, 0, 1430, 0, 0, 37, 0, 0, 0, 0, 0, 0, 0], 0x1fffffffff),
    ("APB/full", [299, 7357, 4414, 2914, 29, 0, 0, 94, 0, 898, 0, 0, 35, 0, 0, 0, 0, 0, 0, 0], 0xd1ffdfc19dff),
    ("APB/explicit", [299, 7357, 4414, 0, 2943, 0, 0, 94, 0, 898, 0, 0, 35, 0, 0, 0, 0, 0, 0, 0], 0xd1ffdfc19dff),
    ("APB/none", [299, 7357, 0, 0, 7357, 0, 0, 94, 0, 898, 0, 0, 35, 0, 0, 0, 0, 0, 0, 0], 0xd1ffdfc19dff),
    ("APB/full-batch", [299, 7357, 4414, 2914, 29, 0, 0, 94, 0, 898, 0, 0, 35, 0, 0, 0, 0, 0, 0, 0], 0xd1ffdfc19dff),
    ("APB/full-t2", [598, 7357, 4414, 2914, 29, 0, 0, 188, 0, 1796, 0, 0, 35, 0, 0, 0, 0, 0, 0, 0], 0xd1ffdfc19dff),
    ("Sodor Core/full", [436, 5232, 4790, 289, 153, 0, 0, 0, 0, 901, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0], 0xffffd678ffff),
    ("Sodor Core/explicit", [436, 5232, 4790, 0, 442, 0, 0, 0, 0, 901, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0], 0xffffd678ffff),
    ("Sodor Core/none", [436, 5232, 0, 0, 5232, 0, 0, 0, 0, 901, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0], 0xffffd678ffff),
    ("Sodor Core/full-batch", [436, 5232, 4790, 289, 153, 0, 0, 0, 0, 901, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0], 0xffffd678ffff),
    ("Sodor Core/full-t2", [872, 5232, 4790, 289, 153, 0, 0, 0, 0, 1802, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0], 0xffffd678ffff),
    ("RISCV Mini/full", [902, 3300, 3245, 38, 17, 0, 0, 8613, 482, 901, 0, 0, 45, 0, 0, 0, 0, 0, 0, 0], 0xffffefbffffb),
    ("RISCV Mini/explicit", [902, 3300, 3245, 0, 55, 0, 0, 8613, 482, 901, 0, 0, 45, 0, 0, 0, 0, 0, 0, 0], 0xffffefbffffb),
    ("RISCV Mini/none", [902, 3300, 0, 0, 3300, 0, 0, 8613, 482, 901, 0, 0, 45, 0, 0, 0, 0, 0, 0, 0], 0xffffefbffffb),
    ("RISCV Mini/full-batch", [902, 3300, 3245, 38, 17, 0, 0, 8613, 482, 901, 0, 0, 45, 0, 0, 482, 0, 0, 0, 0], 0xffffefbffffb),
    ("RISCV Mini/full-t2", [1804, 3300, 3245, 38, 17, 0, 0, 17214, 482, 1802, 0, 0, 45, 0, 0, 0, 0, 0, 0, 0], 0xffffefbffffb),
    ("PicoRV32/full", [451, 5468, 4740, 550, 178, 0, 0, 0, 0, 901, 0, 0, 37, 0, 0, 0, 0, 0, 0, 0], 0xcff3f58bffef),
    ("PicoRV32/explicit", [451, 5468, 4740, 0, 728, 0, 0, 0, 0, 901, 0, 0, 37, 0, 0, 0, 0, 0, 0, 0], 0xcff3f58bffef),
    ("PicoRV32/none", [451, 5468, 0, 0, 5468, 0, 0, 0, 0, 901, 0, 0, 37, 0, 0, 0, 0, 0, 0, 0], 0xcff3f58bffef),
    ("PicoRV32/full-batch", [451, 5468, 4740, 550, 178, 0, 0, 0, 0, 901, 0, 0, 37, 0, 0, 0, 0, 0, 0, 0], 0xcff3f58bffef),
    ("PicoRV32/full-t2", [902, 5468, 4740, 550, 178, 0, 0, 0, 0, 1802, 0, 0, 37, 0, 0, 0, 0, 0, 0, 0], 0xcff3f58bffef),
    ("Conv_acc/full", [1200, 19300, 13935, 29, 4436, 0, 900, 6021, 9974, 901, 0, 0, 34, 0, 0, 0, 0, 0, 0, 0], 0x74e1fe59efff),
    ("Conv_acc/explicit", [1200, 19300, 13935, 0, 4465, 0, 900, 6021, 9974, 901, 0, 0, 34, 0, 0, 0, 0, 0, 0, 0], 0x74e1fe59efff),
    ("Conv_acc/none", [1200, 19300, 0, 0, 18400, 0, 900, 6021, 9974, 901, 0, 0, 34, 0, 0, 0, 0, 0, 0, 0], 0x74e1fe59efff),
    ("Conv_acc/full-batch", [1200, 19300, 13935, 29, 4436, 0, 900, 6021, 9974, 901, 0, 0, 34, 4, 78, 9896, 0, 0, 0, 0], 0x74e1fe59efff),
    ("Conv_acc/full-t2", [2400, 19300, 13935, 29, 4436, 0, 900, 12042, 9974, 1802, 0, 0, 34, 0, 0, 0, 0, 0, 0, 0], 0x74e1fe59efff),
    ("SHA256_C2V/full", [300, 4592, 1966, 518, 2108, 0, 0, 32247, 110118, 901, 0, 0, 46, 0, 0, 0, 0, 0, 0, 0], 0xefffffffffbf),
    ("SHA256_C2V/explicit", [300, 4592, 1966, 0, 2626, 0, 0, 32247, 110118, 901, 0, 0, 46, 0, 0, 0, 0, 0, 0, 0], 0xefffffffffbf),
    ("SHA256_C2V/none", [300, 4592, 0, 0, 4592, 0, 0, 32247, 110118, 901, 0, 0, 46, 0, 0, 0, 0, 0, 0, 0], 0xefffffffffbf),
    ("SHA256_C2V/full-batch", [300, 4592, 1966, 518, 2108, 0, 0, 32247, 110118, 901, 0, 0, 46, 3677, 101910, 8208, 0, 0, 0, 0], 0xefffffffffbf),
    ("SHA256_C2V/full-t2", [600, 4592, 1966, 518, 2108, 0, 0, 64494, 110118, 1802, 0, 0, 46, 0, 0, 0, 0, 0, 0, 0], 0xefffffffffbf),
    ("MIPS CPU/full", [601, 6014, 5997, 15, 2, 0, 0, 7203, 897, 901, 0, 0, 39, 0, 0, 0, 0, 0, 0, 0], 0xf1b51fffffff),
    ("MIPS CPU/explicit", [601, 6014, 5997, 0, 17, 0, 0, 7203, 897, 901, 0, 0, 39, 0, 0, 0, 0, 0, 0, 0], 0xf1b51fffffff),
    ("MIPS CPU/none", [601, 6014, 0, 0, 6014, 0, 0, 7203, 897, 901, 0, 0, 39, 0, 0, 0, 0, 0, 0, 0], 0xf1b51fffffff),
    ("MIPS CPU/full-batch", [601, 6014, 5997, 15, 2, 0, 0, 7203, 897, 901, 0, 0, 39, 0, 0, 897, 0, 0, 0, 0], 0xf1b51fffffff),
    ("MIPS CPU/full-t2", [660, 6014, 5997, 15, 2, 0, 0, 7948, 897, 989, 0, 0, 39, 0, 0, 0, 0, 0, 0, 0], 0xf1b51fffffff),
    ("counter8_gate/full", [300, 4030, 3999, 0, 31, 0, 0, 5060, 1016, 901, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0], 0xffc1fffffcff),
    ("counter8_gate/explicit", [300, 4030, 3999, 0, 31, 0, 0, 5060, 1016, 901, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0], 0xffc1fffffcff),
    ("counter8_gate/none", [300, 4030, 0, 0, 4030, 0, 0, 5060, 1016, 901, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0], 0xffc1fffffcff),
    ("counter8_gate/full-batch", [300, 4030, 3999, 0, 31, 0, 0, 5060, 1016, 901, 0, 0, 41, 0, 0, 1016, 0, 0, 0, 0], 0xffc1fffffcff),
    ("counter8_gate/full-t2", [600, 4030, 3999, 0, 31, 0, 0, 9912, 1006, 1802, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0], 0xffc1fffffcff),
    ("mac16_gate/full", [300, 656, 622, 0, 34, 0, 0, 44263, 1721, 901, 0, 0, 47, 0, 0, 0, 0, 0, 0, 0], 0xfffffffbffff),
    ("mac16_gate/explicit", [300, 656, 622, 0, 34, 0, 0, 44263, 1721, 901, 0, 0, 47, 0, 0, 0, 0, 0, 0, 0], 0xfffffffbffff),
    ("mac16_gate/none", [300, 656, 0, 0, 656, 0, 0, 44263, 1721, 901, 0, 0, 47, 0, 0, 0, 0, 0, 0, 0], 0xfffffffbffff),
    ("mac16_gate/full-batch", [300, 656, 622, 0, 34, 0, 0, 44263, 1721, 901, 0, 0, 47, 0, 0, 1721, 0, 0, 0, 0], 0xfffffffbffff),
    ("mac16_gate/full-t2", [320, 656, 622, 0, 34, 0, 0, 46503, 1719, 962, 0, 0, 47, 0, 0, 0, 0, 0, 0, 0], 0xfffffffbffff),
];

fn configs() -> [(&'static str, CampaignConfig); 5] {
    let with_mode = |mode| CampaignConfig {
        mode,
        ..Default::default()
    };
    [
        ("full", with_mode(RedundancyMode::Full)),
        ("explicit", with_mode(RedundancyMode::Explicit)),
        ("none", with_mode(RedundancyMode::None)),
        (
            "full-batch",
            CampaignConfig {
                batch: BatchConfig { enabled: true },
                ..Default::default()
            },
        ),
        (
            "full-t2",
            CampaignConfig {
                parallel: ParallelConfig::with_threads(2),
                ..Default::default()
            },
        ),
    ]
}

fn measure() -> Vec<(String, [u64; 20], u64)> {
    let sources = Benchmark::all()
        .into_iter()
        .map(DesignSource::benchmark)
        .chain(["counter8_gate", "mac16_gate"].map(|n| DesignSource::fixture(n).unwrap()));
    let mut rows = Vec::new();
    for source in sources {
        let design = source.design();
        let mut cfg = source.fault_config().clone();
        cfg.max_faults = Some(MAX_FAULTS);
        let faults = generate_faults(design, &cfg);
        assert!(faults.len() <= 64, "the detected mask holds 64 faults");
        let stim = source.stimulus_with_cycles(CYCLES);
        for (label, config) in configs() {
            let mut res = run_campaign(design, &faults, &stim, &config);
            let counters = res.stats.counters_mut().map(|(_, v)| *v);
            let mask = faults
                .iter()
                .filter(|f| res.coverage.is_detected(f.id))
                .fold(0u64, |m, f| m | 1 << f.id.0);
            rows.push((format!("{}/{label}", source.name()), counters, mask));
        }
    }
    rows
}

#[test]
fn counters_and_detections_match_the_golden_table() {
    let rows = measure();
    let same = rows.len() == GOLDEN.len()
        && rows
            .iter()
            .zip(GOLDEN)
            .all(|(r, g)| r.0 == g.0 && r.1 == g.1 && r.2 == g.2);
    if !same {
        let mut table = String::new();
        for (name, counters, mask) in &rows {
            table += &format!("    (\"{name}\", {counters:?}, {mask:#x}),\n");
        }
        for (r, g) in rows.iter().zip(GOLDEN) {
            if r.0 != g.0 || r.1 != g.1 || r.2 != g.2 {
                eprintln!("first difference: {} (golden {})", r.0, g.0);
                break;
            }
        }
        panic!("counter golden moved; the table now reads:\n{table}");
    }
}
