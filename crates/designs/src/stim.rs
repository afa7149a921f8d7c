//! Deterministic stimulus generators, one per benchmark.
//!
//! All generators use [`StimulusBuilder::add_cycle`]: two settle steps per
//! clock cycle (drive low + data changes, then drive high), with the reset
//! sequence at the front. Each sizes its builder from `cycles`
//! ([`StimulusBuilder::with_capacity`]), so the step index is allocated
//! once and the changes land in a few bounded chunks; nothing is
//! allocated per cycle except values wider than 64 bits. The streams are
//! pure functions of a fixed seed, so every engine replays identical
//! inputs.

use crate::{Benchmark, Lcg};
use eraser_ir::{Design, SignalId};
use eraser_logic::LogicVec;
use eraser_sim::{Stimulus, StimulusBuilder};

fn sig(design: &Design, name: &str) -> SignalId {
    design
        .find_signal(name)
        .unwrap_or_else(|| panic!("benchmark design is missing signal `{name}`"))
}

fn v(w: u32, x: u64) -> LogicVec {
    LogicVec::from_u64(w, x)
}

/// Builds the stimulus for `bench` over `cycles` clock cycles.
pub fn build(bench: Benchmark, design: &Design, cycles: usize) -> Stimulus {
    match bench {
        Benchmark::Alu64 => alu(design, cycles),
        Benchmark::Fpu32 => fpu(design, cycles),
        Benchmark::Sha256Hv | Benchmark::Sha256C2v => sha(design, cycles),
        Benchmark::Apb => apb(design, cycles),
        Benchmark::SodorCore | Benchmark::RiscvMini | Benchmark::PicoRv32 | Benchmark::MipsCpu => {
            cpu(design, cycles)
        }
        Benchmark::ConvAcc => conv(design, cycles),
    }
}

fn alu(d: &Design, cycles: usize) -> Stimulus {
    let (clk, rst) = (sig(d, "clk"), sig(d, "rst"));
    let (a, b, op, start) = (sig(d, "a"), sig(d, "b"), sig(d, "op"), sig(d, "start"));
    let mut rng = Lcg::new(0xa1);
    let mut sb = StimulusBuilder::with_capacity(cycles + 1);
    sb.add_cycle(clk, &[(rst, v(1, 1)), (start, v(1, 0))]);
    for i in 0..cycles {
        sb.add_cycle(
            clk,
            &[
                (rst, v(1, 0)),
                (start, v(1, 1)),
                (a, v(64, rng.next_u64())),
                (b, v(64, rng.next_u64())),
                (op, v(4, (i as u64) % 14)),
            ],
        );
    }
    sb.finish()
}

fn fpu(d: &Design, cycles: usize) -> Stimulus {
    let (clk, rst) = (sig(d, "clk"), sig(d, "rst"));
    let (x, y, op_mul, start) = (sig(d, "x"), sig(d, "y"), sig(d, "op_mul"), sig(d, "start"));
    let mut rng = Lcg::new(0xf9);
    let mut sb = StimulusBuilder::with_capacity(cycles + 1);
    sb.add_cycle(clk, &[(rst, v(1, 1)), (start, v(1, 0))]);
    for i in 0..cycles {
        // Bias exponents toward the normal range so add/mul paths are
        // exercised, with occasional extremes for the clamping branches.
        let mk = |rng: &mut Lcg| -> u64 {
            let sign = rng.below(2) << 31;
            let exp = if rng.below(8) == 0 {
                rng.below(256)
            } else {
                100 + rng.below(60)
            } << 23;
            let mant = rng.below(1 << 23);
            sign | exp | mant
        };
        let xv = mk(&mut rng);
        let yv = mk(&mut rng);
        sb.add_cycle(
            clk,
            &[
                (rst, v(1, 0)),
                (start, v(1, 1)),
                (op_mul, v(1, (i as u64) & 1)),
                (x, v(32, xv)),
                (y, v(32, yv)),
            ],
        );
    }
    sb.finish()
}

fn sha(d: &Design, cycles: usize) -> Stimulus {
    let (clk, rst) = (sig(d, "clk"), sig(d, "rst"));
    let (start, block) = (sig(d, "start"), sig(d, "block_in"));
    let mut rng = Lcg::new(0x5a);
    let mut sb = StimulusBuilder::with_capacity(cycles.max(2));
    sb.add_cycle(clk, &[(rst, v(1, 1)), (start, v(1, 0))]);
    sb.add_cycle(clk, &[(rst, v(1, 0))]);
    let mut remaining = cycles.saturating_sub(2);
    while remaining > 67 {
        // One hash: start pulse with a fresh block, 66 busy cycles
        // (64 rounds + handshake margin), then an idle gap before the next
        // block arrives — the host-interface dead time a real core sees.
        let mut blk = LogicVec::zeros(512);
        for w in 0..8 {
            blk.assign_slice(w * 64, &v(64, rng.next_u64()));
        }
        sb.add_cycle(clk, &[(start, v(1, 1)), (block, blk)]);
        sb.add_cycle(clk, &[(start, v(1, 0))]);
        for _ in 0..66 {
            sb.add_cycle(clk, &[]);
        }
        remaining -= 68;
        let idle = 40.min(remaining);
        for _ in 0..idle {
            sb.add_cycle(clk, &[]);
        }
        remaining -= idle;
    }
    sb.finish()
}

fn apb(d: &Design, cycles: usize) -> Stimulus {
    let (clk, rstn) = (sig(d, "pclk"), sig(d, "presetn"));
    let (psel, pen, pwr) = (sig(d, "psel"), sig(d, "penable"), sig(d, "pwrite"));
    let (addr, wdata) = (sig(d, "paddr"), sig(d, "pwdata"));
    let mut rng = Lcg::new(0xab);
    let mut sb = StimulusBuilder::with_capacity(cycles.max(2));
    sb.add_cycle(clk, &[(rstn, v(1, 0)), (psel, v(1, 0)), (pen, v(1, 0))]);
    sb.add_cycle(clk, &[(rstn, v(1, 1))]);
    let mut remaining = cycles.saturating_sub(2);
    while remaining >= 3 {
        // One APB transaction: SETUP, ACCESS, idle.
        let write = rng.below(4) != 0; // mostly writes early, reads verify
        let a = if rng.below(8) == 0 {
            rng.below(32) // occasionally out of range -> pslverr path
        } else {
            rng.below(8)
        };
        sb.add_cycle(
            clk,
            &[
                (psel, v(1, 1)),
                (pen, v(1, 0)),
                (pwr, v(1, write as u64)),
                (addr, v(5, a)),
                (wdata, v(32, rng.next_u64())),
            ],
        );
        sb.add_cycle(clk, &[(pen, v(1, 1))]);
        sb.add_cycle(clk, &[(psel, v(1, 0)), (pen, v(1, 0))]);
        remaining -= 3;
    }
    sb.finish()
}

fn cpu(d: &Design, cycles: usize) -> Stimulus {
    let (clk, rst) = (sig(d, "clk"), sig(d, "rst"));
    let mut sb = StimulusBuilder::with_capacity(cycles.max(2));
    sb.add_cycle(clk, &[(rst, v(1, 1))]);
    sb.add_cycle(clk, &[(rst, v(1, 0))]);
    for _ in 0..cycles.saturating_sub(2) {
        sb.add_cycle(clk, &[]);
    }
    sb.finish()
}

fn conv(d: &Design, cycles: usize) -> Stimulus {
    let (clk, rst) = (sig(d, "clk"), sig(d, "rst"));
    let (load_w, valid_in) = (sig(d, "load_w"), sig(d, "valid_in"));
    let (window, weights) = (sig(d, "window"), sig(d, "weights"));
    let mut rng = Lcg::new(0xcc);
    let mut sb = StimulusBuilder::with_capacity(cycles.max(3));
    let mut wv = LogicVec::zeros(72);
    for k in 0..9 {
        wv.assign_slice(k * 8, &v(8, rng.below(256)));
    }
    sb.add_cycle(
        clk,
        &[(rst, v(1, 1)), (load_w, v(1, 0)), (valid_in, v(1, 0))],
    );
    sb.add_cycle(clk, &[(rst, v(1, 0)), (load_w, v(1, 1)), (weights, wv)]);
    sb.add_cycle(clk, &[(load_w, v(1, 0)), (valid_in, v(1, 1))]);
    // Every cycle rewrites all nine window bytes, so one change list
    // serves every streaming cycle; the stimulus keeps its own copy.
    let mut stream = [
        (load_w, v(1, 0)),
        (valid_in, v(1, 1)),
        (window, LogicVec::zeros(72)),
    ];
    for i in 0..cycles.saturating_sub(3) {
        for k in 0..9 {
            stream[2].1.assign_slice(k * 8, &v(8, rng.below(256)));
        }
        // Occasionally reload weights mid-stream.
        if i > 0 && i % 97 == 0 {
            let mut nw = LogicVec::zeros(72);
            for k in 0..9 {
                nw.assign_slice(k * 8, &v(8, rng.below(256)));
            }
            sb.add_cycle(
                clk,
                &[(load_w, v(1, 1)), (weights, nw), (valid_in, v(1, 0))],
            );
        } else {
            sb.add_cycle(clk, &stream);
        }
    }
    sb.finish()
}
