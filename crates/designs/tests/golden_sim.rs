//! Validates the good simulation of the datapath benchmarks against their
//! software golden models — the correctness anchor for every engine (all
//! fault simulators share the same evaluation machinery), on both
//! evaluation backends.

use eraser_designs::{golden, Benchmark, Lcg};
use eraser_ir::EvalBackend;
use eraser_logic::LogicVec;
use eraser_sim::Simulator;

const BACKENDS: [EvalBackend; 2] = [EvalBackend::Tree, EvalBackend::Tape];

fn v(w: u32, x: u64) -> LogicVec {
    LogicVec::from_u64(w, x)
}

#[test]
fn alu64_matches_golden() {
    BACKENDS.into_iter().for_each(check_alu64);
}

fn check_alu64(backend: EvalBackend) {
    let d = Benchmark::Alu64.build();
    let clk = d.find_signal("clk").unwrap();
    let rst = d.find_signal("rst").unwrap();
    let (a, b, op, start) = (
        d.find_signal("a").unwrap(),
        d.find_signal("b").unwrap(),
        d.find_signal("op").unwrap(),
        d.find_signal("start").unwrap(),
    );
    let (result, zero, carry) = (
        d.find_signal("result").unwrap(),
        d.find_signal("zero").unwrap(),
        d.find_signal("carry").unwrap(),
    );
    let mut sim = Simulator::with_backend(&d, backend);
    sim.set_input(rst, &v(1, 1));
    sim.set_input(start, &v(1, 0));
    sim.clock_cycle(clk);
    sim.set_input(rst, &v(1, 0));
    sim.set_input(start, &v(1, 1));
    let mut rng = Lcg::new(7);
    for i in 0..200u64 {
        let av = rng.next_u64();
        let bv = rng.next_u64();
        let opv = (i % 14) as u8;
        sim.set_input(a, &v(64, av));
        sim.set_input(b, &v(64, bv));
        sim.set_input(op, &v(4, opv as u64));
        sim.clock_cycle(clk);
        let (er, ez, ec) = golden::alu64(opv, av, bv);
        assert_eq!(
            sim.value(result).to_u64(),
            Some(er),
            "op {opv} a {av:#x} b {bv:#x}"
        );
        assert_eq!(
            sim.value(zero).to_u64(),
            Some(ez as u64),
            "zero for op {opv}"
        );
        assert_eq!(
            sim.value(carry).to_u64(),
            Some(ec as u64),
            "carry for op {opv}"
        );
    }
}

#[test]
fn fpu32_matches_golden() {
    BACKENDS.into_iter().for_each(check_fpu32);
}

fn check_fpu32(backend: EvalBackend) {
    let d = Benchmark::Fpu32.build();
    let clk = d.find_signal("clk").unwrap();
    let rst = d.find_signal("rst").unwrap();
    let (x, y, op_mul, start) = (
        d.find_signal("x").unwrap(),
        d.find_signal("y").unwrap(),
        d.find_signal("op_mul").unwrap(),
        d.find_signal("start").unwrap(),
    );
    let z = d.find_signal("z").unwrap();
    let mut sim = Simulator::with_backend(&d, backend);
    sim.set_input(rst, &v(1, 1));
    sim.set_input(start, &v(1, 0));
    sim.clock_cycle(clk);
    sim.set_input(rst, &v(1, 0));
    sim.set_input(start, &v(1, 1));
    let mut rng = Lcg::new(99);
    for i in 0..400u64 {
        let mk = |rng: &mut Lcg| -> u32 {
            let sign = (rng.below(2) as u32) << 31;
            let exp = (if rng.below(8) == 0 {
                rng.below(256)
            } else {
                90 + rng.below(80)
            } as u32)
                << 23;
            sign | exp | (rng.below(1 << 23) as u32)
        };
        let xv = mk(&mut rng);
        let yv = mk(&mut rng);
        let mul = i % 2 == 1;
        sim.set_input(x, &v(32, xv as u64));
        sim.set_input(y, &v(32, yv as u64));
        sim.set_input(op_mul, &v(1, mul as u64));
        sim.clock_cycle(clk);
        let expect = golden::fpu32(mul, xv, yv);
        assert_eq!(
            sim.value(z).to_u64(),
            Some(expect as u64),
            "{} x={xv:#010x} y={yv:#010x}",
            if mul { "mul" } else { "add" }
        );
    }
}

fn check_sha(bench: Benchmark, backend: EvalBackend) {
    let d = bench.build();
    let clk = d.find_signal("clk").unwrap();
    let rst = d.find_signal("rst").unwrap();
    let start = d.find_signal("start").unwrap();
    let block = d.find_signal("block_in").unwrap();
    let digest = d.find_signal("digest").unwrap();
    let done = d.find_signal("done").unwrap();
    let mut sim = Simulator::with_backend(&d, backend);
    sim.set_input(rst, &v(1, 1));
    sim.set_input(start, &v(1, 0));
    sim.clock_cycle(clk);
    sim.set_input(rst, &v(1, 0));
    let mut rng = Lcg::new(5);
    for hash in 0..3 {
        // Build a block; words[0] is bits 511..480.
        let mut words = [0u32; 16];
        if hash == 0 {
            // FIPS "abc" vector.
            words[0] = 0x61626380;
            words[15] = 24;
        } else {
            for w in words.iter_mut() {
                *w = rng.next_u64() as u32;
            }
        }
        let mut blk = LogicVec::zeros(512);
        for (i, w) in words.iter().enumerate() {
            blk.assign_slice(511 - 32 * i as u32 - 31, &v(32, *w as u64));
        }
        sim.set_input(block, &blk);
        sim.set_input(start, &v(1, 1));
        sim.clock_cycle(clk);
        sim.set_input(start, &v(1, 0));
        for _ in 0..66 {
            sim.clock_cycle(clk);
        }
        assert_eq!(sim.value(done).to_u64(), Some(1), "hash {hash} not done");
        let expect = golden::sha256_compress(&words);
        let got = sim.value(digest);
        for (i, e) in expect.iter().enumerate() {
            let lo = 255 - 32 * i as u32 - 31;
            assert_eq!(
                got.slice(lo + 31, lo).to_u64(),
                Some(*e as u64),
                "{} hash {hash} word {i}",
                bench.name()
            );
        }
    }
}

#[test]
fn sha256_hv_matches_golden() {
    for backend in BACKENDS {
        check_sha(Benchmark::Sha256Hv, backend);
    }
}

#[test]
fn sha256_c2v_matches_golden() {
    for backend in BACKENDS {
        check_sha(Benchmark::Sha256C2v, backend);
    }
}

#[test]
fn conv_acc_matches_golden() {
    BACKENDS.into_iter().for_each(check_conv_acc);
}

fn check_conv_acc(backend: EvalBackend) {
    let d = Benchmark::ConvAcc.build();
    let clk = d.find_signal("clk").unwrap();
    let rst = d.find_signal("rst").unwrap();
    let (load_w, valid_in) = (
        d.find_signal("load_w").unwrap(),
        d.find_signal("valid_in").unwrap(),
    );
    let (window, weights) = (
        d.find_signal("window").unwrap(),
        d.find_signal("weights").unwrap(),
    );
    let (pixel_out, valid_out) = (
        d.find_signal("pixel_out").unwrap(),
        d.find_signal("valid_out").unwrap(),
    );
    let mut rng = Lcg::new(3);
    let mut wbytes = [0u8; 9];
    for b in wbytes.iter_mut() {
        *b = rng.below(256) as u8;
    }
    let pack = |bytes: &[u8; 9]| {
        let mut x = LogicVec::zeros(72);
        for (k, b) in bytes.iter().enumerate() {
            x.assign_slice(k as u32 * 8, &v(8, *b as u64));
        }
        x
    };
    let mut sim = Simulator::with_backend(&d, backend);
    sim.set_input(rst, &v(1, 1));
    sim.set_input(load_w, &v(1, 0));
    sim.set_input(valid_in, &v(1, 0));
    sim.clock_cycle(clk);
    sim.set_input(rst, &v(1, 0));
    sim.set_input(load_w, &v(1, 1));
    sim.set_input(weights, &pack(&wbytes));
    sim.clock_cycle(clk);
    sim.set_input(load_w, &v(1, 0));
    sim.set_input(valid_in, &v(1, 1));

    // Data latency: window -> PE accumulators (1 cycle) -> pixel_out
    // (1 more). The valid pipeline is one stage deeper, so the first
    // window of a burst is swallowed while the pipe fills; thereafter
    // pixel_out after cycle i holds the result of window i-1.
    let mut expected: Vec<u16> = Vec::new();
    for i in 0..60usize {
        let mut win = [0u8; 9];
        for b in win.iter_mut() {
            *b = rng.below(256) as u8;
        }
        expected.push(golden::conv3x3(&win, &wbytes));
        sim.set_input(window, &pack(&win));
        sim.clock_cycle(clk);
        if i >= 2 {
            assert_eq!(sim.value(valid_out).to_u64(), Some(1), "cycle {i}");
            assert_eq!(
                sim.value(pixel_out).to_u64(),
                Some(expected[i - 1] as u64),
                "pixel at cycle {i}"
            );
        }
    }
}
