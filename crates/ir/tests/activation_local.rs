//! `activation_local_signals`: one test per rule of the analysis, and the
//! sets it finds on every benchmark and netlist fixture.
//!
//! A signal is activation-local when exactly one behavioral node writes it,
//! nothing else can see it (no port, no RTL, level or edge fanout, no other
//! reading node), and its writer fully writes it with a blocking assignment
//! before every read, on every path.

use eraser_designs::{netlist_fixtures, Benchmark};
use eraser_frontend::compile;
use eraser_ir::analysis::activation_local_signals;
use eraser_ir::Design;

/// The names of the activation-local signals, in signal order.
fn local_names(design: &Design) -> Vec<String> {
    let local = activation_local_signals(design);
    design
        .signals()
        .iter()
        .zip(local)
        .filter(|(_, l)| *l)
        .map(|(s, _)| s.name.clone())
        .collect()
}

/// A module with temporaries `t`, `u`, `lead` and `i`, one clocked body,
/// and `extra` module items after it.
fn module(body: &str, extra: &str) -> Design {
    compile(
        &format!(
            "module m(input wire clk, input wire c, input wire [3:0] a, input wire [3:0] b,
                      input wire [7:0] d, output reg [7:0] q, output wire [7:0] y);
               reg [7:0] t;
               reg [7:0] u;
               reg [3:0] lead;
               integer i;
               always @(posedge clk) begin {body} end
               {extra}
             endmodule"
        ),
        None,
    )
    .unwrap_or_else(|e| panic!("{body} / {extra}: {e}"))
}

fn locals_of(body: &str) -> Vec<String> {
    local_names(&module(body, ""))
}

#[test]
fn if_joins_its_branches_and_a_missing_else_joins_the_fall_through() {
    assert_eq!(locals_of("if (c) t = {a, b}; else t = d; q <= t;"), ["t"]);
    assert!(locals_of("if (c) t = {a, b}; q <= t;").is_empty());
    assert_eq!(locals_of("if (c) t = {a, b}; else u = d; q <= t;"), ["u"]);
}

#[test]
fn case_joins_its_arms_and_a_missing_default_joins_the_fall_through() {
    let arms = "4'd0: t = d; 4'd1: t = {b, a};";
    assert_eq!(
        locals_of(&format!(
            "case (a) {arms} default: t = 8'h0; endcase q <= t;"
        )),
        ["t"]
    );
    assert!(locals_of(&format!("case (a) {arms} endcase q <= t;")).is_empty());
}

/// The FPU's leading-one scan: `lead` is written before the loop and `i` by
/// its init, so both are definite at every read; a write in the loop body
/// alone is not definite after the loop, which may run zero times.
#[test]
fn leading_one_scan_is_local_but_a_loop_body_write_is_not_definite_after_it() {
    assert_eq!(
        locals_of("lead = 0; for (i = 0; i < 8; i = i + 1) if (d[i]) lead = i; q <= {4'h0, lead};"),
        ["lead", "i"]
    );
    assert_eq!(
        locals_of("for (i = 0; i < 8; i = i + 1) if (d[i]) lead = i; q <= {4'h0, lead};"),
        ["i"]
    );
    assert_eq!(
        locals_of("lead = 0; for (i = 0; i < 8; i = i + 1) t = d; q <= t;"),
        ["lead", "i"]
    );
}

/// A partial write reads its target: first, it is a read of committed
/// state; after a full write, it reads the activation's own value.
#[test]
fn a_partial_first_write_reads_the_target() {
    assert!(locals_of("t[3:0] = a; t[7:4] = b; q <= t;").is_empty());
    assert_eq!(locals_of("t = 8'h0; t[3:0] = a; q <= t;"), ["t"]);
}

/// Conditions, case labels, right-hand sides and indices are reads too.
#[test]
fn every_kind_of_read_before_the_write_disqualifies() {
    for body in [
        "if (t[0]) q <= d; t = d;",
        "case (a) t[3:0]: q <= d; default: q <= 8'h0; endcase t = d;",
        "q <= t; t = d;",
        "q[t[2:0]] <= c; t = d;",
        "u[t[2:0]] = c; t = d; q <= u;",
    ] {
        assert!(!locals_of(body).contains(&"t".to_string()), "{body}");
    }
    // The same reads after the full write are local ones.
    assert_eq!(
        locals_of("t = d; if (t[0]) q <= d; else q[t[2:0]] <= c;"),
        ["t"]
    );
}

/// A non-blocking write never counts as a definite write; a register only
/// written, never read (the APB's `state`), is vacuously local.
#[test]
fn nba_writes_never_count_and_an_unread_register_is_local() {
    assert!(locals_of("t <= d; q <= t;").is_empty());
    assert_eq!(locals_of("t <= d; q <= d;"), ["t"]);
}

/// Anything outside the writer that can see the signal disqualifies it:
/// another node reading it, an RTL node, a sensitivity list, an output
/// port.
#[test]
fn a_reader_outside_the_writer_disqualifies() {
    let body = "t = {a, b}; q <= t;";
    assert_eq!(local_names(&module(body, "")), ["t"]);
    for extra in [
        "always @(posedge clk) u <= t;",
        "assign y = t;",
        "always @(t) u = d;",
    ] {
        assert!(
            !local_names(&module(body, extra)).contains(&"t".to_string()),
            "{extra}"
        );
    }
    let d = compile(
        "module m(input wire clk, input wire [7:0] d, output reg [7:0] t, output reg [7:0] q);
           always @(posedge clk) begin t = d; q <= t; end
         endmodule",
        None,
    )
    .unwrap();
    assert!(local_names(&d).is_empty());
    // A combinational writer that reads its own temporary is sensitive to
    // it (`@*` self-fanout), so the temporary is not local.
    let d = compile(
        "module m(input wire [7:0] d, output reg [7:0] q);
           reg [7:0] t;
           always @(*) begin t = d; q = t; end
         endmodule",
        None,
    )
    .unwrap();
    assert!(local_names(&d).is_empty());
}

/// Two writers: the elaborator rejects a register two nodes write, so every
/// design the analysis sees has at most one.
#[test]
fn two_writers_never_reach_the_analysis() {
    let two = compile(
        "module m(input wire clk, input wire [7:0] d, output reg [7:0] q);
           reg [7:0] t;
           always @(posedge clk) begin t = d; q <= t; end
           always @(negedge clk) t = d;
         endmodule",
        None,
    );
    assert!(two.is_err());
}

#[test]
fn benchmark_and_fixture_sets_are_pinned() {
    for bench in Benchmark::all() {
        let expected: &[&str] = match bench {
            Benchmark::Fpu32 => &[
                "sx", "sy", "sl", "ex", "ey", "el", "es", "d", "mx", "my", "mant", "ml", "ms",
                "shifted", "diff", "norm", "prod", "exp10", "sum", "lead", "res", "i",
            ],
            Benchmark::Alu64 => &["tmp", "c"],
            Benchmark::Sha256Hv => &[
                "kt", "s0", "s1", "ch", "maj", "t1", "t2", "ws0", "ws1", "wnext",
            ],
            Benchmark::Apb => &["state"],
            _ => &[],
        };
        assert_eq!(local_names(&bench.build()), expected, "{}", bench.name());
    }
    for fixture in netlist_fixtures() {
        assert!(
            local_names(fixture.design()).is_empty(),
            "{}",
            fixture.name()
        );
    }
}
