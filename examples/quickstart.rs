//! Quickstart: compile a small Verilog design, generate stuck-at faults,
//! run an ERASER fault-simulation campaign and print the coverage.
//!
//! Run with `cargo run --release --example quickstart`.

use eraser::core::{run_campaign, CampaignConfig, RedundancyMode};
use eraser::fault::{generate_faults, FaultListConfig};
use eraser::frontend::compile;
use eraser::logic::LogicVec;
use eraser::sim::StimulusBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny pipelined accumulator with a decode FSM.
    let design = compile(
        r#"
        module dut(
            input wire clk,
            input wire rst,
            input wire [1:0] cmd,
            input wire [7:0] data,
            output reg [15:0] acc,
            output reg busy
        );
            always @(posedge clk) begin
                if (rst) begin
                    acc <= 16'h0;
                    busy <= 1'b0;
                end
                else begin
                    busy <= cmd != 2'd0;
                    case (cmd)
                        2'd1: acc <= acc + {8'h0, data};
                        2'd2: acc <= acc ^ {data, 8'h0};
                        2'd3: acc <= {acc[14:0], acc[15]};
                        default: ;
                    endcase
                end
            end
        endmodule
        "#,
        Some("dut"),
    )?;

    // Fault universe: per-bit stuck-at faults on every named wire/reg,
    // excluding clock and reset.
    let faults = generate_faults(
        &design,
        &FaultListConfig {
            exclude_names: vec!["clk".into(), "rst".into()],
            ..Default::default()
        },
    );
    println!("design `{}`: {} faults", design.name(), faults.len());

    // Deterministic stimulus: reset, then a mix of commands.
    let clk = design.find_signal("clk").expect("clk");
    let rst = design.find_signal("rst").expect("rst");
    let cmd = design.find_signal("cmd").expect("cmd");
    let data = design.find_signal("data").expect("data");
    let mut sb = StimulusBuilder::new();
    sb.add_cycle(clk, &[(rst, LogicVec::from_u64(1, 1))]);
    for i in 0..100u64 {
        sb.add_cycle(
            clk,
            &[
                (rst, LogicVec::from_u64(1, 0)),
                (cmd, LogicVec::from_u64(2, 1 + i % 3)),
                (data, LogicVec::from_u64(8, i.wrapping_mul(37) % 256)),
            ],
        );
    }

    // Run the full ERASER engine (explicit + implicit redundancy
    // elimination, fault dropping on detection). The default config is
    // serial; set `parallel: ParallelConfig::with_threads(4)` to run
    // fault-parallel — coverage is bit-identical at any thread count.
    let config = CampaignConfig {
        mode: RedundancyMode::Full,
        drop_detected: true,
        ..Default::default()
    };
    let result = run_campaign(&design, &faults, &sb.finish(), &config);
    println!("coverage: {}", result.coverage);
    println!(
        "behavioral executions: {} of {} opportunities ({} explicit-skipped, {} implicit-skipped)",
        result.stats.fault_executions,
        result.stats.opportunities,
        result.stats.explicit_skipped,
        result.stats.implicit_skipped,
    );
    Ok(())
}
