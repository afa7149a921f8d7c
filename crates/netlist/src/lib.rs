//! # eraser-netlist
//!
//! Yosys-JSON netlist intake for the ERASER framework: any design Yosys
//! can elaborate (`yosys -p 'prep; write_json out.json'`) becomes a
//! fault-simulation target, without adding a dependency.
//!
//! Two layers:
//!
//! * [`json`] — a minimal order-preserving JSON parser with line/column
//!   errors;
//! * [`import_str`] — the cell mapper, turning Yosys
//!   word-level cells and the simple-gate library into the same
//!   `DesignBuilder` RTL nodes the Verilog frontend emits, reassembling
//!   multi-bit buses from bit-indexed connections and materializing every
//!   visible named net as a fault-injection site.

#![warn(missing_docs)]

pub mod json;

mod import;

pub use import::{import_str, ImportError};

#[cfg(test)]
mod tests {
    use super::*;
    use eraser_ir::SignalKind;

    /// A 2-bit counter from word-level cells:
    /// `q <= rst ? 0 : q + 1` with an async-reset flop.
    const COUNTER2: &str = r#"{
      "modules": {
        "counter2": {
          "attributes": { "top": 1 },
          "ports": {
            "clk": { "direction": "input", "bits": [2] },
            "rst": { "direction": "input", "bits": [3] },
            "q":   { "direction": "output", "bits": [4, 5] }
          },
          "cells": {
            "add0": {
              "type": "$add",
              "parameters": { "A_SIGNED": 0, "B_SIGNED": 0 },
              "port_directions": { "A": "input", "B": "input", "Y": "output" },
              "connections": { "A": [4, 5], "B": ["1", "0"], "Y": [6, 7] }
            },
            "ff0": {
              "type": "$adff",
              "parameters": {
                "CLK_POLARITY": 1, "ARST_POLARITY": 1, "ARST_VALUE": "00"
              },
              "port_directions": {
                "CLK": "input", "ARST": "input", "D": "input", "Q": "output"
              },
              "connections": { "CLK": [2], "ARST": [3], "D": [6, 7], "Q": [4, 5] }
            }
          },
          "netnames": {
            "clk":  { "hide_name": 0, "bits": [2] },
            "rst":  { "hide_name": 0, "bits": [3] },
            "q":    { "hide_name": 0, "bits": [4, 5] },
            "next": { "hide_name": 0, "bits": [6, 7] }
          }
        }
      }
    }"#;

    #[test]
    fn imports_a_word_level_counter() {
        let d = import_str(COUNTER2, None).unwrap();
        assert_eq!(d.name(), "counter2");
        assert_eq!(d.inputs().len(), 2);
        assert_eq!(d.outputs().len(), 1);
        // The adder output carries the visible name `next` (a fault site).
        let next = d.find_signal("next").expect("named net `next`");
        assert!(!d.signal(next).synthetic);
        // The flop output is a reg and feeds the output port `q`.
        let q_port = d.find_signal("q").unwrap();
        assert_eq!(d.signal(q_port).width, 2);
        let regs = d
            .signals()
            .iter()
            .filter(|s| s.kind == SignalKind::Reg)
            .count();
        assert_eq!(regs, 1);
        assert_eq!(d.behavioral_nodes().len(), 1);
    }

    #[test]
    fn unsupported_cell_names_cell_and_net() {
        let text = COUNTER2.replace("$add", "$macc");
        let e = import_str(&text, None).unwrap_err();
        assert!(e.message.contains("$macc"), "{e}");
        assert!(e.message.contains("add0"), "{e}");
        assert!(e.message.contains("next"), "{e}");
    }

    #[test]
    fn hierarchical_cell_suggests_flatten() {
        let text = COUNTER2.replace("$add", "submod");
        let e = import_str(&text, None).unwrap_err();
        assert!(e.message.contains("submod"), "{e}");
        assert!(e.message.contains("flatten"), "{e}");
    }

    #[test]
    fn json_errors_carry_position() {
        let e = import_str("{\n  \"modules\": oops\n}", None).unwrap_err();
        assert_eq!(e.location.map(|(l, _)| l), Some(2));
    }

    #[test]
    fn multiple_drivers_rejected() {
        // Second flop claims the same Q bits.
        let text = COUNTER2.replace(
            r#""ff0": {"#,
            r#""ffdup": {
              "type": "$dff",
              "parameters": { "CLK_POLARITY": 1 },
              "port_directions": { "CLK": "input", "D": "input", "Q": "output" },
              "connections": { "CLK": [2], "D": [6, 7], "Q": [4, 5] }
            },
            "ff0": {"#,
        );
        let e = import_str(&text, None).unwrap_err();
        assert!(e.message.contains("multiple drivers"), "{e}");
    }
}
