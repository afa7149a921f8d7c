//! Names of the retired compiled evaluation backend.
//!
//! Every RTL node, on every network and in every engine, runs on one
//! evaluator, `eval_rtl_op_with` in `eraser-sim`, each operator through
//! [`crate::ops`]; behavioral bodies run on the tree walker
//! ([`crate::eval`]). Two names stay only because the benchmark crate
//! compiles against them: [`EvalBackend`], the parsed value of the
//! campaign spec key `eval`, which no engine reads, and [`TapeProgram`],
//! which holds nothing. Deleting them is a change to the benchmark
//! (ROADMAP item 1).

use crate::design::Design;

/// The parsed value of the campaign spec key `eval` (`tree` | `tape`).
/// Accepted for old specs and read by no engine: every RTL node runs on
/// the one evaluator whichever value is given.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalBackend {
    /// `"tree"`, the default.
    #[default]
    Tree,
    /// `"tape"`, the retired compiled backend; evaluates the same way.
    Tape,
}

impl std::fmt::Display for EvalBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalBackend::Tree => write!(f, "tree"),
            EvalBackend::Tape => write!(f, "tape"),
        }
    }
}

impl std::str::FromStr for EvalBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tree" => Ok(EvalBackend::Tree),
            "tape" => Ok(EvalBackend::Tape),
            other => Err(format!("unknown eval backend `{other}` (tree|tape)")),
        }
    }
}

/// The retired tape program: it holds nothing and changes nothing where it
/// is passed (`Simulator::with_tapes`, `CampaignContext::tapes`,
/// `record_good_run`). It stays only until the benchmark stops naming it.
#[derive(Debug, Clone, PartialEq)]
pub struct TapeProgram;

impl TapeProgram {
    /// `None` for [`EvalBackend::Tree`], an empty program for
    /// [`EvalBackend::Tape`].
    pub fn for_backend(design: &Design, backend: EvalBackend) -> Option<TapeProgram> {
        (backend == EvalBackend::Tape).then(|| TapeProgram::compile(design))
    }

    /// An empty program: there is nothing left to compile.
    pub fn compile(_design: &Design) -> TapeProgram {
        TapeProgram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("tape".parse::<EvalBackend>().unwrap(), EvalBackend::Tape);
        assert_eq!("TREE".parse::<EvalBackend>().unwrap(), EvalBackend::Tree);
        assert!("fast".parse::<EvalBackend>().is_err());
        assert_eq!(EvalBackend::Tape.to_string(), "tape");
    }
}
