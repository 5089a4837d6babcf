//! Error type shared across the IR crates.

use std::fmt;

use crate::symbol::Symbol;

/// Convenient alias used throughout `lc-ir` and `lc-xform`.
pub type Result<T> = std::result::Result<T, Error>;

/// Everything that can go wrong while parsing, analyzing, transforming, or
/// executing an IR program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Integer division or modulus by zero during evaluation.
    DivisionByZero,
    /// Arithmetic overflowed `i64` during evaluation.
    Overflow,
    /// A scalar variable was read before being assigned.
    UnboundVariable(Symbol),
    /// An array was referenced but never declared.
    UnknownArray(Symbol),
    /// An array was declared twice.
    DuplicateArray(Symbol),
    /// An array access used the wrong number of subscripts.
    RankMismatch {
        /// The array involved.
        array: Symbol,
        /// Declared rank.
        expected: usize,
        /// Number of subscripts supplied.
        got: usize,
    },
    /// A subscript evaluated outside the declared extent.
    OutOfBounds {
        /// The array involved.
        array: Symbol,
        /// Which subscript position (0-based).
        dim: usize,
        /// The offending value.
        index: i64,
        /// The declared extent of that dimension.
        extent: usize,
    },
    /// The interpreter exceeded its configured step budget.
    StepBudgetExceeded {
        /// The configured budget.
        budget: u64,
    },
    /// A loop has a zero step expression.
    ZeroStep(Symbol),
    /// Parse error with a human-readable message and 1-based line number.
    Parse {
        /// 1-based line where the error was detected.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An analysis or transformation precondition failed; the payload
    /// says which one, in a form callers can match on without string
    /// inspection.
    Unsupported(SkipReason),
}

impl Error {
    /// Free-form [`Error::Unsupported`] for preconditions that have no
    /// dedicated [`SkipReason`] variant.
    pub fn unsupported(message: impl Into<String>) -> Error {
        Error::Unsupported(SkipReason::Other(message.into()))
    }
}

/// Which part of a loop header a diagnostic refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundPart {
    /// The lower bound expression.
    Lower,
    /// The upper bound expression.
    Upper,
    /// The step expression.
    Step,
}

/// Typed diagnostic explaining why a transformation skipped (or refused)
/// a nest. Replaces the former free-form `Unsupported(String)`: callers
/// match on variants instead of substring-testing messages, while
/// `Display` reproduces the exact messages the string era produced.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SkipReason {
    /// The requested level band does not fit the nest.
    BandOutOfRange {
        /// Band start (0-based, inclusive).
        start: usize,
        /// Band end (exclusive).
        end: usize,
        /// Actual nest depth.
        depth: usize,
    },
    /// A dependence is carried at a level inside the band.
    CarriedDependence {
        /// 0-based nest level carrying the dependence.
        level: usize,
        /// Loop variable of that level.
        var: Symbol,
    },
    /// A scalar may carry a value across iterations (e.g. a reduction),
    /// so it cannot be privatized.
    ScalarReduction {
        /// The scalar variable.
        var: Symbol,
    },
    /// One loop header has a symbolic (non-constant) bound or step.
    SymbolicBound {
        /// Loop variable of the offending header.
        var: Symbol,
        /// Which part of the header is symbolic.
        part: BoundPart,
    },
    /// The nest as a whole has symbolic trip counts.
    SymbolicBounds,
    /// A header is not in unit form `1..=U step 1`.
    NotNormalized {
        /// Loop variable of the offending header.
        var: Symbol,
    },
    /// An upper bound depends on a variable the nest itself writes.
    VariantBound {
        /// Loop variable whose bound is variant.
        var: Symbol,
        /// The variable the bound depends on.
        dep: Symbol,
    },
    /// Interchange asked for a level at or beyond the nest depth.
    InterchangeOutOfRange {
        /// The requested (outer) level.
        level: usize,
        /// Actual nest depth.
        depth: usize,
    },
    /// Loop bounds of adjacent levels reference each other's variables.
    NotRectangular {
        /// Loop variable whose bounds are dependent.
        var: Symbol,
        /// The variable those bounds mention.
        other: Symbol,
    },
    /// A `(<, >)` direction vector forbids interchanging two levels.
    InterchangeIllegal {
        /// The outer of the two levels being swapped.
        level: usize,
        /// Array carrying the blocking dependence.
        array: Symbol,
    },
    /// Nest perfection found a body with other than exactly one
    /// inner loop.
    ImperfectNest {
        /// How many inner loops the body actually contains.
        found: usize,
    },
    /// Every level carries a dependence; no band is legal.
    NothingLegal,
    /// A static-analysis lint configured at `deny` severity fired on the
    /// nest, so the pipeline refused to transform it.
    LintDenied {
        /// Stable lint code (e.g. `"LC001"`).
        code: String,
        /// The lint's human-readable message.
        message: String,
    },
    /// Free-form reason with no dedicated variant.
    Other(String),
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::BandOutOfRange { start, end, depth } => write!(
                f,
                "invalid level band [{start}, {end}) for nest of depth {depth}"
            ),
            SkipReason::CarriedDependence { var, .. } => {
                write!(f, "dependence carried at level `{var}` forbids coalescing")
            }
            SkipReason::ScalarReduction { var } => write!(
                f,
                "scalar `{var}` may be read before it is written within an \
                 iteration (cross-iteration scalar dependence, e.g. a \
                 reduction); cannot privatize"
            ),
            SkipReason::SymbolicBound { var, part } => {
                let part = match part {
                    BoundPart::Lower => "symbolic lower bound",
                    BoundPart::Upper => "symbolic upper bound",
                    BoundPart::Step => "symbolic step",
                };
                write!(f, "loop `{var}` has {part}")
            }
            SkipReason::SymbolicBounds => write!(f, "nest has symbolic bounds"),
            SkipReason::NotNormalized { var } => write!(
                f,
                "loop `{var}` is not normalized (run normalize_nest first)"
            ),
            SkipReason::VariantBound { var, dep } => write!(
                f,
                "bound of `{var}` depends on `{dep}`, which the nest modifies"
            ),
            SkipReason::InterchangeOutOfRange { level, depth } => write!(
                f,
                "cannot interchange level {level} of a depth-{depth} nest"
            ),
            SkipReason::NotRectangular { var, other } => write!(
                f,
                "bounds of `{var}` depend on `{other}`: nest is not rectangular"
            ),
            SkipReason::InterchangeIllegal { level, array } => write!(
                f,
                "interchange of levels {level} and {} is illegal: \
                 dependence with direction (<, >) on `{array}`",
                level + 1
            ),
            SkipReason::ImperfectNest { found } => {
                write!(f, "perfection needs exactly one inner loop, found {found}")
            }
            SkipReason::NothingLegal => {
                write!(f, "every level carries a dependence; nothing to coalesce")
            }
            SkipReason::LintDenied { code, message } => {
                write!(f, "denied by lint {code}: {message}")
            }
            SkipReason::Other(m) => f.write_str(m),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DivisionByZero => write!(f, "division by zero"),
            Error::Overflow => write!(f, "integer overflow"),
            Error::UnboundVariable(s) => write!(f, "unbound variable `{s}`"),
            Error::UnknownArray(s) => write!(f, "unknown array `{s}`"),
            Error::DuplicateArray(s) => write!(f, "array `{s}` declared twice"),
            Error::RankMismatch {
                array,
                expected,
                got,
            } => write!(
                f,
                "array `{array}` has rank {expected} but was accessed with {got} subscripts"
            ),
            Error::OutOfBounds {
                array,
                dim,
                index,
                extent,
            } => write!(
                f,
                "subscript {index} out of bounds for dimension {dim} of `{array}` (extent {extent}, valid 1..={extent})"
            ),
            Error::StepBudgetExceeded { budget } => {
                write!(f, "interpreter exceeded step budget of {budget}")
            }
            Error::ZeroStep(s) => write!(f, "loop over `{s}` has step 0"),
            Error::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            Error::Unsupported(reason) => write!(f, "unsupported: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::OutOfBounds {
            array: Symbol::new("A"),
            dim: 1,
            index: 9,
            extent: 8,
        };
        let msg = e.to_string();
        assert!(msg.contains("A") && msg.contains("9") && msg.contains("8"));

        let e = Error::Parse {
            line: 3,
            message: "expected `..`".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn error_implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::DivisionByZero);
    }
}
