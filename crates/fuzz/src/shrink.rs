//! The shrinker: minimize a failing program while the failure
//! reproduces.
//!
//! Works on the [`Program`] itself (not the generator's choices), so it
//! can cross boundaries the generator never would — which is exactly
//! what makes minimized findings readable. The reduction steps, tried in
//! a deterministic order until a full pass changes nothing:
//!
//! * delete a statement (at any nesting depth);
//! * delete a loop *level*, substituting its variable with the lower
//!   bound into the body it leaves behind;
//! * narrow a loop's bounds (single-trip, or halve the constant upper).
//!
//! A candidate is accepted only when it still trips the same divergence
//! class ([`crate::oracle::Divergence::kind`]), so shrinking a
//! value-mismatch cannot wander off and return some unrelated panic.

use lc_driver::DriverOptions;
use lc_ir::printer::print_program;
use lc_ir::program::Program;
use lc_ir::stmt::Stmt;
use lc_ir::Expr;

use crate::oracle::{run_program, Divergence};

/// Upper bound on accepted reduction steps (each accepted step restarts
/// the candidate scan). Generated programs are small; convergence takes
/// far fewer.
pub const MAX_SHRINK_STEPS: u64 = 500;

/// One candidate reduction, addressed by a path of body indices from the
/// program root.
#[derive(Debug, Clone)]
enum Reduction {
    /// Remove the statement at `path`.
    RemoveStmt(Vec<usize>),
    /// Replace the loop at `path` with its body, substituting the loop
    /// variable with the lower bound.
    DeleteLevel(Vec<usize>),
    /// Set the loop's upper bound to its lower bound (one trip).
    OneTrip(Vec<usize>),
    /// Halve the distance between constant bounds.
    HalveUpper(Vec<usize>),
}

fn collect(stmts: &[Stmt], path: &mut Vec<usize>, out: &mut Vec<Reduction>) {
    for (i, s) in stmts.iter().enumerate() {
        path.push(i);
        // Bigger reductions first at each site: drop the whole
        // statement, then peel the level, then narrow.
        out.push(Reduction::RemoveStmt(path.clone()));
        if let Stmt::Loop(l) = s {
            out.push(Reduction::DeleteLevel(path.clone()));
            let lo = l.lower.as_const();
            let hi = l.upper.as_const();
            match (lo, hi) {
                (Some(lo), Some(hi)) if hi > lo => {
                    out.push(Reduction::OneTrip(path.clone()));
                    if hi - lo >= 2 {
                        out.push(Reduction::HalveUpper(path.clone()));
                    }
                }
                // Symbolic upper: try collapsing to a single iteration.
                (Some(_), None) => out.push(Reduction::OneTrip(path.clone())),
                _ => {}
            }
            collect(&l.body, path, out);
        }
        path.pop();
    }
}

fn apply_to(stmts: &mut Vec<Stmt>, path: &[usize], r: &Reduction) -> bool {
    let Some((&head, rest)) = path.split_first() else {
        return false;
    };
    if head >= stmts.len() {
        return false;
    }
    if rest.is_empty() {
        match r {
            Reduction::RemoveStmt(_) => {
                stmts.remove(head);
                true
            }
            Reduction::DeleteLevel(_) => {
                let Stmt::Loop(l) = stmts[head].clone() else {
                    return false;
                };
                let replacement: Vec<Stmt> = l
                    .body
                    .iter()
                    .map(|s| s.substitute(&l.var, &l.lower))
                    .collect();
                stmts.splice(head..=head, replacement);
                true
            }
            Reduction::OneTrip(_) => {
                let Stmt::Loop(l) = &mut stmts[head] else {
                    return false;
                };
                l.upper = l.lower.clone();
                true
            }
            Reduction::HalveUpper(_) => {
                let Stmt::Loop(l) = &mut stmts[head] else {
                    return false;
                };
                let (Some(lo), Some(hi)) = (l.lower.as_const(), l.upper.as_const()) else {
                    return false;
                };
                l.upper = Expr::lit(lo + (hi - lo) / 2);
                true
            }
        }
    } else {
        let Stmt::Loop(l) = &mut stmts[head] else {
            return false;
        };
        apply_to(&mut l.body, rest, r)
    }
}

/// Shrink `program` while `still_fails` holds, with a deterministic
/// greedy fixpoint. Returns the smallest accepted program and how many
/// reduction steps were taken.
pub fn shrink_with(program: &Program, still_fails: impl Fn(&Program) -> bool) -> (Program, u64) {
    let mut current = program.clone();
    let mut steps = 0u64;
    'outer: while steps < MAX_SHRINK_STEPS {
        let mut reductions = Vec::new();
        collect(&current.body, &mut Vec::new(), &mut reductions);
        for r in &reductions {
            let mut candidate = current.clone();
            let path = match r {
                Reduction::RemoveStmt(p)
                | Reduction::DeleteLevel(p)
                | Reduction::OneTrip(p)
                | Reduction::HalveUpper(p) => p.clone(),
            };
            if !apply_to(&mut candidate.body, &path, r) {
                continue;
            }
            // A reduction can orphan references (e.g. removing `n = 3;`
            // while a bound still reads `n`); such candidates are
            // ill-formed, not failing.
            if candidate.check().is_err() {
                continue;
            }
            if still_fails(&candidate) {
                current = candidate;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, steps)
}

/// Shrink a program that produced `target` under the given compile
/// configuration: a candidate reproduces when the oracle reports a
/// divergence of the same [`Divergence::kind`].
pub fn shrink_case(
    program: &Program,
    pipeline: &[String],
    options: &DriverOptions,
    interp_seed: u64,
    interp: bool,
    target: &Divergence,
) -> (Program, u64) {
    let kind = target.kind();
    shrink_with(program, |candidate| {
        run_program(candidate, pipeline, options, interp_seed, interp)
            .divergence
            .is_some_and(|d| d.kind() == kind)
    })
}

/// Render a minimized finding as a self-contained Rust regression test
/// over [`crate::oracle::check_source`]. The emitted snippet compiles
/// against `lc-fuzz` alone — paste it into `tests/fuzz_regressions.rs`.
pub fn regression_snippet(
    name: &str,
    program: &Program,
    pipeline: &[String],
    options: &DriverOptions,
    interp_seed: u64,
    interp: bool,
    kind: &str,
) -> String {
    let source = print_program(program);
    let pipeline_list = pipeline
        .iter()
        .map(|p| format!("{p:?}"))
        .collect::<Vec<_>>()
        .join(", ");
    let c = &options.coalesce;
    let lint_chain: String = lc_lint::LintCode::ALL
        .iter()
        .filter(|&&code| options.lints.level(code) != lc_lint::Severity::Allow)
        .map(|&code| {
            format!(
                "\n        .with(lc_lint::LintCode::{code:?}, lc_lint::Severity::{:?})",
                options.lints.level(code)
            )
        })
        .collect();
    format!(
        r##"// Minimized lc-fuzz finding: {kind}.
#[test]
fn fuzz_regression_{name}() {{
    let src = r#"
{source}"#;
    let coalesce = lc_xform::coalesce::CoalesceOptions::builder()
        .scheme(lc_xform::recovery::RecoveryScheme::{scheme:?})
        .levels_opt({levels:?})
        .auto_normalize({auto_normalize})
        .strength_reduce({strength_reduce})
        .build();
    let options = lc_driver::DriverOptions {{
        coalesce,
        enable_perfection: {enable_perfection},
        enable_interchange: {enable_interchange},
        validate: false,
        advise: None,
        pass_order: None,
        validate_each_pass: {validate_each_pass},
        lints: lc_lint::LintSet::all_allow(){lint_chain},
    }};
    let divergence = lc_fuzz::oracle::check_source(
        src,
        &[{pipeline_list}],
        &options,
        {interp_seed:#x},
        {interp},
    );
    assert!(divergence.is_none(), "{{divergence:?}}");
}}
"##,
        scheme = c.scheme,
        levels = c.levels,
        auto_normalize = c.auto_normalize,
        strength_reduce = c.strength_reduce,
        enable_perfection = options.enable_perfection,
        enable_interchange = options.enable_interchange,
        validate_each_pass = options.validate_each_pass,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_ir::parser::parse_program;

    /// A stand-in failure: "the program still writes array W somewhere
    /// under a loop at least 2 deep". The shrinker must converge to a
    /// minimal nest without getting stuck.
    fn deep_w_write(p: &Program) -> bool {
        fn depth_to_w(stmts: &[Stmt], depth: usize) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::Loop(l) => depth_to_w(&l.body, depth + 1),
                Stmt::AssignArray { target, .. } => depth >= 2 && target.array.as_str() == "W",
                _ => false,
            })
        }
        depth_to_w(&p.body, 0)
    }

    #[test]
    fn converges_to_a_minimal_program() {
        let p = parse_program(
            "
            array W[8][8][8];
            array R[4];
            q = 3;
            doall i = 1..8 {
                u1 = i * 2;
                doall j = 1..8 {
                    doall k = 1..8 {
                        W[i][j][k] = R[1] + 7;
                    }
                }
            }
            ",
        )
        .unwrap();
        assert!(deep_w_write(&p));
        let (small, steps) = shrink_with(&p, deep_w_write);
        assert!(steps > 0);
        assert!(deep_w_write(&small));
        // Everything inessential is gone: the scalar q, the temp u1, and
        // the third loop level (2 suffice), and bounds are single-trip.
        let text = print_program(&small);
        assert!(!text.contains("q ="), "{text}");
        assert!(!text.contains("u1"), "{text}");
        let loops = text.matches("doall").count();
        assert_eq!(loops, 2, "{text}");
        assert!(text.contains("1..1"), "{text}");
    }

    #[test]
    fn shrinking_is_deterministic() {
        let p = parse_program(
            "
            array W[4][4][4];
            doall i = 1..4 { doall j = 1..4 { doall k = 1..4 {
                W[i][j][k] = i + j + k;
            } } }
            ",
        )
        .unwrap();
        let (a, sa) = shrink_with(&p, deep_w_write);
        let (b, sb) = shrink_with(&p, deep_w_write);
        assert_eq!(print_program(&a), print_program(&b));
        assert_eq!(sa, sb);
    }

    #[test]
    fn never_fails_predicate_returns_input_unchanged() {
        let p = parse_program("array W[2]; doall i = 1..2 { W[i] = i; }").unwrap();
        let (same, steps) = shrink_with(&p, |_| false);
        assert_eq!(steps, 0);
        assert_eq!(print_program(&same), print_program(&p));
    }
}
