//! Human-readable rendering of [`Finding`]s.
//!
//! The machine-readable form (one JSON object per finding, and the
//! corpus report the CLI's `--format json` prints) is built by
//! `lc_driver::trace` on the workspace's one JSON codec.

use std::fmt::Write as _;

use crate::{Finding, Severity};

/// Rustc-flavoured text rendering:
///
/// ```text
/// warning[LC001] doall-race: `doall i` (level 0) carries a flow …
///   --> line 3 (nest 0, level 0)
///   = direction: (<)
/// ```
pub fn finding_to_text(f: &Finding) -> String {
    let head = match f.severity {
        Severity::Deny => "error",
        _ => "warning",
    };
    let mut out = format!(
        "{head}[{}] {}: {}\n",
        f.code.code(),
        f.code.slug(),
        f.message
    );
    let mut loc = Vec::new();
    if let Some(l) = f.line {
        loc.push(format!("line {l}"));
    }
    loc.push(format!("nest {}", f.nest));
    if let Some(l) = f.level {
        loc.push(format!("level {l}"));
    }
    let _ = writeln!(out, "  --> {}", loc.join(", "));
    for (k, v) in &f.details {
        let _ = writeln!(out, "  = {k}: {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, LintSet};

    #[test]
    fn text_rendering_mentions_code_and_location() {
        let src = "array A[8];\ndoall i = 2..8 {\n    A[i] = A[i - 1];\n}\n";
        let f = lint_source(src, &LintSet::default()).unwrap();
        let racy = f
            .iter()
            .find(|x| x.code == crate::LintCode::DoallRace)
            .unwrap();
        let text = finding_to_text(racy);
        assert!(text.starts_with("warning[LC001] doall-race:"));
        assert!(text.contains("--> line 2"));
        assert!(text.contains("= direction: (<)"));
    }
}
