//! Per-nest analysis memoization.
//!
//! Several passes need the same facts about a nest — its extracted
//! [`Nest`] form, its normalized form, and its dependence analysis.
//! [`NestAnalyses`] computes each **once per nest version**: the loop as
//! written, and again after each structural rewrite (perfection,
//! interchange) replaces it. Every consumer reads that one answer: the
//! `analyze` stage's lints, interchange legality, the band advisor, and
//! the coalescer ([`lc_xform::coalesce::coalesce_band`]).
//!
//! Dependence analysis runs on the extracted nest, not its
//! normalization: [`analyze_nest`] answers in iteration order, so the
//! two agree (see `lc_ir::analysis::depend`), and nests that cannot be
//! normalized get an analysis too.
//!
//! Every accessor counts a *computed* or a *hit* in [`CacheStats`], so
//! tests (and the trace report) can assert that dependence analysis ran
//! at most once per nest version. Two analyses run outside the cache,
//! on nests that are not a version of the one tracked here: perfection's
//! check of its candidate rewrite (`lc_xform::perfect`), which the pass
//! may still reject, and the linter's analyses of subnests below an
//! imperfect level, which no transformation consumes.

use lc_ir::analysis::depend::{analyze_nest, NestDeps};
use lc_ir::analysis::nest::{extract_nest, Nest};
use lc_ir::stmt::Loop;
use lc_ir::{Error, Result};

/// Hit/miss counters for the per-nest analysis cache. Aggregated across
/// nests into [`crate::trace::PipelineTrace::cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Times a nest was extracted from its loop.
    pub nest_computed: u64,
    /// Times an already-extracted nest was reused.
    pub nest_hits: u64,
    /// Times a nest was normalized.
    pub normalize_computed: u64,
    /// Times a memoized normalization was reused.
    pub normalize_hits: u64,
    /// Times dependence analysis ran.
    pub deps_computed: u64,
    /// Times a memoized dependence analysis was reused.
    pub deps_hits: u64,
}

impl CacheStats {
    /// Fold another nest's counters into this one.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.nest_computed += other.nest_computed;
        self.nest_hits += other.nest_hits;
        self.normalize_computed += other.normalize_computed;
        self.normalize_hits += other.normalize_hits;
        self.deps_computed += other.deps_computed;
        self.deps_hits += other.deps_hits;
    }

    /// Total memoized reuses.
    pub fn hits(&self) -> u64 {
        self.nest_hits + self.normalize_hits + self.deps_hits
    }

    /// Total fresh computations.
    pub fn computed(&self) -> u64 {
        self.nest_computed + self.normalize_computed + self.deps_computed
    }
}

/// Memoized analyses for one top-level loop nest.
///
/// Holds the *current* form of the loop (structural passes like
/// perfection or interchange replace it via [`NestAnalyses::rewrite`],
/// which drops the memos — analyses describe one specific loop). Failed
/// analyses are memoized too: a nest that cannot be normalized reports
/// the same error on every request without re-running it.
#[derive(Debug)]
pub struct NestAnalyses {
    current: Loop,
    nest: Option<Nest>,
    normalized: Option<Result<Nest>>,
    /// Dependence analysis of the extracted nest, in iteration order.
    deps: Option<Result<NestDeps>>,
    /// Counters, preserved across [`NestAnalyses::rewrite`].
    pub stats: CacheStats,
}

impl NestAnalyses {
    /// Start tracking `l`.
    pub fn new(l: &Loop) -> Self {
        NestAnalyses {
            current: l.clone(),
            nest: None,
            normalized: None,
            deps: None,
            stats: CacheStats::default(),
        }
    }

    /// The loop in its current (possibly pass-rewritten) form.
    pub fn current(&self) -> &Loop {
        &self.current
    }

    /// Replace the loop after a structural rewrite, invalidating every
    /// memoized analysis (the counters survive).
    pub fn rewrite(&mut self, l: Loop) {
        self.current = l;
        self.nest = None;
        self.normalized = None;
        self.deps = None;
    }

    /// The extracted perfect-nest view of the current loop.
    pub fn nest(&mut self) -> &Nest {
        if self.nest.is_none() {
            self.stats.nest_computed += 1;
            self.nest = Some(extract_nest(&self.current));
        } else {
            self.stats.nest_hits += 1;
        }
        self.nest.as_ref().unwrap()
    }

    /// The normalized nest (`1..=U step 1` headers), or the
    /// normalization error (memoized either way).
    pub fn normalized(&mut self) -> Result<&Nest> {
        if self.normalized.is_none() {
            let raw = self.nest().clone();
            self.stats.normalize_computed += 1;
            self.normalized = Some(lc_xform::normalize::normalize_nest(&raw));
        } else {
            self.stats.normalize_hits += 1;
        }
        self.normalized
            .as_ref()
            .unwrap()
            .as_ref()
            .map_err(Error::clone)
    }

    /// Dependence analysis of the extracted nest (memoized, including
    /// failures). It also describes the normalized nest, level for level.
    pub fn deps(&mut self) -> Result<&NestDeps> {
        if self.deps.is_none() {
            let res = analyze_nest(self.nest());
            self.stats.deps_computed += 1;
            self.deps = Some(res);
        } else {
            self.stats.deps_hits += 1;
        }
        self.deps.as_ref().unwrap().as_ref().map_err(Error::clone)
    }

    /// Borrow the already-computed nest without touching the counters.
    /// Panics if [`NestAnalyses::nest`] has not run.
    pub fn nest_ref(&self) -> &Nest {
        self.nest.as_ref().expect("nest() not yet computed")
    }

    /// Borrow the already-computed normalized nest without touching the
    /// counters. Panics if never computed or if normalization failed.
    pub fn normalized_ref(&self) -> &Nest {
        self.normalized
            .as_ref()
            .expect("normalized() not yet computed")
            .as_ref()
            .expect("normalization failed")
    }

    /// Borrow the already-computed dependence analysis without touching
    /// the counters. Panics if never computed or if analysis failed.
    pub fn deps_ref(&self) -> &NestDeps {
        self.deps
            .as_ref()
            .expect("deps() not yet computed")
            .as_ref()
            .expect("dependence analysis failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_ir::parser::parse_program;
    use lc_ir::stmt::Stmt;

    fn sample_loop() -> Loop {
        let p = parse_program(
            "
            array A[4][6];
            doall i = 1..4 {
                doall j = 1..6 {
                    A[i][j] = i + j;
                }
            }
            ",
        )
        .unwrap();
        let Stmt::Loop(l) = &p.body[0] else { panic!() };
        l.clone()
    }

    #[test]
    fn analyses_are_computed_once_and_then_hit() {
        let mut cache = NestAnalyses::new(&sample_loop());
        cache.nest();
        cache.normalized().unwrap();
        cache.deps().unwrap();
        cache.nest();
        cache.normalized().unwrap();
        cache.deps().unwrap();
        assert_eq!(cache.stats.nest_computed, 1);
        assert_eq!(cache.stats.normalize_computed, 1);
        assert_eq!(cache.stats.deps_computed, 1);
        assert!(cache.stats.nest_hits >= 1);
        assert!(cache.stats.normalize_hits >= 1);
        assert_eq!(cache.stats.deps_hits, 1);
    }

    #[test]
    fn rewrite_invalidates_memos_but_keeps_counters() {
        let l = sample_loop();
        let mut cache = NestAnalyses::new(&l);
        cache.deps().unwrap();
        let computed_before = cache.stats.computed();
        cache.rewrite(l);
        cache.deps().unwrap();
        assert!(cache.stats.computed() > computed_before);
        assert_eq!(cache.stats.deps_computed, 2);
    }
}
