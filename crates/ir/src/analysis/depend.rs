//! Data-dependence testing for perfect nests: GCD test + Banerjee bounds
//! with hierarchical direction-vector refinement.
//!
//! The tester is *conservative*: it may report a dependence that cannot
//! actually occur (over-approximation is safe — the transformation will
//! refuse to parallelize), but it never misses a real dependence on affine
//! subscripts. Non-affine subscripts are treated as conflicting with
//! everything in the same array.
//!
//! A dependence is **carried at level k** when it can occur between two
//! iterations that agree on levels `1..k` and differ at level `k` (the
//! first non-`=` entry of its direction vector). Level `k` of a nest is
//! DOALL-legal exactly when no dependence is carried at `k`.
//!
//! # Iteration order
//!
//! Direction vectors compare *iterations*, not index values. A level
//! whose step is a literal other than 1 is analysed by its iteration
//! number `t ∈ 1..=trip`, through `v = lo + step·(t − 1)` — the
//! substitution `lc_xform::normalize` performs — so `10..1 step -1` runs
//! forward in `t` and `1..10 step 2` only visits odd `v`. Guard pins
//! `v == c` translate to `t`. A level whose step is not a literal (or
//! whose start is symbolic) is analysed over the hull of its bounds, wide
//! when they are symbolic, with `<` and `>` tested as one: it can only
//! gain dependences. Unit-step levels are analysed by value, which is
//! their iteration order, over `lo..=hi`, wide on a symbolic side.
//!
//! The upshot: analysing a nest as written gives the same [`NestDeps`]
//! as analysing its normalization, or a more precise one where a guard
//! pin survives that normalization rewrites away. Either may be handed to
//! a transformation of the other.
//!
//! # References
//!
//! The references come from the one IR walker ([`super::walk`]), in
//! evaluation order: the array reads in the headers of levels `1..`,
//! which run once per iteration of the level outside them, then the
//! body's. A header reference is tested as if it ran in every iteration
//! of its own and deeper levels, which can only add dependences. The
//! outermost header runs once, before any iteration, and is not analysed.

use std::collections::BTreeSet;

use crate::analysis::affine::Affine;
use crate::analysis::nest::{LoopHeader, Nest};
use crate::analysis::walk::{Access, Pins, Visit, Walker};
use crate::arith::gcd;
use crate::error::Result;
use crate::symbol::Symbol;

/// Direction of `i_k` (source iteration) relative to `i'_k` (sink
/// iteration) at one nest level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dir {
    /// `i_k < i'_k`
    Lt,
    /// `i_k = i'_k`
    Eq,
    /// `i_k > i'_k`
    Gt,
}

impl Dir {
    /// Conventional one-character rendering: `<`, `=`, or `>`.
    pub fn symbol(self) -> &'static str {
        match self {
            Dir::Lt => "<",
            Dir::Eq => "=",
            Dir::Gt => ">",
        }
    }
}

/// Render a direction vector in the conventional `(<, =, >)` notation.
pub fn format_direction(dv: &[Dir]) -> String {
    let inner: Vec<&str> = dv.iter().map(|d| d.symbol()).collect();
    format!("({})", inner.join(", "))
}

/// Classification of a dependence by the access kinds of its endpoints,
/// in textual order within the loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Write then read (true/flow dependence).
    Flow,
    /// Read then write (anti dependence).
    Anti,
    /// Write then write (output dependence).
    Output,
}

impl DepKind {
    /// Lower-case noun used in diagnostics: `flow`, `anti`, or `output`.
    pub fn name(self) -> &'static str {
        match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        }
    }
}

/// One (possibly spurious) dependence between two references of the same
/// array, with every direction vector under which it may hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependence {
    /// Array involved.
    pub array: Symbol,
    /// Flow / anti / output.
    pub kind: DepKind,
    /// All feasible direction vectors (each of length `depth`). The
    /// all-`Eq` vector denotes a loop-independent dependence.
    pub directions: Vec<Vec<Dir>>,
    /// Index (into the analyzed body's top-level statement list) of the
    /// statement containing the dependence *source* (the endpoint whose
    /// iteration executes first under the normalized orientation).
    /// Indices from the body's length on name inner-level headers:
    /// `body.len() + k - 1` is the header of level `k ≥ 1`, so no header
    /// shares an index with a body statement.
    pub src_stmt: usize,
    /// Statement index of the dependence *sink*, numbered as `src_stmt`.
    pub dst_stmt: usize,
}

impl Dependence {
    /// The levels (0-based) at which this dependence is carried.
    pub fn carried_levels(&self) -> BTreeSet<usize> {
        self.directions
            .iter()
            .filter_map(|dv| dv.iter().position(|d| *d != Dir::Eq))
            .collect()
    }
}

/// The result of analyzing a nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestDeps {
    /// Nest depth the direction vectors refer to.
    pub depth: usize,
    /// All detected (possibly conservative) dependences.
    pub deps: Vec<Dependence>,
}

impl NestDeps {
    /// True when some dependence is carried at `level` (0-based).
    pub fn carried_at(&self, level: usize) -> bool {
        self.deps
            .iter()
            .any(|d| d.carried_levels().contains(&level))
    }

    /// Per-level DOALL legality: `true` means no dependence carried there.
    pub fn parallelizable_levels(&self) -> Vec<bool> {
        (0..self.depth).map(|l| !self.carried_at(l)).collect()
    }

    /// True when no level carries a dependence — the entire nest may be
    /// coalesced into one DOALL.
    pub fn fully_parallel(&self) -> bool {
        (0..self.depth).all(|l| !self.carried_at(l))
    }

    /// The concrete dependence blocking DOALL execution of `level`
    /// (0-based), or `None` when the level is dependence-free.
    ///
    /// Returns the first dependence (in `deps` order) carried at the
    /// level together with the first of its direction vectors whose
    /// leading non-`=` entry sits at `level` — enough for a diagnostic
    /// to name the dependence kind, the direction vector, and both
    /// access sites instead of reporting a bare `carried_at: true`.
    pub fn explain(&self, level: usize) -> Option<BlockingDep<'_>> {
        for dep in &self.deps {
            for dv in &dep.directions {
                if dv.iter().position(|d| *d != Dir::Eq) == Some(level) {
                    return Some(BlockingDep { dep, direction: dv });
                }
            }
        }
        None
    }
}

/// The concrete dependence blocking DOALL execution of a level, as
/// returned by [`NestDeps::explain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockingDep<'a> {
    /// The dependence carried at the queried level.
    pub dep: &'a Dependence,
    /// The specific direction vector of `dep` carried there.
    pub direction: &'a [Dir],
}

/// Analyze a perfect nest for loop-carried dependences, with direction
/// vectors in iteration order (see the module docs).
pub fn analyze_nest(nest: &Nest) -> Result<NestDeps> {
    let levels: Vec<LevelInfo> = nest.loops.iter().map(LevelInfo::of).collect();

    // Inner-level headers run once per iteration of the level outside
    // them, before the body: their references come first, under the
    // statement indices past the body (see `Dependence::src_stmt`).
    let mut refs = Vec::new();
    let mut walker = Walker::default();
    for (k, h) in nest.loops.iter().enumerate().skip(1) {
        let stmt = nest.body.len() + k - 1;
        for e in [&h.lower, &h.upper, &h.step] {
            walker.expr(e, &mut |v| {
                if let Visit::Access(a) = v {
                    refs.push(RefInfo::of(a, stmt, &nest.loops[k..]));
                }
            });
        }
    }
    for (stmt, s) in nest.body.iter().enumerate() {
        walker.stmts(std::slice::from_ref(s), &mut |v| {
            if let Visit::Access(a) = v {
                refs.push(RefInfo::of(a, stmt, &[]));
            }
        });
    }
    for r in &mut refs {
        r.renumber_by_iteration(&levels);
    }

    let mut deps = Vec::new();
    for a in 0..refs.len() {
        for b in a..refs.len() {
            let (ra, rb) = (&refs[a], &refs[b]);
            if ra.array != rb.array {
                continue;
            }
            if !ra.is_write && !rb.is_write {
                continue; // read-read is irrelevant
            }
            let self_pair = a == b;
            let directions = test_pair(&levels, ra, rb, self_pair);
            if directions.is_empty() {
                continue;
            }
            let textual_kind = match (ra.is_write, rb.is_write) {
                (true, true) => DepKind::Output,
                (true, false) => DepKind::Flow,
                (false, true) => DepKind::Anti,
                (false, false) => unreachable!(),
            };
            // Normalize orientation: a vector whose first non-Eq entry is
            // `>` describes a dependence whose *source* is the later
            // reference; flip it (reverse every entry, swap endpoint roles)
            // so the source iteration always executes first. Flipping swaps
            // flow and anti.
            let mut keep = Vec::new();
            let mut flipped = Vec::new();
            for v in directions {
                match v.iter().find(|d| **d != Dir::Eq) {
                    Some(Dir::Gt) => flipped.push(
                        v.iter()
                            .map(|d| match d {
                                Dir::Lt => Dir::Gt,
                                Dir::Eq => Dir::Eq,
                                Dir::Gt => Dir::Lt,
                            })
                            .collect(),
                    ),
                    _ => keep.push(v),
                }
            }
            if !keep.is_empty() {
                deps.push(Dependence {
                    array: ra.array.clone(),
                    kind: textual_kind,
                    directions: keep,
                    src_stmt: ra.stmt,
                    dst_stmt: rb.stmt,
                });
            }
            if !flipped.is_empty() {
                let kind = match textual_kind {
                    DepKind::Flow => DepKind::Anti,
                    DepKind::Anti => DepKind::Flow,
                    DepKind::Output => DepKind::Output,
                };
                deps.push(Dependence {
                    array: ra.array.clone(),
                    kind,
                    directions: flipped,
                    src_stmt: rb.stmt,
                    dst_stmt: ra.stmt,
                });
            }
        }
    }
    Ok(NestDeps {
        depth: levels.len(),
        deps,
    })
}

/// Upper bound used for symbolic loop bounds and free variables: wide
/// enough that any feasible iteration distance is covered (conservative).
const WIDE_BOUND: i64 = 1_000_000_000;

/// One level as the tester sees it: the range of the analysed index and
/// how that index relates to the loop variable.
struct LevelInfo {
    var: Symbol,
    lo: i64,
    hi: i64,
    /// `Some((base, step))` when the index is the iteration number `t`,
    /// with `var = base + step·t`; `None` when it is `var` itself.
    map: Option<(i64, i64)>,
    /// False when the step's sign is unknown, so index order says
    /// nothing about iteration order: `<` and `>` are tested as one.
    ordered: bool,
}

impl LevelInfo {
    fn of(h: &LoopHeader) -> LevelInfo {
        let var = h.var.clone();
        let (lo, hi) = (h.lower.as_const(), h.upper.as_const());
        match h.step.as_const() {
            Some(1) => {
                return LevelInfo {
                    var,
                    lo: lo.unwrap_or(-WIDE_BOUND),
                    hi: hi.unwrap_or(WIDE_BOUND),
                    map: None,
                    ordered: true,
                }
            }
            Some(step) if step != 0 => {
                let trips = match hi {
                    Some(_) => h.const_trip_count().and_then(|t| i64::try_from(t).ok()),
                    None => Some(WIDE_BOUND),
                };
                if let (Some(base), Some(trips)) = (lo.and_then(|lo| lo.checked_sub(step)), trips) {
                    return LevelInfo {
                        var,
                        lo: 1,
                        hi: trips,
                        map: Some((base, step)),
                        ordered: true,
                    };
                }
            }
            _ => {}
        }
        // The hull of the bounds, wide on a symbolic side.
        let (lo, hi) = match (lo, hi) {
            (Some(a), Some(b)) => (a.min(b), a.max(b)),
            (a, b) => {
                let c = a.or(b).unwrap_or(0);
                (c.min(-WIDE_BOUND), c.max(WIDE_BOUND))
            }
        };
        LevelInfo {
            var,
            lo,
            hi,
            map: None,
            ordered: false,
        }
    }
}

struct RefInfo {
    array: Symbol,
    is_write: bool,
    /// Affine form per subscript position; `None` = non-affine.
    subs: Vec<Option<Affine>>,
    /// The statement index the reference is reported under (see
    /// `Dependence::src_stmt`).
    stmt: usize,
    /// Guard pins in force at the reference.
    pins: Pins,
}

impl RefInfo {
    /// A reference outside the scope of the levels `unbound`: a
    /// subscript naming one of their indices reads an outer value of that
    /// name, so it counts as non-affine.
    fn of(a: Access<'_>, stmt: usize, unbound: &[LoopHeader]) -> RefInfo {
        let affine =
            |ix| Affine::from_expr(ix).filter(|f| unbound.iter().all(|u| f.coeff(&u.var) == 0));
        RefInfo {
            array: a.array.clone(),
            is_write: a.write,
            subs: a.indices.iter().map(affine).collect(),
            stmt,
            pins: a.pins.clone(),
        }
    }

    /// Rewrite subscripts and pins of iteration-numbered levels from
    /// `var` to `t`, where `var = base + step·t`. A coefficient that
    /// overflows makes its subscript non-affine; a pin no iteration
    /// reaches becomes `0`, outside every iteration range.
    fn renumber_by_iteration(&mut self, levels: &[LevelInfo]) {
        for lv in levels {
            let Some((base, step)) = lv.map else { continue };
            for sub in &mut self.subs {
                let Some(f) = sub else { continue };
                let c = f.coeff(&lv.var);
                if c == 0 {
                    continue;
                }
                match (
                    c.checked_mul(base)
                        .and_then(|cb| f.constant.checked_add(cb)),
                    c.checked_mul(step),
                ) {
                    (Some(constant), Some(coeff)) => {
                        f.constant = constant;
                        f.terms.insert(lv.var.clone(), coeff);
                    }
                    _ => *sub = None,
                }
            }
            if let Some(pin) = self.pins.get_mut(&lv.var) {
                let off = *pin as i128 - base as i128;
                *pin = if off % step as i128 == 0 {
                    i64::try_from(off / step as i128).unwrap_or(0)
                } else {
                    0
                };
            }
        }
    }
}

/// Closed interval over `i128`. A single `coeff × bound` product cannot
/// overflow `i128` (both factors are `i64`), but a long chain of
/// accumulated terms could; [`Ival::add`] therefore *saturates* at the
/// `i128` limits. Saturation only ever widens the interval, which keeps
/// the test conservative (a wider interval can only make `contains_zero`
/// more likely, i.e. report more dependences, never fewer).
#[derive(Debug, Clone, Copy)]
struct Ival {
    lo: i128,
    hi: i128,
}

impl Ival {
    fn point(v: i128) -> Ival {
        Ival { lo: v, hi: v }
    }

    fn scaled(coeff: i64, lo: i64, hi: i64) -> Ival {
        let a = coeff as i128 * lo as i128;
        let b = coeff as i128 * hi as i128;
        Ival {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    fn add(self, other: Ival) -> Ival {
        Ival {
            lo: self.lo.saturating_add(other.lo),
            hi: self.hi.saturating_add(other.hi),
        }
    }

    fn contains_zero(self) -> bool {
        self.lo <= 0 && self.hi >= 0
    }
}

/// Internal direction including the unconstrained wildcard used during
/// hierarchical refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirX {
    Lt,
    Eq,
    Gt,
    Any,
}

/// Enumerate feasible direction vectors for the pair, pruning whole
/// subtrees with `Any`-suffixed tests.
fn test_pair(levels: &[LevelInfo], ra: &RefInfo, rb: &RefInfo, self_pair: bool) -> Vec<Vec<Dir>> {
    // Rank mismatch cannot happen (Program::check), but be defensive.
    if ra.subs.len() != rb.subs.len() {
        return vec![all_dirs_any(levels.len())];
    }
    let mut found = Vec::new();
    let mut dirs = vec![DirX::Any; levels.len()];
    search(levels, ra, rb, self_pair, 0, &mut dirs, &mut found);
    found
}

fn all_dirs_any(depth: usize) -> Vec<Dir> {
    // When we must give up, report every direction as possibly carried at
    // the outermost level (most conservative single vector: `<` carried at
    // level 0 plus all-Eq handled separately). We enumerate Lt at level 0
    // with Eq elsewhere; callers treat presence of any non-Eq as carried.
    let mut v = vec![Dir::Eq; depth];
    if depth > 0 {
        v[0] = Dir::Lt;
    }
    v
}

fn search(
    levels: &[LevelInfo],
    ra: &RefInfo,
    rb: &RefInfo,
    self_pair: bool,
    level: usize,
    dirs: &mut Vec<DirX>,
    found: &mut Vec<Vec<Dir>>,
) {
    if !feasible(levels, ra, rb, dirs) {
        return;
    }
    if level == levels.len() {
        let concrete: Vec<Dir> = dirs
            .iter()
            .map(|d| match d {
                DirX::Lt => Dir::Lt,
                DirX::Eq => Dir::Eq,
                DirX::Gt => Dir::Gt,
                DirX::Any => unreachable!("fully refined"),
            })
            .collect();
        let all_eq = concrete.iter().all(|d| *d == Dir::Eq);
        if self_pair && all_eq {
            return; // same access in the same iteration: trivial
        }
        if self_pair && concrete.iter().find(|d| **d != Dir::Eq) == Some(&Dir::Gt) {
            // For a self-pair the (I, I') relation is symmetric; keep only
            // the Lt-leading representative to avoid duplicates.
            return;
        }
        found.push(concrete);
        return;
    }
    for d in [DirX::Lt, DirX::Eq, DirX::Gt] {
        dirs[level] = d;
        search(levels, ra, rb, self_pair, level + 1, dirs, found);
    }
    dirs[level] = DirX::Any;
}

/// Banerjee + GCD feasibility of a dependence `f(I) = g(I')` under the
/// (partial) direction constraints.
fn feasible(levels: &[LevelInfo], ra: &RefInfo, rb: &RefInfo, dirs: &[DirX]) -> bool {
    for (fa, fb) in ra.subs.iter().zip(&rb.subs) {
        let (fa, fb) = match (fa, fb) {
            (Some(a), Some(b)) => (a, b),
            // A non-affine subscript may collide with anything.
            _ => continue,
        };
        if !dim_feasible(levels, fa, fb, dirs, &ra.pins, &rb.pins) {
            return false;
        }
    }
    true
}

fn dim_feasible(
    levels: &[LevelInfo],
    f: &Affine,
    g: &Affine,
    dirs: &[DirX],
    pins_a: &Pins,
    pins_b: &Pins,
) -> bool {
    // h = f(I) - g(I') must be able to equal 0. `c0` collects every
    // constant term (pinned indices included) for the GCD test.
    let mut c0 = f.constant as i128 - g.constant as i128;
    let mut ival = Ival::point(c0);
    let mut gcd_acc: i64 = 0;
    let mut gcd_valid = true;

    let level_vars: BTreeSet<&Symbol> = levels.iter().map(|l| &l.var).collect();

    for (k, lv) in levels.iter().enumerate() {
        let a = f.coeff(&lv.var);
        let b = g.coeff(&lv.var);
        let (lo, hi) = (lv.lo, lv.hi);
        let trip = hi.saturating_sub(lo).saturating_add(1);
        // Without a known step sign, `<` and `>` are one question.
        let dir = match dirs[k] {
            DirX::Lt | DirX::Gt if !lv.ordered => {
                if trip < 2 {
                    return false;
                }
                DirX::Any
            }
            d => d,
        };

        let pa = pins_a.get(&lv.var).copied();
        let pb = pins_b.get(&lv.var).copied();
        if pa.is_some() || pb.is_some() {
            // Guard-aware path: each side's index ranges over a point (if
            // pinned) or the whole level, constrained by the direction. A
            // pin outside the level means the reference never executes.
            if pa.into_iter().chain(pb).any(|p| p < lo || p > hi) {
                return false;
            }
            let (la, ua) = pa.map_or((lo, hi), |v| (v, v));
            let (lb, ub) = pb.map_or((lo, hi), |v| (v, v));
            let ((xl, xu), (yl, yu)) = match dir {
                DirX::Eq => {
                    // Both sides share one index: a point, since one side
                    // is pinned.
                    let (l, u) = (la.max(lb), ua.min(ub));
                    if l > u {
                        return false; // pinned to different values
                    }
                    ((l, u), (l, u))
                }
                DirX::Any => ((la, ua), (lb, ub)),
                // x in [la,ua], y in [lb,ub], x < y (resp. x > y).
                DirX::Lt => (
                    (la, ua.min(ub.saturating_sub(1))),
                    (lb.max(la.saturating_add(1)), ub),
                ),
                DirX::Gt => (
                    (la.max(lb.saturating_add(1)), ua),
                    (lb, ub.min(ua.saturating_sub(1))),
                ),
            };
            if xl > xu || yl > yu {
                return false;
            }
            for (coeff, l, u) in [(a, xl, xu), (-b, yl, yu)] {
                ival = ival.add(Ival::scaled(coeff, l, u));
                if l == u {
                    match c0.checked_add(coeff as i128 * l as i128) {
                        Some(c) => c0 = c,
                        None => gcd_valid = false,
                    }
                } else {
                    gcd_acc = gcd(gcd_acc, coeff);
                }
            }
            continue;
        }

        match dir {
            DirX::Eq => {
                ival = ival.add(Ival::scaled(a - b, lo, hi));
                gcd_acc = gcd(gcd_acc, a - b);
            }
            DirX::Any => {
                ival = ival.add(Ival::scaled(a, lo, hi));
                ival = ival.add(Ival::scaled(-b, lo, hi));
                gcd_acc = gcd(gcd_acc, a);
                gcd_acc = gcd(gcd_acc, b);
            }
            DirX::Lt => {
                if trip < 2 {
                    return false; // cannot have i_k < i'_k in a 1-trip loop
                }
                // i'_k = i_k + d, d in [1, hi-lo], i_k in [lo, hi-1]:
                // a*i_k - b*(i_k + d) = (a-b)*i_k - b*d
                ival = ival.add(Ival::scaled(a - b, lo, hi - 1));
                ival = ival.add(Ival::scaled(-b, 1, hi.saturating_sub(lo)));
                gcd_acc = gcd(gcd_acc, a - b);
                gcd_acc = gcd(gcd_acc, b);
            }
            DirX::Gt => {
                if trip < 2 {
                    return false;
                }
                // i'_k = i_k - d, d in [1, hi-lo], i_k in [lo+1, hi]:
                // a*i_k - b*(i_k - d) = (a-b)*i_k + b*d
                ival = ival.add(Ival::scaled(a - b, lo + 1, hi));
                ival = ival.add(Ival::scaled(b, 1, hi.saturating_sub(lo)));
                gcd_acc = gcd(gcd_acc, a - b);
                gcd_acc = gcd(gcd_acc, b);
            }
        }
    }

    // Free (non-level) variables: distinct unknown instances on each side,
    // wide bounds — conservative.
    for (v, &c) in f.terms.iter() {
        if !level_vars.contains(v) {
            ival = ival.add(Ival::scaled(c, -WIDE_BOUND, WIDE_BOUND));
            gcd_acc = gcd(gcd_acc, c);
        }
    }
    for (v, &c) in g.terms.iter() {
        if !level_vars.contains(v) {
            ival = ival.add(Ival::scaled(-c, -WIDE_BOUND, WIDE_BOUND));
            gcd_acc = gcd(gcd_acc, c);
        }
    }

    if !ival.contains_zero() {
        return false;
    }
    if !gcd_valid {
        return true;
    }
    // GCD test: sum of var terms is a multiple of gcd_acc, so h can only be
    // zero if gcd_acc divides the constant terms.
    if gcd_acc == 0 {
        c0 == 0
    } else {
        c0 % gcd_acc as i128 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::nest::extract_nest;
    use crate::parser::parse_program;
    use crate::stmt::Stmt;

    fn deps_of(src: &str) -> NestDeps {
        let p = parse_program(src).unwrap();
        let l = p
            .body
            .iter()
            .find_map(|s| match s {
                Stmt::Loop(l) => Some(l.clone()),
                _ => None,
            })
            .expect("program must contain a loop");
        analyze_nest(&extract_nest(&l)).unwrap()
    }

    #[test]
    fn independent_fill_is_fully_parallel() {
        let d = deps_of(
            "
            array A[8][8];
            doall i = 1..8 {
                doall j = 1..8 {
                    A[i][j] = i + j;
                }
            }
            ",
        );
        assert!(d.fully_parallel(), "{d:?}");
    }

    #[test]
    fn recurrence_carried_at_outer_level() {
        let d = deps_of(
            "
            array A[8];
            for i = 2..8 {
                A[i] = A[i - 1] + 1;
            }
            ",
        );
        assert!(d.carried_at(0));
        assert!(!d.fully_parallel());
        // Flow dependence at distance 1: direction `<` only.
        let flow = d.deps.iter().find(|x| x.kind == DepKind::Flow).unwrap();
        assert!(flow.directions.contains(&vec![Dir::Lt]));
        assert!(!flow.directions.contains(&vec![Dir::Gt]));
    }

    #[test]
    fn inner_recurrence_leaves_outer_parallel() {
        let d = deps_of(
            "
            array A[8][8];
            for i = 1..8 {
                for j = 2..8 {
                    A[i][j] = A[i][j - 1] + 1;
                }
            }
            ",
        );
        let par = d.parallelizable_levels();
        assert_eq!(par, vec![true, false], "{d:?}");
    }

    #[test]
    fn outer_recurrence_leaves_inner_parallel() {
        let d = deps_of(
            "
            array A[8][8];
            for i = 2..8 {
                for j = 1..8 {
                    A[i][j] = A[i - 1][j] + 1;
                }
            }
            ",
        );
        let par = d.parallelizable_levels();
        assert_eq!(par, vec![false, true], "{d:?}");
    }

    #[test]
    fn read_modify_write_same_element_is_parallel() {
        // A[i][j] = A[i][j] * 2 — only a loop-independent dependence.
        let d = deps_of(
            "
            array A[4][4];
            doall i = 1..4 {
                doall j = 1..4 {
                    A[i][j] = A[i][j] * 2;
                }
            }
            ",
        );
        assert!(d.fully_parallel(), "{d:?}");
        // The loop-independent (all-Eq) flow dependence is still recorded.
        assert!(d
            .deps
            .iter()
            .any(|x| x.directions.contains(&vec![Dir::Eq, Dir::Eq])));
    }

    #[test]
    fn constant_subscript_write_is_carried_everywhere_reachable() {
        // Every iteration writes A[1]: output dependence carried at level 0.
        let d = deps_of(
            "
            array A[4];
            doall i = 1..4 {
                A[1] = i;
            }
            ",
        );
        assert!(d.carried_at(0), "{d:?}");
        assert!(d.deps.iter().any(|x| x.kind == DepKind::Output));
    }

    #[test]
    fn gcd_test_disproves_stride_mismatch() {
        // Writes touch even elements 2i, reads touch odd elements 2i-7…
        // 2i = 2i' - 7 has no integer solution (gcd 2 does not divide 7).
        let d = deps_of(
            "
            array A[40];
            doall i = 1..8 {
                A[2 * i] = A[2 * i - 7] + 1;
            }
            ",
        );
        assert!(d.fully_parallel(), "{d:?}");
    }

    #[test]
    fn banerjee_disproves_out_of_range_distance() {
        // A[i] and A[i + 100] can never alias within i in 1..8.
        let d = deps_of(
            "
            array A[200];
            doall i = 1..8 {
                A[i] = A[i + 100] + 1;
            }
            ",
        );
        assert!(d.fully_parallel(), "{d:?}");
    }

    #[test]
    fn anti_dependence_detected() {
        // read A[i+1] before write A[i]: anti dependence carried at level 0.
        let d = deps_of(
            "
            array A[9];
            for i = 1..8 {
                A[i] = A[i + 1] + 1;
            }
            ",
        );
        assert!(!d.fully_parallel());
        assert!(d.deps.iter().any(|x| x.kind == DepKind::Anti));
    }

    #[test]
    fn different_arrays_do_not_conflict() {
        let d = deps_of(
            "
            array A[8];
            array B[8];
            doall i = 1..8 {
                A[i] = B[i] + 1;
            }
            ",
        );
        assert!(d.fully_parallel(), "{d:?}");
        assert!(d.deps.is_empty());
    }

    #[test]
    fn nonaffine_subscript_is_conservative() {
        // A[i*i] is non-affine: must conservatively conflict.
        let d = deps_of(
            "
            array A[100];
            doall i = 1..8 {
                A[i * i] = i;
            }
            ",
        );
        assert!(!d.fully_parallel(), "{d:?}");
    }

    #[test]
    fn diagonal_dependence_in_2d() {
        // A[i][j] = A[i-1][j-1]: carried at the outer level with (<, <).
        let d = deps_of(
            "
            array A[8][8];
            for i = 2..8 {
                for j = 2..8 {
                    A[i][j] = A[i - 1][j - 1] + 1;
                }
            }
            ",
        );
        assert!(d.carried_at(0));
        assert!(!d.carried_at(1), "{d:?}");
        let flow = d.deps.iter().find(|x| x.kind == DepKind::Flow).unwrap();
        assert!(flow.directions.contains(&vec![Dir::Lt, Dir::Lt]));
        assert!(!flow.directions.contains(&vec![Dir::Lt, Dir::Gt]));
    }

    #[test]
    fn reduction_scalar_does_not_create_array_dependence() {
        // s = s + A[i] reads A only; no array dependence. (Scalar
        // dependences are out of scope for the array tester; the nest is
        // still not a valid doall, which scalar analysis in lc-xform
        // handles separately.)
        let d = deps_of(
            "
            array A[8];
            for i = 1..8 {
                s = s + A[i];
            }
            ",
        );
        assert!(d.deps.is_empty());
    }

    #[test]
    fn guard_pinned_write_does_not_self_conflict() {
        // D[i] is written only when j == 1: two instances would need two
        // different j values, but the guard pins both to 1 — no carried
        // output dependence at j.
        let d = deps_of(
            "
            array D[6];
            array M[6][7];
            doall i = 1..6 {
                doall j = 1..7 {
                    if j == 1 {
                        D[i] = i * i;
                    }
                    M[i][j] = i + j;
                }
            }
            ",
        );
        assert!(d.fully_parallel(), "{d:?}");
    }

    #[test]
    fn guard_pinned_write_still_conflicts_with_unguarded_reads() {
        // The j==1 write of D[i] feeds reads of D[i] in every other j
        // iteration: genuinely carried at j.
        let d = deps_of(
            "
            array D[6];
            array M[6][7];
            doall i = 1..6 {
                doall j = 1..7 {
                    if j == 1 {
                        D[i] = i * i;
                    }
                    M[i][j] = D[i] + j;
                }
            }
            ",
        );
        assert!(d.carried_at(1), "{d:?}");
        assert!(!d.carried_at(0), "{d:?}");
    }

    #[test]
    fn two_different_guards_on_same_cell_conflict() {
        // Writes at j == 1 and j == 7 touch the same D[i]: carried output
        // dependence at j (both instances execute, at different j).
        let d = deps_of(
            "
            array D[6];
            doall i = 1..6 {
                doall j = 1..7 {
                    if j == 1 {
                        D[i] = 1;
                    }
                    if j == 7 {
                        D[i] = 2;
                    }
                }
            }
            ",
        );
        assert!(d.carried_at(1), "{d:?}");
    }

    #[test]
    fn conjunctive_guards_pin_multiple_levels() {
        // Written only at (i==1 && j==1): a single dynamic instance — no
        // carried dependence anywhere.
        let d = deps_of(
            "
            array S[1];
            doall i = 1..6 {
                doall j = 1..7 {
                    if i == 1 && j == 1 {
                        S[1] = 42;
                    }
                }
            }
            ",
        );
        assert!(d.fully_parallel(), "{d:?}");
    }

    #[test]
    fn non_equality_guards_pin_nothing() {
        // `j <= 1` is not an equality pin: the analysis must stay
        // conservative and report the carried output dependence.
        let d = deps_of(
            "
            array D[6];
            doall i = 1..6 {
                doall j = 1..7 {
                    if j <= 1 {
                        D[i] = i;
                    }
                }
            }
            ",
        );
        assert!(d.carried_at(1), "{d:?}");
    }

    #[test]
    fn statement_provenance_identifies_source_and_sink() {
        // S0 writes A[i]; S1 reads A[i-1] (value written by S0 in the
        // previous iteration): flow dependence with src = 0, dst = 1.
        let d = deps_of(
            "
            array A[8];
            array B[8];
            for i = 2..8 {
                A[i] = i;
                B[i] = A[i - 1];
            }
            ",
        );
        let flow = d
            .deps
            .iter()
            .find(|x| x.kind == DepKind::Flow && x.carried_levels().contains(&0))
            .expect("carried flow dependence");
        assert_eq!((flow.src_stmt, flow.dst_stmt), (0, 1));
    }

    #[test]
    fn backward_textual_dependence_normalizes_source_first() {
        // S0 reads A[i+1]; S1 writes A[i]. The write in iteration i is
        // the *source* feeding the read in iteration i+1? No — the read
        // of A[i+1] at iteration i happens before the write of A[i+1] at
        // iteration i+1: anti dependence, src = 0 (the read), dst = 1.
        // There is also the orientation where the write at iteration i
        // feeds nothing (A[i] is never read later). Check we recorded the
        // anti dependence with textual statements preserved.
        let d = deps_of(
            "
            array A[9];
            array B[9];
            for i = 1..8 {
                B[i] = A[i + 1];
                A[i] = i;
            }
            ",
        );
        let anti = d
            .deps
            .iter()
            .find(|x| x.kind == DepKind::Anti)
            .expect("anti dependence");
        assert_eq!((anti.src_stmt, anti.dst_stmt), (0, 1));
    }

    #[test]
    fn explain_names_the_blocking_dependence() {
        let d = deps_of(
            "
            array A[8][8];
            for i = 1..8 {
                for j = 2..8 {
                    A[i][j] = A[i][j - 1] + 1;
                }
            }
            ",
        );
        assert!(d.explain(0).is_none(), "outer level is clean: {d:?}");
        let b = d.explain(1).expect("inner level carries a dependence");
        assert_eq!(b.dep.kind, DepKind::Flow);
        assert_eq!(b.dep.array.to_string(), "A");
        assert_eq!(b.direction, &[Dir::Eq, Dir::Lt]);
        assert_eq!(format_direction(b.direction), "(=, <)");
        assert_eq!((b.dep.src_stmt, b.dep.dst_stmt), (0, 0));
    }

    #[test]
    fn negative_step_orders_by_iteration() {
        // i runs downward, so A[i + 1] is written one iteration before
        // it is read: a flow dependence carried forward.
        let d = deps_of(
            "
            array A[12];
            doall i = 10..1 step -1 {
                A[i] = A[i + 1] + 1;
            }
            ",
        );
        let flow = d.deps.iter().find(|x| x.kind == DepKind::Flow).unwrap();
        assert_eq!(flow.directions, vec![vec![Dir::Lt]], "{d:?}");
        assert!(!d.deps.iter().any(|x| x.kind == DepKind::Anti), "{d:?}");
    }

    #[test]
    fn stride_skips_the_cells_it_never_visits() {
        // i is odd: A[i] and A[i + 1] never meet.
        let d = deps_of(
            "
            array A[12];
            doall i = 1..10 step 2 {
                A[i] = A[i + 1] + 1;
            }
            ",
        );
        assert!(d.fully_parallel(), "{d:?}");
    }

    #[test]
    fn symbolic_step_is_analysed_over_the_hull_in_both_directions() {
        let d = deps_of(
            "
            array A[12];
            s = 0 - 1;
            doall i = 10..1 step s {
                A[i] = A[i + 1] + 1;
            }
            ",
        );
        assert!(d.carried_at(0), "{d:?}");
        for kind in [DepKind::Flow, DepKind::Anti] {
            assert!(d.deps.iter().any(|x| x.kind == kind), "{d:?}");
        }
    }

    #[test]
    fn guard_pins_translate_to_iteration_numbers() {
        // i == 10 is the first iteration of a downward loop: the write
        // feeds every later read (flow), it does not follow them.
        let d = deps_of(
            "
            array A[2];
            array B[10];
            doall i = 10..1 step -1 {
                if i == 10 {
                    A[1] = 1;
                }
                B[i] = A[1];
            }
            ",
        );
        let carried: Vec<DepKind> = d
            .deps
            .iter()
            .filter(|x| x.carried_levels().contains(&0))
            .map(|x| x.kind)
            .collect();
        assert_eq!(carried, vec![DepKind::Flow], "{d:?}");
        // A pin the stride never reaches leaves the write dead.
        let d = deps_of(
            "
            array A[2];
            array B[10];
            doall i = 1..9 step 2 {
                if i == 4 {
                    A[1] = 1;
                }
                B[i] = A[1];
            }
            ",
        );
        assert!(d.deps.is_empty(), "{d:?}");
    }

    #[test]
    fn symbolic_lower_bound_is_wide() {
        // With n = -10, iterations 14 apart meet at A[15] and A[16].
        let d = deps_of(
            "
            array A[40];
            n = 0 - 10;
            doall i = n..5 {
                A[i + 11] = A[i + 25] + 1;
            }
            ",
        );
        assert!(d.carried_at(0), "{d:?}");
    }

    #[test]
    fn inner_header_reads_are_analysed() {
        // Level 1's bound reads A[i + 1], which iteration i + 1 writes:
        // an anti dependence carried at level 0. The header of level 1 is
        // statement index 1, past the one-statement body.
        let d = deps_of("array A[6]; doall i = 1..4 { for j = 1..A[i + 1] { A[i] = j; } }");
        let b = d
            .explain(0)
            .expect("the header read races with the body write");
        assert_eq!(b.dep.kind, DepKind::Anti);
        assert_eq!((b.dep.src_stmt, b.dep.dst_stmt), (1, 0));
    }

    #[test]
    fn symbolic_bound_still_finds_recurrence() {
        let d = deps_of(
            "
            array A[100];
            n = 50;
            for i = 2..n {
                A[i] = A[i - 1] + 1;
            }
            ",
        );
        assert!(d.carried_at(0));
    }
}
