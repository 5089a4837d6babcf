//! The shadowed forward run that settles order-independence in
//! `check_equivalent` and `check_order_independent` must be sound, and
//! the two checks must give the verdicts of running every order.
//!
//! * **Soundness.** Adversarial `doall` shapes with trip counts ≤ 4
//!   (shifted pairs, non-injective and same-value writes, carried
//!   scalars, scalars read after the loop, nested `doall`s, guarded
//!   writes): whenever the shadow run reports no conflict, every
//!   permutation of every `doall` instance — enumerated by a small
//!   reference interpreter below, each instance permuted on its own —
//!   reproduces the forward store.
//! * **Verdict parity.** Both checks agree, verdict and error text, with
//!   a copy of the four-run check (forward, reverse and shuffled runs
//!   always) on corpus72, the small paper kernels, the 1000 CI-seed fuzz
//!   programs and the adversarial shapes.

use std::collections::HashMap;

use lc_fuzz::gen::{self, GenConfig};
use lc_fuzz::rng::Rng;
use loop_coalescing::driver::{Driver, DriverOptions};
use loop_coalescing::ir::arith;
use loop_coalescing::ir::interp::{DoallOrder, Interp, Lowered, Store};
use loop_coalescing::ir::parser::parse_program;
use loop_coalescing::ir::program::Program;
use loop_coalescing::ir::{Cond, Error, Expr, Result, Stmt, UnOp};
use loop_coalescing::workloads::kernels;
use loop_coalescing::xform::validate::{check_equivalent, check_order_independent, seeded_store};

/// The four-run `check_equivalent`, as it was before the shadow run.
fn four_run_equivalent(original: &Program, transformed: &Program, seed: u64) -> Result<()> {
    let base = seeded_store(original, seed);
    let (want, _) = Interp::new().run_on(original, base.clone())?;
    let code = Lowered::new(transformed)?;
    for order in [
        DoallOrder::Forward,
        DoallOrder::Reverse,
        DoallOrder::Shuffled(seed ^ 0xABCD),
    ] {
        let (got, _) = Interp::new()
            .with_order(order)
            .run_lowered(&code, base.clone())?;
        if got != want {
            return Err(Error::unsupported(format!(
                "transformed program diverges from original under {order:?} (seed {seed})"
            )));
        }
    }
    Ok(())
}

/// The three-run `check_order_independent`, as it was before.
fn all_orders_independent(prog: &Program, seed: u64) -> Result<()> {
    let base = seeded_store(prog, seed);
    let code = Lowered::new(prog)?;
    let (want, _) = Interp::new().run_lowered(&code, base.clone())?;
    for order in [DoallOrder::Reverse, DoallOrder::Shuffled(seed ^ 0x55AA)] {
        let (got, _) = Interp::new()
            .with_order(order)
            .run_lowered(&code, base.clone())?;
        if got != want {
            return Err(Error::unsupported(format!(
                "program is doall-order dependent (observed under {order:?}, seed {seed})"
            )));
        }
    }
    Ok(())
}

/// Both checks against their all-orders copies, for one program and its
/// compiled form (when it compiles).
fn assert_same_verdicts(name: &str, prog: &Program, seed: u64) {
    assert_eq!(
        check_order_independent(prog, seed),
        all_orders_independent(prog, seed),
        "{name}: check_order_independent on the source"
    );
    let driver = Driver::new(DriverOptions {
        validate: false,
        ..Default::default()
    });
    if let Ok(out) = driver.compile_program(prog) {
        assert_eq!(
            check_equivalent(prog, &out.transformed, seed),
            four_run_equivalent(prog, &out.transformed, seed),
            "{name}: check_equivalent"
        );
        assert_eq!(
            check_order_independent(&out.transformed, seed),
            all_orders_independent(&out.transformed, seed),
            "{name}: check_order_independent on the output"
        );
    }
}

#[test]
fn verdicts_match_the_four_run_check_on_corpus72() {
    for (n, src) in lc_service::corpus::corpus72().iter().enumerate() {
        let prog = parse_program(src).unwrap();
        assert_same_verdicts(&format!("corpus72[{n}]"), &prog, 0xC0A1E5CE);
    }
}

#[test]
fn verdicts_match_the_four_run_check_on_the_paper_kernels() {
    for k in kernels::all_small() {
        for seed in [1, 0xC0A1E5CE] {
            assert_same_verdicts(k.name, &k.program, seed);
        }
    }
}

#[test]
fn verdicts_match_the_four_run_check_on_the_ci_seed_fuzz_programs() {
    let root = Rng::new(0xC0A1E5CE);
    let cfg = GenConfig::default();
    for case in 0..1000 {
        let g = gen::generate(&mut root.fork(case), &cfg);
        if g.interp_cost.is_some() {
            assert_same_verdicts(&format!("fuzz case {case}"), &g.program, case);
        }
    }
}

#[test]
fn paper_kernel_outputs_are_settled_by_the_shadow_run() {
    let driver = Driver::new(DriverOptions {
        validate: false,
        ..Default::default()
    });
    for k in kernels::all_small() {
        let out = driver.compile_program(&k.program).unwrap();
        if out.coalesced.is_empty() {
            continue;
        }
        let code = Lowered::new(&out.transformed).unwrap();
        let (_, _, independent) = Interp::new()
            .run_shadowed(&code, seeded_store(&out.transformed, 3))
            .unwrap();
        assert!(independent, "{}: shadow run saw a conflict", k.name);
    }
}

#[test]
fn shadow_run_keeps_store_stats_and_errors_of_a_plain_run() {
    let mut rng = Rng::new(0x5AD0);
    for _ in 0..300 {
        let prog = parse_program(&adversarial(&mut rng)).unwrap();
        let code = Lowered::new(&prog).unwrap();
        let base = seeded_store(&prog, 11);
        let plain = Interp::new().run_lowered(&code, base.clone());
        let shadowed = Interp::new().run_shadowed(&code, base);
        match (plain, shadowed) {
            (Ok((a, sa)), Ok((b, sb, _))) => {
                assert_eq!(a, b);
                assert_eq!((sa.steps, sa.ops), (sb.steps, sb.ops));
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("plain {:?} vs shadowed {:?}", a.is_ok(), b.is_ok()),
        }
    }
}

#[test]
fn clean_shadow_runs_survive_every_permutation_of_every_doall_instance() {
    let mut rng = Rng::new(0xAD5E);
    let (mut clean, mut racy) = (0, 0);
    for _ in 0..1500 {
        let src = adversarial(&mut rng);
        let prog = parse_program(&src).unwrap();
        let base = seeded_store(&prog, 7);
        let code = Lowered::new(&prog).unwrap();
        let Ok((want, _, independent)) = Interp::new().run_shadowed(&code, base.clone()) else {
            continue;
        };
        // The reference interpreter agrees with `Interp` in forward order.
        let mut forward = Permuted::new(&base, Vec::new());
        assert_eq!(forward.run(&prog).as_ref(), Ok(&want), "{src}");
        if !independent {
            racy += 1;
            continue;
        }
        clean += 1;
        for_each_schedule(&prog, &base, &mut rng, |store| {
            assert_eq!(store.as_ref(), Ok(&want), "clean shadow run, but:\n{src}");
        });
    }
    // The shapes must exercise both verdicts.
    assert!(clean > 50 && racy > 50, "clean {clean}, racy {racy}");
}

#[test]
fn the_shadow_run_flags_the_classic_races_and_passes_private_scalars() {
    let verdict = |src: &str| {
        let prog = parse_program(src).unwrap();
        let code = Lowered::new(&prog).unwrap();
        Interp::new()
            .run_shadowed(&code, seeded_store(&prog, 1))
            .unwrap()
            .2
    };
    let array = "array A[12]; array B[4][4]; array C[4];";
    for racy in [
        "doall i = 1..4 { A[i + 1] = A[i] + 1; }",
        "doall i = 1..4 { A[i] = A[i + 1] + 1; }",
        "doall i = 1..4 { doall j = 1..4 { A[i + j] = i; } }",
        "doall i = 1..4 { A[1] = 5; }",
        "s = 0; doall i = 1..4 { s = s + i; }",
        "doall i = 1..4 { t = i; } C[1] = t;",
        "t = 0; doall i = 1..4 { C[1] = t; t = i; }",
        "doall i = 1..4 { if i <= 2 { C[1] = i; } }",
        "doall i = 1..4 { x = i; doall j = 1..4 { x = j; } B[i][1] = x; }",
        // A read in one iteration, the only write in a later one.
        "t = 2; doall i = 1..4 { if i == 1 { C[1] = t; } if i == 2 { t = 5; } }",
        // Reads in two outer iterations; the second must not hide the
        // first from the write in an inner doall.
        "doall i = 1..2 { C[i] = A[1]; doall j = 1..2 { if i * 8 + j == 17 { A[1] = 9; } } }",
        "t = 2; doall i = 1..3 { C[i] = t; doall j = 1..2 { if i * 8 + j == 17 { t = 9; } } }",
        // An exposed read, then reads exposed only to an inner doall:
        // the record must still say "exposed to the outer one".
        "t = 2; doall i = 1..3 { if i == 1 { C[1] = t; } t = i + 10; doall j = 1..2 { B[i][j] = t; } }",
    ] {
        assert!(!verdict(&format!("{array} {racy}")), "missed: {racy}");
    }
    for clean in [
        "doall i = 1..4 { A[i] = A[i + 4] + 1; }",
        "doall i = 1..4 { t = i * 2; A[i] = t + t; }",
        "doall i = 1..4 { t = i; A[i] = t; } t = 0; C[1] = t;",
        "doall i = 1..4 { if i == 2 { C[1] = i; } }",
        "n = 4; doall i = 1..n { x = i; doall j = 1..n { B[i][j] = x + j + n; } }",
        "doall i = 1..4 { acc = 0; for k = 1..4 { acc = acc + B[i][k]; } C[i] = acc; }",
    ] {
        assert!(verdict(&format!("{array} {clean}")), "flagged: {clean}");
    }
}

#[test]
fn verdicts_match_the_four_run_check_on_adversarial_shapes() {
    let mut rng = Rng::new(0xFACE);
    for n in 0..300 {
        let src = adversarial(&mut rng);
        let prog = parse_program(&src).unwrap();
        assert_same_verdicts(&format!("adversarial {n}:\n{src}"), &prog, n);
    }
}

/// A random program over the adversarial shapes: one or two loop levels
/// (at least one a `doall`), trip counts ≤ 4, bodies drawn from racy and
/// race-free statement templates, and an optional read after the loop.
fn adversarial(rng: &mut Rng) -> String {
    let mut src = String::from("array A[12]; array B[6][6]; array C[6];\n");
    if rng.chance(3, 4) {
        src.push_str("s = 1; t = 2;\n");
    }
    let trip = |rng: &mut Rng| rng.range_i64(0, 4);
    let kind = |doall: bool| if doall { "doall" } else { "for" };
    let outer_doall = rng.chance(3, 4);
    let nested = rng.chance(1, 2);
    let (v, u) = if nested {
        ("j", Some("i"))
    } else {
        ("i", None)
    };
    let mut body = String::new();
    for _ in 0..rng.range_i64(1, 3) {
        body.push_str(&template(rng, v, u));
    }
    let header = |rng: &mut Rng, var: &str, doall: bool| {
        if rng.chance(1, 6) {
            format!("{} {var} = {}..1 step -1", kind(doall), trip(rng))
        } else {
            format!("{} {var} = 1..{}", kind(doall), trip(rng))
        }
    };
    if let Some(u) = u {
        let inner_doall = !outer_doall || rng.chance(1, 2);
        let mut outer_body = String::new();
        if rng.chance(1, 2) {
            outer_body.push_str(&template(rng, u, None));
        }
        outer_body.push_str(&format!("{} {{ {body} }}", header(rng, v, inner_doall)));
        if rng.chance(1, 3) {
            outer_body.push_str(&template(rng, u, None));
        }
        src.push_str(&format!(
            "{} {{ {outer_body} }}\n",
            header(rng, u, outer_doall)
        ));
    } else {
        src.push_str(&format!("{} {{ {body} }}\n", header(rng, v, true)));
    }
    match rng.below(4) {
        0 => src.push_str("C[5] = t;\n"),
        1 => src.push_str("C[5] = s;\n"),
        2 => src.push_str("t = 0; C[5] = t;\n"),
        _ => {}
    }
    src
}

/// One body statement over loop variable `v` (and outer variable `u`).
fn template(rng: &mut Rng, v: &str, u: Option<&str>) -> String {
    let c = rng.range_i64(0, 3);
    let d = rng.range_i64(0, 3);
    let w = u.unwrap_or(v);
    // A guard that holds in one iteration of the whole nest: a single
    // writer, racing only with readers in other iterations.
    let once = format!("{w} * 8 + {v} == {}", 8 * (c + 1) + d + 1);
    match rng.below(17) {
        13 => format!("if {once} {{ A[{}] = {v}; }}", d + 1),
        14 => format!("if {once} {{ t = {v}; }}"),
        15 => format!("if {v} == {} {{ t = {v} + {w}; }}", d + 1),
        16 => format!("if {v} == {} {{ C[4] = t; }}", c + 1),
        0 => format!("A[{v} + {c}] = A[{v} + {d}] + 1;"),
        1 => format!("A[{v} + {w} + {c}] = {v};"),
        2 => format!("A[{}] = 5;", c + 1),
        3 => format!("s = s + {v};"),
        4 => format!("t = {v} * 2; A[{v} + 4] = t;"),
        5 => format!("if {v} == {} {{ C[2] = {v}; }}", c + 1),
        6 => format!("if {v} <= {} {{ C[3] = C[3] + 1; }}", c + 1),
        7 => format!("B[{v} + 1][{w}] = t;"),
        8 => format!("t = A[{v} + {c}];"),
        9 => format!("B[{w}][{v}] = B[{v}][{w}] + s;"),
        10 => format!("C[{v}] = {v};"),
        11 => format!("x = {w}; C[{v} + 1] = x + {c};"),
        _ => format!("B[{w} + 1][{v} + 1] = A[{v} + {c}] * 2;"),
    }
}

/// Run `prog` under every combination of permutations of its `doall`
/// instances when there are at most `LIMIT` of them, otherwise under
/// `LIMIT` random ones, and hand each final store to `check`.
fn for_each_schedule(
    prog: &Program,
    base: &Store,
    rng: &mut Rng,
    mut check: impl FnMut(std::result::Result<Store, String>),
) {
    const LIMIT: usize = 2000;
    // Odometer over permutation ranks, one digit per instance met.
    let mut ranks: Vec<usize> = Vec::new();
    for _ in 0..LIMIT {
        let mut run = Permuted::new(base, ranks.clone());
        check(run.run(prog));
        // Advance the last digit that has room; drop the digits after it.
        let radices = run.radices;
        let mut next = ranks.clone();
        next.resize(radices.len(), 0);
        loop {
            match next.last() {
                None => return, // every schedule was run
                Some(&r) if r + 1 < radices[next.len() - 1] => {
                    *next.last_mut().unwrap() += 1;
                    break;
                }
                Some(_) => {
                    next.pop();
                }
            }
        }
        ranks = next;
    }
    for _ in 0..LIMIT {
        let mut run = Permuted::new(base, Vec::new());
        let stream = rng.next_u64();
        run.random = Some(rng.fork(stream));
        check(run.run(prog));
    }
}

/// A tree-walking reference interpreter whose `doall` instances run in
/// the permutation of rank `ranks[n]` (the n-th instance met; rank 0,
/// the identity, past the end) or, with `random`, a random one.
struct Permuted {
    store: Store,
    vars: HashMap<String, i64>,
    ranks: Vec<usize>,
    /// `trip!` of each instance met, in order.
    radices: Vec<usize>,
    random: Option<Rng>,
}

type Ref<T> = std::result::Result<T, String>;

impl Permuted {
    fn new(base: &Store, ranks: Vec<usize>) -> Permuted {
        Permuted {
            store: base.clone(),
            vars: HashMap::new(),
            ranks,
            radices: Vec::new(),
            random: None,
        }
    }

    fn run(&mut self, prog: &Program) -> Ref<Store> {
        self.block(&prog.body)?;
        Ok(self.store.clone())
    }

    fn expr(&mut self, e: &Expr) -> Ref<i64> {
        Ok(match e {
            Expr::Const(v) => *v,
            Expr::Var(s) => *self.vars.get(s.as_str()).ok_or("unbound")?,
            Expr::Read(r) => {
                let ix = r
                    .indices
                    .iter()
                    .map(|i| self.expr(i))
                    .collect::<Ref<Vec<_>>>()?;
                self.store
                    .get(r.array.as_str(), &ix)
                    .map_err(|e| e.to_string())?
            }
            Expr::Unary(UnOp::Neg, a) => self.expr(a)?.checked_neg().ok_or("overflow")?,
            Expr::Binary(op, a, b) => {
                let (x, y) = (self.expr(a)?, self.expr(b)?);
                arith::eval_binop(*op, x, y).ok_or("arith")?
            }
        })
    }

    fn cond(&mut self, c: &Cond) -> Ref<bool> {
        Ok(match c {
            Cond::Cmp(op, a, b) => op.apply(self.expr(a)?, self.expr(b)?),
            Cond::Not(c) => !self.cond(c)?,
            Cond::And(a, b) => self.cond(a)? && self.cond(b)?,
            Cond::Or(a, b) => self.cond(a)? || self.cond(b)?,
        })
    }

    fn block(&mut self, stmts: &[Stmt]) -> Ref<()> {
        for s in stmts {
            match s {
                Stmt::AssignScalar { var, value } => {
                    let v = self.expr(value)?;
                    self.vars.insert(var.to_string(), v);
                }
                Stmt::AssignArray { target, value } => {
                    let v = self.expr(value)?;
                    let ix = target
                        .indices
                        .iter()
                        .map(|i| self.expr(i))
                        .collect::<Ref<Vec<_>>>()?;
                    self.store
                        .set(target.array.as_str(), &ix, v)
                        .map_err(|e| e.to_string())?;
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    if self.cond(cond)? {
                        self.block(then_body)?;
                    } else {
                        self.block(else_body)?;
                    }
                }
                Stmt::Loop(l) => {
                    let (lo, hi, step) = (
                        self.expr(&l.lower)?,
                        self.expr(&l.upper)?,
                        self.expr(&l.step)?,
                    );
                    let trip = arith::trip_count(lo, hi, step).ok_or("zero step")? as i64;
                    let mut order: Vec<i64> = (0..trip).map(|k| lo + k * step).collect();
                    if l.kind.is_doall() {
                        self.permute(&mut order);
                    }
                    let saved = self.vars.get(l.var.as_str()).copied();
                    for ix in order {
                        self.vars.insert(l.var.to_string(), ix);
                        self.block(&l.body)?;
                    }
                    match saved {
                        Some(v) => self.vars.insert(l.var.to_string(), v),
                        None => self.vars.remove(l.var.as_str()),
                    };
                }
            }
        }
        Ok(())
    }

    /// Apply this instance's permutation: the next rank, decoded in the
    /// factorial number system.
    fn permute(&mut self, order: &mut Vec<i64>) {
        if let Some(rng) = self.random.as_mut() {
            rng.shuffle(order);
            return;
        }
        let n = self.radices.len();
        self.radices.push((1..=order.len()).product());
        let mut rank = self.ranks.get(n).copied().unwrap_or(0);
        let mut pool = std::mem::take(order);
        while !pool.is_empty() {
            let fact: usize = (1..pool.len()).product();
            order.push(pool.remove(rank / fact));
            rank %= fact;
        }
    }
}
