//! Seeded workload generation. The server only ever sees what these
//! generators print; equal seeds give byte-identical request streams.

use std::collections::HashSet;
use std::sync::Arc;

use lc_driver::pipeline::VALIDATE_SEED;
use lc_fuzz::gen::{generate, GenConfig};
use lc_fuzz::rng::Rng;
use lc_ir::printer::print_program;
use lc_ir::{Expr, Stmt};
use lc_service::cache::fnv1a;
use lc_workloads::kernels;
use lc_xform::validate::check_order_independent;

/// The benchmark's workloads. Each loads a different layer; see the
/// README next to this file for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `POST /batch` of unique small programs from one client.
    BatchSmall,
    /// `POST /compile` of unique paper kernels from `nproc` clients.
    CompileKernels,
    /// Warm-cache mix of hits, `/analyze`, and a few misses.
    ServeWarm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::BatchSmall,
        Workload::CompileKernels,
        Workload::ServeWarm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchSmall => "batch-small",
            Workload::CompileKernels => "compile-kernels",
            Workload::ServeWarm => "serve-warm",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads: one for `batch-small`, `nproc` for the
    /// others.
    pub fn clients(self, nproc: usize) -> usize {
        match self {
            Workload::BatchSmall => 1,
            _ => nproc,
        }
    }
}

/// Programs per `batch-small` request.
pub const BATCH_SIZE: usize = 32;

/// Fuzz programs whose interpreter work exceeds this many statement
/// executions are dropped from `batch-small`, so validation of tiny nests
/// stays next to, not on top of, the static passes.
pub const SMALL_INTERP_BUDGET: u64 = 256;

/// `serve-warm` repeats a block of this many operations, shuffled per
/// block by the seed.
pub const WARM_BLOCK: usize = 20;
/// Cache-hit `/compile` requests per block.
pub const WARM_HITS: usize = 17;
/// `/analyze` requests per block.
pub const WARM_ANALYZE: usize = 2;
/// Unique (cache-missing) `/compile` requests per block.
pub const WARM_MISSES: usize = WARM_BLOCK - WARM_HITS - WARM_ANALYZE;

/// One request of the closed loop.
#[derive(Debug, Clone)]
pub enum Op {
    /// `POST /batch` of these sources.
    Batch(Vec<Arc<str>>),
    /// `POST /compile`; `expect_hit` is the designed cache outcome.
    Compile {
        /// The program.
        source: Arc<str>,
        /// Whether the workload designed this request to hit the cache.
        expect_hit: bool,
    },
    /// `POST /analyze`.
    Analyze(Arc<str>),
}

impl Op {
    /// Programs this request carries (a batch counts each item).
    pub fn programs(&self) -> usize {
        match self {
            Op::Batch(s) => s.len(),
            Op::Compile { .. } | Op::Analyze(_) => 1,
        }
    }

    /// Every source the request carries.
    pub fn sources(&self) -> &[Arc<str>] {
        match self {
            Op::Batch(s) => s,
            Op::Compile { source, .. } | Op::Analyze(source) => std::slice::from_ref(source),
        }
    }
}

/// A corpus-shaped program (the three shapes of
/// `lc_service::corpus::corpus72`) with seed-drawn bounds and constant.
/// The constant range starts above the corpus's own `0..72`, so these
/// never collide with a primed corpus entry.
fn corpus_shaped(rng: &mut Rng) -> String {
    let n = rng.range_i64(2, 8);
    let m = rng.range_i64(3, 7);
    let k = rng.range_i64(1_000, 1_000_000_000);
    match rng.below(3) {
        0 => format!(
            "array A[{n}][{m}];\ndoall i = 1..{n} {{\n    doall j = 1..{m} {{\n        A[i][j] = i * {k} + j;\n    }}\n}}\n"
        ),
        1 => format!(
            "array A[{n}][{m}];\narray B[{n}];\nfor i = 2..{n} {{\n    B[i] = B[i - 1] + {k};\n}}\ndoall i = 1..{n} {{\n    doall j = 1..{m} {{\n        A[i][j] = i + j;\n    }}\n}}\n"
        ),
        _ => format!(
            "array A[{n}][{m}];\nu = {n};\nv = {m};\ndoall i = 1..u {{\n    doall j = 1..v {{\n        A[i][j] = i * j + {k};\n    }}\n}}\n"
        ),
    }
}

/// An outer serial level carrying a dependence over a parallel inner
/// level: the interchange pass moves the `doall` outward. The fuzz
/// generator's serial levels carry no dependence, so it rarely makes
/// interchange act on its own.
fn carried_outer(rng: &mut Rng) -> String {
    let n = rng.range_i64(3, 8);
    let m = rng.range_i64(2, 7);
    let k = rng.range_i64(1, 1_000_000_000);
    format!(
        "array A[{n}][{m}];\nfor i = 2..{n} {{\n    doall j = 1..{m} {{\n        A[i][j] = A[i - 1][j] + {k};\n    }}\n}}\n"
    )
}

/// A fuzz-generator program within the interpreter budget, printed back
/// to DSL. Extreme (compile-only) flavors have no cost and are dropped,
/// and so is the rare program whose result depends on `doall` order:
/// shared-division interning can hoist `cse0 = t0 / 2` above `t0`'s
/// assignment, so the read sees the previous iteration's `t0` (or none),
/// and the compiler then rightly fails validation on it. Only programs
/// with interned `cse` temporaries can have this defect, so only those
/// are interpreted.
fn small_fuzz(rng: &mut Rng) -> String {
    loop {
        let g = generate(rng, &GenConfig::default());
        if g.interp_cost.is_none_or(|c| c > SMALL_INTERP_BUDGET) {
            continue;
        }
        let src = print_program(&g.program);
        if !src.contains("cse") || check_order_independent(&g.program, VALIDATE_SEED).is_ok() {
            return src;
        }
    }
}

/// Paper kernels `compile-kernels` cycles through, in order.
const KERNELS: usize = 6;

/// Paper kernel `kind` at seed-drawn sizes, each interpreting a few
/// thousand to about twenty thousand loop iterations. A leading
/// `instance = <n>;` makes every request a distinct cache key even for
/// kernels with few sizes in range (`triangular_mask` has one parameter);
/// it is straight-line code the pipeline passes through unchanged.
fn kernel(rng: &mut Rng, kind: usize) -> String {
    let mut r = |lo: i64, hi: i64| rng.range_i64(lo, hi) as u64;
    let mut k = match kind {
        0 => kernels::matmul(r(6, 14), r(6, 14), r(8, 24)),
        1 => kernels::gauss_jordan_backsub(r(16, 40), r(16, 48)),
        2 => kernels::stencil2d(r(24, 64), r(24, 64)),
        3 => kernels::triangular_mask(r(40, 100)),
        4 => kernels::pi_partial_sums(r(4, 12), r(200, 900)),
        _ => kernels::cube_fill(r(8, 20), r(8, 20), r(8, 20)),
    };
    let instance = Expr::lit(rng.range_i64(1, 1_000_000_000));
    k.program.body.insert(0, Stmt::assign("instance", instance));
    print_program(&k.program)
}

/// The seeded request stream of one workload.
pub struct Inputs {
    workload: Workload,
    rng: Rng,
    /// FNV-1a of every source already issued: every generated program is
    /// a distinct cache key.
    seen: HashSet<u64>,
    corpus: Vec<Arc<str>>,
    block: Vec<Op>,
    /// Requests issued so far.
    issued: usize,
}

impl Inputs {
    /// The stream for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let corpus: Vec<Arc<str>> = lc_service::corpus::corpus72()
            .into_iter()
            .map(Arc::from)
            .collect();
        Inputs {
            workload,
            rng: Rng::new(seed).fork(workload as u64),
            seen: corpus.iter().map(|s| fnv1a(s.as_bytes())).collect(),
            corpus,
            block: Vec::new(),
            issued: 0,
        }
    }

    /// The 72-program corpus `serve-warm` primes and hits.
    pub fn corpus(&self) -> &[Arc<str>] {
        &self.corpus
    }

    /// Draw from `make` until the program is new to this stream.
    fn unique(&mut self, mut make: impl FnMut(&mut Rng) -> String) -> Arc<str> {
        loop {
            let src = make(&mut self.rng);
            if self.seen.insert(fnv1a(src.as_bytes())) {
                return Arc::from(src);
            }
        }
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::BatchSmall => Op::Batch(
                (0..BATCH_SIZE)
                    .map(|i| {
                        let make: fn(&mut Rng) -> String = match i % 4 {
                            1 => corpus_shaped,
                            3 => carried_outer,
                            _ => small_fuzz,
                        };
                        self.unique(make)
                    })
                    .collect(),
            ),
            Workload::CompileKernels => {
                let kind = self.issued % KERNELS;
                self.issued += 1;
                Op::Compile {
                    source: self.unique(|rng| kernel(rng, kind)),
                    expect_hit: false,
                }
            }
            Workload::ServeWarm => {
                if self.block.is_empty() {
                    self.refill_block();
                }
                self.block.pop().expect("refilled block is non-empty")
            }
        }
    }

    fn refill_block(&mut self) {
        let mut block = Vec::with_capacity(WARM_BLOCK);
        for _ in 0..WARM_HITS {
            let source = self.rng.pick(&self.corpus).clone();
            block.push(Op::Compile {
                source,
                expect_hit: true,
            });
        }
        for _ in 0..WARM_ANALYZE {
            block.push(Op::Analyze(self.rng.pick(&self.corpus).clone()));
        }
        for _ in 0..WARM_MISSES {
            block.push(Op::Compile {
                source: self.unique(corpus_shaped),
                expect_hit: false,
            });
        }
        self.rng.shuffle(&mut block);
        self.block = block;
    }

    /// The first `n` requests of the stream.
    pub fn take(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

/// A request stream indexed from 0, generated ahead of time up to a pool
/// size and extended on demand past it, so a server faster than the pool
/// anticipated still gets fresh inputs for the whole run.
pub struct Stream {
    inputs: Inputs,
    ops: Vec<Op>,
}

impl Stream {
    /// The stream with its first `pool` requests generated.
    pub fn new(workload: Workload, seed: u64, pool: usize) -> Stream {
        let mut inputs = Inputs::new(workload, seed);
        let ops = inputs.take(pool);
        Stream { inputs, ops }
    }

    /// Request `i`, generating up to it if needed.
    pub fn get(&mut self, i: usize) -> Op {
        while self.ops.len() <= i {
            let op = self.inputs.next_op();
            self.ops.push(op);
        }
        self.ops[i].clone()
    }

    /// Every request generated so far.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The 72-program corpus.
    pub fn corpus(&self) -> &[Arc<str>] {
        self.inputs.corpus()
    }
}

/// Order-sensitive digest of a request stream: kind tags plus every
/// source byte.
pub fn digest(ops: &[Op]) -> u64 {
    let mut bytes = Vec::new();
    for op in ops {
        bytes.push(match op {
            Op::Batch(_) => b'b',
            Op::Compile {
                expect_hit: true, ..
            } => b'h',
            Op::Compile { .. } => b'c',
            Op::Analyze(_) => b'a',
        });
        for s in op.sources() {
            bytes.extend_from_slice(s.as_bytes());
            bytes.push(0xFF);
        }
    }
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_byte_identical_streams() {
        for w in Workload::ALL {
            let a = Inputs::new(w, 7).take(12);
            let b = Inputs::new(w, 7).take(12);
            let c = Inputs::new(w, 8).take(12);
            assert_eq!(digest(&a), digest(&b), "{}", w.name());
            assert_ne!(digest(&a), digest(&c), "{}", w.name());
        }
    }

    #[test]
    fn cold_streams_never_repeat_a_program() {
        for w in [Workload::BatchSmall, Workload::CompileKernels] {
            let ops = Inputs::new(w, 3).take(40);
            let mut seen = HashSet::new();
            for op in &ops {
                for s in op.sources() {
                    assert!(
                        seen.insert(s.to_string()),
                        "{} repeated a program",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn warm_blocks_follow_the_designed_mix() {
        let ops = Inputs::new(Workload::ServeWarm, 11).take(WARM_BLOCK * 5);
        let hits = ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Op::Compile {
                        expect_hit: true,
                        ..
                    }
                )
            })
            .count();
        let analyze = ops.iter().filter(|o| matches!(o, Op::Analyze(_))).count();
        assert_eq!(hits, WARM_HITS * 5);
        assert_eq!(analyze, WARM_ANALYZE * 5);
        let corpus = lc_service::corpus::corpus72();
        for op in &ops {
            if let Op::Compile { source, expect_hit } = op {
                assert_eq!(*expect_hit, corpus.iter().any(|c| **c == **source));
            }
        }
    }

    #[test]
    fn every_generated_program_parses() {
        for w in Workload::ALL {
            for op in Inputs::new(w, 5).take(6) {
                for s in op.sources() {
                    lc_ir::parser::parse_program(s).unwrap_or_else(|e| panic!("{e}\n{s}"));
                }
            }
        }
    }
}
