//! The workspace's one random number generator: splitmix64, hand-rolled.
//!
//! The workspace builds offline, so there is no `rand`. Splitmix64 is
//! tiny, fast, and — crucially for seeded validation stores and for a
//! fuzzer whose findings must be reproducible from a seed printed in a
//! CI log — completely deterministic and platform-independent: nothing
//! here depends on pointer widths, hash seeds, or iteration order.

/// Deterministic splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed`. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Derive an independent child stream. Used to give each fuzz case
    /// its own generator so cases stay reproducible in isolation:
    /// `Rng::new(seed).fork(case_index)` replays case `case_index`
    /// without running the cases before it.
    pub fn fork(&self, stream: u64) -> Rng {
        // Mix the stream index through one splitmix64 round so forks of
        // adjacent indices are uncorrelated.
        let mut r = Rng {
            state: self.state ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        r.next_u64();
        Rng {
            state: r.next_u64(),
        }
    }

    /// Next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`. `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift reduction; the tiny modulo bias is irrelevant
        // for fuzzing and the result stays platform-independent.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// A uniformly chosen element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_reproducible_and_distinct() {
        let root = Rng::new(7);
        let mut f1 = root.fork(1);
        let mut f1_again = root.fork(1);
        let mut f2 = root.fork(2);
        assert_eq!(f1.next_u64(), f1_again.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut r = Rng::new(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_is_inclusive() {
        let mut r = Rng::new(9);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..500 {
            let v = r.range_i64(-2, 2);
            assert!((-2..=2).contains(&v));
            lo_seen |= v == -2;
            hi_seen |= v == 2;
        }
        assert!(lo_seen && hi_seen);
    }
}
