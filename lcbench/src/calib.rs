//! Host calibration: a fixed, std-only CPU task timed between load
//! slices. Shared hosts drift by tens of percent over minutes (another
//! tenant on a sibling hyperthread, frequency changes); timing the same
//! work next to every slice lets the benchmark report its timings at a
//! nominal host speed. The task uses no code of this repository, so no
//! change to the compiler or server can move it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// What [`measure`] reads on the reference host state the normalized
/// metrics are quoted at (a 2-core x86-64 container, idle neighbours).
pub const NOMINAL_MS: f64 = 1.0;

/// Repetitions per thread; each thread reports its median.
const REPS: usize = 9;

/// One unit of interpreter-like work: hashed scalar lookups, indexed
/// array updates and small allocations, about a millisecond.
fn unit(seed: u64) -> i64 {
    let mut vars: HashMap<u64, i64> = HashMap::new();
    let mut arr = vec![0i64; 4096];
    let mut x = seed;
    for i in 0..25_000u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        *vars.entry(z % 64).or_insert(0) += (z >> 40) as i64 & 0xff;
        let idx = (z >> 8) as usize % arr.len();
        arr[idx] = arr[idx].wrapping_add(vars[&(z % 64)]);
        if i % 32 == 0 {
            let v: Vec<u64> = (0..16).map(|j| z ^ j).collect();
            x ^= black_box(v).iter().sum::<u64>() & 0xff;
        }
    }
    arr.iter().fold(0, |a, b| a.wrapping_add(*b))
}

/// Time [`unit`] on every core at once (median of `REPS` per core, mean
/// over cores), in milliseconds.
pub fn measure() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_core: Vec<f64> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..cores)
            .map(|c| {
                s.spawn(move || {
                    let times: Vec<f64> = (0..REPS)
                        .map(|r| {
                            let t = Instant::now();
                            black_box(unit(black_box((c * REPS + r) as u64)));
                            t.elapsed().as_secs_f64() * 1e3
                        })
                        .collect();
                    median(&times).unwrap_or(f64::NAN)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("calibration thread panicked"))
            .collect()
    });
    per_core.iter().sum::<f64>() / per_core.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_positive_and_deterministic_work() {
        assert_eq!(unit(7), unit(7));
        assert!(measure() > 0.0);
    }
}
