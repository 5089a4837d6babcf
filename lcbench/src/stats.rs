//! Order statistics and the `/proc` readers for the server's CPU time and
//! peak resident set.

use std::io;

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; with fewer, one slow request would *be* the percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of the `q`-th percentile in a sample of `n`:
/// `ceil(q/100 · n)`, at least 1. Integer arithmetic, so `q = 95, n = 200`
/// is exactly rank 190.
pub fn nearest_rank(n: usize, q: u32) -> usize {
    (n * q as usize).div_ceil(100).max(1)
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q`% of the sample at or below it. `None` for an
/// empty sample or `q > 100`.
pub fn percentile(sorted: &[f64], q: u32) -> Option<f64> {
    if sorted.is_empty() || q > 100 {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), q).min(sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `q`-th percentile.
pub fn samples_beyond(n: usize, q: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, q).min(n)
}

/// Whether a sample of `n` supports reporting the `q`-th percentile.
pub fn tail_supported(n: usize, q: u32) -> bool {
    samples_beyond(n, q) >= MIN_TAIL_SAMPLES
}

/// Median of an unsorted sample (nearest rank, so always an observed
/// value). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50)
}

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// the kernel ABI fixes at 100 per second.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU ticks of a whole process (all threads) from the
/// text of `/proc/<pid>/stat`. The command name may itself contain
/// spaces and parentheses, so fields are counted after the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and
    // 15 of proc(5), so indices 11 and 12 here.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field such as `VmHWM:` from the text of `/proc/<pid>/status`.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let value = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(value)
    })
}

fn malformed(what: &str, pid: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unreadable {what} for pid {pid}"),
    )
}

/// CPU seconds (user + system, all threads) the process has used so far.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let ticks = parse_stat_cpu_ticks(&text).ok_or_else(|| malformed("stat", pid))?;
    Ok(ticks as f64 / TICKS_PER_SECOND)
}

/// Peak resident set (`VmHWM`) of the process, in MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kib = parse_status_kib(&text, "VmHWM").ok_or_else(|| malformed("VmHWM", pid))?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 95), Some(95.0));
        assert_eq!(percentile(&v, 100), Some(100.0));
        assert_eq!(percentile(&v, 0), Some(1.0));
        assert_eq!(percentile(&[7.0], 95), Some(7.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&v, 101), None);
        // Rank 190 of 200 exactly, with no floating-point rounding.
        assert_eq!(nearest_rank(200, 95), 190);
        assert_eq!(nearest_rank(201, 95), 191);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(200, 95), 10);
        assert!(tail_supported(200, 95));
        assert!(!tail_supported(199, 95));
        assert!(!tail_supported(0, 95));
        assert!(tail_supported(20, 50));
        assert!(!tail_supported(999, 99));
        assert!(tail_supported(1000, 99));
    }

    #[test]
    fn stat_parser_counts_fields_after_the_last_paren() {
        let stat = "4242 (lc serve) (x)) S 1 4242 4242 0 -1 4194560 321 0 0 0 \
                    157 43 0 0 20 0 6 0 1000 12345678 900 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(200));
        assert_eq!(parse_stat_cpu_ticks("4242 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no paren at all"), None);
    }

    #[test]
    fn status_parser_reads_kib_fields() {
        let status =
            "Name:\tlc-serve\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(5120));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(4000));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        assert_eq!(parse_status_kib("VmHWM:\t12 pages\n", "VmHWM"), None);
    }

    #[test]
    fn proc_readers_work_on_this_process() {
        let pid = std::process::id();
        // Burn a little CPU so the counter is visibly non-negative.
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
        assert!(cpu_seconds(u32::MAX).is_err());
    }
}
