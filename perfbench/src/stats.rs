//! Order statistics, digests and process probes shared by the workloads.

/// Nearest-rank percentile of an ascending sample: the smallest sample
/// with at least `pct` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// The 1-based nearest rank of the `pct` percentile among `n` samples.
/// The epsilon keeps `0.999 * 10_000` from rounding up past 9990.
fn rank(n: usize, pct: f64) -> usize {
    let r = ((pct / 100.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Samples ranked strictly above the nearest-rank `pct` percentile.
pub fn beyond(n: usize, pct: f64) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// A timing distribution reduced to what the benchmark reports: the
/// median, and the highest percentile (at most `cap`) that has at least
/// ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dist {
    /// Samples summarized.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The percentile `tail` was taken at; 100 means the sample is too
    /// small for any ladder percentile and `tail` is the maximum.
    pub tail_pct: f64,
    /// The tail value.
    pub tail: f64,
}

impl Dist {
    /// Summarizes `samples` with the tail capped at the `cap` percentile.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(samples: &[f64], cap: f64) -> Dist {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (tail_pct, tail) = TAIL_LADDER
            .iter()
            .copied()
            .filter(|&p| p <= cap)
            .find(|&p| beyond(n, p) >= 10)
            .map_or((100.0, sorted[n - 1]), |p| (p, nearest_rank(&sorted, p)));
        Dist {
            n,
            p50: nearest_rank(&sorted, 50.0),
            tail_pct,
            tail,
        }
    }

    /// `p50 / tail (pNN of n)` with values scaled by `scale`.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let pct = if self.tail_pct >= 100.0 {
            "max".to_string()
        } else {
            format!("p{}", self.tail_pct)
        };
        format!(
            "p50 {:.4} {unit}, {pct} {:.4} {unit} (n = {})",
            self.p50 * scale,
            self.tail * scale,
            self.n
        )
    }
}

/// Nearest-rank median.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

/// FNV-1a over the bytes, eight at a time: a stable fingerprint of a
/// decision stream, identical across runs, builds and machines.
pub fn digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("eight bytes"))).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// A `kB` field of `/proc/self/status` in MB (0 where unreadable).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// User plus system CPU seconds this process has used, all threads.
pub fn cpu_secs() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in USER_HZ (100/s on Linux);
    // the command name (field 2) may hold spaces, so count from its `)`.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a 1024-processor affinity mask, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// The processors the calling thread may run on, ascending; empty if the
/// kernel does not say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into
    // `mask`, which lives for the whole call.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0;
    if !ok {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread, and the threads it starts from now on, to
/// `cpus`. Returns whether the kernel agreed.
pub fn pin_to(cpus: &[usize]) -> bool {
    if cpus.is_empty() || cpus.iter().any(|&cpu| cpu >= MASK_WORDS * 64) {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes from `mask`,
    // which lives for the whole call.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins the thread to the `k`-th of `cpus` in turn. Each processor of a
/// shared host slows down in phases of its own, so passes spread over all
/// of them are more likely to meet a quiet one than passes left on one.
pub fn pin_in_turn(cpus: &[usize], k: usize) {
    if !cpus.is_empty() {
        pin_to(&[cpus[k % cpus.len()]]);
    }
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the working tree is at, read from `.git` without running
/// git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(format!(".git/{name}")).unwrap_or_else(|_| {
            std::fs::read_to_string(".git/packed-refs")
                .unwrap_or_default()
                .lines()
                .find(|l| l.ends_with(name))
                .map(|l| l.split(' ').next().unwrap_or_default().to_string())
                .unwrap_or_default()
        }),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.len() >= 7 {
        rev[..7].to_string()
    } else {
        "unknown".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_real_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 5.0);
        assert_eq!(nearest_rank(&s, 90.0), 9.0);
        assert_eq!(nearest_rank(&s, 91.0), 10.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&s, 100.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99.9 has 1 beyond, p99 exactly 10.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let d = Dist::of(&s, 99.9);
        assert_eq!((d.tail_pct, d.tail, d.p50), (99.0, 990.0, 500.0));
        assert_eq!(beyond(1000, 99.0), 10);
        // 999 samples: p99 leaves 9 beyond, so the tail drops to p90.
        let d = Dist::of(&s[..999], 99.9);
        assert_eq!((d.tail_pct, d.tail), (90.0, 900.0));
        // 10 000 samples reach p99.9, unless capped at p99.
        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(Dist::of(&s, 99.9).tail_pct, 99.9);
        assert_eq!(Dist::of(&s, 99.0).tail_pct, 99.0);
        // Too small for any percentile: the maximum, marked as such.
        let d = Dist::of(&[2.0, 7.0, 3.0], 99.0);
        assert_eq!((d.tail_pct, d.tail, d.p50, d.n), (100.0, 7.0, 3.0, 3));
        assert!(d.describe(1.0, "s").contains("max"));
    }

    #[test]
    fn pinning_moves_the_thread_and_stays_inside_the_allowed_set() {
        std::thread::spawn(|| {
            let cpus = allowed_cpus();
            assert!(!cpus.is_empty());
            let last = *cpus.last().expect("at least one processor");
            assert!(pin_to(&[last]));
            assert_eq!(allowed_cpus(), vec![last]);
            assert!(pin_to(&cpus), "the whole set is allowed again");
            assert_eq!(allowed_cpus(), cpus);
            assert!(!pin_to(&[MASK_WORDS * 64]));
            assert!(!pin_to(&[]));
        })
        .join()
        .expect("pinned thread");
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest(b"0123456789"), digest(b"0123456798"));
        assert_eq!(digest(b"abcdefghij"), digest(b"abcdefghij"));
    }
}
