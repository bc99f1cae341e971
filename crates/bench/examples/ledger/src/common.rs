//! Helpers shared by every workload: the seeded generator, percentiles,
//! the result a run reports, CPU clocks, set-up timing and peak-RSS
//! readings.

use std::time::{Duration, Instant};

/// splitmix64: a tiny seeded generator, so request draws depend on the
/// seed alone and not on any crate's RNG choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-quantile (0..=1) of `values`, nearest-rank on a sorted copy.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `samples`: the middle value, or the mean of the two
/// middle values.
pub fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n % 2 == 1 || n == 0 {
        return percentile(samples, 0.5);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
}

pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time the calling thread has used (`CLOCK_THREAD_CPUTIME_ID`).
///
/// Unlike wall time it leaves out the time the thread waits for a CPU,
/// whether other processes hold it or (with the kernel's steal-time
/// accounting) the host has taken the virtual CPU away. It still grows
/// when the CPU runs the thread more slowly; [`Probes`] corrects for that.
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux); the call writes only to it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What one workload run reports: the contract's result line plus the
/// named metrics, in the order they were added.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Answers that disagreed with their oracle (paper checks included).
    pub wrong: u64,
    /// Answers compared against an oracle.
    pub checked: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records one oracle comparison.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.wrong += 1;
            eprintln!("wrong answer: {}", what());
        }
    }
}

/// The end-to-end metrics every untraced run reports. Times are CPU
/// times scaled to the reference speed (see [`Probes`]).
pub struct EndToEnd {
    /// Median CPU seconds of one set-up.
    pub setup_s: f64,
    /// CPU milliseconds of each request (its median over passes).
    pub cpu_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Mean probe time over the run, ms.
    pub probe_ms: f64,
}

impl EndToEnd {
    pub fn report(&self, out: &mut Outcome) {
        eprintln!("ledger: mean probe time {:.3} ms", self.probe_ms);
        out.metric("setup_s", self.setup_s, "s");
        out.metric("cpu_ms_p50", percentile(&self.cpu_ms, 0.5), "ms");
        out.metric("cpu_ms_p90", percentile(&self.cpu_ms, 0.9), "ms");
        out.metric("cpu_ms_mean", mean(&self.cpu_ms), "ms");
        out.metric("peak_rss_mb", self.peak_rss_mb, "MB");
    }
}

/// Set-up samples: at least `MIN_SETUPS`, and at least `MIN_SETUP_TIME`
/// in total so that millisecond set-ups still give a steady median.
const MIN_SETUPS: usize = 5;
const MIN_SETUP_TIME: Duration = Duration::from_millis(300);

/// Times `setup` in CPU time until enough samples exist; returns the
/// median, scaled to the reference speed (s).
pub fn setup_s<S>(mut setup: impl FnMut() -> S, probes: &mut Probes) -> f64 {
    let mut samples = Vec::new();
    while samples.len() < MIN_SETUPS || samples.iter().sum::<f64>() < MIN_SETUP_TIME.as_secs_f64() {
        let start = thread_cpu();
        let s = setup();
        let cost = thread_cpu() - start;
        samples.push(cost.as_secs_f64());
        drop(s);
        probes.after(ms(cost));
    }
    median(&samples) * probes.scale()
}

/// Scales CPU times to one machine speed.
///
/// The CPU time of a piece of code depends on more than the code: on a
/// shared host the same work takes up to 80% longer while other tenants
/// load the machine, and that load comes and goes within seconds, with
/// little or no steal time to show for it. Between pieces of
/// measured work the ledger therefore runs a fixed probe, after the first
/// piece of each stretch of measurements (a pass, the set-ups) and then
/// after every `EVERY_MS` of measured CPU time, and scales the stretch by
/// `REFERENCE_MS` over its mean probe time. The times it reports are thus
/// those of a machine on which the probe takes `REFERENCE_MS`. The probe
/// is the ledger's own code, so a change to the program moves the
/// measurements and not the scale.
#[derive(Default)]
pub struct Probes {
    stretch: Vec<f64>,
    all: Vec<f64>,
    since_ms: f64,
}

impl Probes {
    const EVERY_MS: f64 = 100.0;
    /// About the probe's time on a 2-core test machine whose neighbours
    /// are quiet.
    const REFERENCE_MS: f64 = 9.0;

    /// Counts `cost_ms` of measured work and probes when it is time.
    pub fn after(&mut self, cost_ms: f64) {
        self.since_ms += cost_ms;
        if self.stretch.is_empty() || self.since_ms >= Self::EVERY_MS {
            self.stretch.push(probe_ms());
            self.since_ms = 0.0;
        }
    }

    /// Ends a stretch: the factor that scales its CPU times to the
    /// reference speed.
    pub fn scale(&mut self) -> f64 {
        let scale = ratio(Self::REFERENCE_MS, mean(&self.stretch));
        self.all.append(&mut self.stretch);
        self.since_ms = 0.0;
        scale
    }

    /// Mean probe time over every stretch so far, ms.
    pub fn mean_ms(&self) -> f64 {
        mean(&self.all)
    }
}

/// Inserts and looks up random keys in a hash map of `capacity` slots,
/// hashed with fixed keys so that every run does the same work.
fn hash_work(rng: &mut Rng, capacity: usize, keys: u64, inserts: usize, lookups: usize) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default());
    for _ in 0..inserts {
        map.insert(rng.next_u64() % keys, rng.next_u64());
    }
    let mut acc = 0u64;
    for _ in 0..lookups {
        if let Some(v) = map.get(&(rng.next_u64() % keys)) {
            acc ^= v;
        }
    }
    acc
}

/// The probe, the kind of work the engine and the extractor do: hashing,
/// allocation and sorting within about a megabyte, then scattered reads
/// over a table of several megabytes, which spend most of their time
/// waiting for memory. Code that mostly computes and code that mostly
/// waits for memory slow down by different amounts when the host is
/// loaded; the two parts make the probe's time track both (a probe of the
/// first part alone left `vqa-debug` and `trust-cold` spreading twice as
/// wide, see README.md).
fn probe_work() -> u64 {
    let mut rng = Rng::new(0x9b0b);
    let small = hash_work(&mut rng, 1 << 14, 40_000, 20_000, 60_000);
    let mut sorted: Vec<u64> = (0..30_000).map(|_| rng.next_u64()).collect();
    sorted.sort_unstable();
    let lists: Vec<Vec<u32>> = (0..3_000u32).map(|i| (0..i % 23).collect()).collect();
    let large = hash_work(&mut rng, 1 << 18, 300_000, 70_000, 70_000);
    small ^ large ^ sorted[sorted.len() / 2] ^ lists.iter().map(|l| l.len() as u64).sum::<u64>()
}

/// CPU ms of one run of the probe work.
fn probe_ms() -> f64 {
    let start = thread_cpu();
    std::hint::black_box(probe_work());
    ms(thread_cpu() - start)
}

/// Paces a run's passes: at least `MIN_PASSES`, then more while the
/// run's seconds of wall time leave room for one as long as the last.
pub struct Passes {
    seconds: f64,
    start: Instant,
    last_start: Instant,
    done: usize,
}

impl Passes {
    const MIN_PASSES: usize = 3;

    pub fn new(seconds: f64) -> Self {
        let now = Instant::now();
        Passes {
            seconds,
            start: now,
            last_start: now,
            done: 0,
        }
    }

    /// Whether to run another pass; call once before each.
    pub fn another(&mut self) -> bool {
        let now = Instant::now();
        let last = (now - self.last_start).as_secs_f64();
        let go =
            self.done < Self::MIN_PASSES || (now - self.start).as_secs_f64() + last < self.seconds;
        if go {
            self.done += 1;
            self.last_start = now;
        }
        go
    }
}

/// Runs `f` and logs its wall time to stderr, so a slow run shows which
/// phase (input generation, measurement, checks) took the time.
pub fn phase<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    eprintln!("ledger: {name} took {:.2} s", start.elapsed().as_secs_f64());
    out
}

/// `VmHWM` (peak resident set) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Resets this process's `VmHWM` to its current RSS, so that the peak
/// reported covers set-up and requests, not input generation.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
