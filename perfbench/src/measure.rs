//! Measurement plumbing shared by the workloads: order statistics, the
//! seeded input generator, host memory, and the in-memory span recorder of
//! traced runs.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `q`-quantile of `values` by linear interpolation between closest ranks
/// (0.0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (0.0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0.0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one `--seed`
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so workloads that
    /// draw several inputs from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0.0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so the next [`peak_rss_mb`] covers only what runs after
/// this call. Where the kernel does not support it, the peak keeps
/// covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Seconds of CPU time the hypervisor has taken from this machine's CPUs
/// since boot (the `steal` column of `/proc/stat`, in the usual 100 Hz
/// ticks); 0.0 where the kernel does not report it.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|fields| fields.split_whitespace().nth(7))
        .and_then(|v| v.parse::<f64>().ok());
    ticks.map_or(0.0, |t| t / 100.0)
}

/// Host cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One recorded span: a call the benchmark made into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `radram.activate`.
    pub name: &'static str,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// End, relative to the recorder's epoch.
    pub end: Duration,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one job (or query, or round) share this id.
    pub job: u64,
}

/// Records spans in memory while a traced iteration runs; a disabled
/// recorder costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder, recording only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's index
    /// so it can parent the spans it causes.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let start = self.epoch.elapsed();
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span { name, start, end: start, parent, job });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.epoch.elapsed();
        self.spans.lock().expect("span recorder poisoned")[id].end = end;
        out
    }

    /// Records an interval timed elsewhere (a job on an engine worker, a
    /// client-observed job from its submit to its completion).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        (start, end): (Instant, Instant),
    ) {
        if self.on {
            let span = Span { name, start: self.since(start), end: self.since(end), parent, job };
            self.spans.lock().expect("span recorder poisoned").push(span);
        }
    }

    /// `t` relative to the recorder's epoch.
    pub fn since(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.epoch)
    }

    /// The recorded spans, leaving the recorder empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span recorder poisoned"))
    }
}

/// Total length of the union of `intervals`, each clipped to `within`.
pub fn covered(intervals: &mut [(Duration, Duration)], within: (Duration, Duration)) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut reach = within.0;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(within.1));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Per-span-name self time: each span's duration minus the part of it its
/// child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut totals: Vec<(&'static str, f64)> = Vec::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let own = (s.end - s.start).saturating_sub(covered(kids, (s.start, s.end)));
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own.as_secs_f64(),
            None => totals.push((s.name, own.as_secs_f64())),
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn union_and_self_time() {
        let ms = Duration::from_millis;
        let mut iv = vec![(ms(5), ms(15)), (ms(0), ms(10)), (ms(20), ms(40))];
        assert_eq!(covered(&mut iv, (ms(0), ms(30))), ms(25));
        let spans = vec![
            Span { name: "a", start: ms(0), end: ms(100), parent: None, job: 0 },
            Span { name: "b", start: ms(10), end: ms(50), parent: Some(0), job: 0 },
            Span { name: "b", start: ms(40), end: ms(60), parent: Some(0), job: 1 },
        ];
        let t = self_times(&spans);
        assert!((t[0].1 - 0.05).abs() < 1e-9, "{t:?}");
        assert!((t[1].1 - 0.06).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
