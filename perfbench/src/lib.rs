//! Host-time benchmark of the Active Pages simulator.
//!
//! Four named workloads drive the simulator through its public entry points
//! only, time every call into a layer from outside, and check every
//! simulated result. One process runs one workload (see [`run`]), so the
//! process-global page-thread budget, the page-worker pool and the peak-RSS
//! high-water mark start fresh for every workload: no workload inherits
//! another's state. Each workload also publishes its own page-thread budget
//! before it starts, so even an in-process sequence (the test suite) gets
//! the budget each workload documents.
//!
//! End-to-end metrics come from untraced iterations only. With tracing on,
//! traced and untraced iterations alternate; per-layer numbers come from the
//! traced ones, and the difference between the two is the tracing overhead.

#![forbid(unsafe_code)]

pub mod apd_mixed;
pub mod dbxl;
pub mod digest;
pub mod fig_sweep;
pub mod measure;
pub mod wide;

use ap_apd::json::Value;
use measure::{median, quantile, ratio, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The benchmark's workloads, by the names later changes refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 3/4 accurate-tier sweep on an `Engine`.
    FigSweep,
    /// A `database-xl` query stream, one 8-page batch per query.
    DbxlStream,
    /// `activate_group` rounds over hundreds of compute-dense pages.
    WidePages,
    /// An in-process `apd` daemon fed by pipelining clients, one per core.
    ApdMixed,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] =
        [Workload::FigSweep, Workload::DbxlStream, Workload::WidePages, Workload::ApdMixed];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigSweep => "fig-sweep",
            Workload::DbxlStream => "dbxl-stream",
            Workload::WidePages => "wide-pages",
            Workload::ApdMixed => "apd-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: the documented workloads, or a seconds-long pass over the
/// same code paths for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the workloads are documented and recorded at.
    Full,
    /// Small inputs exercising every path and check.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Sets the work: the iterations that take this long at the recorded
    /// baseline (at least one; two when tracing).
    pub seconds: f64,
    /// Alternate traced iterations with untraced ones and report per-layer
    /// metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Overrides the recorded digest the simulated statistics are checked
    /// against (tests use it to show a wrong digest fails the run).
    pub digest: Option<u64>,
}

/// What one timed iteration produced.
#[derive(Debug, Default)]
pub struct Iter {
    /// Host seconds of the timed region.
    pub wall: f64,
    /// When the timed region began.
    pub start: Option<Instant>,
    /// Operations attempted.
    pub ops: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Per-operation host latency, ms.
    pub latencies_ms: Vec<f64>,
    /// Additive per-layer quantities (see [`layer_metrics`]).
    pub sums: BTreeMap<String, f64>,
    /// Per-layer samples whose percentiles or maxima are reported.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Iter {
    /// Closes the timed region that began at `t0`.
    pub fn close(&mut self, t0: Instant) {
        self.wall = t0.elapsed().as_secs_f64();
        self.start = Some(t0);
    }

    /// Adds `v` to the per-layer sum `key`.
    pub fn add(&mut self, key: impl Into<String>, v: f64) {
        *self.sums.entry(key.into()).or_default() += v;
    }

    /// Records one per-layer sample.
    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }
}

/// Times a run sets its workload up at least; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// A run sets up as many times as take this many seconds at the pace of
/// its first set-up, from [`SETUPS`] to [`MAX_SETUPS`] times: a set-up of a
/// millisecond or less (thread spawns, a socket, a directory) varies
/// several-fold from one to the next, and the median of more of them is
/// steadier.
pub const SETUP_SECONDS: f64 = 0.25;

/// The most set-ups a run makes for [`SETUP_SECONDS`].
pub const MAX_SETUPS: usize = 25;

/// How many set-ups a run makes when its first one took `first` seconds.
pub fn planned_setups(first: f64) -> usize {
    let wanted = (SETUP_SECONDS / first.max(1e-9)).ceil();
    (wanted.min(MAX_SETUPS as f64) as usize).max(SETUPS)
}

/// A workload's prepared state: built by `setup` (outside the timed
/// region) and driven by `iterate`.
pub trait Bench: Sized {
    /// The workload.
    const WORKLOAD: Workload;
    /// About one iteration's host seconds at the recorded baseline (set
    /// lower where a run should average more iterations); a run of
    /// `--seconds s` makes `ceil(s / NOMINAL_S)` iterations.
    const NOMINAL_S: f64;
    /// Whether the timing set-ups may run between iterations, so that
    /// they sample the host over the whole run. Otherwise they all run
    /// after the last iteration, as a set-up that leaves memory behind
    /// must: that memory would count in the later iterations' peaks.
    const SPREAD_SETUPS: bool = true;
    /// Whether every iteration repeats the same work. Then only the host
    /// makes one iteration slower than another, and a shared host only
    /// ever slows a program down, so the end-to-end times come from the
    /// fastest iteration: the one the host disturbed least. Otherwise they
    /// are medians over the iterations.
    const SAME_WORK: bool = true;

    /// Builds the workload's inputs and simulator state. Setup-time layer
    /// quantities (generation, staging) go into `into`.
    fn setup(opts: &Options, into: &mut Iter) -> Self;

    /// Runs one timed iteration.
    fn iterate(&mut self, tracer: &Tracer) -> Iter;

    /// Operations a run attempts at least (the daemon needs enough jobs for
    /// its p99 to have ten samples beyond it).
    fn min_ops(&self) -> u64 {
        1
    }

    /// Provenance of this workload: engine workers, client connections and
    /// the page threads a batch may use.
    fn provenance(&self) -> Vec<(&'static str, Value)>;
}

/// A finished run: the result line plus the detail printed before it.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Reported metrics: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Provenance and workload-named aliases.
    pub detail: Value,
    /// The first traced iteration's spans (empty when untraced).
    pub spans: Vec<measure::Span>,
}

impl Outcome {
    /// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let m =
                    obj([("value", Value::Num(*value)), ("unit", Value::Str(unit.to_string()))]);
                (name.clone(), m)
            })
            .collect();
        obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_json()
    }

    /// Value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// The quantile `op_tail_ms` takes of one iteration's `n` latency
/// samples: p99, or the highest quantile with ten samples beyond it when an
/// iteration has fewer than 1000. The sample count is fixed by the work, so
/// every commit reports the same quantile.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99)
}

/// `op_tail_ms`: the median over the timed iterations (the fastest alone
/// where every iteration repeats the same work) of each iteration's tail. A
/// shared host has slow phases lasting seconds; a tail pooled over the
/// whole run would report how much of the run such a phase covered, while
/// one iteration's tail reports the program's.
fn tail_ms(plain: &[&Iter]) -> (f64, f64) {
    let q = tail_quantile(plain.first().map_or(0, |i| i.latencies_ms.len()));
    let tails: Vec<f64> = plain.iter().map(|i| quantile(&i.latencies_ms, q)).collect();
    (median(&tails), q)
}

/// Span names the workloads record, one `self.<name>` metric each.
pub const SPANS: [&str; 9] = [
    "engine.run",
    "apps.job",
    "engine.codec",
    "check",
    "radram.activate",
    "radram.wait",
    "apd.submit",
    "apd.collect",
    "apd.job",
];

/// Per-layer metrics besides the per-span and per-app ones, with units.
const LAYERS: [(&str, &str); 34] = [
    ("engine.busy_s", "s"),
    ("engine.idle_share", "ratio"),
    ("engine.codec_us", "us"),
    ("engine.cache_hit_ratio", "ratio"),
    ("apd.worker_ms.p50", "ms"),
    ("apd.worker_ms.p99", "ms"),
    ("apd.wait_ms.p50", "ms"),
    ("apd.wait_ms.p99", "ms"),
    ("apd.hit_ms.p50", "ms"),
    ("apd.busy_rejects", "count"),
    ("apd.fast_cycle_error", "ratio"),
    ("apps.setup_share", "ratio"),
    ("cpu.ns_per_inst", "ns"),
    ("mem.ns_per_access", "ns"),
    ("cpu.instructions", "count"),
    ("cpu.loads", "count"),
    ("cpu.stores", "count"),
    ("mem.l1d_miss_ratio", "ratio"),
    ("mem.l2_miss_ratio", "ratio"),
    ("mem.dram_fills", "count"),
    ("fast.worker_ms.p50", "ms"),
    ("radram.us_per_batch", "us"),
    ("radram.activate_s", "s"),
    ("radram.wait_s", "s"),
    ("radram.stage_s", "s"),
    ("radram.activations", "count"),
    ("pool.batches", "count"),
    ("pool.reuses", "count"),
    ("pool.threads_spawned", "count"),
    ("pool.batch_share", "ratio"),
    ("workloads.generate_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.top_coverage", "ratio"),
    ("failed_ratio", "ratio"),
];

/// Every per-layer metric, in report order, with its unit.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(SPANS.iter().map(|s| (format!("self.{s}"), "s")));
    for app in ap_apps::App::ALL {
        for part in ["conventional.kernel_s", "radram.kernel_s", "setup_s"] {
            out.push((format!("apps.{}.{part}", app.name()), "s"));
        }
    }
    out
}

/// Runs one workload.
pub fn run(workload: Workload, opts: &Options) -> Outcome {
    match workload {
        Workload::FigSweep => drive::<fig_sweep::FigSweep>(opts),
        Workload::DbxlStream => drive::<dbxl::DbxlStream>(opts),
        Workload::WidePages => drive::<wide::WidePages>(opts),
        Workload::ApdMixed => drive::<apd_mixed::ApdMixed>(opts),
    }
}

/// What the traced iterations recorded, reduced as they finish.
#[derive(Default)]
struct Traced {
    iters: Vec<Iter>,
    /// The first traced iteration's spans.
    spans: Vec<measure::Span>,
    /// Self time per span name, summed over the traced iterations.
    own: BTreeMap<&'static str, f64>,
    /// Seconds of the timed regions covered by top-level spans.
    top_covered: f64,
}

impl Traced {
    fn push(&mut self, it: Iter, tracer: &Tracer) {
        let spans = tracer.take();
        let mut top: Vec<_> =
            spans.iter().filter(|s| s.parent.is_none()).map(|s| (s.start, s.end)).collect();
        let from = it.start.map_or(Duration::ZERO, |t| tracer.since(t));
        let window = (from, from + Duration::from_secs_f64(it.wall));
        self.top_covered += measure::covered(&mut top, window).as_secs_f64();
        for (name, secs) in measure::self_times(&spans) {
            *self.own.entry(name).or_default() += secs;
        }
        if self.spans.is_empty() {
            self.spans = spans;
        }
        self.iters.push(it);
    }
}

/// Share of the cores' time the hypervisor may take during one timed
/// iteration or set-up before it counts as disturbed. A quiet host steals
/// a few 10 ms ticks a minute; a noisy neighbour takes 5-20%.
pub const STEAL_LIMIT: f64 = 0.03;

/// A disturbed iteration is repeated only while the iterations have taken
/// less than this many times `--seconds`, which bounds a run's length when
/// the host is slow.
pub const REPEAT_WITHIN: f64 = 1.5;

/// Runs `f` and returns its result, its host seconds and the share of the
/// cores' time the hypervisor stole while it ran.
fn stolen<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (t0, steal0) = (Instant::now(), measure::steal_s());
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    let share = ratio(measure::steal_s() - steal0, secs * measure::host_cores() as f64);
    (out, secs, share)
}

/// Indices of the `keep` least-disturbed entries of `shares` (ties keep
/// the earlier one), in their original order.
fn least_stolen(shares: &[f64], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| shares[a].total_cmp(&shares[b]));
    order.truncate(keep);
    order.sort_unstable();
    order
}

/// The set-ups of one run: the driven instance's first, then the further
/// ones that time `setup_s`.
#[derive(Default)]
struct Setups {
    /// What each set-up recorded (generation and staging times).
    iters: Vec<Iter>,
    /// Host seconds of each set-up.
    secs: Vec<f64>,
    /// The steal share while each set-up ran.
    steals: Vec<f64>,
}

impl Setups {
    /// Sets the workload up once more and times it; dropping the instance
    /// is left out of the time.
    fn time<B: Bench>(&mut self, opts: &Options) -> B {
        let mut into = Iter::default();
        let (bench, secs, steal) = stolen(|| B::setup(opts, &mut into));
        self.iters.push(into);
        self.secs.push(secs);
        self.steals.push(steal);
        bench
    }

    /// Set-ups the hypervisor left undisturbed.
    fn clean(&self) -> usize {
        self.steals.iter().filter(|&&s| s <= STEAL_LIMIT).count()
    }
}

fn drive<B: Bench>(opts: &Options) -> Outcome {
    // The instance the iterations drive is set up first. The further
    // set-ups that time `setup_s` are spread over the run, a few after each
    // iteration, so their median samples the host over the whole run: a
    // shared host runs fast or slow for seconds at a time, and set-ups made
    // back to back catch one such phase. Each is dropped before the next
    // iteration, and the peak memory is reset right before every
    // iteration. A workload whose set-ups leave memory behind them runs
    // them after the last iteration instead (`Bench::SPREAD_SETUPS`).
    let mut setups = Setups::default();
    let mut bench = setups.time::<B>(opts);
    let planned = planned_setups(setups.secs[0]);
    let min_ops = bench.min_ops();
    // The work is fixed by `--seconds`, not by the clock, so a faster
    // commit does the same work (and reaches the same peak memory) as a
    // slower one. An iteration the hypervisor disturbed is repeated (at
    // most a quarter as many extra iterations, and within
    // `REPEAT_WITHIN`), and the metrics use the least disturbed ones, so
    // the work they describe stays fixed too. Set-ups are repeated the
    // same way.
    let target = (opts.seconds / B::NOMINAL_S).ceil().max(1.0) as usize;
    let target = if opts.trace { target.max(2) } else { target };
    let mut plain: Vec<Iter> = Vec::new();
    let mut plain_steals: Vec<f64> = Vec::new();
    // Each plain iteration's peak resident memory. Which jobs overlap, and
    // so the peak, varies between iterations; their median is the metric.
    let mut plain_peaks: Vec<f64> = Vec::new();
    let mut traced = Traced::default();
    let (started, steal0) = (Instant::now(), measure::steal_s());
    loop {
        let runs = plain.len() + traced.iters.len();
        let clean = plain_steals.iter().filter(|&&s| s <= STEAL_LIMIT).count();
        let ops: u64 = plain.iter().map(|i| i.ops).sum();
        let may_repeat = runs < target + target.div_ceil(4)
            && started.elapsed().as_secs_f64() < REPEAT_WITHIN * opts.seconds;
        let short = runs < target || (clean + traced.iters.len() < target && may_repeat);
        if !short && ops >= min_ops {
            break;
        }
        let trace_this = opts.trace && plain.len() > traced.iters.len();
        let tracer = Tracer::new(trace_this);
        measure::reset_peak_rss();
        let (it, _, steal) = stolen(|| bench.iterate(&tracer));
        if trace_this {
            traced.push(it, &tracer);
        } else {
            plain.push(it);
            plain_steals.push(steal);
            plain_peaks.push(measure::peak_rss_mb());
        }
        let due = 1 + ((planned - 1) * (runs + 1)).div_ceil(target);
        while B::SPREAD_SETUPS && setups.secs.len() < due.min(planned) {
            drop(setups.time::<B>(opts));
        }
    }
    // CPU time the hypervisor took while the iterations ran, as a share of
    // the cores' time.
    let steal_share = ratio(
        measure::steal_s() - steal0,
        started.elapsed().as_secs_f64() * measure::host_cores() as f64,
    );
    let provenance = bench.provenance();
    drop(bench);
    while setups.secs.len() < planned
        || (setups.clean() < planned && setups.secs.len() < planned + planned.div_ceil(4))
    {
        drop(setups.time::<B>(opts));
    }

    // The plain iterations the end-to-end metrics describe: as many as an
    // undisturbed run makes (and enough operations), least disturbed first.
    let mut keep = plain.len().min(target.saturating_sub(traced.iters.len()).max(1));
    let mut used = least_stolen(&plain_steals, keep);
    while used.iter().map(|&i| plain[i].ops).sum::<u64>() < min_ops && keep < plain.len() {
        keep += 1;
        used = least_stolen(&plain_steals, keep);
    }
    let kept: Vec<&Iter> = used.iter().map(|&i| &plain[i]).collect();
    let timed: Vec<&Iter> = if B::SAME_WORK {
        kept.iter().copied().min_by(|a, b| a.wall.total_cmp(&b.wall)).into_iter().collect()
    } else {
        kept.clone()
    };
    let peak_rss_mb = median(&used.iter().map(|&i| plain_peaks[i]).collect::<Vec<_>>());
    // Every set-up does the same work, so the fastest is the least
    // disturbed, as with iterations.
    let setup_s = least_stolen(&setups.steals, planned)
        .into_iter()
        .map(|i| setups.secs[i])
        .fold(f64::INFINITY, f64::min);

    let all = || setups.iters.iter().chain(&plain).chain(&traced.iters);
    let attempted: u64 = all().map(|i| i.ops).sum();
    let failed: u64 = all().map(|i| i.failed).sum();
    let failed_ratio = ratio(failed as f64, attempted as f64);
    let walls: Vec<f64> = kept.iter().map(|i| i.wall).collect();
    let lat: Vec<f64> = timed.iter().flat_map(|i| i.latencies_ms.iter().copied()).collect();
    let (tail, tail_q) = tail_ms(&timed);
    let rate = |f: &dyn Fn(&Iter) -> f64| {
        median(&timed.iter().map(|i| ratio(f(i), i.wall)).collect::<Vec<_>>())
    };
    let metrics: Vec<(String, f64, &'static str)> = if opts.trace {
        let mut layers = layer_metrics(&setups.iters, &traced.iters);
        let traced_walls: Vec<f64> = traced.iters.iter().map(|i| i.wall).collect();
        let n = traced_walls.len() as f64;
        layers.insert("trace.overhead_share", ratio(median(&traced_walls), median(&walls)) - 1.0);
        let covered = ratio(traced.top_covered, traced_walls.iter().sum());
        layers.insert("trace.top_coverage", covered);
        layers.insert("failed_ratio", failed_ratio);
        let own: BTreeMap<String, f64> =
            traced.own.iter().map(|(k, v)| (format!("self.{k}"), v / n)).collect();
        per_layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let value = layers
                    .get(name.as_str())
                    .or_else(|| own.get(&name))
                    .copied()
                    .unwrap_or_else(|| per_iteration(&traced.iters, &name));
                (name, value, unit)
            })
            .collect()
    } else {
        let values = [
            median(&timed.iter().map(|i| i.wall).collect::<Vec<_>>()),
            setup_s,
            peak_rss_mb,
            rate(&|i| i.ops as f64),
            quantile(&lat, 0.5),
            tail,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    };

    let mut named = named_aliases(B::WORKLOAD, &metrics);
    if B::WORKLOAD == Workload::FigSweep && !opts.trace {
        // Simulated instructions per host second. Each batch simulates the
        // same instructions, so this is `runs_per_s` times a constant and
        // is not gated separately.
        let mips = rate(&|i| i.sums.get("cpu.instructions").copied().unwrap_or(0.0)) / 1e6;
        named.insert("sim_mips".into(), Value::Num(mips));
    }
    if B::WORKLOAD == Workload::ApdMixed {
        // Client-observed latency of the computed jobs, pooled over the
        // run (at least 1000, so ten lie beyond the p99).
        let jobs: Vec<f64> =
            timed.iter().filter_map(|i| i.samples.get("apd.job_ms")).flatten().copied().collect();
        named.insert("job_p50_ms".into(), Value::Num(quantile(&jobs, 0.5)));
        named.insert("job_p99_ms".into(), Value::Num(quantile(&jobs, 0.99)));
        named.insert("job_samples".into(), Value::Num(jobs.len() as f64));
        // Fixed by the seed, so it is reported with tracing off too.
        let errors: Vec<f64> = all()
            .filter_map(|i| i.samples.get("apd.fast_cycle_error"))
            .flatten()
            .copied()
            .collect();
        named.insert("fast_cycle_error".into(), Value::Num(quantile(&errors, 1.0)));
    }
    let nums = |v: &[f64]| Value::Arr(v.iter().map(|&x| Value::Num(x)).collect());
    let prov: BTreeMap<String, Value> = [
        ("host_cores", Value::Num(measure::host_cores() as f64)),
        ("rustc", Value::Str(env!("PERFBENCH_RUSTC").into())),
        ("git_sha", Value::Str(env!("PERFBENCH_GIT_SHA").into())),
        ("seed", Value::Num(opts.seed as f64)),
        ("setups_s", nums(&setups.secs)),
        ("setup_steal_shares", nums(&setups.steals)),
        ("repetitions", Value::Num(kept.len() as f64)),
        ("extra_repetitions", Value::Num((plain.len() - kept.len()) as f64)),
        ("steal_shares", nums(&plain_steals)),
        ("peaks_rss_mb", nums(&plain_peaks)),
        ("traced_repetitions", Value::Num(traced.iters.len() as f64)),
        ("walls_s", nums(&walls)),
        ("latency_samples", Value::Num(lat.len() as f64)),
        ("tail_quantile", Value::Num(tail_q)),
        ("failed_ratio", Value::Num(failed_ratio)),
        ("host_steal_share", Value::Num(steal_share)),
    ]
    .into_iter()
    .chain(provenance)
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let detail = obj([
        ("workload", Value::Str(B::WORKLOAD.name().into())),
        ("provenance", Value::Obj(prov)),
        ("named", Value::Obj(named)),
    ]);
    Outcome { attempted, failed, metrics, detail, spans: traced.spans }
}

/// A JSON object from `&'static str` keys.
fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Reduces the traced iterations (and the set-ups) to the [`LAYERS`]
/// metrics. Sums are reported per iteration; samples are pooled.
fn layer_metrics(setups: &[Iter], traced: &[Iter]) -> BTreeMap<&'static str, f64> {
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for it in traced {
        for (k, v) in &it.samples {
            samples.entry(k).or_default().extend(v);
        }
    }
    let get = |k: &str| per_iteration(traced, k);
    let pct = |k: &str, q: f64| samples.get(k).map_or(0.0, |v| quantile(v, q));
    let setup_median = |k: &str| {
        median(&setups.iter().map(|i| i.sums.get(k).copied().unwrap_or(0.0)).collect::<Vec<_>>())
    };
    let wall = traced.iter().map(|i| i.wall).sum::<f64>() / traced.len().max(1) as f64;
    let workers = get("engine.workers");
    let idle = if workers > 0.0 { 1.0 - ratio(get("engine.busy_s"), wall * workers) } else { 0.0 };
    BTreeMap::from([
        ("engine.busy_s", get("engine.busy_s")),
        ("engine.idle_share", idle.max(0.0)),
        ("engine.codec_us", ratio(get("engine.codec_s") * 1e6, get("engine.codec_n"))),
        ("engine.cache_hit_ratio", ratio(get("engine.hits"), get("engine.jobs"))),
        ("apd.worker_ms.p50", pct("apd.worker_ms", 0.5)),
        ("apd.worker_ms.p99", pct("apd.worker_ms", 0.99)),
        ("apd.wait_ms.p50", pct("apd.wait_ms", 0.5)),
        ("apd.wait_ms.p99", pct("apd.wait_ms", 0.99)),
        ("apd.hit_ms.p50", pct("apd.hit_ms", 0.5)),
        ("apd.busy_rejects", get("apd.busy_rejects")),
        ("apd.fast_cycle_error", pct("apd.fast_cycle_error", 1.0)),
        ("apps.setup_share", ratio(get("apps.setup_s"), get("apps.job_s"))),
        ("cpu.ns_per_inst", ratio(get("conv.kernel_s") * 1e9, get("conv.instructions"))),
        ("mem.ns_per_access", ratio(get("conv.kernel_s") * 1e9, get("conv.accesses"))),
        ("cpu.instructions", get("cpu.instructions")),
        ("cpu.loads", get("cpu.loads")),
        ("cpu.stores", get("cpu.stores")),
        ("mem.l1d_miss_ratio", ratio(get("mem.l1d_misses"), get("mem.l1d_accesses"))),
        ("mem.l2_miss_ratio", ratio(get("mem.l2_misses"), get("mem.l2_accesses"))),
        ("mem.dram_fills", get("mem.dram_fills")),
        ("fast.worker_ms.p50", pct("fast.worker_ms", 0.5)),
        ("radram.us_per_batch", ratio(get("radram.kernel_s") * 1e6, get("radram.batches"))),
        ("radram.activate_s", get("radram.activate_s")),
        ("radram.wait_s", get("radram.wait_s")),
        ("radram.stage_s", setup_median("radram.stage_s")),
        ("radram.activations", get("radram.activations")),
        ("pool.batches", get("pool.batches")),
        ("pool.reuses", get("pool.reuses")),
        ("pool.threads_spawned", get("pool.threads_spawned")),
        ("pool.batch_share", ratio(get("pool.batches"), get("radram.batches"))),
        ("workloads.generate_s", setup_median("workloads.generate_s")),
    ])
}

/// The mean over `iters` of the per-layer sum `key` (0 where absent).
fn per_iteration(iters: &[Iter], key: &str) -> f64 {
    iters.iter().filter_map(|i| i.sums.get(key)).sum::<f64>() / iters.len().max(1) as f64
}

/// The workload-level names of the end-to-end metrics on each workload
/// (`ops_per_s` is `queries_per_s` on `dbxl-stream`, and so on).
fn named_aliases(w: Workload, metrics: &[(String, f64, &str)]) -> BTreeMap<String, Value> {
    let get = |n: &str| metrics.iter().find(|m| m.0 == n).map(|m| m.1);
    let pairs: &[(&str, &str)] = match w {
        Workload::FigSweep => &[("runs_per_s", "ops_per_s")],
        Workload::DbxlStream => &[("queries_per_s", "ops_per_s")],
        Workload::WidePages => &[("pages_per_s", "ops_per_s")],
        Workload::ApdMixed => &[
            ("jobs_per_s", "ops_per_s"),
            ("submit_p50_ms", "op_p50_ms"),
            ("submit_tail_ms", "op_tail_ms"),
        ],
    };
    pairs
        .iter()
        .filter_map(|(alias, name)| get(name).map(|v| (alias.to_string(), Value::Num(v))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_ups_fill_their_time_within_the_limits() {
        assert_eq!(planned_setups(1.2), SETUPS);
        assert_eq!(planned_setups(0.025), 10);
        assert_eq!(planned_setups(0.0005), MAX_SETUPS);
        assert_eq!(planned_setups(0.0), MAX_SETUPS);
    }

    #[test]
    fn least_stolen_keeps_the_quietest_in_order() {
        let shares = [0.0, 0.2, 0.0, 0.05, 0.0, 0.01];
        assert_eq!(least_stolen(&shares, 4), vec![0, 2, 4, 5]);
        assert_eq!(least_stolen(&shares, 9), vec![0, 1, 2, 3, 4, 5]);
    }
}
