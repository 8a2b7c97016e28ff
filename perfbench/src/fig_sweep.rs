//! `fig-sweep`: the Figure 3/4 accurate-tier batch (170 runs at full size)
//! on an `Engine` with one worker per core and the cache off; the seed
//! shuffles the submission order, afresh for every iteration, so a run's
//! median averages over several orders.
//!
//! Chosen because it is what users run most: its host time sits in the app
//! drivers, the CPU load/store funnel, the `Hierarchy` memory model and the
//! in-job workload generation. The engine budgets one page thread per job
//! here, so the page-worker pool is bypassed.

use crate::measure::{host_cores, Rng, Tracer};
use crate::{digest, Bench, Iter, Options, Size, Workload};
use ap_apd::json::Value;
use ap_apps::{App, ExecMode, RunReport, SystemKind};
use ap_bench::runner::{report_codec, RunSpec};
use ap_engine::{Engine, Job};
use radram::RadramConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one engine job hands back: the report plus the host time its
/// kernel region took, drained on the worker thread that ran it (the
/// counter is thread-local).
struct JobOut {
    report: RunReport,
    kernel_s: f64,
    span: (Instant, Instant),
}

/// The prepared sweep.
pub struct FigSweep {
    specs: Vec<RunSpec>,
    order: Rng,
    engine: Engine,
    digest: u64,
}

/// The specs of one size, in canonical order.
pub fn specs(size: Size) -> Vec<RunSpec> {
    let cfg = RadramConfig::reference();
    match size {
        Size::Full => ap_bench::sweep::sweep_specs(&App::ALL, &cfg, false, ExecMode::Accurate),
        Size::Tiny => ap_bench::sweep::sweep_specs(
            &[App::Database, App::ArrayFind],
            &cfg,
            true,
            ExecMode::Accurate,
        ),
    }
}

/// Folds the reports' simulated statistics in key order: cycles, checksum
/// and `SystemStats`. Independent of the submission order.
pub fn fold(reports: &[(String, &RunReport)]) -> u64 {
    let mut sorted: Vec<&(String, &RunReport)> = reports.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut text = String::new();
    for (key, r) in sorted {
        text.push_str(&format!(
            "{key}|{}|{}|{}|{}|{:?}\n",
            r.kernel_cycles, r.total_cycles, r.dispatch_cycles, r.checksum, r.stats
        ));
    }
    ap_engine::fnv1a(text.as_bytes())
}

impl Bench for FigSweep {
    const WORKLOAD: Workload = Workload::FigSweep;
    // A batch takes 4.5-8.5 s on a shared host; 5 makes a 25-second run
    // try five submission orders, so that one of them is likely to meet a
    // quiet phase of the host.
    const NOMINAL_S: f64 = 5.0;

    fn setup(opts: &Options, into: &mut Iter) -> FigSweep {
        let specs = specs(opts.size);
        // Lazy per-process state (synthesized circuit sizes, allocator
        // growth) settles here rather than in the first timed batch: one
        // smallest-size run of each app on both systems, checked.
        for app in App::ALL {
            let cfg = RadramConfig::reference();
            let conv = app.run_mode(SystemKind::Conventional, 0.25, &cfg, ExecMode::Accurate);
            let rad = app.run_mode(SystemKind::Radram, 0.25, &cfg, ExecMode::Accurate);
            into.ops += 2;
            into.failed += 2 * u64::from(conv.checksum != rad.checksum);
        }
        let digest = opts.digest.unwrap_or(match opts.size {
            Size::Full => digest::FIG_SWEEP,
            Size::Tiny => digest::FIG_SWEEP_TINY,
        });
        let engine = Engine::new().with_workers(host_cores()).without_cache();
        FigSweep { specs, order: Rng::new(opts.seed, 1), engine, digest }
    }

    fn iterate(&mut self, tracer: &Tracer) -> Iter {
        self.order.shuffle(&mut self.specs);
        let jobs: Vec<Job<JobOut>> = self
            .specs
            .iter()
            .map(|spec| {
                let spec = spec.clone();
                Job::new(spec.key(), move || {
                    radram::take_kernel_host_secs();
                    let t0 = Instant::now();
                    let report = spec.execute();
                    let kernel_s = radram::take_kernel_host_secs();
                    JobOut { report, kernel_s, span: (t0, Instant::now()) }
                })
            })
            .collect();
        let t0 = Instant::now();
        let outcomes = tracer.span("engine.run", None, 0, |id| {
            let outcomes = self.engine.run(jobs, None);
            for (i, o) in outcomes.iter().enumerate() {
                if let Ok(out) = &o.result {
                    tracer.record("apps.job", id, i as u64, out.span);
                }
            }
            outcomes
        });
        let mut it = Iter::default();
        it.close(t0);

        it.add("engine.workers", self.engine.workers() as f64);
        let mut bad = vec![false; outcomes.len()];
        let mut reports: Vec<(String, &RunReport)> = Vec::new();
        // (app, pages bits) -> (index, checksum) of the first system seen.
        let mut pairs: BTreeMap<(&str, u64), (usize, u64)> = BTreeMap::new();
        for (i, o) in outcomes.iter().enumerate() {
            it.add("engine.busy_s", o.wall.as_secs_f64());
            it.add("engine.jobs", 1.0);
            it.add("engine.hits", f64::from(u8::from(o.cache_hit)));
            it.latencies_ms.push(o.wall.as_secs_f64() * 1e3);
            let Ok(out) = &o.result else {
                bad[i] = true;
                continue;
            };
            let r = &out.report;
            account_counts(&mut it, r);
            account_host(&mut it, r, out.kernel_s, o.wall.as_secs_f64());
            reports.push((o.key.clone(), r));
            match pairs.insert((r.app, r.pages.to_bits()), (i, r.checksum)) {
                Some((j, sum)) if sum != r.checksum => {
                    bad[i] = true;
                    bad[j] = true;
                }
                _ => {}
            }
        }
        tracer.span("engine.codec", None, 0, |_| {
            let codec = report_codec();
            let t0 = Instant::now();
            for (i, o) in outcomes.iter().enumerate() {
                if let Ok(out) = &o.result {
                    let back = (codec.decode)(&(codec.encode)(&out.report));
                    bad[i] |= back.as_ref() != Some(&out.report);
                }
            }
            it.add("engine.codec_s", t0.elapsed().as_secs_f64());
            it.add("engine.codec_n", reports.len() as f64);
        });
        tracer.span("check", None, 0, |_| {
            let got = fold(&reports);
            if reports.len() != outcomes.len() || got != self.digest {
                eprintln!(
                    "fig-sweep: simulated statistics digest {got:#018x}, recorded {:#018x}",
                    self.digest
                );
                bad.iter_mut().for_each(|b| *b = true);
            }
        });
        it.ops = outcomes.len() as u64;
        it.failed = bad.iter().filter(|&&b| b).count() as u64;
        it
    }

    fn provenance(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("engine_workers", Value::Num(self.engine.workers() as f64)),
            ("client_connections", Value::Num(0.0)),
            // The engine publishes cores / workers page threads per job.
            ("page_threads", Value::Num(active_pages::parallel::thread_budget() as f64)),
        ]
    }
}

/// Adds one report's simulated counts to the layer sums.
pub fn account_counts(it: &mut Iter, r: &RunReport) {
    let c = &r.stats.cpu;
    let m = &c.mem;
    it.add("cpu.instructions", c.instructions as f64);
    it.add("cpu.loads", c.loads as f64);
    it.add("cpu.stores", c.stores as f64);
    it.add("mem.l1d_misses", m.l1d.misses as f64);
    it.add("mem.l1d_accesses", m.l1d.accesses() as f64);
    it.add("mem.l2_misses", m.l2.misses as f64);
    it.add("mem.l2_accesses", m.l2.accesses() as f64);
    it.add("mem.dram_fills", m.dram_fills as f64);
    it.add("radram.activations", r.stats.activations as f64);
}

/// Adds one job's host times: its kernel region, and the rest of the job
/// (workload generation, system construction, staging) as app set-up.
fn account_host(it: &mut Iter, r: &RunReport, kernel_s: f64, job_s: f64) {
    let setup_s = (job_s - kernel_s).max(0.0);
    if r.system == SystemKind::Conventional {
        let c = &r.stats.cpu;
        it.add("conv.kernel_s", kernel_s);
        it.add("conv.instructions", c.instructions as f64);
        it.add("conv.accesses", (c.loads + c.stores) as f64);
    }
    it.add(format!("apps.{}.{}.kernel_s", r.app, r.system), kernel_s);
    it.add(format!("apps.{}.setup_s", r.app), setup_s);
    it.add("apps.setup_s", setup_s);
    it.add("apps.job_s", job_s);
}
