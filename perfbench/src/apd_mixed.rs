//! `apd-mixed`: an in-process `apd` daemon with one worker per core and a
//! fresh cache directory, driven by one client connection per core.
//!
//! Each iteration is a slice of a design-space exploration and its rerun,
//! shaped like the repository's own DSE clients:
//! - every client pipelines its jobs the way `Client::run_all` does, with
//!   a fixed window of the daemon's queue capacity split over the clients,
//!   so together they keep the queue as full as one `apctl dse` does;
//! - every drawn design point runs on the fast tier (triage), then a share
//!   of them is promoted to the accurate tier. The share is the one
//!   `experiments dse` promotes on the full grid: `promote_budget()` of
//!   `config_count()` points (64 of 2592; its telemetry reports
//!   `"promoted": 64`);
//! - then the client submits every key of its slice once more, in seeded
//!   order, each after its first result has come back. Running a DSE twice
//!   on one cache, as CI's DSE smoke does, serves the second run entirely
//!   from cache (telemetry `cache_hit_ratio` 0 then 1), so half of the
//!   submissions are hits and the hit count is fixed by the seed.
//!
//! Chosen because only this workload exercises the engine's queue, cache
//! and codec, the wire protocol and the fast tier; it also stands in for
//! the DSE grid, whose full run is too long to repeat.

use crate::fig_sweep::account_counts;
use crate::measure::{host_cores, Rng, Tracer};
use crate::{Bench, Iter, Options, Size, Workload};
use ap_apd::json::Value;
use ap_apd::{Client, ClientError, DaemonConfig, JobResult, Outcome, Server, WireSpec};
use ap_apps::{ExecMode, SystemKind};
use ap_bench::runner::report_codec;
use ap_dse::grid::{DseConfig, Grid};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// What one submission is for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    /// Fast-tier run of a design point.
    Triage { point: usize },
    /// Accurate-tier run of a triaged point.
    Promote { point: usize },
    /// Exact resubmission of this client's earlier submission `of`.
    Repeat { of: usize },
}

#[derive(Debug, Clone)]
struct Op {
    spec: WireSpec,
    role: Role,
}

/// A finished submission, as the client saw it.
struct Done {
    result: JobResult,
    /// From the submit call until the client read the `done` frame.
    latency_ms: f64,
    /// The submit call's round trip: the request until its `accepted`.
    submit_ms: f64,
}

/// A running daemon with its connected clients.
pub struct ApdMixed {
    server: Server,
    cache_dir: PathBuf,
    clients: Vec<Client>,
    /// Jobs each client keeps outstanding.
    window: usize,
    configs: Vec<DseConfig>,
    /// Per (app, pages) stratum of the grid, its points in seeded order;
    /// iteration `k` takes the `k`-th run of `per_stratum` of them, so no
    /// key recurs within the first 16 iterations (96 points per stratum at
    /// full size) and only the reruns hit.
    strata: Vec<Vec<usize>>,
    per_stratum: usize,
    /// Points promoted to the accurate tier per iteration.
    promoted: usize,
    rng: Rng,
    iteration: usize,
    min_ops: u64,
}

fn spec(grid_point: &DseConfig, kind: SystemKind, mode: ExecMode) -> WireSpec {
    let mut w = WireSpec::point(grid_point.app, kind, grid_point.pages).with_mode(mode);
    w.l1d_size = Some(grid_point.l1d_size);
    w.l1d_assoc = Some(grid_point.l1d_assoc);
    w.l1d_block = Some(grid_point.l1d_block);
    w.logic_divisor = Some(grid_point.logic_divisor);
    w
}

/// The grid's points grouped by (app, pages) stratum, smallest problem
/// sizes first, each group in seeded order.
fn strata(configs: &[DseConfig], rng: &mut Rng) -> Vec<Vec<usize>> {
    let mut groups: Vec<((&str, u64), Vec<usize>)> = Vec::new();
    for (i, c) in configs.iter().enumerate() {
        let key = (c.app.name(), c.pages.to_bits());
        match groups.iter_mut().find(|g| g.0 == key) {
            Some(g) => g.1.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    groups.sort_by(|a, b| f64::from_bits(a.0 .1).total_cmp(&f64::from_bits(b.0 .1)));
    groups
        .into_iter()
        .map(|(_, mut members)| {
            rng.shuffle(&mut members);
            members
        })
        .collect()
}

impl ApdMixed {
    /// The clients' streams for the next iteration. Host cost depends
    /// mostly on the app and the problem size, so every stratum contributes
    /// the same number of points and the seed draws the cache geometry and
    /// logic clock. The promoted points come from strata taken in turn, the
    /// same ones on every seed. This keeps the job mix, and with it the
    /// iteration's cost, nearly the same for every seed. Points are shuffled
    /// and dealt to the clients in turn; each client's stream is its triage
    /// runs, its promotions, then a rerun of all of them in seeded order.
    fn streams(&mut self) -> Vec<Vec<Op>> {
        let (ps, k) = (self.per_stratum, self.iteration);
        self.iteration += 1;
        let mut points: Vec<(usize, bool)> = Vec::new();
        let strata = self.strata.len();
        for (s, members) in self.strata.iter().enumerate() {
            let first = (k % (members.len() / ps)) * ps;
            let promote = (s + strata - (k * self.promoted) % strata) % strata < self.promoted;
            let chosen = if promote { Some(self.rng.below(ps)) } else { None };
            for (j, &point) in members[first..first + ps].iter().enumerate() {
                points.push((point, chosen == Some(j)));
            }
        }
        self.rng.shuffle(&mut points);
        let clients = self.clients.len();
        let mut streams: Vec<Vec<Op>> = vec![Vec::new(); clients];
        for (c, ops) in streams.iter_mut().enumerate() {
            let mine: Vec<(usize, bool)> =
                points.iter().skip(c).step_by(clients).copied().collect();
            for &(point, _) in &mine {
                for kind in [SystemKind::Conventional, SystemKind::Radram] {
                    let spec = spec(&self.configs[point], kind, ExecMode::Fast);
                    ops.push(Op { spec, role: Role::Triage { point } });
                }
            }
            for &(point, _) in mine.iter().filter(|p| p.1) {
                for kind in [SystemKind::Conventional, SystemKind::Radram] {
                    let spec = spec(&self.configs[point], kind, ExecMode::Accurate);
                    ops.push(Op { spec, role: Role::Promote { point } });
                }
            }
            let mut rerun: Vec<usize> = (0..ops.len()).collect();
            self.rng.shuffle(&mut rerun);
            for of in rerun {
                ops.push(Op { spec: ops[of].spec.clone(), role: Role::Repeat { of } });
            }
        }
        streams
    }
}

/// A fresh directory for one daemon's cache, removed when it stops.
fn cache_dir() -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("apd-cache-{}-{n}", std::process::id()))
}

impl Bench for ApdMixed {
    const WORKLOAD: Workload = Workload::ApdMixed;
    const NOMINAL_S: f64 = 6.5;
    // Every daemon start and stop leaves allocator memory behind (its
    // threads' arenas), which would count in the next iteration's peak.
    const SPREAD_SETUPS: bool = false;
    // Each iteration draws new design points, so iterations differ in cost.
    const SAME_WORK: bool = false;

    fn setup(opts: &Options, _into: &mut Iter) -> ApdMixed {
        let cores = host_cores();
        // Half the submissions are computed jobs, and the job p99 needs
        // 1000 of them so that ten lie beyond it.
        let (strata_used, per_stratum, min_ops) = match opts.size {
            Size::Full => (usize::MAX, 6, 2000),
            Size::Tiny => (3, 2, 1),
        };
        let grid = Grid::full();
        let configs = grid.configs();
        let mut rng = Rng::new(opts.seed, 4);
        let mut strata = strata(&configs, &mut rng);
        strata.truncate(strata_used);
        // `experiments dse` promotes `promote_budget()` of the grid's points.
        let drawn = strata.len() * per_stratum;
        let promoted = (drawn * grid.promote_budget()).div_ceil(grid.config_count()).min(drawn);
        let config = DaemonConfig::default();
        let window = config.queue_capacity / cores;
        let cache_dir = cache_dir();
        std::fs::create_dir_all(&cache_dir).expect("create the daemon's cache directory");
        let server = Server::start(DaemonConfig {
            workers: Some(cores),
            cache_dir: Some(cache_dir.clone()),
            ..config
        })
        .expect("start the daemon on a free loopback port");
        let clients = (0..cores)
            .map(|_| Client::connect(server.addr()).expect("connect to the in-process daemon"))
            .collect();
        ApdMixed {
            server,
            cache_dir,
            clients,
            window,
            configs,
            strata,
            per_stratum,
            promoted,
            rng,
            iteration: 0,
            min_ops,
        }
    }

    fn min_ops(&self) -> u64 {
        self.min_ops
    }

    fn iterate(&mut self, tracer: &Tracer) -> Iter {
        let streams = self.streams();
        let clients = std::mem::take(&mut self.clients);
        let window = self.window;
        let t0 = Instant::now();
        let per_client: Vec<(Client, Vec<Option<Done>>, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .zip(&streams)
                .enumerate()
                .map(|(c, (client, ops))| {
                    s.spawn(move || drive_client(client, ops, c, window, tracer))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let mut it = Iter::default();
        it.close(t0);
        it.add("engine.workers", host_cores() as f64);
        tracer.span("check", None, 0, |_| {
            for ((client, done, busy_rejects), ops) in per_client.into_iter().zip(&streams) {
                it.add("apd.busy_rejects", busy_rejects as f64);
                check_client(&mut it, ops, &done);
                self.clients.push(client);
            }
        });
        it
    }

    fn provenance(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("engine_workers", Value::Num(host_cores() as f64)),
            ("client_connections", Value::Num(self.clients.len() as f64)),
            ("client_window", Value::Num(self.window as f64)),
            // The service publishes cores / workers page threads per job.
            ("page_threads", Value::Num(active_pages::parallel::thread_budget() as f64)),
        ]
    }
}

impl Drop for ApdMixed {
    fn drop(&mut self) {
        self.clients.clear();
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// Runs one client's stream with up to `window` jobs outstanding; returns
/// each submission's result (`None` when it failed to submit or complete)
/// and the busy rejections.
fn drive_client(
    mut client: Client,
    ops: &[Op],
    c: usize,
    window: usize,
    tracer: &Tracer,
) -> (Client, Vec<Option<Done>>, u64) {
    let mut done: Vec<Option<Done>> = ops.iter().map(|_| None).collect();
    // job id -> (op index, submitted at, submit round trip, submit span)
    let mut outstanding: HashMap<u64, (usize, Instant, f64, Option<usize>)> = HashMap::new();
    let mut busy_rejects = 0u64;
    let job_id = |i: usize| (c as u64) << 32 | i as u64;
    let collect = |client: &mut Client,
                   outstanding: &mut HashMap<u64, (usize, Instant, f64, Option<usize>)>,
                   done: &mut Vec<Option<Done>>|
     -> Result<(), ClientError> {
        let result = tracer.span("apd.collect", None, 0, |_| client.collect())?;
        let now = Instant::now();
        let (i, submitted, submit_ms, parent) = outstanding
            .remove(&result.job)
            .ok_or_else(|| ClientError::Protocol(format!("unknown job {}", result.job)))?;
        tracer.record("apd.job", parent, job_id(i), (submitted, now));
        let latency_ms = (now - submitted).as_secs_f64() * 1e3;
        done[i] = Some(Done { result, latency_ms, submit_ms });
        Ok(())
    };
    'ops: for (i, op) in ops.iter().enumerate() {
        if let Role::Repeat { of } = op.role {
            while done[of].is_none() && outstanding.values().any(|o| o.0 == of) {
                if collect(&mut client, &mut outstanding, &mut done).is_err() {
                    break 'ops;
                }
            }
        }
        while outstanding.len() >= window {
            if collect(&mut client, &mut outstanding, &mut done).is_err() {
                break 'ops;
            }
        }
        loop {
            let submitted = Instant::now();
            let (span, sent) = tracer
                .span("apd.submit", None, job_id(i), |id| (id, client.submit(&op.spec, None, 0)));
            match sent {
                Ok((job, _key)) => {
                    let submit_ms = submitted.elapsed().as_secs_f64() * 1e3;
                    outstanding.insert(job, (i, submitted, submit_ms, span));
                    break;
                }
                Err(ClientError::Rejected { reason }) if reason == "busy" => {
                    busy_rejects += 1;
                    if outstanding.is_empty() {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    } else if collect(&mut client, &mut outstanding, &mut done).is_err() {
                        break 'ops;
                    }
                }
                Err(_) => continue 'ops,
            }
        }
    }
    while !outstanding.is_empty() {
        if collect(&mut client, &mut outstanding, &mut done).is_err() {
            break;
        }
    }
    (client, done, busy_rejects)
}

/// Checks one client's results and adds its measurements to `it`. Each
/// submission is one operation; it fails when it did not complete, when
/// the two systems of a point disagree on the checksum, when the fast and
/// accurate tiers disagree, or when a repeat is not a byte-identical cache
/// hit of its original.
fn check_client(it: &mut Iter, ops: &[Op], done: &[Option<Done>]) {
    let codec = report_codec();
    let mut bad: Vec<bool> = done
        .iter()
        .map(|d| {
            d.as_ref().is_none_or(|d| d.result.outcome != Outcome::Ok || d.result.report.is_none())
        })
        .collect();
    // (point, mode) -> [conventional, radram] submission indices.
    let mut pairs: HashMap<(usize, bool), [Option<usize>; 2]> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        let slot = usize::from(op.spec.kind == SystemKind::Radram);
        match op.role {
            Role::Triage { point } => pairs.entry((point, false)).or_default()[slot] = Some(i),
            Role::Promote { point } => pairs.entry((point, true)).or_default()[slot] = Some(i),
            Role::Repeat { of } => {
                let same = match (&done[i], &done[of]) {
                    (Some(a), Some(b)) => {
                        a.result.cache_hit && a.result.report_text == b.result.report_text
                    }
                    _ => false,
                };
                bad[i] |= !same;
            }
        }
    }
    let report = |i: usize| done[i].as_ref().and_then(|d| d.result.report.as_ref());
    for (&(point, accurate), pair) in &pairs {
        let [Some(conv), Some(rad)] = *pair else { continue };
        let agree =
            matches!((report(conv), report(rad)), (Some(a), Some(b)) if a.checksum == b.checksum);
        if !agree {
            bad[conv] = true;
            bad[rad] = true;
        }
        if !accurate {
            continue;
        }
        let Some(fast) = pairs.get(&(point, false)) else { continue };
        for (acc_i, fast_i) in [(conv, fast[0]), (rad, fast[1])] {
            let Some(fast_i) = fast_i else { continue };
            match (report(acc_i), report(fast_i)) {
                (Some(acc), Some(fast)) if acc.checksum == fast.checksum => {
                    let err = (fast.kernel_cycles as f64 - acc.kernel_cycles as f64).abs()
                        / acc.kernel_cycles.max(1) as f64;
                    it.sample("apd.fast_cycle_error", err);
                }
                _ => bad[acc_i] = true,
            }
        }
    }

    let mut codec_s = 0.0;
    let mut codec_n = 0usize;
    for (i, d) in done.iter().enumerate() {
        it.ops += 1;
        it.failed += u64::from(bad[i]);
        let Some(d) = d else { continue };
        let r = &d.result;
        it.add("engine.jobs", 1.0);
        // A pipelining client blocks only in its submit calls; when it
        // reads a `done` frame depends on its own window, not the daemon.
        it.latencies_ms.push(d.submit_ms);
        if r.cache_hit {
            it.add("engine.hits", 1.0);
            it.sample("apd.hit_ms", d.latency_ms);
            continue;
        }
        it.sample("apd.job_ms", d.latency_ms);
        let worker_ms = r.wall_ms as f64;
        it.add("engine.busy_s", worker_ms / 1e3);
        it.sample("apd.worker_ms", worker_ms);
        it.sample("apd.wait_ms", (d.latency_ms - worker_ms).max(0.0));
        if ops[i].spec.mode == ExecMode::Fast {
            it.sample("fast.worker_ms", worker_ms);
        }
        if let Some(report) = &r.report {
            account_counts(it, report);
            let t0 = Instant::now();
            let back = (codec.decode)(&(codec.encode)(report));
            codec_s += t0.elapsed().as_secs_f64();
            it.failed += u64::from(back.as_ref() != Some(report) && !bad[i]);
            codec_n += 1;
        }
    }
    it.add("engine.codec_s", codec_s);
    it.add("engine.codec_n", codec_n as f64);
}
