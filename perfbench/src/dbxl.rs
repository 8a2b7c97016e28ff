//! `dbxl-stream`: one prepared `database-xl` book (2048 pages of 512
//! records, 1,048,576 records at full size) on RADram, and a long seeded
//! query stream: one 8-page `activate_pages` batch per query, issued from
//! the bench thread with the default page budget (one thread per core).
//!
//! Chosen as the executor-overhead corner: batch phases A/B/C and the
//! page-worker pool dominate, and the CPU and memory models do almost
//! nothing. Book generation and staging happen in set-up.
//!
//! `BENCHMARK.json` does not list this workload, so no gate rests on it:
//! every query hands work to a pool thread and waits for it, so a query
//! needs both cores of a 2-core virtual machine at once, and a hypervisor
//! that takes either core away for a moment stalls it. On such a host its
//! times follow the neighbours' load more than the program (see the
//! README).

use crate::measure::{host_cores, Rng, Tracer};
use crate::{digest, Bench, Iter, Options, Size, Workload};
use active_pages::parallel::PoolStats;
use active_pages::{sync, ActivePageMemory, GroupId, PAGE_SIZE};
use ap_apd::json::Value;
use ap_apps::database::xl::{RECORDS_PER_PAGE, TENANT_PAGES, TENANT_RECORDS};
use ap_apps::database::DatabaseSearchFn;
use ap_apps::ExecMode;
use ap_mem::VAddr;
use ap_workloads::database::{AddressBook, LAST_NAME_LEN, RECORD_BYTES};
use radram::{PageActivation, RadramConfig, System, SystemStats};
use std::sync::Arc;
use std::time::Instant;

/// The search engine's command word (`database`'s `CMD_SEARCH`).
const CMD_SEARCH: u32 = 1;

/// One query: count the records of `tenant` whose last name is `key`.
#[derive(Debug, Clone, Copy)]
struct Query {
    tenant: usize,
    key: [u32; 4],
}

/// The staged book and its query stream.
pub struct DbxlStream {
    sys: System,
    base: VAddr,
    queries: Vec<Query>,
    expected: Vec<u32>,
    digest: u64,
    fresh: bool,
}

fn key_words(field: &[u8; LAST_NAME_LEN]) -> [u32; 4] {
    std::array::from_fn(|w| {
        u32::from_le_bytes(field[w * 4..w * 4 + 4].try_into().expect("4-byte word"))
    })
}

impl Bench for DbxlStream {
    const WORKLOAD: Workload = Workload::DbxlStream;
    const NOMINAL_S: f64 = 0.1;

    fn setup(opts: &Options, into: &mut Iter) -> DbxlStream {
        // The default budget (the whole machine), published explicitly so
        // an earlier workload in the same process cannot leave its own.
        active_pages::parallel::set_thread_budget(host_cores());
        let (pages, stream) = match opts.size {
            Size::Full => (2048, 2048),
            Size::Tiny => (64, 64),
        };
        let t0 = Instant::now();
        let book = AddressBook::generate(opts.seed, pages * RECORDS_PER_PAGE);
        let tenants = pages / TENANT_PAGES;
        let mut rng = Rng::new(opts.seed, 2);
        let mut queries = Vec::with_capacity(stream);
        let mut expected = Vec::with_capacity(stream);
        for i in 0..stream {
            let tenant = rng.below(tenants);
            let field = if rng.below(4) != 0 {
                // A hit: the last name of one of the tenant's own records.
                book.last_name_field(tenant * TENANT_RECORDS + rng.below(TENANT_RECORDS))
            } else {
                // A miss: '#' never occurs in generated names.
                let mut f = [0u8; LAST_NAME_LEN];
                let miss = format!("#{i}");
                f[..miss.len()].copy_from_slice(miss.as_bytes());
                f
            };
            let lo = tenant * TENANT_RECORDS;
            let count = (lo..lo + TENANT_RECORDS).filter(|&r| book.last_name_field(r) == field);
            expected.push(count.count() as u32);
            queries.push(Query { tenant, key: key_words(&field) });
        }
        into.add("workloads.generate_s", t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let mut cfg = RadramConfig::reference();
        cfg.ram_capacity = (pages + 6) * PAGE_SIZE;
        let mut sys = System::radram_mode(cfg, ExecMode::Accurate);
        let group = GroupId::new(2);
        let base = sys.ap_alloc_pages(group, pages);
        sys.ap_bind(group, Arc::new(DatabaseSearchFn));
        let block = RECORDS_PER_PAGE * RECORD_BYTES;
        for p in 0..pages {
            sys.ram_write_bytes(
                base + (p * PAGE_SIZE + sync::BODY_OFFSET) as u64,
                &book.bytes()[p * block..(p + 1) * block],
            );
        }
        into.add("radram.stage_s", t0.elapsed().as_secs_f64());
        let digest = opts.digest.unwrap_or(match opts.size {
            Size::Full => digest::DBXL_STREAM,
            Size::Tiny => digest::DBXL_STREAM_TINY,
        });
        DbxlStream { sys, base, queries, expected, digest, fresh: true }
    }

    fn iterate(&mut self, tracer: &Tracer) -> Iter {
        let mut it = Iter::default();
        let before = self.sys.stats();
        let pool = active_pages::parallel::pool_stats();
        let mut batch = Vec::with_capacity(TENANT_PAGES);
        let (mut activate_s, mut wait_s) = (0.0, 0.0);
        radram::take_kernel_host_secs();
        let t0 = Instant::now();
        let k0 = self.sys.kernel_start();
        for (qi, q) in self.queries.iter().enumerate() {
            let start = Instant::now();
            let first = q.tenant * TENANT_PAGES;
            let page = |p: usize| self.base + (p * PAGE_SIZE) as u64;
            let sys = &mut self.sys;
            tracer.span("radram.activate", None, qi as u64, |_| {
                batch.clear();
                batch.extend((first..first + TENANT_PAGES).map(|p| {
                    let mut act = PageActivation::new(page(p), CMD_SEARCH)
                        .with_param(sync::PARAM, RECORDS_PER_PAGE as u32);
                    for (w, &kw) in q.key.iter().enumerate() {
                        act = act.with_param(sync::PARAM + 1 + w, kw);
                    }
                    act
                }));
                sys.activate_pages(&batch);
            });
            let activated = Instant::now();
            let count = tracer.span("radram.wait", None, qi as u64, |_| {
                let mut count = 0;
                for p in first..first + TENANT_PAGES {
                    sys.wait_done(page(p));
                    count += sys.read_ctrl(page(p), sync::RESULT);
                    sys.alu(2);
                }
                count
            });
            let done = Instant::now();
            activate_s += (activated - start).as_secs_f64();
            wait_s += (done - activated).as_secs_f64();
            it.latencies_ms.push((done - start).as_secs_f64() * 1e3);
            it.failed += u64::from(count != self.expected[qi]);
        }
        let kernel_cycles = self.sys.kernel_region(k0);
        it.close(t0);
        it.ops = self.queries.len() as u64;

        if self.fresh {
            // The first pass on a freshly staged system: every simulated
            // statistic but the per-query counts is independent of the seed.
            self.fresh = false;
            let text = format!("{kernel_cycles}|{:?}", self.sys.stats());
            let got = tracer.span("check", None, 0, |_| ap_engine::fnv1a(text.as_bytes()));
            if got != self.digest {
                eprintln!(
                    "dbxl-stream: simulated statistics digest {got:#018x}, recorded {:#018x}",
                    self.digest
                );
                it.failed = it.ops;
            }
        }
        account_batches(
            &mut it,
            &self.sys,
            (&before, pool),
            self.queries.len(),
            (activate_s, wait_s),
        );
        it
    }

    fn provenance(&self) -> Vec<(&'static str, Value)> {
        page_provenance()
    }
}

/// Adds one timed pass of page batches to the layer sums: the kernel
/// region's host time, the bench-timed activate and wait calls, and the
/// simulated-count and pool deltas since `before` and `pool`.
pub(crate) fn account_batches(
    it: &mut Iter,
    sys: &System,
    (before, pool): (&SystemStats, PoolStats),
    batches: usize,
    (activate_s, wait_s): (f64, f64),
) {
    let after = sys.stats();
    let pool_after = active_pages::parallel::pool_stats();
    it.add("radram.kernel_s", radram::take_kernel_host_secs());
    it.add("radram.batches", batches as f64);
    it.add("radram.activate_s", activate_s);
    it.add("radram.wait_s", wait_s);
    it.add("radram.activations", (after.activations - before.activations) as f64);
    it.add("cpu.instructions", (after.cpu.instructions - before.cpu.instructions) as f64);
    it.add("cpu.loads", (after.cpu.loads - before.cpu.loads) as f64);
    it.add("cpu.stores", (after.cpu.stores - before.cpu.stores) as f64);
    it.add("pool.batches", (pool_after.batches - pool.batches) as f64);
    it.add("pool.reuses", (pool_after.reuses - pool.reuses) as f64);
    it.add("pool.threads_spawned", (pool_after.threads_spawned - pool.threads_spawned) as f64);
}

/// Provenance of the workloads that drive a `System` from the bench thread.
pub(crate) fn page_provenance() -> Vec<(&'static str, Value)> {
    let threads =
        active_pages::parallel::effective_threads(active_pages::parallel::thread_budget());
    vec![
        ("engine_workers", Value::Num(0.0)),
        ("client_connections", Value::Num(0.0)),
        ("page_threads", Value::Num(threads as f64)),
    ]
}
