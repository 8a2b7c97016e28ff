//! `wide-pages`: `activate_group` rounds over hundreds of 512 KB pages
//! (512 at full size) running a compute-dense page function this
//! benchmark defines. Page bodies are filled from the seed during set-up,
//! so first-touch faults land in `setup_s`, not in the timed rounds.
//!
//! Chosen as the opposite corner of the batch layer from `dbxl-stream`:
//! here each page function runs for hundreds of microseconds, so parallel
//! page execution should win. A change that speeds up `dbxl-stream` by
//! giving up parallelism shows here.

use crate::dbxl::{account_batches, page_provenance};
use crate::measure::{host_cores, Rng, Tracer};
use crate::{Bench, Iter, Options, Size, Workload};
use active_pages::{
    sync, ActivePageMemory, Execution, GroupId, PageFunction, PageSlice, PAGE_SIZE,
};
use ap_apd::json::Value;
use ap_apps::ExecMode;
use ap_mem::VAddr;
use radram::{RadramConfig, System};
use std::sync::Arc;
use std::time::Instant;

/// Mixing rounds per 64-bit body word.
const ROUNDS: u32 = 8;
/// Command word that starts the function.
const CMD_MIX: u32 = 1;
const GROUP: GroupId = GroupId::new(3);

/// The page function: a serial multiply-rotate hash over every body word,
/// published in the two `RESULT` words. One logic cycle per word and
/// round.
#[derive(Debug)]
pub struct MixFn;

/// The hash [`MixFn`] computes over a page body; the host recomputes it to
/// check the simulated results.
pub fn mix(body: &[u8]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for word in body.chunks_exact(8) {
        let mut x = u64::from_le_bytes(word.try_into().expect("8-byte word"));
        for _ in 0..ROUNDS {
            x = (x ^ h).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
        }
        h = h.wrapping_add(x);
    }
    h
}

impl PageFunction for MixFn {
    fn name(&self) -> &'static str {
        "perfbench-mix"
    }

    fn logic_elements(&self) -> u32 {
        // Not a synthesized circuit; sized to fit the 256 logic elements a
        // RADram page provides.
        200
    }

    fn footprint(&self) -> active_pages::StaticFootprint {
        ap_apps::read_body_footprint()
    }

    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        let h = mix(page.slice(sync::BODY_OFFSET, sync::BODY_SIZE));
        page.set_ctrl(sync::RESULT, h as u32);
        page.set_ctrl(sync::RESULT + 1, (h >> 32) as u32);
        page.set_ctrl(sync::STATUS, sync::DONE);
        Execution::run((sync::BODY_SIZE / 8) as u64 * u64::from(ROUNDS))
    }
}

/// The seeded body of page `p`.
fn body(seed: u64, p: usize, buf: &mut [u8]) {
    let mut rng = Rng::new(seed, 1000 + p as u64);
    for word in buf.chunks_exact_mut(8) {
        word.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
}

/// The staged pages.
pub struct WidePages {
    sys: System,
    base: VAddr,
    pages: usize,
    rounds: usize,
    seed: u64,
    expected: Option<Vec<u64>>,
}

impl Bench for WidePages {
    const WORKLOAD: Workload = Workload::WidePages;
    const NOMINAL_S: f64 = 1.2;

    fn setup(opts: &Options, into: &mut Iter) -> WidePages {
        active_pages::parallel::set_thread_budget(host_cores());
        let (pages, rounds) = match opts.size {
            Size::Full => (512, 4),
            Size::Tiny => (8, 2),
        };
        let mut cfg = RadramConfig::reference();
        cfg.ram_capacity = (pages + 6) * PAGE_SIZE;
        let mut sys = System::radram_mode(cfg, ExecMode::Accurate);
        let base = sys.ap_alloc_pages(GROUP, pages);
        sys.ap_bind(GROUP, Arc::new(MixFn));
        let mut buf = vec![0u8; sync::BODY_SIZE];
        let (mut generate_s, mut stage_s) = (0.0, 0.0);
        for p in 0..pages {
            let t0 = Instant::now();
            body(opts.seed, p, &mut buf);
            let t1 = Instant::now();
            sys.ram_write_bytes(base + (p * PAGE_SIZE + sync::BODY_OFFSET) as u64, &buf);
            generate_s += (t1 - t0).as_secs_f64();
            stage_s += t1.elapsed().as_secs_f64();
        }
        into.add("workloads.generate_s", generate_s);
        into.add("radram.stage_s", stage_s);
        WidePages { sys, base, pages, rounds, seed: opts.seed, expected: None }
    }

    fn iterate(&mut self, tracer: &Tracer) -> Iter {
        let mut it = Iter::default();
        let before = self.sys.stats();
        let pool = active_pages::parallel::pool_stats();
        let mut results = vec![0u64; self.pages * self.rounds];
        let (mut activate_s, mut wait_s) = (0.0, 0.0);
        radram::take_kernel_host_secs();
        let t0 = Instant::now();
        let k0 = self.sys.kernel_start();
        for (r, out) in results.chunks_exact_mut(self.pages).enumerate() {
            let start = Instant::now();
            let sys = &mut self.sys;
            tracer.span("radram.activate", None, r as u64, |_| sys.activate_group(GROUP, CMD_MIX));
            let activated = Instant::now();
            tracer.span("radram.wait", None, r as u64, |_| {
                for (p, slot) in out.iter_mut().enumerate() {
                    let page = self.base + (p * PAGE_SIZE) as u64;
                    sys.wait_done(page);
                    let lo = sys.read_ctrl(page, sync::RESULT);
                    let hi = sys.read_ctrl(page, sync::RESULT + 1);
                    *slot = u64::from(lo) | u64::from(hi) << 32;
                    // A page activation's latency: from the call that
                    // started it until its result is read.
                    it.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
            });
            let done = Instant::now();
            activate_s += (activated - start).as_secs_f64();
            wait_s += (done - activated).as_secs_f64();
        }
        self.sys.kernel_region(k0);
        it.close(t0);
        it.ops = results.len() as u64;

        let (seed, pages) = (self.seed, self.pages);
        let expected = tracer.span("check", None, 0, |_| {
            self.expected.get_or_insert_with(|| {
                let mut buf = vec![0u8; sync::BODY_SIZE];
                (0..pages)
                    .map(|p| {
                        body(seed, p, &mut buf);
                        mix(&buf)
                    })
                    .collect()
            })
        });
        for round in results.chunks_exact(self.pages) {
            it.failed += round.iter().zip(expected.iter()).filter(|(a, b)| a != b).count() as u64;
        }
        account_batches(&mut it, &self.sys, (&before, pool), self.rounds, (activate_s, wait_s));
        it
    }

    fn provenance(&self) -> Vec<(&'static str, Value)> {
        page_provenance()
    }
}
