//! The composed L1/L2/DRAM memory hierarchy.

use crate::cache::{Cache, CacheConfig};
use crate::dram::{Dram, DramConfig};
use crate::stats::MemStats;
use crate::VAddr;
use ap_trace::Subsystem::Mem as TRACE_MEM;

/// Emits one memory event stamped with the published simulated cycle
/// ([`ap_trace::cycle`], maintained by the clock owner). Self-gated: a
/// single relaxed atomic load when the `mem` subsystem is not traced.
#[inline]
fn trace_mem(kind: &'static str, a: u64, b: u64) {
    ap_trace::instant(TRACE_MEM, kind, ap_trace::cycle(), a, b);
}

/// Configuration for a full hierarchy.
///
/// Defaults follow Table 1 of the paper: 64 KB split L1 caches (2-way), a
/// 1 MB unified 4-way L2, and 50 ns DRAM latency.
///
/// # Examples
///
/// ```
/// use ap_mem::HierarchyConfig;
///
/// let mut cfg = HierarchyConfig::reference();
/// cfg.l1d.size = 32 * 1024; // the Figure 5 sweep's smallest point
/// assert_eq!(cfg.l1d.sets(), 512);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified second-level cache.
    pub l2: CacheConfig,
    /// DRAM timing.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// The paper's reference machine (Table 1).
    pub fn reference() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::new("L1I", 64 * 1024, 2, 32, 1),
            l1d: CacheConfig::new("L1D", 64 * 1024, 2, 32, 1),
            l2: CacheConfig::new("L2", 1024 * 1024, 4, 64, 10),
            dram: DramConfig::reference(),
        }
    }

    /// Reference machine with a different L1 data-cache size (Figure 5).
    pub fn with_l1d_size(size: usize) -> Self {
        let mut cfg = Self::reference();
        cfg.l1d.size = size;
        cfg
    }

    /// Reference machine with a different L2 size (Figure 5 discussion).
    pub fn with_l2_size(size: usize) -> Self {
        let mut cfg = Self::reference();
        cfg.l2.size = size;
        cfg
    }

    /// Reference machine with a different DRAM miss latency (Figure 8).
    pub fn with_miss_latency(latency: u64) -> Self {
        let mut cfg = Self::reference();
        cfg.dram = DramConfig::with_latency(latency);
        cfg
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::reference()
    }
}

/// A two-level cache hierarchy in front of DRAM.
///
/// All access methods return the cycle cost of the access; the caller (the
/// processor model) owns the clock and adds the cost to it. The hierarchy is
/// timing-only — data lives in [`crate::SimRam`].
///
/// # Examples
///
/// ```
/// use ap_mem::{Hierarchy, HierarchyConfig, VAddr};
///
/// let mut h = Hierarchy::new(HierarchyConfig::reference());
/// let a = VAddr::new(0x8000);
/// let miss = h.read(a);
/// assert_eq!(miss, 1 + 10 + h.config().dram.line_fill_cycles(64));
/// assert_eq!(h.read(a), 1);
/// ```
#[derive(Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dram: Dram,
    uncached: u64,
    stall_cycles: u64,
}

impl Hierarchy {
    /// Builds an empty hierarchy from the configuration.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Hierarchy {
            l1i: Cache::new(cfg.l1i.clone()),
            l1d: Cache::new(cfg.l1d.clone()),
            l2: Cache::new(cfg.l2.clone()),
            dram: Dram::new(cfg.dram),
            uncached: 0,
            stall_cycles: 0,
            cfg,
        }
    }

    /// Returns the configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Accesses through L2 (and DRAM on an L2 miss); returns added cycles.
    #[inline]
    fn l2_access(&mut self, addr: VAddr, write: bool) -> u64 {
        let out = self.l2.access(addr, write);
        trace_mem(if out.hit { "l2.hit" } else { "l2.miss" }, addr.get(), write as u64);
        let mut cycles = self.cfg.l2.hit_latency;
        if !out.hit {
            cycles += self.dram.fill(self.cfg.l2.line);
            trace_mem("dram.fill", addr.get(), self.cfg.l2.line as u64);
        }
        if let Some(victim) = out.writeback {
            cycles += self.dram.writeback(self.cfg.l2.line);
            trace_mem("dram.writeback", victim.get(), self.cfg.l2.line as u64);
        }
        cycles
    }

    /// One data-cache access shared by [`Self::read`] and [`Self::write`].
    #[inline]
    fn data_access(&mut self, addr: VAddr, write: bool) -> u64 {
        let out = self.l1d.access(addr, write);
        let mut cycles = self.cfg.l1d.hit_latency;
        if !out.hit {
            cycles += self.l2_access(addr, false);
        }
        if let Some(victim) = out.writeback {
            // Dirty L1 victim drains into L2 (write-allocate there too).
            cycles += self.l2_write_back(victim);
            trace_mem("l1d.writeback", victim.get(), 0);
        }
        self.stall_cycles += cycles.saturating_sub(self.cfg.l1d.hit_latency);
        if ap_trace::enabled(TRACE_MEM) {
            trace_mem(if out.hit { "l1d.hit" } else { "l1d.miss" }, addr.get(), write as u64);
            ap_trace::session::observe("mem.access_latency", cycles);
        }
        cycles
    }

    /// An L1 victim writing back into L2; charged as an L2 write.
    #[inline]
    fn l2_write_back(&mut self, victim: VAddr) -> u64 {
        let out = self.l2.access(victim, true);
        let mut cycles = 0;
        if !out.hit {
            // Allocate-on-writeback: fetch the rest of the L2 line.
            cycles += self.dram.fill(self.cfg.l2.line);
            trace_mem("dram.fill", victim.get(), self.cfg.l2.line as u64);
        }
        if let Some(v2) = out.writeback {
            cycles += self.dram.writeback(self.cfg.l2.line);
            trace_mem("dram.writeback", v2.get(), self.cfg.l2.line as u64);
        }
        cycles
    }

    /// Data load; returns cycle cost. Always the full path: L1D, then L2
    /// and DRAM on a miss, stall accounting and `mem` trace events.
    #[inline]
    pub fn read(&mut self, addr: VAddr) -> u64 {
        self.data_access(addr, false)
    }

    /// Data store; returns cycle cost. Same full path as [`Self::read`].
    #[inline]
    pub fn write(&mut self, addr: VAddr) -> u64 {
        self.data_access(addr, true)
    }

    /// The L1D hit fast path: `true` when the line is resident, in which
    /// case the access is complete and costs `l1d.hit_latency` cycles. It
    /// commits exactly the bookkeeping [`Self::read`]/[`Self::write`] would
    /// for that hit (an L1 hit adds no stall cycles), so stats and
    /// replacement state stay bit-identical. On `false` nothing changed and
    /// the caller takes the full path. Emits no `mem` trace events: callers
    /// use it only while that subsystem is untraced.
    #[inline(always)]
    pub fn l1d_hit(&mut self, addr: VAddr, write: bool) -> bool {
        self.l1d.probe_hit(addr, write)
    }

    /// Instruction fetch; returns cycle cost.
    #[inline]
    pub fn fetch(&mut self, addr: VAddr) -> u64 {
        let out = self.l1i.access(addr, false);
        let mut cycles = self.cfg.l1i.hit_latency;
        if !out.hit {
            cycles += self.l2_access(addr, false);
            trace_mem("l1i.miss", addr.get(), 0);
        }
        cycles
    }

    /// Uncached word access (Active-Page synchronization variables bypass the
    /// caches entirely); returns cycle cost.
    #[inline]
    pub fn uncached(&mut self) -> u64 {
        self.uncached += 1;
        let cycles = self.cfg.dram.uncached_cycles();
        self.stall_cycles += cycles;
        trace_mem("dram.uncached", 0, cycles);
        cycles
    }

    /// Drops every cached line that falls within `[start, start + len)`.
    ///
    /// Called when Active-Page logic mutates DRAM directly: the processor's
    /// cached copies of that page are stale.
    pub fn invalidate_range(&mut self, start: VAddr, len: u64) {
        self.l1d.invalidate_range(start, len);
        self.l2.invalidate_range(start, len);
    }

    /// Aggregate statistics snapshot.
    pub fn stats(&self) -> MemStats {
        let mut s = MemStats::new();
        s.l1i = self.l1i.stats().clone();
        s.l1d = self.l1d.stats().clone();
        s.l2 = self.l2.stats().clone();
        s.dram_fills = self.dram.fills();
        s.dram_writebacks = self.dram.writebacks();
        s.uncached = self.uncached;
        s.stall_cycles = self.stall_cycles;
        s
    }

    /// Resets all statistics (cache contents are preserved).
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.dram.reset_stats();
        self.uncached = 0;
        self.stall_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_miss_charges_all_levels() {
        let mut h = Hierarchy::new(HierarchyConfig::reference());
        let a = VAddr::new(0x10_0000);
        let c = h.read(a);
        // L1 hit latency + L2 hit latency + DRAM fill of the L2 line.
        assert_eq!(c, 1 + 10 + 50 + 16 * 10);
        assert_eq!(h.read(a), 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = Hierarchy::new(HierarchyConfig::reference());
        let a = VAddr::new(0);
        h.read(a);
        // Evict `a` from L1 by filling its set (2-way L1, set stride 32 KB).
        let stride = (64 * 1024 / 2) as u64;
        h.read(VAddr::new(stride));
        h.read(VAddr::new(2 * stride));
        // `a` should now hit in L2 but miss in L1.
        let c = h.read(a);
        assert_eq!(c, 1 + 10);
    }

    #[test]
    fn uncached_cost_is_constant() {
        let mut h = Hierarchy::new(HierarchyConfig::reference());
        assert_eq!(h.uncached(), 60);
        assert_eq!(h.uncached(), 60);
        assert_eq!(h.stats().uncached, 2);
    }

    #[test]
    fn invalidate_forces_re_miss() {
        let mut h = Hierarchy::new(HierarchyConfig::reference());
        let a = VAddr::new(0x4000);
        h.read(a);
        assert_eq!(h.read(a), 1);
        h.invalidate_range(VAddr::new(0x4000), 64);
        assert!(h.read(a) > 1);
    }

    #[test]
    fn write_then_evict_causes_writeback_traffic() {
        let mut h = Hierarchy::new(HierarchyConfig::reference());
        h.write(VAddr::new(0));
        let before = h.stats().l1d.writebacks;
        // Evict from the 2-way set.
        let stride = (64 * 1024 / 2) as u64;
        h.read(VAddr::new(stride));
        h.read(VAddr::new(2 * stride));
        assert_eq!(h.stats().l1d.writebacks, before + 1);
    }

    #[test]
    fn zero_latency_dram_still_charges_bus() {
        let mut h = Hierarchy::new(HierarchyConfig::with_miss_latency(0));
        let c = h.read(VAddr::new(0x9000));
        assert_eq!(c, 1 + 10 + 160);
    }

    #[test]
    fn fast_path_hit_skips_slow_machinery_but_keeps_costs() {
        let mut h = Hierarchy::new(HierarchyConfig::reference());
        let a = VAddr::new(0x2000);
        assert!(!h.l1d_hit(a, false), "cold line: the fast path declines");
        assert_eq!(h.stats().l1d.accesses(), 0, "a declined probe counts nothing");
        let miss = h.read(a);
        assert_eq!(miss, 1 + 10 + 50 + 16 * 10);
        // Resident line: the fast path answers and the books match the
        // full path exactly.
        assert!(h.l1d_hit(a, false));
        assert!(h.l1d_hit(a, true));
        let s = h.stats();
        assert_eq!(s.l1d.hits, 2);
        assert_eq!(s.l1d.misses, 1);
        assert_eq!(s.l1d.writes, 1);
        assert_eq!(s.stall_cycles, miss - 1, "hits add zero stall cycles");
        // The write hit marked the line dirty through the fast path: evict
        // it and the writeback must appear.
        let stride = (64 * 1024 / 2) as u64;
        h.read(VAddr::new(0x2000 + stride));
        h.read(VAddr::new(0x2000 + 2 * stride));
        assert_eq!(h.stats().l1d.writebacks, 1);
    }

    #[test]
    fn stats_reset() {
        let mut h = Hierarchy::new(HierarchyConfig::reference());
        h.read(VAddr::new(0));
        h.reset_stats();
        let s = h.stats();
        assert_eq!(s.l1d.accesses(), 0);
        assert_eq!(s.dram_fills, 0);
        // Contents preserved: the next read still hits.
        assert_eq!(h.read(VAddr::new(0)), 1);
    }
}
