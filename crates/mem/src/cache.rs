//! Set-associative cache model.

use crate::stats::CacheStats;
use crate::VAddr;

/// Configuration of one cache level.
///
/// The reference machine (paper, Table 1) uses a 64 KB split L1 (2-way) and a
/// 1 MB unified L2 (4-way); Figure 5 varies the L1 data cache from 32 KB to
/// 256 KB and the L2 from 256 KB to 4 MB.
///
/// # Examples
///
/// ```
/// use ap_mem::CacheConfig;
///
/// let l1 = CacheConfig::new("L1D", 64 * 1024, 2, 32, 1);
/// assert_eq!(l1.sets(), 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable level name used in statistics ("L1D", "L2", ...).
    pub name: &'static str,
    /// Total capacity in bytes (power of two).
    pub size: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Access latency on a hit, in CPU cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Creates a cache configuration.
    ///
    /// # Panics
    ///
    /// Panics if `size` or `line` is not a power of two, if `assoc` is zero,
    /// or if the geometry does not yield at least one set.
    pub fn new(
        name: &'static str,
        size: usize,
        assoc: usize,
        line: usize,
        hit_latency: u64,
    ) -> Self {
        assert!(size.is_power_of_two(), "cache size must be a power of two");
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(assoc > 0, "associativity must be positive");
        assert!(size >= assoc * line, "cache must hold at least one set");
        CacheConfig { name, size, assoc, line, hit_latency }
    }

    /// Number of sets implied by the geometry.
    #[inline]
    pub fn sets(&self) -> usize {
        self.size / (self.assoc * self.line)
    }
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit in this cache.
    pub hit: bool,
    /// Base address of a dirty line that had to be written back to make room.
    pub writeback: Option<VAddr>,
}

#[derive(Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// Granularity of the residency filter consulted by
/// [`Cache::invalidate_range`]: valid-line counts are kept per 512 KiB
/// region so a range invalidation over a region holding no cached lines
/// skips the full line walk. 512 KiB matches the Active-Page size, the
/// range every activation invalidates.
const REGION_SHIFT: u32 = 19;

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// The cache is *timing-only*: it tracks which lines would be resident, but
/// the actual bytes always live in [`crate::SimRam`]. This matches the way the
/// reproduction drives the simulator — kernels perform real loads and stores
/// against real data while the hierarchy accounts for time.
///
/// # Examples
///
/// ```
/// use ap_mem::{Cache, CacheConfig, VAddr};
///
/// let mut c = Cache::new(CacheConfig::new("L1D", 1024, 2, 32, 1));
/// assert!(!c.access(VAddr::new(0), false).hit); // cold miss
/// assert!(c.access(VAddr::new(4), false).hit);  // same line
/// ```
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    line_shift: u32,
    /// `log2(sets)`: a block number shifted right by this is its tag.
    set_shift: u32,
    set_mask: u64,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
    /// Most-recent-line memo of [`Cache::probe_hit`]: the block it last hit
    /// and that line's index in `lines`. Only a hint — every use re-checks
    /// the line's `valid` bit and tag, so invalidation, flushes and
    /// evictions need not update it.
    last_block: u64,
    last_idx: usize,
    /// Valid-line count per `1 << REGION_SHIFT` byte address region, grown
    /// on demand. Kept exact by the fill/evict/invalidate paths; lets
    /// `invalidate_range` prove "nothing resident" without walking lines.
    resident: Vec<u32>,
}

impl std::fmt::Debug for Line {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Line")
            .field("tag", &self.tag)
            .field("valid", &self.valid)
            .field("dirty", &self.dirty)
            .finish()
    }
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two number of sets.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let line_shift = cfg.line.trailing_zeros();
        let set_mask = sets as u64 - 1;
        Cache {
            sets,
            line_shift,
            set_shift: sets.trailing_zeros(),
            set_mask,
            lines: vec![Line::default(); sets * cfg.assoc],
            tick: 0,
            stats: CacheStats::new(cfg.name),
            // A block no address maps to in practice. Block `u64::MAX` lies
            // in the last set, and so does the index, which keeps the memo
            // sound even if one did.
            last_block: u64::MAX,
            last_idx: set_mask as usize * cfg.assoc,
            resident: Vec::new(),
            cfg,
        }
    }

    /// Bumps the residency count of the region holding `addr`.
    #[inline]
    fn region_fill(&mut self, addr: u64) {
        let r = (addr >> REGION_SHIFT) as usize;
        if r >= self.resident.len() {
            self.resident.resize(r + 1, 0);
        }
        self.resident[r] += 1;
    }

    /// Drops one resident line from the region holding `addr`.
    #[inline]
    fn region_evict(&mut self, addr: u64) {
        self.resident[(addr >> REGION_SHIFT) as usize] -= 1;
    }

    /// Returns the configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new(self.cfg.name);
    }

    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.line_shift;
        ((block & self.set_mask) as usize, block >> self.set_shift)
    }

    /// Performs a read (`write == false`) or write (`write == true`) access.
    ///
    /// On a miss the line is allocated (write-allocate); if a dirty victim is
    /// evicted its base address is reported so the caller can charge the
    /// write-back to the next level.
    #[inline]
    pub fn access(&mut self, addr: VAddr, write: bool) -> AccessOutcome {
        self.tick += 1;
        let (set, tag) = self.index(addr.get());
        let base = set * self.cfg.assoc;
        let ways = &mut self.lines[base..base + self.cfg.assoc];

        // Hit path.
        for line in ways.iter_mut() {
            if line.valid && line.tag == tag {
                line.stamp = self.tick;
                line.dirty |= write;
                self.stats.hits += 1;
                self.stats.writes += write as u64;
                return AccessOutcome { hit: true, writeback: None };
            }
        }

        // Miss: pick LRU victim (an invalid way wins outright).
        let mut victim = 0;
        let mut best = u64::MAX;
        for (i, line) in ways.iter().enumerate() {
            if !line.valid {
                victim = i;
                break;
            }
            if line.stamp < best {
                best = line.stamp;
                victim = i;
            }
        }
        let line = &mut ways[victim];
        let evicted = if line.valid {
            let victim_block = (line.tag << self.set_shift) | set as u64;
            Some((victim_block << self.line_shift, line.dirty))
        } else {
            None
        };
        line.tag = tag;
        line.valid = true;
        line.dirty = write;
        line.stamp = self.tick;
        if let Some((victim_addr, _)) = evicted {
            self.region_evict(victim_addr);
        }
        self.region_fill(addr.get());
        let writeback = evicted.and_then(|(a, dirty)| dirty.then_some(VAddr::new(a)));
        self.stats.record_miss(write, writeback.is_some());
        AccessOutcome { hit: false, writeback }
    }

    /// One-probe hit check for the processor's L1 hot path.
    ///
    /// On a hit this performs *exactly* the bookkeeping [`Cache::access`]
    /// would (tick advance, LRU stamp, dirty bit, hit statistics) and
    /// returns `true`. On a miss it mutates **nothing** — no tick, no stats —
    /// so the caller can fall back to the full `access` path, which then
    /// performs the single canonical state update. This keeps fast-path and
    /// slow-path runs bit-identical in stats and replacement order.
    ///
    /// A repeat hit on the most recently probed line skips the way scan:
    /// the memoized line is re-verified (`valid` and tag) on every use, so
    /// it can never report a line that is no longer resident.
    #[inline(always)]
    pub fn probe_hit(&mut self, addr: VAddr, write: bool) -> bool {
        let block = addr.get() >> self.line_shift;
        let tag = block >> self.set_shift;
        let memo = &self.lines[self.last_idx];
        if block != self.last_block || !(memo.valid && memo.tag == tag) {
            let base = (block & self.set_mask) as usize * self.cfg.assoc;
            let ways = &self.lines[base..base + self.cfg.assoc];
            let Some(way) = ways.iter().position(|l| l.valid && l.tag == tag) else {
                return false;
            };
            self.last_block = block;
            self.last_idx = base + way;
        }
        self.tick += 1;
        let line = &mut self.lines[self.last_idx];
        line.stamp = self.tick;
        line.dirty |= write;
        self.stats.hits += 1;
        self.stats.writes += write as u64;
        true
    }

    /// Returns true if the line containing `addr` is resident.
    pub fn contains(&self, addr: VAddr) -> bool {
        let (set, tag) = self.index(addr.get());
        let base = set * self.cfg.assoc;
        self.lines[base..base + self.cfg.assoc].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates every resident line whose base address falls in
    /// `[start, start + len)`, discarding dirty data.
    ///
    /// Used when Active-Page logic mutates page bytes directly in DRAM: any
    /// cached copy the processor holds is stale afterwards. Returns the number
    /// of lines dropped.
    pub fn invalidate_range(&mut self, start: VAddr, len: u64) -> usize {
        let lo = start.get();
        let Some(hi) = lo.checked_add(len).filter(|&hi| hi > lo) else { return 0 };
        // Residency filter: when every region the range touches holds zero
        // valid lines — the steady state for activation-heavy workloads,
        // where the processor's cached footprint never overlaps the pages
        // it activates — the full line walk is skipped. This is what keeps
        // per-activation invalidation O(1) instead of O(sets × ways).
        let first = ((lo >> REGION_SHIFT) as usize).min(self.resident.len());
        let last = ((((hi - 1) >> REGION_SHIFT) + 1) as usize).min(self.resident.len());
        if self.resident[first..last].iter().all(|&c| c == 0) {
            return 0;
        }
        let mut dropped = 0;
        for set in 0..self.sets {
            let base = set * self.cfg.assoc;
            for way in 0..self.cfg.assoc {
                let line = &mut self.lines[base + way];
                if !line.valid {
                    continue;
                }
                let block = (line.tag << self.set_shift) | set as u64;
                let addr = block << self.line_shift;
                if addr >= lo && addr < hi {
                    line.valid = false;
                    line.dirty = false;
                    dropped += 1;
                    self.resident[(addr >> REGION_SHIFT) as usize] -= 1;
                }
            }
        }
        self.stats.invalidated += dropped as u64;
        dropped
    }

    /// Invalidates the entire cache contents (keeps statistics).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
            line.dirty = false;
        }
        self.resident.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets, 2 ways, 16-byte lines.
        Cache::new(CacheConfig::new("T", 128, 2, 16, 1))
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().sets(), 4);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        let a = VAddr::new(0x40);
        assert!(!c.access(a, false).hit);
        assert!(c.access(a, false).hit);
        assert!(c.access(a + 15, false).hit); // same line
        assert!(!c.access(a + 16, false).hit); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to set 0: addresses differ by sets*line = 64.
        let a = VAddr::new(0);
        let b = VAddr::new(64);
        let d = VAddr::new(128);
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // touch a so b is LRU
        c.access(d, false); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn writeback_reported_with_victim_address() {
        let mut c = small();
        let a = VAddr::new(0);
        let b = VAddr::new(64);
        let d = VAddr::new(128);
        c.access(a, true); // dirty
        c.access(b, false);
        let out = c.access(d, false); // evicts a (LRU, dirty)
        assert_eq!(out.writeback, Some(a));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.access(VAddr::new(0), false);
        c.access(VAddr::new(64), false);
        let out = c.access(VAddr::new(128), false);
        assert!(out.writeback.is_none());
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        let a = VAddr::new(0);
        c.access(a, false); // clean
        c.access(a, true); // now dirty via write hit
        c.access(VAddr::new(64), false);
        let out = c.access(VAddr::new(128), false);
        assert_eq!(out.writeback, Some(a));
    }

    #[test]
    fn invalidate_range_drops_lines() {
        let mut c = small();
        c.access(VAddr::new(0), true);
        c.access(VAddr::new(16), false);
        c.access(VAddr::new(32), false);
        let dropped = c.invalidate_range(VAddr::new(0), 32);
        assert_eq!(dropped, 2);
        assert!(!c.contains(VAddr::new(0)));
        assert!(!c.contains(VAddr::new(16)));
        assert!(c.contains(VAddr::new(32)));
    }

    #[test]
    fn invalidate_discards_dirty_state() {
        let mut c = small();
        let a = VAddr::new(0);
        c.access(a, true);
        c.invalidate_range(a, 16);
        // Refill and evict: no writeback expected because dirt was discarded.
        c.access(a, false);
        c.access(VAddr::new(64), false);
        let out = c.access(VAddr::new(128), false);
        assert!(out.writeback.is_none());
    }

    #[test]
    fn residency_filter_survives_eviction_churn() {
        let mut c = small();
        // Fill set 0 beyond capacity so lines evict (addresses 0, 64, 128
        // all index set 0 in the 4-set × 2-way geometry).
        for i in 0..8 {
            c.access(VAddr::new(i * 64), false);
        }
        // Exactly the two surviving ways must be dropped — an over-eager
        // filter would return 0, a stale one would double-count.
        assert_eq!(c.invalidate_range(VAddr::new(0), 1 << 19), 2);
        assert_eq!(c.invalidate_range(VAddr::new(0), 1 << 19), 0);
        // Refill after the drop: the filter must see the region as
        // populated again.
        c.access(VAddr::new(0), true);
        assert_eq!(c.invalidate_range(VAddr::new(0), 1 << 19), 1);
    }

    #[test]
    fn residency_filter_is_per_region() {
        let mut c = small();
        let far = VAddr::new(1 << 19); // second 512 KiB region, set 0
        c.access(far, false);
        // Invalidating the first region must not walk the second one away.
        assert_eq!(c.invalidate_range(VAddr::new(0), 1 << 19), 0);
        assert!(c.contains(far));
        assert_eq!(c.invalidate_range(far, 16), 1);
        assert!(!c.contains(far));
    }

    #[test]
    fn flush_resets_residency() {
        let mut c = small();
        c.access(VAddr::new(0), true);
        c.flush();
        assert_eq!(c.invalidate_range(VAddr::new(0), 1 << 19), 0);
        c.access(VAddr::new(0), false);
        assert_eq!(c.invalidate_range(VAddr::new(0), 1 << 19), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = small();
        c.access(VAddr::new(0), false);
        c.access(VAddr::new(0), false);
        c.access(VAddr::new(0), true);
        let s = c.stats();
        assert_eq!(s.accesses(), 3);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.writes, 1);
    }

    #[test]
    fn probe_hit_miss_mutates_nothing() {
        let mut c = small();
        assert!(!c.probe_hit(VAddr::new(0x40), true));
        assert_eq!(c.stats().accesses(), 0, "a probe miss must not count");
        assert_eq!(c.tick, 0, "a probe miss must not advance the LRU clock");
        assert!(!c.contains(VAddr::new(0x40)));
    }

    #[test]
    fn probe_hit_matches_access_bookkeeping() {
        // Drive one cache through probe_hit-then-access (the hierarchy's
        // fast path) and a twin through access only; every observable —
        // stats, dirty state, LRU victim choice — must agree.
        let mut fast = small();
        let mut slow = small();
        let seq: &[(u64, bool)] = &[
            (0, false),
            (0, true),   // write hit marks dirty
            (64, false), // same set
            (0, false),  // touch so 64 is LRU
            (128, false),
            (64, false), // re-miss: 64 must have been the victim
        ];
        for &(addr, write) in seq {
            let a = VAddr::new(addr);
            let fast_hit = if fast.probe_hit(a, write) { true } else { fast.access(a, write).hit };
            let slow_hit = slow.access(a, write).hit;
            assert_eq!(fast_hit, slow_hit, "hit/miss diverged at {addr:#x}");
        }
        assert_eq!(fast.stats().hits, slow.stats().hits);
        assert_eq!(fast.stats().misses, slow.stats().misses);
        assert_eq!(fast.stats().writes, slow.stats().writes);
        assert_eq!(fast.tick, slow.tick);
    }

    #[test]
    fn probe_then_access_matches_access_only_on_random_streams() {
        // The processor's hot path is probe_hit-then-access; the full path
        // is access alone. Over seeded random read/write streams with range
        // invalidations and flushes mixed in — the events that can leave
        // the probe's most-recent-line memo pointing at a line no longer
        // resident — both must agree on every outcome, every counter, the
        // LRU clock and residency after every step.
        let mut fast = small();
        let mut slow = small();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for step in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // 512 bytes: 32 lines over 4 sets of 2 ways, so most blocks
            // conflict and evictions are frequent.
            let addr = VAddr::new((x >> 8) % 512);
            match x % 64 {
                0 => {
                    let len = (x >> 20) % 96;
                    assert_eq!(
                        fast.invalidate_range(addr, len),
                        slow.invalidate_range(addr, len),
                        "step {step}: invalidate_range diverged"
                    );
                }
                1 => {
                    fast.flush();
                    slow.flush();
                }
                _ => {
                    let write = x & (1 << 40) != 0;
                    let got = if fast.probe_hit(addr, write) {
                        AccessOutcome { hit: true, writeback: None }
                    } else {
                        fast.access(addr, write)
                    };
                    assert_eq!(got, slow.access(addr, write), "step {step}: {addr:?} diverged");
                }
            }
            assert_eq!(fast.stats(), slow.stats(), "step {step}: stats diverged");
            assert_eq!(fast.tick, slow.tick, "step {step}: LRU clock diverged");
            for line in 0..32 {
                let a = VAddr::new(line * 16);
                assert_eq!(fast.contains(a), slow.contains(a), "step {step}: residency of {a:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_size() {
        Cache::new(CacheConfig::new("T", 100, 2, 16, 1));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small();
        c.access(VAddr::new(0), true);
        c.flush();
        assert!(!c.contains(VAddr::new(0)));
    }
}
