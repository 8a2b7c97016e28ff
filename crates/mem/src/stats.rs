//! Statistics gathered by the memory hierarchy.

use std::fmt;

/// Counters for one cache level.
///
/// # Examples
///
/// ```
/// use ap_mem::CacheStats;
///
/// let s = CacheStats::new("L1D");
/// assert_eq!(s.accesses(), 0);
/// assert_eq!(s.miss_rate(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Level name this belongs to.
    pub name: &'static str,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Write accesses (subset of hits + misses).
    pub writes: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Lines dropped by range invalidation.
    pub invalidated: u64,
}

impl CacheStats {
    /// Creates zeroed statistics for the named level.
    pub fn new(name: &'static str) -> Self {
        CacheStats { name, hits: 0, misses: 0, writes: 0, writebacks: 0, invalidated: 0 }
    }

    /// Records one missing access (hits are counted in place, on the hot
    /// path).
    #[inline]
    pub(crate) fn record_miss(&mut self, write: bool, writeback: bool) {
        self.misses += 1;
        self.writes += write as u64;
        self.writebacks += writeback as u64;
    }

    /// Total accesses (hits plus misses).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in `[0, 1]`; zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} accesses, {:.2}% miss, {} writebacks",
            self.name,
            self.accesses(),
            self.miss_rate() * 100.0,
            self.writebacks
        )
    }
}

/// Aggregate statistics for a whole [`crate::Hierarchy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemStats {
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// Unified L2 counters.
    pub l2: CacheStats,
    /// Number of DRAM line fills.
    pub dram_fills: u64,
    /// Number of DRAM line write-backs.
    pub dram_writebacks: u64,
    /// Number of uncached word accesses (synchronization variables).
    pub uncached: u64,
    /// Total cycles spent in the memory system (stall component).
    pub stall_cycles: u64,
}

impl MemStats {
    /// Creates zeroed aggregate statistics.
    pub fn new() -> Self {
        MemStats {
            l1i: CacheStats::new("L1I"),
            l1d: CacheStats::new("L1D"),
            l2: CacheStats::new("L2"),
            dram_fills: 0,
            dram_writebacks: 0,
            uncached: 0,
            stall_cycles: 0,
        }
    }
}

impl Default for MemStats {
    fn default() -> Self {
        MemStats::new()
    }
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.l1i)?;
        writeln!(f, "{}", self.l1d)?;
        writeln!(f, "{}", self.l2)?;
        write!(
            f,
            "DRAM: {} fills, {} writebacks, {} uncached, {} stall cycles",
            self.dram_fills, self.dram_writebacks, self.uncached, self.stall_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_rates() {
        let mut s = CacheStats::new("T");
        s.hits += 1;
        s.record_miss(true, true);
        assert_eq!(s.accesses(), 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.writebacks, 1);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        let s = MemStats::new();
        assert!(!format!("{s}").is_empty());
        assert!(!format!("{s:?}").is_empty());
    }
}
