//! Processor statistics.

use ap_mem::MemStats;
use std::fmt;

/// Counters accumulated by a [`crate::Cpu`] during a run.
///
/// # Examples
///
/// ```
/// use ap_cpu::{Cpu, CpuConfig};
///
/// let mut cpu = Cpu::new(CpuConfig::reference(), 1 << 20);
/// cpu.alu(10);
/// let s = cpu.stats();
/// assert_eq!(s.instructions, 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuStats {
    /// Total elapsed cycles (the clock).
    pub cycles: u64,
    /// Instructions executed. The processor counts each operation once,
    /// in its class, and derives this total as the sum of integer
    /// (ALU, multiply, divide) operations — which have no field of their
    /// own — plus `loads`, `stores`, `branches`, `flops` and `mmx_ops`.
    /// Instruction fetches and stall cycles add nothing.
    pub instructions: u64,
    /// Data loads.
    pub loads: u64,
    /// Data stores.
    pub stores: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// MMX packed operations.
    pub mmx_ops: u64,
    /// Memory-hierarchy counters.
    pub mem: MemStats,
}

impl CpuStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        CpuStats {
            cycles: 0,
            instructions: 0,
            loads: 0,
            stores: 0,
            branches: 0,
            mispredicts: 0,
            flops: 0,
            mmx_ops: 0,
            mem: MemStats::new(),
        }
    }

    /// Instructions per cycle; zero when no cycles have elapsed.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

impl Default for CpuStats {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for CpuStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles {} | instrs {} (IPC {:.3}) | ld {} st {} | br {} (mp {}) | fp {} mmx {}",
            self.cycles,
            self.instructions,
            self.ipc(),
            self.loads,
            self.stores,
            self.branches,
            self.mispredicts,
            self.flops,
            self.mmx_ops
        )?;
        write!(f, "{}", self.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero() {
        let s = CpuStats::new();
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", CpuStats::new()).is_empty());
    }
}
