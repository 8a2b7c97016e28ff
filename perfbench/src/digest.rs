//! Digests of the seed-independent simulated statistics, recorded from the
//! simulator as it stood when the benchmark was defined. A change that
//! alters any simulated cycle, checksum or `SystemStats` counter of these
//! workloads makes every operation of the affected iteration count as
//! failed; a change meant only to speed up the simulator must leave them
//! unchanged.

/// `fig-sweep` at full size: the 170 reports folded in key order.
pub const FIG_SWEEP: u64 = 0x36d1_e8c4_0101_0b7e;
/// `fig-sweep` at the tests' size.
pub const FIG_SWEEP_TINY: u64 = 0xd369_2ab0_9215_9ff6;
/// `dbxl-stream` at full size: the statistics of the first query pass on a
/// freshly staged system.
pub const DBXL_STREAM: u64 = 0xbd7a_9a59_7322_7460;
/// `dbxl-stream` at the tests' size.
pub const DBXL_STREAM_TINY: u64 = 0x3adb_d8f1_5a4f_b767;
