//! Cycle-accounting parameters for the Table 3 experiment.
//!
//! The paper's timing experiment (§3.2, "Comparing DP with RP in greater
//! detail") runs sim-outorder with a 4-wide issue, charges a constant 100
//! cycles per unhidden TLB miss, and services prefetch/state-maintenance
//! operations from main memory at 50 cycles each. [`TimingParams`]
//! centralises those constants so the timing engine, the benchmark and the
//! tests agree on them.

use serde::{Deserialize, Serialize};

/// Constants of the cycle model.
///
/// # Examples
///
/// ```
/// use tlbsim_mem::TimingParams;
///
/// let t = TimingParams::paper_default();
/// assert_eq!(t.tlb_miss_penalty, 100);
/// assert_eq!(t.memory_op_cost, 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Cycles the CPU stalls on a TLB miss served from the page table
    /// (the paper assumes a constant 100-cycle penalty).
    pub tlb_miss_penalty: u64,
    /// Cycles per memory operation on the prefetch channel: prefetch
    /// fetches and RP's pointer updates (50 in the paper).
    pub memory_op_cost: u64,
    /// Instructions issued per cycle by the ideal pipeline (sim-outorder
    /// is run with a 4-issue width).
    pub issue_width: u64,
    /// Instructions modelled per data reference; SPEC integer/FP codes
    /// average roughly one data reference per three instructions, which
    /// is how a reference-driven simulation is scaled back to
    /// instruction counts.
    pub instructions_per_access: u64,
    /// Additional non-TLB cycles per data reference, standing in for the
    /// cache-miss and pipeline stalls a full sim-outorder model would
    /// charge. Without this the TLB's share of execution time would be
    /// wildly inflated relative to the paper's Table 3 baseline.
    pub overhead_per_access: f64,
}

impl TimingParams {
    /// The paper's constants: 100-cycle miss penalty, 50-cycle memory
    /// operations, 4-wide issue.
    pub fn paper_default() -> Self {
        TimingParams {
            tlb_miss_penalty: 100,
            memory_op_cost: 50,
            issue_width: 4,
            instructions_per_access: 3,
            overhead_per_access: 5.25,
        }
    }

    /// Pipeline + non-TLB memory cycles per data reference.
    pub fn cycles_per_access(&self) -> f64 {
        self.instructions_per_access as f64 / self.issue_width as f64 + self.overhead_per_access
    }

    /// Base cycles for `accesses` data references, excluding all
    /// TLB-related stalls.
    pub fn base_cycles(&self, accesses: u64) -> f64 {
        accesses as f64 * self.cycles_per_access()
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let t = TimingParams::paper_default();
        assert_eq!(t.tlb_miss_penalty, 100);
        assert_eq!(t.memory_op_cost, 50);
        assert_eq!(t.issue_width, 4);
    }

    #[test]
    fn base_cycles_combines_issue_and_overhead() {
        let t = TimingParams::paper_default();
        // 3 instr / 4-wide = 0.75, plus 5.25 overhead = 6.0 per access
        // (a CPI of ~2, in sim-outorder-with-caches territory).
        assert!((t.cycles_per_access() - 6.0).abs() < 1e-12);
        assert!((t.base_cycles(10) - 60.0).abs() < 1e-9);
        assert_eq!(t.base_cycles(0), 0.0);
    }
}
