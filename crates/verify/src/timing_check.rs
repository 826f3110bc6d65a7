//! Timing-model lockstep: `mrp_cpu::CoreModel` (fixed window ring)
//! against [`ReferenceCoreModel`] (the `VecDeque` window it replaced).
//!
//! Each job draws a core shape — widths including non-powers of two,
//! windows from a few instructions (so nearly every retire stalls on a
//! full window) to the paper's 128 — and a fuzzed retire sequence:
//! `instructions` in 1..=256 (an access plus its `u8` gap, clamped to the
//! window by both models), latencies from an L1 hit to a DRAM miss, and
//! phases of dependent chains. After every retire the pass compares
//! `cycle`, `instructions`, `drained_cycles` and the bits of `ipc`, and
//! it resets both models' counters at random points, as the
//! warmup/measurement boundary does.

use mrp_cpu::{CoreModel, CoreModelConfig};
use mrp_runtime::map_indexed;

use crate::divergence::{Divergence, DivergenceReport};
use crate::fuzzer::SplitMix;
use crate::reference::ReferenceCoreModel;

/// Subject name in divergence reports.
const SUBJECT: &str = "core-model";

/// Retires checked per job.
const RETIRES_PER_JOB: usize = 20_000;

/// Job `job`'s core shape.
fn timing_config(seed: u64, job: usize) -> CoreModelConfig {
    let mut rng = SplitMix::new(seed ^ (job as u64).wrapping_mul(0x8ebc_6af0_9c88_c6e3));
    CoreModelConfig {
        width: [1, 2, 3, 4, 6, 8][rng.below(6) as usize],
        window: [1, 4, 16, 48, 128, 300][rng.below(6) as usize],
    }
}

/// Lockstep of one fuzz job over `retires` retires.
pub fn check_timing_job(seed: u64, job: usize, retires: usize) -> DivergenceReport {
    let config = timing_config(seed, job);
    let mut rng = SplitMix::new(seed ^ (job as u64).wrapping_mul(0x5851_f42d_4c95_7f2d));
    let mut fast = CoreModel::new(config);
    let mut reference = ReferenceCoreModel::new(config);
    let mut report = DivergenceReport::default();
    let mut chain_left = 0u64;
    for i in 0..retires {
        if rng.below(2_000) == 0 {
            fast.reset_counters();
            reference.reset_counters();
        }
        if chain_left == 0 && rng.below(16) == 0 {
            chain_left = 1 + rng.below(64);
        }
        let dependent = if chain_left > 0 {
            chain_left -= 1;
            true
        } else {
            rng.below(8) == 0
        };
        let instructions = 1 + rng.below(256) as u32;
        let latency = match rng.below(8) {
            0..=3 => 4,
            4 => 16,
            5 => 54,
            6 => 254,
            _ => rng.below(1_000),
        };
        fast.retire_access(instructions, latency, dependent);
        reference.retire_access(instructions, latency, dependent);
        let a = (
            fast.cycle(),
            fast.instructions(),
            fast.drained_cycles(),
            fast.ipc().to_bits(),
        );
        let b = (
            reference.cycle(),
            reference.instructions(),
            reference.drained_cycles(),
            reference.ipc().to_bits(),
        );
        if a != b {
            report.push(Divergence {
                access_index: i,
                access: None,
                subject: SUBJECT.to_string(),
                detail: format!(
                    "{config:?}: retire ({instructions}, {latency}, {dependent}) \
                     diverged: (cycle, instructions, drained, ipc bits) \
                     fast {a:?} vs reference {b:?}"
                ),
            });
            if report.saturated() {
                break;
            }
        }
    }
    report
}

/// The timing-model pass: one lockstep report per job, fanned out over
/// the `mrp-runtime` pool.
pub fn run_timing_check(seed: u64, jobs: usize) -> Vec<DivergenceReport> {
    map_indexed(jobs, |job| check_timing_job(seed, job, RETIRES_PER_JOB))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzzed_jobs_agree_across_core_shapes() {
        for job in 0..24 {
            let report = check_timing_job(9, job, 5_000);
            assert!(report.is_clean(), "job {job}:\n{report}");
        }
    }

    #[test]
    fn full_windows_stall_and_dependent_chains_serialize() {
        // A 4-instruction window with 4-instruction retires stalls on
        // every retire behind the previous miss.
        let config = CoreModelConfig {
            width: 4,
            window: 4,
        };
        let mut fast = CoreModel::new(config);
        let mut reference = ReferenceCoreModel::new(config);
        for i in 0..100 {
            fast.retire_access(4, 200, i % 3 == 0);
            reference.retire_access(4, 200, i % 3 == 0);
            assert_eq!(fast.cycle(), reference.cycle());
            assert_eq!(fast.drained_cycles(), reference.drained_cycles());
        }
        assert!(fast.cycle() >= 99 * 200);
    }
}
