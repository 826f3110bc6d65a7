//! Output correctness: result fingerprints and the per-run checker.
//!
//! Every operation's simulated result is reduced to a 64-bit FNV-1a
//! fingerprint over its exact values (f64s by their bits). An operation
//! fails when its fingerprint
//!
//! * differs from the value stored for its seed in `expected.tsv`,
//! * differs from an earlier run of the same cell in this process, or
//! * differs from the reference the workload computes after the timed
//!   phase on another path (full simulation, scalar kernels, or a
//!   one-shard fleet), or
//! * breaks an accounting invariant the workload checks on the spot.
//!
//! A mismatch against `expected.tsv` at a known-good commit is a bug to
//! report, never a value to overwrite.

use std::collections::HashMap;

use mrp_cache::{CacheStats, HierarchyStats};
use mrp_core::EngineStats;
use mrp_cpu::{MulticoreResult, SingleCoreResult};

/// Fingerprints stored with the benchmark: `workload seed id hex`.
const EXPECTED: &str = include_str!("../expected.tsv");

/// 64-bit FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        for byte in s.bytes() {
            self.u64(u64::from(byte));
        }
        self
    }

    pub fn cache(&mut self, s: &CacheStats) -> &mut Self {
        self.u64(s.demand_hits)
            .u64(s.demand_misses)
            .u64(s.bypasses)
            .u64(s.prefetch_hits)
            .u64(s.prefetch_fills)
            .u64(s.evictions)
    }

    pub fn hierarchy(&mut self, h: &HierarchyStats) -> &mut Self {
        self.cache(&h.l1d)
            .cache(&h.l2)
            .cache(&h.llc)
            .u64(h.instructions)
            .u64(h.prefetches_issued)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// IPC and MPKI bits, instructions, cycles and the full hierarchy stats.
pub fn single(r: &SingleCoreResult) -> u64 {
    Fingerprint::new()
        .f64(r.ipc)
        .f64(r.mpki)
        .u64(r.instructions)
        .u64(r.cycles)
        .hierarchy(&r.stats)
        .finish()
}

/// Every field of a multicore result.
pub fn multicore(r: &MulticoreResult) -> u64 {
    let mut fp = Fingerprint::new();
    for (&ipc, &instructions) in r.ipc.iter().zip(&r.instructions) {
        fp.f64(ipc).u64(instructions);
    }
    fp.u64(r.llc_misses).f64(r.mpki).finish()
}

/// Per-tenant engine statistics, tenant-id order.
pub fn engines(stats: &[EngineStats]) -> u64 {
    let mut fp = Fingerprint::new();
    for s in stats {
        fp.str(&s.label).u64(s.processed).cache(&s.llc);
        for &bin in s.confidence.iter().flatten() {
            fp.u64(bin);
        }
    }
    fp.finish()
}

/// The stored fingerprints of one workload at one seed, by cell id.
pub fn expected_for(workload: &str, seed: u64) -> HashMap<String, u64> {
    parse_expected(EXPECTED, workload, seed)
}

fn parse_expected(text: &str, workload: &str, seed: u64) -> HashMap<String, u64> {
    let mut out = HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields.len(), 4, "malformed expected.tsv line: {line:?}");
        if fields[0] != workload || fields[1].parse::<u64>().ok() != Some(seed) {
            continue;
        }
        let fp = u64::from_str_radix(fields[3], 16)
            .unwrap_or_else(|_| panic!("bad fingerprint in expected.tsv: {line:?}"));
        out.insert(fields[2].to_string(), fp);
    }
    out
}

#[derive(Debug, Clone, Copy)]
struct Observed {
    fp: u64,
    count: u64,
    failed: u64,
}

/// Counts attempted and failed operations for one run.
#[derive(Debug)]
pub struct Checker {
    expected: HashMap<String, u64>,
    observed: HashMap<String, Observed>,
    pub attempted: u64,
    pub failed: u64,
    /// Cells compared with a stored fingerprint.
    pub stored_checks: u64,
    /// Cells compared with a reference computed on another path.
    pub reference_checks: u64,
    notes: Vec<String>,
}

impl Checker {
    pub fn new(expected: HashMap<String, u64>) -> Self {
        Checker {
            expected,
            observed: HashMap::new(),
            attempted: 0,
            failed: 0,
            stored_checks: 0,
            reference_checks: 0,
            notes: Vec::new(),
        }
    }

    /// Checker loaded with the stored fingerprints for `workload` at `seed`.
    pub fn for_run(workload: &str, seed: u64) -> Self {
        Checker::new(expected_for(workload, seed))
    }

    fn note(&mut self, note: String) {
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    /// Records one attempted operation of cell `id` with result `fp`;
    /// `invariants_hold` carries the workload's on-the-spot checks.
    /// Returns whether the operation passed.
    pub fn op(&mut self, id: &str, fp: u64, invariants_hold: bool) -> bool {
        self.attempted += 1;
        let mut ok = invariants_hold;
        if !invariants_hold {
            self.note(format!("{id}: accounting invariant broken"));
        }
        if let Some(&want) = self.expected.get(id) {
            if want != fp {
                ok = false;
                self.note(format!("{id}: fingerprint {fp:016x}, stored {want:016x}"));
            }
        }
        let seen = self.observed.entry(id.to_string()).or_insert(Observed {
            fp,
            count: 0,
            failed: 0,
        });
        let first_fp = seen.fp;
        seen.count += 1;
        if first_fp != fp {
            ok = false;
        }
        if !ok {
            seen.failed += 1;
            self.failed += 1;
        }
        if first_fp != fp {
            self.note(format!(
                "{id}: {fp:016x} differs from an earlier run {first_fp:016x}"
            ));
        }
        ok
    }

    /// Compares a reference result for cell `id` with what
    /// the timed operations produced; on a mismatch every not-yet-failed
    /// operation of the cell fails.
    pub fn reference(&mut self, id: &str, fp: u64) {
        self.reference_checks += 1;
        match self.observed.get(id) {
            Some(seen) if seen.fp != fp => {
                let timed = seen.fp;
                self.fail_cell(id, format!("{timed:016x}, reference {fp:016x}"));
            }
            _ => {}
        }
    }

    /// Fails every not-yet-failed operation of cell `id`.
    pub fn fail_cell(&mut self, id: &str, reason: String) {
        if let Some(seen) = self.observed.get_mut(id) {
            self.failed += seen.count - seen.failed;
            seen.failed = seen.count;
        }
        self.note(format!("{id}: {reason}"));
    }

    /// Counts how many observed cells had a stored fingerprint.
    pub fn finish(&mut self) {
        self.stored_checks = self
            .observed
            .keys()
            .filter(|id| self.expected.contains_key(*id))
            .count() as u64;
        for note in &self.notes {
            eprintln!("# MISMATCH {note}");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_lines_parse_by_workload_and_seed() {
        let text = "# comment\nst-sweep\t1\ta/lru\t00ff\nst-sweep\t2\ta/lru\t0001\nfleet\t1\tround-1\tabc\n";
        let got = parse_expected(text, "st-sweep", 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got["a/lru"], 0xff);
    }

    #[test]
    fn stored_fingerprints_cover_both_recorded_seeds() {
        for seed in [crate::DEFAULT_SEED, crate::HELD_OUT_SEED] {
            let st = crate::st_sweep::TRACES.len() * crate::st_sweep::POLICIES.len();
            assert_eq!(expected_for("st-sweep", seed).len(), st);
            let mc = crate::mc_mix::MIXES * crate::mc_mix::POLICIES.len();
            assert_eq!(expected_for("mc-mix", seed).len(), mc);
            let fleet = crate::fleet::FLEETS * crate::fleet::ROUNDS;
            assert_eq!(expected_for("fleet", seed).len() as u64, fleet);
        }
    }

    #[test]
    fn stored_mismatch_fails_the_op() {
        let mut c = Checker::new(HashMap::from([("cell".to_string(), 1u64)]));
        assert!(!c.op("cell", 2, true));
        assert_eq!((c.attempted, c.failed), (1, 1));
    }

    #[test]
    fn reference_mismatch_fails_every_run_of_the_cell() {
        let mut c = Checker::new(HashMap::new());
        for _ in 0..3 {
            assert!(c.op("cell", 7, true));
        }
        assert!(c.op("other", 9, true));
        c.reference("cell", 8);
        c.reference("other", 9);
        assert_eq!((c.attempted, c.failed), (4, 3));
    }

    #[test]
    fn nondeterminism_and_broken_invariants_fail() {
        let mut c = Checker::new(HashMap::new());
        assert!(c.op("cell", 1, true));
        assert!(!c.op("cell", 2, true));
        assert!(!c.op("x", 3, false));
        assert_eq!(c.failed, 2);
    }
}
